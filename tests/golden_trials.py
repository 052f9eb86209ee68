"""The reference trials behind the golden-trajectory fingerprints.

Shared between the regression tests (tests/test_golden_trajectories.py)
and the regeneration script (tests/golden/regenerate.py) so that both
always run *exactly* the same scenario.  Every golden trial is a
``golden-*`` entry in :mod:`repro.scenarios.registry` — this module
only looks the scenario up, swaps the physics path in, and (for the
chaos golden) scores the SLO report; there is deliberately no other
way to build a golden, so the committed fingerprints can never drift
from the registered definitions.

All trials run in network mode, where macro-stepped physics never
engages (radio events arrive every couple of seconds, below the macro
threshold) — so the macro and reference physics paths must produce
bit-identical trajectories, and a single committed fingerprint checks
both.
"""

import json
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Dict, List

from repro.analysis.slo import SloBudgets, SloReport, score_system
from repro.core.system import BubbleZero
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Horizon of the hvac/network trials — truncated from the paper's full
#: durations to keep the suite fast; the window still covers the 14:05
#: door event (trial A) and two periodic disturbances (trial C).
#: Mirrors the registered scenarios' horizon.
TRIAL_MINUTES = 75.0

#: SLO scoring shape of the chaos golden (golden-chaos-quick is a
#: 20-minute run: three 5-minute windows after a 5-minute warmup).
CHAOS_SLO_WINDOW_S = 300.0
CHAOS_SLO_WARMUP_S = 300.0


def golden_scenarios() -> Dict[str, str]:
    """Every registered golden trial: fingerprint key -> scenario name.

    The key is the committed NPZ stem (``golden-hvac-va`` ->
    ``hvac_va``), so the registry is the single source of truth for
    which fingerprints must exist.
    """
    return {name[len("golden-"):].replace("-", "_"): name
            for name in scenario_names() if name.startswith("golden-")}


def run_golden_trial(key: str, macro: bool = True,
                     obs=None) -> BubbleZero:
    """Run one registered golden trial on the chosen physics path."""
    spec = get_scenario(golden_scenarios()[key])
    spec = replace(spec, config=replace(spec.config,
                                        physics_macro_step=macro))
    return run_scenario(spec, obs=obs)


def chaos_quick_slo(system: BubbleZero) -> SloReport:
    """The SLO report of a finished, observed golden-chaos-quick run,
    at the fixed scoring shape of the committed chaos_slo.json."""
    return score_system(system, "golden-chaos-quick",
                        window_s=CHAOS_SLO_WINDOW_S,
                        budgets=SloBudgets(),
                        warmup_s=CHAOS_SLO_WARMUP_S)


def run_hvac_trial(macro: bool = True) -> BubbleZero:
    """Paper §V-A style: phase-two occupancy/door events, BT-ADPT radio."""
    return run_golden_trial("hvac_va", macro)


def run_network_trial(macro: bool = True) -> BubbleZero:
    """Paper §V-C style: periodic disturbances against BT-ADPT."""
    return run_golden_trial("network_vc", macro)


#: key -> callable(macro=...) for every registered golden trial.
TRIALS = {key: partial(run_golden_trial, key)
          for key in golden_scenarios()}


#: The study CLI invocations whose reports are pinned byte for byte as
#: ``golden/study_<name>.{json,md}`` (plus ``study_chaos.jsonl``).  The
#: CLI tests run exactly these and regenerate.py replays them, so the
#: goldens cost tier-1 no extra simulation time.
STUDY_ARGS = {
    "campaign": ["campaign", "--quick", "--only", "stuck-*",
                 "--minutes", "6", "--warmup-minutes", "2",
                 "--workers", "1"],
    "sweep": ["sweep", "--seeds", "2", "--minutes", "2",
              "--warmup-minutes", "1", "--workers", "1"],
    "chaos": ["chaos", "--scenario", "chaos-quick", "--hours", "0.2",
              "--seeds", "1", "--seed-base", "1",
              "--hazard", "quick", "--rate-scale", "3",
              "--window-minutes", "3", "--warmup-minutes", "3"],
    "bakeoff": ["bakeoff", "--seeds", "1", "--minutes", "6",
                "--warmup-minutes", "1", "--window-minutes", "2",
                "--workers", "2"],
}

#: Manifest fields that describe the host, not the study; stripped
#: before comparison.  ``config_hash`` stays: it is the dedupe key.
HOST_FIELDS = ("git_rev", "packages", "platform", "cpu_count")


def study_argv(study: str, out_dir: Path) -> List[str]:
    """The pinned invocation of ``study``, writing its reports into
    ``out_dir`` as ``<study>.json`` / ``.md`` (and ``.jsonl``)."""
    argv = STUDY_ARGS[study] + ["--json", str(out_dir / f"{study}.json"),
                                "--report", str(out_dir / f"{study}.md")]
    if study == "chaos":
        argv += ["--jsonl", str(out_dir / f"{study}.jsonl")]
    return argv


def _dump(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def study_outputs(study: str, out_dir: Path) -> Dict[str, str]:
    """The reports a :func:`study_argv` run wrote, keyed by suffix, with
    the manifest's host fields stripped from the JSON.

    The JSON writer's output is canonical (sorted keys, indent 2), so
    re-serialising the stripped document leaves every other byte as
    written; the round trip is checked before anything is stripped.
    """
    raw = (out_dir / f"{study}.json").read_text(encoding="utf-8")
    report = json.loads(raw)
    if _dump(report) != raw:
        raise AssertionError(f"{study}.json is not in canonical form")
    for field in HOST_FIELDS:
        del report["manifest"][field]
    outputs = {"json": _dump(report)}
    for suffix in ("md", "jsonl"):
        path = out_dir / f"{study}.{suffix}"
        if path.exists():
            outputs[suffix] = path.read_text(encoding="utf-8")
    return outputs


def study_goldens(study: str) -> Dict[str, str]:
    """The committed goldens of ``study``, in :func:`study_outputs`
    form."""
    return {path.suffix[1:]: path.read_text(encoding="utf-8")
            for path in sorted(GOLDEN_DIR.glob(f"study_{study}.*"))}
