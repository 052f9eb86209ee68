"""Regenerate the golden fingerprints, the chaos SLO report, the
paper-va trace-summary seed, and the study report goldens.

Run from the repository root after an *intentional* behaviour change:

    PYTHONPATH=src:. python tests/golden/regenerate.py

then review the diff in the accompanying test run and commit the new
files together with the change that motivated them.  Never regenerate
to silence a failure you cannot explain.

Every golden comes from a ``golden-*`` entry in
:mod:`repro.scenarios.registry`, resolved through
``tests/golden_trials.py`` — this script never assembles a scenario by
hand, so the committed artifacts always match the registered
definitions that the tests replay.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.analysis.fingerprint import (  # noqa: E402
    save_fingerprint,
    trajectory_fingerprint,
)
from repro.obs import create_observability  # noqa: E402
from tests.golden_trials import (  # noqa: E402
    GOLDEN_DIR,
    STUDY_ARGS,
    chaos_quick_slo,
    golden_scenarios,
    run_golden_trial,
    study_argv,
    study_outputs,
)


def main() -> int:
    for key, scenario in sorted(golden_scenarios().items()):
        print(f"running {scenario} (reference physics)...", flush=True)
        system = run_golden_trial(key, macro=False)
        fingerprint = trajectory_fingerprint(system)
        path = GOLDEN_DIR / f"{key}.npz"
        save_fingerprint(path, fingerprint)
        print(f"  wrote {path} (hash {fingerprint['discrete_hash'][:16]})")

    # The chaos golden additionally pins the scored SLO report.  It is
    # produced from an *observed* replay of the same scenario — the
    # fingerprint above came from a blind one, which the equivalence
    # tests exploit: both replays must hash identically.
    print("scoring golden-chaos-quick SLO report...", flush=True)
    system = run_golden_trial("chaos_quick", macro=False,
                              obs=create_observability())
    report = chaos_quick_slo(system).report_dict()
    path = GOLDEN_DIR / "chaos_slo.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {path} ({report['totals']['windows']} windows, "
          f"{report['totals']['faults']} faults)")

    # The trace-summary golden is the seed side of the `repro trace
    # --diff` regression gate.  It is produced through the CLI with the
    # exact command the trace-smoke CI job runs, so the committed seed
    # and the candidate it is diffed against share one code path.
    from repro.cli import main as cli_main  # noqa: E402

    print("regenerating paper-va trace summary (CLI, 45 min)...",
          flush=True)
    path = GOLDEN_DIR / "trace_summary_paper_va.json"
    with tempfile.TemporaryDirectory() as tmp:
        rc = cli_main(["run", "--scenario", "paper-va", "--minutes", "45",
                       "--telemetry", tmp, "--trace"])
        if rc:
            return rc
        rc = cli_main(["trace", "--telemetry", tmp,
                       "--save-summary", str(path)])
        if rc:
            return rc
    print(f"  wrote {path}")

    # The study goldens pin the campaign, sweep, chaos and bake-off
    # reports byte for byte, produced through the CLI with exactly the
    # invocations the CLI tests run.
    for study in STUDY_ARGS:
        print(f"running the {study} study (CLI)...", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            rc = cli_main(study_argv(study, Path(tmp)))
            if rc:
                return rc
            outputs = study_outputs(study, Path(tmp))
        for suffix, text in outputs.items():
            path = GOLDEN_DIR / f"study_{study}.{suffix}"
            path.write_text(text, encoding="utf-8")
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
