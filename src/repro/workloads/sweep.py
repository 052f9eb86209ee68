"""Multi-seed sweeps: the same trial replicated across seeds.

Aswani et al. (PAPERS.md) argue controller comparisons need replicated
runs with statistical aggregation, and Gluck et al. that trade-off
studies only become trustworthy with large swept matrices.  A sweep is
the replication primitive: one trial configuration executed once per
seed (fanned out over :mod:`repro.runtime.pool`), with the paper
metrics of every replicate aggregated to mean/stddev/min/max.

Like every study preset, the sweep only builds its specs
(:func:`sweep_specs`) and merges their payloads (:func:`merge_sweep`);
:func:`~repro.workloads.study.run_study` runs them, so the aggregated
report is byte-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.runtime.pool import RunPayload
from repro.runtime.spec import (
    BatchRunResult,
    RunFailure,
    RunResult,
    RunSpec,
)
from repro.scenarios.registry import get_scenario
from repro.workloads.study import Study, run_study, split_payloads


@dataclass(frozen=True)
class SweepConfig:
    """One trial shape, replicated across ``seeds``."""

    seeds: Tuple[int, ...]
    run_minutes: float = 105.0
    warmup_minutes: float = 30.0
    script: str = "none"
    direct: bool = False
    fixed_tx: bool = False
    # Decision law for every replicate (see repro.control.policy).
    controller: str = "pid"
    # Shard the seeds into consecutive groups of this size, each run as
    # one :class:`~repro.runtime.lockstep.LockstepBatch` (first seed of
    # a group = bit-exact master lane, the rest replica lane).  Groups
    # still fan out over the process pool, so it composes with
    # ``workers``.  None = one independent run per seed (the default).
    lockstep_batch: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("sweep seeds must be unique")
        if self.run_minutes <= 0:
            raise ValueError("sweep runs must have positive length")
        if not 0 <= self.warmup_minutes < self.run_minutes:
            raise ValueError("warmup must fit inside the run")
        from repro.control.policy import controller_names
        if self.controller not in controller_names():
            raise ValueError(
                f"unknown controller {self.controller!r}; known: "
                f"{', '.join(sorted(controller_names()))}")
        if self.lockstep_batch is not None:
            if self.lockstep_batch < 2:
                raise ValueError("lockstep batch must be at least 2 seeds")
            if not self.direct:
                raise ValueError(
                    "lockstep batching requires a direct (wired) sweep")
            if self.script != "none":
                raise ValueError(
                    "lockstep batching requires a scriptless sweep")
            if self.controller != "pid":
                raise ValueError(
                    "lockstep batching transcribes the reference pid "
                    "law; run other controllers unbatched")


@dataclass
class SweepResult:
    """Per-seed metric rows plus their aggregate statistics."""

    config: SweepConfig
    runs: List[RunResult] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    # Provenance block (repro.obs.manifest); deterministic within a
    # checkout, so serial-vs-pooled byte identity is preserved.
    manifest: Optional[Dict[str, object]] = None

    @property
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        return aggregate_metrics([run.metrics for run in self.runs])

    def report_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-serialisable sweep report."""
        return {
            "manifest": self.manifest,
            **asdict(self.config),
            "runs": [
                {
                    "label": run.label,
                    "discrete_hash": run.discrete_hash,
                    "metrics": dict(sorted(run.metrics.items())),
                }
                for run in self.runs
            ],
            "aggregates": self.aggregates,
            "failures": [failure.report_row()
                         for failure in self.failures],
        }


def sweep_specs(config: SweepConfig,
                telemetry: bool = False,
                trace: bool = False) -> List[RunSpec]:
    """One spec per seed — or per lockstep group — in seed order.

    Every replicate is the registry's ``sweep-default`` scenario with
    the per-seed config and the sweep's trial-shape overrides swapped
    in, so the sweep and the registry can never drift apart.  With
    ``lockstep_batch`` set, consecutive seeds are sharded into groups
    of that size and each group becomes one lockstep RunSpec (a
    trailing group of one seed degrades to a plain solo spec).
    """
    base = get_scenario("sweep-default")
    network = NetworkConfig(
        enabled=not config.direct,
        bt_mode="fixed" if config.fixed_tx else "adaptive")

    def scenario_for(seed: int, name: str):
        return replace(
            base, name=name,
            config=BubbleZeroConfig(seed=seed, network=network),
            script=config.script,
            controller=config.controller,
            run_minutes=config.run_minutes,
            warmup_minutes=config.warmup_minutes)

    if config.lockstep_batch is None:
        return [
            RunSpec(label=f"seed-{seed}",
                    scenario=scenario_for(seed, f"seed-{seed}"),
                    telemetry=telemetry, trace=trace)
            for seed in config.seeds
        ]
    size = config.lockstep_batch
    specs: List[RunSpec] = []
    for start in range(0, len(config.seeds), size):
        group = config.seeds[start:start + size]
        if len(group) == 1:
            specs.append(RunSpec(
                label=f"seed-{group[0]}",
                scenario=scenario_for(group[0], f"seed-{group[0]}"),
                telemetry=telemetry, trace=trace))
            continue
        label = f"seeds-{group[0]}-{group[-1]}"
        specs.append(RunSpec(
            label=label,
            scenario=scenario_for(group[0], label),
            telemetry=telemetry, trace=trace,
            lockstep_seeds=tuple(group)))
    return specs


def sweep_study(config: SweepConfig, telemetry: bool = False,
                trace: bool = False) -> Study:
    """The sweep as a :class:`~repro.workloads.study.Study`."""
    specs = sweep_specs(config, telemetry=telemetry, trace=trace)
    return Study(
        command="sweep",
        specs=specs,
        lines=[f"run {spec.label} ({config.run_minutes:g} min)"
               for spec in specs],
        config_dict=asdict(config),
        seed=config.seeds[0],
        extra={"controller": config.controller})


def merge_sweep(config: SweepConfig,
                payloads: Sequence[RunPayload]) -> SweepResult:
    """Fold executor payloads (in :func:`sweep_specs` order) into a
    result; failed replicates become structured failure rows and are
    excluded from the aggregates.  Lockstep group payloads
    (:class:`BatchRunResult`) are flattened into their per-seed rows,
    preserving seed order."""
    size = config.lockstep_batch or 1
    runs, failures = split_payloads(
        range(math.ceil(len(config.seeds) / size)), payloads)
    result = SweepResult(config=config, failures=failures)
    for _, payload in runs:
        if isinstance(payload, BatchRunResult):
            result.runs.extend(payload.results)
        else:
            result.runs.append(payload)
    return result


def aggregate_metrics(rows: Sequence[Dict[str, float]]
                      ) -> Dict[str, Dict[str, float]]:
    """mean/stddev/min/max/n per metric name across replicate rows.

    A metric contributes wherever it is present (COP keys are omitted
    by runs whose module consumed no power); ``n`` records how many
    replicates carried it.  Stddev is the population deviation
    (ddof=0), computed in row order so the result is deterministic.
    """
    names: List[str] = []
    for row in rows:
        for name in row:
            if name not in names:
                names.append(name)
    aggregates: Dict[str, Dict[str, float]] = {}
    for name in sorted(names):
        values = [row[name] for row in rows if name in row]
        n = len(values)
        mean = math.fsum(values) / n
        variance = math.fsum((v - mean) ** 2 for v in values) / n
        aggregates[name] = {
            "mean": mean,
            "stddev": math.sqrt(variance),
            "min": min(values),
            "max": max(values),
            "n": float(n),
        }
    return aggregates


def run_sweep(config: SweepConfig,
              workers: int = 1,
              timeout_s: Optional[float] = None,
              progress: Optional[Callable[[str], None]] = None,
              telemetry_dir: Optional[str] = None,
              trace: bool = False) -> SweepResult:
    """Execute the sweep; see :func:`~repro.workloads.study.run_study`
    for ``workers``, ``timeout_s``, ``progress`` and ``telemetry_dir``.

    Metrics and hashes are identical with telemetry on or off.
    ``trace`` additionally enables causal tracing per replicate
    (master lane only for lockstep groups), adding ``trace.jsonl``.
    """
    study = sweep_study(config, telemetry=telemetry_dir is not None,
                        trace=trace)
    return run_study(study, lambda payloads: merge_sweep(config, payloads),
                     workers=workers, timeout_s=timeout_s,
                     progress=progress, telemetry_dir=telemetry_dir)
