"""One study pipeline: run → merge → manifest → telemetry.

Every comparison this reproduction makes — fault campaign, seed sweep,
chaos endurance, controller bake-off — is a set of independent seeded
runs folded into one scored report.  A :class:`Study` is that set as a
value: the ordered :class:`~repro.runtime.spec.RunSpec` list, one
progress line per spec, and the inputs of the report's provenance
manifest.  :func:`run_study` is the single path that executes a study:
it dispatches the specs to :mod:`repro.runtime.pool` once, hands the
in-spec-order payloads to the preset's scorer, stamps the manifest and
writes the optional telemetry directory.

The presets (:mod:`~repro.workloads.campaign`,
:mod:`~repro.workloads.sweep`, :mod:`~repro.workloads.chaos`,
:mod:`~repro.workloads.bakeoff`) keep only what is really theirs: the
config and its validation, how specs are built, the scorer and the
renderer.  Because the merge is keyed by spec position, never
completion order, every report is byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.runtime.spec import BatchRunResult, RunFailure, RunSpec

R = TypeVar("R")
T = TypeVar("T")


@dataclass(frozen=True)
class Study:
    """An ordered set of runs plus what its report's manifest records.

    ``lines[i]`` is the progress line shown when ``specs[i]`` starts;
    ``command``, ``config_dict``, ``seed`` and ``extra`` are the
    arguments of :func:`repro.obs.manifest.build_manifest`, so
    ``config_hash(config_dict)`` is the study's dedupe key.
    """

    command: str
    specs: Tuple[RunSpec, ...]
    lines: Tuple[str, ...]
    config_dict: Dict[str, object]
    seed: int
    extra: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "lines", tuple(self.lines))
        if len(self.lines) != len(self.specs):
            raise ValueError("a study needs one progress line per spec")


def split_payloads(items: Sequence[T], payloads: Sequence[object]
                   ) -> Tuple[List[Tuple[T, object]], List[RunFailure]]:
    """Pair each spec's ``items`` entry with its payload and set the
    failures aside, both in spec order; every merge starts here, so
    this is also the one payload-count check."""
    if len(payloads) != len(items):
        raise ValueError(f"expected {len(items)} payloads, "
                         f"got {len(payloads)}")
    runs: List[Tuple[T, object]] = []
    failures: List[RunFailure] = []
    for item, payload in zip(items, payloads):
        if isinstance(payload, RunFailure):
            failures.append(payload)
        else:
            runs.append((item, payload))
    return runs, failures


def run_study(study: Study,
              score: Callable[[Sequence[object]], R],
              *,
              workers: Optional[int] = 1,
              timeout_s: Optional[float] = None,
              progress: Optional[Callable[[str], None]] = None,
              telemetry_dir: Optional[str] = None) -> R:
    """Execute ``study`` and return ``score(payloads)`` with its
    ``manifest`` set.

    ``workers=1`` runs in-process; more fan out over the spawn-safe
    pool (see :func:`repro.runtime.pool.run_specs` for the timeout and
    retry contract).  ``progress`` receives ``study.lines[i]`` as spec
    ``i`` first starts.  ``telemetry_dir`` writes the artifact
    directory of :mod:`repro.obs.status` after scoring; a lockstep
    group's observability watched its master lane only and is filed
    under the group label.
    """
    from repro.obs.events import EventLog
    from repro.obs.manifest import build_manifest
    from repro.runtime import pool
    from repro.runtime.progress import STARTED, ProgressEvent

    def describe(event: ProgressEvent) -> None:
        if progress is not None and event.kind == STARTED \
                and not event.attempt:
            progress(study.lines[event.index])

    pool_events = (EventLog(enabled=True) if telemetry_dir is not None
                   else None)
    # Looked up at call time, so a caller may tee the pool.
    payloads = pool.run_specs(list(study.specs), workers=workers,
                              timeout_s=timeout_s, progress=describe,
                              obs_events=pool_events)
    result = score(payloads)
    result.manifest = build_manifest(
        command=study.command, config_dict=study.config_dict,
        seed=study.seed, extra=study.extra)
    if telemetry_dir is not None:
        from repro.obs.status import write_run_telemetry

        obs = {payload.label: (payload.results[0].obs
                               if isinstance(payload, BatchRunResult)
                               else payload.obs)
               for payload in payloads
               if not isinstance(payload, RunFailure)}
        write_run_telemetry(telemetry_dir, result.manifest,
                            [spec.label for spec in study.specs], obs,
                            pool_events.records)
    return result
