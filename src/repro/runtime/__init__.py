"""Parallel run execution: picklable specs, a spawn-safe process pool
and deterministic in-spec-order merging.

See :mod:`repro.runtime.spec` for the unit of work,
:mod:`repro.runtime.pool` for the executor and its robustness
contract, and :mod:`repro.runtime.progress` for progress events.
"""

from repro.runtime.pool import default_worker_count, run_specs
from repro.runtime.progress import ProgressEvent
from repro.runtime.spec import (
    RunFailure,
    RunResult,
    RunSpec,
    execute_spec,
    paper_metrics,
)

__all__ = [
    "RunFailure",
    "RunResult",
    "RunSpec",
    "ProgressEvent",
    "default_worker_count",
    "execute_spec",
    "paper_metrics",
    "run_specs",
]
