"""Progress reporting for pooled run execution.

The pool emits one :class:`ProgressEvent` per lifecycle transition of
each spec (started, finished, retried, failed) to a plain callable;
:func:`repro.workloads.study.run_study` turns the first start of each
spec into that spec's progress line.

Events arrive in *completion* order, which under a parallel pool is
not spec order — progress output is advisory, and nothing derived from
it may enter a report (reports are merged in spec order; see
:mod:`repro.runtime.pool`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

# Event kinds, in lifecycle order.
STARTED = "started"
FINISHED = "finished"
RETRIED = "retried"
FAILED = "failed"


@dataclass(frozen=True)
class ProgressEvent:
    """One lifecycle transition of one spec inside the pool."""

    kind: str
    index: int
    label: str
    attempt: int = 0
    wall_s: Optional[float] = None
    detail: str = ""


ProgressCallback = Callable[[ProgressEvent], None]


def emit(progress: Optional[ProgressCallback],
         event: ProgressEvent) -> None:
    """Deliver ``event`` if a callback is registered; never raise."""
    if progress is None:
        return
    try:
        progress(event)
    except Exception:  # pragma: no cover - progress must not kill runs
        pass
