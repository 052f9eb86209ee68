"""CPU-speed calibration for the end-to-end timings.

The benchmark host is a small VM whose CPU throughput drifts by up to
about 2x over tens of seconds to minutes as neighbours come and go;
identical code measured 9-17 s on paper-vc.  Every timed region is
therefore sampled by a fixed pure-Python probe, and reported times are
host times rescaled to a fixed reference probe speed:

    time_reported = time_host * REFERENCE_PROBE_S / median(probe samples)

The probe runs no program code, so a change to the program moves the
reported times exactly as it moves host time on a steady machine.  Raw
host times are reported next to the rescaled ones.
"""

import statistics
import threading
import time

PROBE_LOOPS = 25_000
#: Fixed reference probe duration: about the median measured on the
#: 2-vCPU Xeon VM the benchmark was written on.  Only sets the scale.
REFERENCE_PROBE_S = 1.5e-3
#: Seconds between probe samples while a timed region runs.  Each probe
#: takes a few milliseconds — shorter than the interpreter's 5 ms switch
#: interval, so it runs without yielding the GIL part-way.
PROBE_INTERVAL_S = 0.25


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter() - t0


def speed_scale(samples) -> float:
    """Factor that rescales a host time, measured while the probe
    ``samples`` were taken, to the reference speed.  The median is not
    dragged by a probe the OS preempted part-way."""
    return REFERENCE_PROBE_S / statistics.median(samples)


class Prober:
    """Samples :func:`probe` on a daemon thread while the ``with`` block
    runs (one sample at entry, then every ``PROBE_INTERVAL_S``)."""

    def __init__(self) -> None:
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Prober":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            self.samples.append(probe())
            if self._stop.wait(PROBE_INTERVAL_S):
                return
