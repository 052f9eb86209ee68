"""BT-ADPT: adaptive sensory-data transmission for battery devices.

Paper §IV-B.  A bt-device samples its sensor every T_spl seconds
(3 s temperature, 2 s humidity, 4 s CO2) and transmits every
T_snd = w * T_spl.  Over a sliding window of recent samples it computes
the variance; a threshold lambda classifies each new variance as
*stable* or *transition*:

* transition  -> w := 1 and the send timer resets immediately;
* stable      -> keep the current period, but after 10 consecutive
  stable sampling periods double w, up to w_max = 32.

lambda is re-learned every 20 minutes from the histogram approximation
(:mod:`repro.net.histogram`); an :class:`~repro.net.histogram.ExactClusterOracle`
runs alongside to score every adaptation decision against the optimal
one — the quantity plotted in the paper's Fig. 12(a) and Fig. 13.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.net.histogram import ExactClusterOracle, VarianceHistogram
from repro.net.packet import DataType

# Sampling periods from paper §IV-B.
SAMPLING_PERIODS = {
    DataType.TEMPERATURE: 3.0,
    DataType.HUMIDITY: 2.0,
    DataType.CO2: 4.0,
}


@dataclass(frozen=True)
class AdaptivePolicy:
    """Tunable constants of BT-ADPT (defaults are the paper's)."""

    sampling_period_s: float = 2.0
    window_size: int = 10          # samples in the variance window
    w_max: int = 32                # maximum T_snd / T_spl multiplier
    stable_periods_to_double: int = 10
    threshold_update_period_s: float = 20.0 * 60.0
    histogram_slots: int = 40      # the paper's default N

    def __post_init__(self) -> None:
        if self.sampling_period_s <= 0:
            raise ValueError("sampling period must be positive")
        if self.window_size < 2:
            raise ValueError("variance window needs at least 2 samples")
        if self.w_max < 1:
            raise ValueError("w_max must be at least 1")
        if self.stable_periods_to_double < 1:
            raise ValueError("stable_periods_to_double must be at least 1")

    @classmethod
    def for_type(cls, data_type: DataType, **overrides) -> "AdaptivePolicy":
        """Policy with the paper's sampling period for ``data_type``."""
        period = SAMPLING_PERIODS.get(data_type, 2.0)
        return cls(sampling_period_s=period, **overrides)


@dataclass
class AdaptationDecision:
    """One classified variance and how both classifiers judged it."""

    time: float
    variance: float
    histogram_unstable: bool
    oracle_unstable: bool
    histogram_threshold: Optional[float]
    oracle_threshold: Optional[float]

    @property
    def matches_oracle(self) -> bool:
        return self.histogram_unstable == self.oracle_unstable


class AdaptiveTransmitter:
    """The per-(device, data-type) BT-ADPT state machine."""

    def __init__(self, name: str, policy: AdaptivePolicy,
                 track_oracle: bool = True) -> None:
        self.name = name
        self.policy = policy
        self.histogram = VarianceHistogram(policy.histogram_slots)
        self.oracle = ExactClusterOracle() if track_oracle else None
        self._window: Deque[float] = deque(maxlen=policy.window_size)
        self._w = 1
        self._stable_streak = 0
        self._threshold: Optional[float] = None
        self._oracle_threshold: Optional[float] = None
        self._last_threshold_update: Optional[float] = None
        # The decision log, one column per AdaptationDecision field
        # rather than one object per decision (a 5 h trial logs ~100k
        # of them).  The variance column is the oracle's own value
        # list: a decision is logged exactly when the oracle adds one.
        self._times: List[float] = []
        self._variances: List[float] = (
            self.oracle.values if self.oracle is not None else [])
        self._histogram_unstable: List[bool] = []
        self._oracle_unstable: List[bool] = []
        self._histogram_thresholds: List[Optional[float]] = []
        self._oracle_thresholds: List[Optional[float]] = []
        self.period_changes: List[tuple] = []  # (time, new_period)

    # ------------------------------------------------------------------
    @property
    def w(self) -> int:
        return self._w

    @property
    def send_period_s(self) -> float:
        """Current T_snd = w * T_spl."""
        return self._w * self.policy.sampling_period_s

    @property
    def threshold(self) -> Optional[float]:
        return self._threshold

    @property
    def decisions(self) -> List[AdaptationDecision]:
        """The decision log as objects, oldest first (built on read)."""
        return list(map(AdaptationDecision, self._times, self._variances,
                        self._histogram_unstable, self._oracle_unstable,
                        self._histogram_thresholds,
                        self._oracle_thresholds))

    @property
    def decision_count(self) -> int:
        return len(self._times)

    @property
    def decision_times(self) -> List[float]:
        """Time column of the decision log (read-only)."""
        return self._times

    @property
    def decision_variances(self) -> List[float]:
        """Variance column of the decision log (read-only)."""
        return self._variances

    def metrics_summary(self) -> dict:
        """Snapshot for the observability collector (JSON-safe)."""
        return {
            "w": self._w,
            "send_period_s": self.send_period_s,
            "period_changes": len(self.period_changes),
            "decisions": self.decision_count,
            "threshold": self._threshold,
        }

    # ------------------------------------------------------------------
    def on_sample(self, value: float, now: float) -> Optional[str]:
        """Feed one sensor sample.

        Returns ``"reset"`` when the device must drop T_snd to T_spl and
        restart its send timer immediately, ``"doubled"`` when T_snd just
        doubled, or None when the period is unchanged.
        """
        self._maybe_update_threshold(now)
        self._window.append(float(value))
        if len(self._window) < self.policy.window_size:
            return None
        variance = self._window_variance()
        self.histogram.add(variance)
        unstable = (self._threshold is not None
                    and variance > self._threshold)
        if self.oracle is not None:
            self.oracle.add(variance)  # also logs the decision variance
            self._times.append(now)
            self._histogram_unstable.append(unstable)
            self._oracle_unstable.append(
                self._oracle_threshold is not None
                and variance > self._oracle_threshold)
            self._histogram_thresholds.append(self._threshold)
            self._oracle_thresholds.append(self._oracle_threshold)

        if unstable:
            self._stable_streak = 0
            if self._w != 1:
                self._w = 1
                self.period_changes.append((now, self.send_period_s))
                return "reset"
            return "reset"  # timer still resets for prompt updates
        self._stable_streak += 1
        if (self._stable_streak >= self.policy.stable_periods_to_double
                and self._w < self.policy.w_max):
            self._w = min(self._w * 2, self.policy.w_max)
            self._stable_streak = 0
            self.period_changes.append((now, self.send_period_s))
            return "doubled"
        return None

    def _window_variance(self) -> float:
        """Population variance E[X^2] - E[X]^2, as in the paper.

        One explicit pass instead of two ``sum`` calls: same left-to-
        right accumulation order, so the result is bit-identical, minus
        the generator overhead on a per-sample call.
        """
        n = len(self._window)
        total = 0.0
        total_sq = 0.0
        for x in self._window:
            total += x
            total_sq += x * x
        mean = total / n
        mean_sq = total_sq / n
        return max(0.0, mean_sq - mean * mean)

    # ------------------------------------------------------------------
    def _maybe_update_threshold(self, now: float) -> None:
        """Re-learn lambda on the paper's 20-minute cadence."""
        if (self._last_threshold_update is not None
                and now - self._last_threshold_update
                < self.policy.threshold_update_period_s):
            return
        self._last_threshold_update = now
        new_threshold = self.histogram.threshold()
        if new_threshold is not None:
            self._threshold = new_threshold
        if self.oracle is not None:
            oracle_threshold = self.oracle.threshold()
            if oracle_threshold is not None:
                self._oracle_threshold = oracle_threshold

    def force_threshold_update(self, now: float) -> None:
        """Immediate lambda refresh (used by tests and benches)."""
        self._last_threshold_update = None
        self._maybe_update_threshold(now)

    # ------------------------------------------------------------------
    def accuracy(self) -> Optional[float]:
        """Fraction of adaptation decisions matching the oracle."""
        if not self._times:
            return None
        matches = sum(1 for hist, oracle in zip(self._histogram_unstable,
                                                self._oracle_unstable)
                      if hist == oracle)
        return matches / len(self._times)

    def accuracy_series(self, bucket_s: float = 600.0) -> List[tuple]:
        """(bucket_end_time, accuracy) over consecutive time buckets."""
        if not self._times:
            return []
        series = []
        bucket_end = self._times[0] + bucket_s
        hits = total = 0
        for time, hist, oracle in zip(self._times,
                                      self._histogram_unstable,
                                      self._oracle_unstable):
            while time > bucket_end:
                if total:
                    series.append((bucket_end, hits / total))
                bucket_end += bucket_s
                hits = total = 0
            hits += 1 if hist == oracle else 0
            total += 1
        if total:
            series.append((bucket_end, hits / total))
        return series
