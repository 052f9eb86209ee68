"""Offline replay of variance streams against histogram configurations.

The parameter study of paper Fig. 12(a) asks: for a *fixed* recorded
experiment, how would the adaptation decisions have differed with a
different histogram size N?  The window-variance stream a device
computes is independent of N (it depends only on the samples), so the
study replays each device's logged variances through a fresh
``VarianceHistogram(N)`` and scores the resulting decisions against the
exact-clustering oracle over the same stream — precisely the paper's
"ratio between the number of adaptation decisions ... which are the
same as the corresponding optimal decisions".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.net.adaptive import AdaptiveTransmitter
from repro.net.histogram import ExactClusterOracle, VarianceHistogram


def replay_histogram_accuracy(
        times: Sequence[float], variances: Sequence[float],
        n_slots: int, update_period_s: float = 20.0 * 60.0) -> float:
    """Fraction of decisions an N-slot histogram matches the oracle on.

    Both classifiers re-learn their threshold on the same
    ``update_period_s`` cadence, mirroring the online algorithm.
    """
    if len(times) != len(variances):
        raise ValueError("times and variances must have equal length")
    if not times:
        raise ValueError("cannot replay an empty stream")
    histogram = VarianceHistogram(n_slots)
    oracle = ExactClusterOracle()
    hist_threshold: Optional[float] = None
    oracle_threshold: Optional[float] = None
    last_update: Optional[float] = None
    matches = 0
    total = 0
    for now, variance in zip(times, variances):
        if last_update is None or now - last_update >= update_period_s:
            last_update = now
            new_hist = histogram.threshold()
            if new_hist is not None:
                hist_threshold = new_hist
            new_oracle = oracle.threshold()
            if new_oracle is not None:
                oracle_threshold = new_oracle
        histogram.add(variance)
        oracle.add(variance)
        hist_unstable = (hist_threshold is not None
                         and variance > hist_threshold)
        oracle_unstable = (oracle_threshold is not None
                           and variance > oracle_threshold)
        matches += 1 if hist_unstable == oracle_unstable else 0
        total += 1
    return matches / total


def variance_stream_of(transmitter: AdaptiveTransmitter
                       ) -> Tuple[List[float], List[float]]:
    """Extract the (times, variances) stream a transmitter logged."""
    return (list(transmitter.decision_times),
            list(transmitter.decision_variances))


def mean_accuracy_at_n(transmitters: Sequence[AdaptiveTransmitter],
                       n_slots: int,
                       update_period_s: float = 20.0 * 60.0) -> float:
    """Average replay accuracy across a fleet of devices (Fig. 12(a))."""
    accuracies = []
    for transmitter in transmitters:
        times, variances = variance_stream_of(transmitter)
        if len(times) < 50:
            continue
        accuracies.append(replay_histogram_accuracy(
            times, variances, n_slots, update_period_s))
    if not accuracies:
        raise ValueError("no transmitter had enough decisions to replay")
    return sum(accuracies) / len(accuracies)
