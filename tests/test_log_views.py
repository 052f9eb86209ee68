"""The columnar sniffer and BT-ADPT decision logs against per-object
references.

Both logs store one flat column per field instead of one object per
event.  A seeded networked run is instrumented with test-local hooks
that capture the same events the old way — one record per frame, one
decision object per classified variance — and every view the logs
offer must equal what the reference rebuilds from those objects.
"""

from collections import Counter

import pytest

from repro.analysis.dataflow import extract_dataflow
from repro.analysis.replay import variance_stream_of
from repro.core.config import BubbleZeroConfig
from repro.core.system import BubbleZero
from repro.net.adaptive import AdaptationDecision
from repro.net.medium import SnifferRecord
from repro.net.packet import DataType

RUN_MINUTES = 45


def _hook_medium(system, frames):
    """Log a SnifferRecord per completed frame, counting its receivers
    from the bus counters instead of the medium's own tally."""
    medium = system.medium
    buses = [mote.bus for mote in
             [node.mote for node in system.bt_nodes]
             + [board.mote for board in system.boards]]
    complete = medium._complete

    def hooked(tx):
        before = sum(bus.packets_received + bus.packets_filtered
                     for bus in buses)
        complete(tx)
        after = sum(bus.packets_received + bus.packets_filtered
                    for bus in buses)
        frames.append(SnifferRecord(tx.sender, tx.packet.data_type,
                                    tx.start, tx.end, tx.collided,
                                    after - before))

    medium._complete = hooked


def _hook_transmitter(transmitter, decisions):
    """Append an AdaptationDecision whenever the transmitter logs one,
    rebuilt from its window and thresholds at that instant."""
    on_sample = transmitter.on_sample

    def hooked(value, now):
        count = transmitter.decision_count
        verdict = on_sample(value, now)
        if transmitter.decision_count > count:
            variance = transmitter._window_variance()
            hist = transmitter.threshold
            oracle = transmitter._oracle_threshold
            decisions.append(AdaptationDecision(
                time=now, variance=variance,
                histogram_unstable=hist is not None and variance > hist,
                oracle_unstable=oracle is not None and variance > oracle,
                histogram_threshold=hist, oracle_threshold=oracle))
        return verdict

    transmitter.on_sample = hooked


def _reference_series(decisions, bucket_s):
    """accuracy_series over a list of decision objects."""
    if not decisions:
        return []
    series = []
    bucket_end = decisions[0].time + bucket_s
    hits = total = 0
    for decision in decisions:
        while decision.time > bucket_end:
            if total:
                series.append((bucket_end, hits / total))
            bucket_end += bucket_s
            hits = total = 0
        hits += 1 if decision.matches_oracle else 0
        total += 1
    if total:
        series.append((bucket_end, hits / total))
    return series


@pytest.fixture(scope="module")
def hooked_run():
    system = BubbleZero(BubbleZeroConfig(seed=5))
    frames = []
    _hook_medium(system, frames)
    decisions = {}
    for transmitter in system.adaptive_transmitters():
        decisions[transmitter.name] = []
        _hook_transmitter(transmitter, decisions[transmitter.name])
    system.start()
    system.run(minutes=RUN_MINUTES)
    system.finalize()
    return system, frames, decisions


class TestSnifferViews:
    def test_records_match_reference(self, hooked_run):
        system, frames, _ = hooked_run
        sniffer = system.sniffer
        assert len(frames) > 1000
        assert sniffer.frame_count == len(frames)
        assert list(sniffer.records) == frames

    def test_frames_of_and_collisions(self, hooked_run):
        system, frames, _ = hooked_run
        sniffer = system.sniffer
        assert sniffer.collision_count == sum(
            1 for frame in frames if frame.collided) > 0
        for data_type in DataType:
            assert sniffer.frames_of(data_type) == [
                frame for frame in frames if frame.data_type == data_type]
        assert sniffer.frame_counts() == Counter(
            (frame.sender, frame.data_type) for frame in frames)

    def test_dataflow_edges(self, hooked_run):
        system, frames, _ = hooked_run
        supplied = Counter((frame.sender, frame.data_type)
                           for frame in frames)
        expected = {}
        for board in system.boards:
            types = board.mote.bus._subscribers
            for (sender, data_type), count in supplied.items():
                if data_type in types and sender != board.device_id:
                    edge = expected.setdefault(
                        (sender, board.device_id),
                        {"data_types": set(), "frames": 0})
                    edge["data_types"].add(data_type.value)
                    edge["frames"] += count
        graph = extract_dataflow(system)
        edges = {(sender, consumer): attrs
                 for sender, consumer, attrs in graph.edges(data=True)}
        assert edges == expected


class TestDecisionViews:
    def test_decisions_match_reference(self, hooked_run):
        system, _, decisions = hooked_run
        transmitters = system.adaptive_transmitters()
        assert sum(len(ref) for ref in decisions.values()) > 1000
        for transmitter in transmitters:
            reference = decisions[transmitter.name]
            assert transmitter.decision_count == len(reference)
            assert transmitter.decisions == reference

    def test_accuracy_and_streams_match_reference(self, hooked_run):
        system, _, decisions = hooked_run
        for transmitter in system.adaptive_transmitters():
            reference = decisions[transmitter.name]
            assert reference
            accuracy = transmitter.accuracy()
            assert type(accuracy) is float
            assert accuracy == (sum(1 for d in reference if d.matches_oracle)
                                / len(reference))
            for bucket_s in (120.0, 600.0):
                assert transmitter.accuracy_series(bucket_s) == (
                    _reference_series(reference, bucket_s))
            assert variance_stream_of(transmitter) == (
                [d.time for d in reference],
                [d.variance for d in reference])
