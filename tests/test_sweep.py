"""Tests for multi-seed sweeps (repro.workloads.sweep)."""

import dataclasses
import json

import pytest

from repro.runtime import run_specs
from repro.workloads.sweep import (
    SweepConfig,
    aggregate_metrics,
    merge_sweep,
    run_sweep,
    sweep_specs,
)


def mini_sweep(seeds=(1, 2)):
    return SweepConfig(seeds=tuple(seeds), run_minutes=2.0,
                       warmup_minutes=1.0)


class TestConfigValidation:
    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=())

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=(1, 1))

    def test_rejects_warmup_outside_run(self):
        with pytest.raises(ValueError):
            SweepConfig(seeds=(1,), run_minutes=5.0, warmup_minutes=5.0)


class TestSpecs:
    def test_one_spec_per_seed_in_order(self):
        specs = sweep_specs(mini_sweep(seeds=(5, 3, 9)))
        assert [s.label for s in specs] == ["seed-5", "seed-3", "seed-9"]
        assert [s.scenario.config.seed for s in specs] == [5, 3, 9]

    def test_direct_and_fixed_tx_shape_network(self):
        direct = sweep_specs(dataclasses.replace(mini_sweep(),
                                                 direct=True))[0]
        assert not direct.scenario.config.network.enabled
        fixed = sweep_specs(dataclasses.replace(mini_sweep(),
                                                fixed_tx=True))[0]
        assert fixed.scenario.config.network.bt_mode == "fixed"


class TestAggregates:
    def test_statistics_per_metric(self):
        rows = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 10.0}]
        agg = aggregate_metrics(rows)
        assert agg["a"] == {"mean": 2.0, "stddev": 1.0, "min": 1.0,
                            "max": 3.0, "n": 2.0}
        assert agg["b"]["stddev"] == 0.0

    def test_partial_metrics_counted_where_present(self):
        # COP keys are omitted by runs whose module drew no power.
        agg = aggregate_metrics([{"a": 1.0}, {"a": 2.0, "cop": 4.0}])
        assert agg["a"]["n"] == 2.0
        assert agg["cop"] == {"mean": 4.0, "stddev": 0.0, "min": 4.0,
                              "max": 4.0, "n": 1.0}


class TestRunSweep:
    def test_replicates_differ_but_report_is_reproducible(self):
        first = run_sweep(mini_sweep())
        assert len(first.runs) == 2
        assert not first.failures
        hashes = {run.discrete_hash for run in first.runs}
        assert len(hashes) == 2  # different seeds, different runs
        second = run_sweep(mini_sweep())
        assert first.report_dict() == second.report_dict()

    def test_failed_replicate_excluded_from_aggregates(self):
        config = mini_sweep()
        specs = sweep_specs(config)
        specs[0] = dataclasses.replace(specs[0], inject="raise")
        result = merge_sweep(config, run_specs(specs, workers=1))
        assert len(result.runs) == 1
        assert len(result.failures) == 1
        assert result.failures[0].kind == "exception"
        assert all(stats["n"] == 1.0
                   for stats in result.aggregates.values())
        assert result.report_dict()["failures"][0]["label"] == "seed-1"

    def test_merge_rejects_wrong_payload_count(self):
        config = mini_sweep()
        with pytest.raises(ValueError):
            merge_sweep(config, [])

    def test_sweep_report_renders(self):
        from repro.analysis.reporting import render_sweep_report

        report = render_sweep_report(run_sweep(mini_sweep()))
        assert "# Seed sweep report" in report
        assert "seed-1" in report and "seed-2" in report
        assert "mean" in report

    def test_sweep_json_round_trip(self, tmp_path):
        from repro.analysis.export import write_json

        result = run_sweep(mini_sweep())
        path = tmp_path / "sweep.json"
        write_json(result.report_dict(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["seeds"] == [1, 2]
        assert [r["label"] for r in loaded["runs"]] == ["seed-1", "seed-2"]
        assert loaded["aggregates"].keys() == result.aggregates.keys()


def lockstep_sweep(seeds=(1, 2, 3, 4), batch=2):
    return SweepConfig(seeds=tuple(seeds), run_minutes=4.0,
                       warmup_minutes=1.0, direct=True,
                       lockstep_batch=batch)


class TestLockstepValidation:
    def test_rejects_batch_below_two(self):
        with pytest.raises(ValueError, match="at least 2 seeds"):
            SweepConfig(seeds=(1, 2), direct=True, lockstep_batch=1)

    def test_requires_direct(self):
        with pytest.raises(ValueError, match="direct"):
            SweepConfig(seeds=(1, 2), lockstep_batch=2)

    def test_requires_scriptless(self):
        with pytest.raises(ValueError, match="scriptless"):
            SweepConfig(seeds=(1, 2), direct=True, lockstep_batch=2,
                        script="paper-phase-two")


class TestLockstepSpecs:
    def test_groups_consecutive_seeds(self):
        specs = sweep_specs(lockstep_sweep(seeds=(1, 2, 3, 4, 5),
                                           batch=2))
        assert [s.label for s in specs] == [
            "seeds-1-2", "seeds-3-4", "seed-5"]
        assert specs[0].lockstep_seeds == (1, 2)
        assert specs[1].lockstep_seeds == (3, 4)
        # A trailing singleton degrades to a plain solo spec.
        assert specs[2].lockstep_seeds == ()

    def test_group_scenario_uses_first_seed(self):
        specs = sweep_specs(lockstep_sweep(seeds=(7, 8, 9), batch=3))
        assert specs[0].scenario.config.seed == 7
        assert not specs[0].scenario.config.network.enabled


class TestLockstepSweep:
    def test_master_lanes_byte_identical_to_serial_sweep(self):
        """The first seed of every lockstep group reproduces the
        per-seed sweep's report row byte for byte; replica lanes match
        the per-seed rows' discrete hashes (direct scriptless runs pin
        the discrete log to condensation events, which lockstep writes
        back exactly)."""
        serial_cfg = SweepConfig(seeds=(1, 2, 3, 4), run_minutes=4.0,
                                 warmup_minutes=1.0, direct=True)
        serial_rows = run_sweep(serial_cfg).report_dict()["runs"]
        lock_rows = run_sweep(lockstep_sweep()).report_dict()["runs"]
        assert [r["label"] for r in lock_rows] == [
            "seed-1", "seed-2", "seed-3", "seed-4"]
        for master in (0, 2):
            assert lock_rows[master] == serial_rows[master]
        for replica in (1, 3):
            assert (lock_rows[replica]["discrete_hash"]
                    == serial_rows[replica]["discrete_hash"])

    def test_report_identical_for_any_worker_count(self):
        config = lockstep_sweep(seeds=(1, 2, 3, 4, 5), batch=2)
        one = run_sweep(config, workers=1)
        two = run_sweep(config, workers=2)
        assert one.report_dict() == two.report_dict()

    def test_replica_metrics_within_lockstep_tolerance(self):
        serial_cfg = SweepConfig(seeds=(1, 2, 3, 4), run_minutes=4.0,
                                 warmup_minutes=1.0, direct=True)
        serial = {run.label: run for run in run_sweep(serial_cfg).runs}
        lock = {run.label: run for run in
                run_sweep(lockstep_sweep()).runs}
        for label in ("seed-2", "seed-4"):
            solo, rep = serial[label], lock[label]
            assert rep.metrics["mean_temp_c"] == pytest.approx(
                solo.metrics["mean_temp_c"], abs=5e-3)
            assert rep.metrics["mean_dew_c"] == pytest.approx(
                solo.metrics["mean_dew_c"], abs=5e-3)
            assert rep.metrics["energy_j"] == pytest.approx(
                solo.metrics["energy_j"], rel=1e-2)

    def test_lockstep_manifest_and_report_record_batch(self):
        from repro.obs.manifest import config_hash
        from repro.workloads.sweep import sweep_study

        result = run_sweep(lockstep_sweep())
        assert result.report_dict()["lockstep_batch"] == 2
        # The batch size feeds the provenance hash, so a lockstep sweep
        # is distinguishable from the per-seed sweep it reproduces.
        plain = dataclasses.replace(lockstep_sweep(), lockstep_batch=None)
        assert (result.manifest["config_hash"]
                != config_hash(sweep_study(plain).config_dict))
