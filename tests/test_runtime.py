"""Tests for the parallel run executor (repro.runtime).

The pooled tests spawn real worker processes, so they use the
shortest horizons that still exercise the machinery (a 1-minute sim
is ~0.1s of work; the pool overhead dominates).  The
serial-vs-parallel byte-identity test reuses the mini campaign from
test_campaign so the determinism contract is checked on the same
workload the campaign suite scores.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.runtime.pool as pool_module
from repro.core.config import BubbleZeroConfig
from repro.runtime import (
    ProgressEvent,
    RunFailure,
    RunResult,
    RunSpec,
    default_worker_count,
    execute_spec,
    run_specs,
)
from repro.runtime.progress import FINISHED, RETRIED, STARTED, emit
from repro.scenarios.spec import ScenarioSpec


def tiny_spec(label="run", seed=3, inject=None, run_minutes=1.0):
    return RunSpec(label=label, scenario=ScenarioSpec(
        name=label, config=BubbleZeroConfig(seed=seed),
        run_minutes=run_minutes), inject=inject)


class TestRunSpec:
    def test_pickle_round_trip(self):
        spec = tiny_spec("pickled", seed=11)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.scenario.config.seed == 11

    def test_rejects_unknown_script(self):
        with pytest.raises(ValueError, match="unknown workload script"):
            RunSpec(label="x", scenario=ScenarioSpec(name="x",
                                                     script="nope"))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            RunSpec(label="x", scenario=ScenarioSpec(name="x",
                                                     run_minutes=0.0))
        with pytest.raises(ValueError):
            RunSpec(label="x", scenario=ScenarioSpec(
                name="x", run_minutes=5.0, warmup_minutes=5.0))


class TestExecuteSpec:
    def test_is_pure_function_of_spec(self):
        first = execute_spec(tiny_spec())
        second = execute_spec(tiny_spec())
        assert first.discrete_hash == second.discrete_hash
        assert first.metrics == second.metrics
        assert first.events == second.events

    def test_metrics_cover_paper_quantities(self):
        result = execute_spec(tiny_spec())
        for key in ("comfort_violation_min", "energy_j", "collision_rate",
                    "mean_lifetime_years"):
            assert key in result.metrics


class TestDefaults:
    def test_worker_count_capped_at_tasks(self):
        assert default_worker_count(1) == 1
        assert default_worker_count(0) == 1
        assert default_worker_count() >= 1

    def test_empty_spec_list(self):
        assert run_specs([]) == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_specs([tiny_spec()], workers=2, retries=-1)


class TestSerialPath:
    def test_exception_becomes_failure(self):
        payloads = run_specs([tiny_spec("bad", inject="raise"),
                              tiny_spec("good")], workers=1)
        failure, result = payloads
        assert isinstance(failure, RunFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 1
        assert "injected failure" in failure.message
        assert isinstance(result, RunResult)

    def test_progress_event_stream(self):
        events = []
        run_specs([tiny_spec("a"), tiny_spec("b")], workers=1,
                  progress=events.append)
        assert [(e.kind, e.label) for e in events] == [
            (STARTED, "a"), (FINISHED, "a"),
            (STARTED, "b"), (FINISHED, "b")]


class TestPooledExecution:
    def test_merge_order_is_spec_order_under_delay(self):
        # The first spec is held back, so it finishes last — merged
        # order must still match spec order, never completion order.
        specs = [tiny_spec("s0", inject="delay:1.0"),
                 tiny_spec("s1"), tiny_spec("s2"), tiny_spec("s3")]
        completion = []
        payloads = run_specs(
            specs, workers=2,
            progress=lambda e: (completion.append(e.label)
                                if e.kind == FINISHED else None))
        assert [p.label for p in payloads] == ["s0", "s1", "s2", "s3"]
        assert all(isinstance(p, RunResult) for p in payloads)
        assert completion != ["s0", "s1", "s2", "s3"]

    def test_crashed_worker_retried_then_succeeds(self):
        events = []
        payloads = run_specs(
            [tiny_spec("flaky", inject="crash-below-attempt:1"),
             tiny_spec("steady")],
            workers=2, progress=events.append)
        assert all(isinstance(p, RunResult) for p in payloads)
        retried = [e for e in events if e.kind == RETRIED]
        assert [e.label for e in retried] == ["flaky"]
        assert retried[0].detail == "crash"

    def test_crash_exhausts_bounded_retries(self):
        payloads = run_specs([tiny_spec("doomed", inject="crash"),
                              tiny_spec("steady")], workers=2, retries=1)
        failure, result = payloads
        assert isinstance(failure, RunFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2  # original + one retry
        assert "exit code" in failure.message
        assert isinstance(result, RunResult)

    def test_exception_in_worker_not_retried(self):
        payloads = run_specs([tiny_spec("bad", inject="raise"),
                              tiny_spec("good")], workers=2)
        failure = payloads[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 1
        assert isinstance(payloads[1], RunResult)

    def test_timeout_kills_hung_worker(self):
        payloads = run_specs([tiny_spec("stuck", inject="hang"),
                              tiny_spec("good")],
                             workers=2, timeout_s=2.0, retries=0)
        failure = payloads[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert isinstance(payloads[1], RunResult)


class TestPoolLifecycle:
    @pytest.fixture
    def stopped(self, monkeypatch):
        """Every worker handed to the stop phase."""
        workers = []
        real_stop = pool_module._stop_workers

        def spy(pool):
            workers.extend(pool)
            real_stop(pool)

        monkeypatch.setattr(pool_module, "_stop_workers", spy)
        return workers

    def test_lost_worker_not_replaced_without_pending_task(
            self, monkeypatch):
        spawned = []

        class CountingWorker(pool_module._Worker):
            def __init__(self, ctx):
                super().__init__(ctx)
                spawned.append(self)

        monkeypatch.setattr(pool_module, "_Worker", CountingWorker)
        payloads = run_specs([tiny_spec("doomed", inject="crash"),
                              tiny_spec("steady")], workers=2, retries=0)
        assert isinstance(payloads[0], RunFailure)
        assert isinstance(payloads[1], RunResult)
        assert len(spawned) == 2

    @pytest.mark.parametrize("inject", [None, "crash-below-attempt:1"])
    def test_stop_phase_leaves_no_children(self, stopped, inject):
        payloads = run_specs([tiny_spec("first", inject=inject),
                              tiny_spec("second")], workers=2)
        assert all(isinstance(p, RunResult) for p in payloads)
        assert multiprocessing.active_children() == []
        assert len(stopped) == 2
        assert [w.process.exitcode for w in stopped] == [0, 0]


class TestImportBudget:
    def test_run_path_never_loads_networkx(self):
        # A fresh interpreter, so modules other tests imported do not
        # count.  Graph users still load networkx on first use.
        script = textwrap.dedent("""
            import dataclasses
            import pickle
            import sys

            import repro
            import repro.runtime.pool
            import repro.workloads.study
            from repro.runtime.spec import RunSpec, execute_spec
            from repro.scenarios.registry import get_scenario

            scenario = dataclasses.replace(get_scenario("paper-va"),
                                           run_minutes=1.0,
                                           warmup_minutes=0.0)
            spec = pickle.loads(pickle.dumps(
                RunSpec(label="budget", scenario=scenario)))
            assert execute_spec(spec).events > 0
            assert "networkx" not in sys.modules, "run loaded networkx"

            from repro.net import NodePlacement, RadioTopology

            topology = RadioTopology([NodePlacement("a", 0.0, 0.0),
                                      NodePlacement("b", 5.0, 0.0)], 10.0)
            assert topology.is_connected()
            assert "networkx" in sys.modules
        """)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestCampaignByteIdentity:
    def test_parallel_campaign_json_matches_serial(self):
        from tests.test_campaign import mini_config
        from repro.workloads.campaign import run_campaign

        serial = run_campaign(mini_config(), workers=1).report_dict()
        pooled = run_campaign(mini_config(), workers=2).report_dict()
        assert (json.dumps(serial, sort_keys=True, default=float)
                == json.dumps(pooled, sort_keys=True, default=float))


class TestCampaignFailureHandling:
    def _tampered_payloads(self, config, cell_inject=None,
                           baseline_inject=None):
        from repro.workloads.campaign import campaign_specs

        specs = campaign_specs(config)
        if baseline_inject:
            specs[0] = dataclasses.replace(specs[0],
                                           inject=baseline_inject)
        if cell_inject:
            specs[1] = dataclasses.replace(specs[1], inject=cell_inject)
        return run_specs(specs, workers=1)

    def test_failed_cell_becomes_report_row(self):
        from tests.test_campaign import mini_config
        from repro.analysis.reporting import render_campaign_report
        from repro.workloads.campaign import merge_campaign

        config = mini_config()
        result = merge_campaign(
            config, self._tampered_payloads(config, cell_inject="raise"))
        assert len(result.cells) == 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.kind == "exception"
        rows = result.report_dict()["failures"]
        assert rows[0]["label"] == failure.label
        assert "RUN FAILED" in render_campaign_report(result)

    def test_failed_baseline_raises(self):
        from tests.test_campaign import mini_config
        from repro.workloads.campaign import (
            CampaignExecutionError,
            merge_campaign,
        )

        config = mini_config()
        payloads = self._tampered_payloads(config, baseline_inject="raise")
        with pytest.raises(CampaignExecutionError):
            merge_campaign(config, payloads)


class TestProgress:
    def test_emit_swallows_callback_errors(self):
        def bad_callback(event):
            raise RuntimeError("listener bug")

        # A broken progress listener must never kill the run.
        emit(bad_callback, ProgressEvent(STARTED, 0, "a"))
