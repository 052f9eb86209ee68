"""The shared study pipeline (repro.workloads.study) and its seams.

No simulation runs here: the pool is replaced by a fake that fails
every spec, which is enough to pin how each preset dispatches — once,
in spec order, through ``repro.runtime.pool.run_specs`` looked up at
call time (the benchmark tees the pool by rebinding that attribute).
"""

import dataclasses

import pytest

from repro.runtime import pool
from repro.runtime.progress import STARTED, ProgressEvent
from repro.runtime.spec import RunFailure
from repro.workloads.bakeoff import BakeoffConfig, bakeoff_specs, run_bakeoff
from repro.workloads.campaign import (
    CampaignCell,
    CampaignConfig,
    CampaignExecutionError,
    campaign_specs,
    run_campaign,
)
from repro.workloads.chaos import (
    ChaosConfig,
    chaos_specs,
    quick_hazard,
    run_chaos,
)
from repro.workloads.faults import NodeCrash
from repro.workloads.study import Study
from repro.workloads.sweep import SweepConfig, run_sweep, sweep_specs


def campaign_config():
    return CampaignConfig(
        cells=[CampaignCell("crash", (NodeCrash(60.0, "bt-room-temp-0"),))],
        run_minutes=6.0, warmup_minutes=2.0)


def sweep_config():
    return SweepConfig(seeds=(1, 2, 3), run_minutes=2.0,
                       warmup_minutes=1.0, direct=True, lockstep_batch=2)


def chaos_config():
    return ChaosConfig(scenario="chaos-quick", hours=0.2, seeds=(1,),
                       window_minutes=3.0, warmup_minutes=3.0,
                       hazard=quick_hazard())


def bakeoff_config():
    return BakeoffConfig(controllers=("pid", "deadband"), seeds=(7,),
                         minutes=6.0, warmup_minutes=1.0,
                         window_minutes=2.0)


@pytest.fixture
def failing_pool(monkeypatch):
    """Replace the pool with one that starts and fails every spec; the
    returned list records the labels of every dispatch."""
    calls = []

    def run_specs(specs, workers=None, timeout_s=None, retries=1,
                  progress=None, obs_events=None, **kwargs):
        calls.append([spec.label for spec in specs])
        for index, spec in enumerate(specs):
            progress(ProgressEvent(STARTED, index, spec.label))
        return [RunFailure(index=index, label=spec.label, kind="crash",
                           message="fake pool", attempts=1)
                for index, spec in enumerate(specs)]

    monkeypatch.setattr(pool, "run_specs", run_specs)
    return calls


@pytest.mark.parametrize("run, specs, config", [
    (run_sweep, sweep_specs, sweep_config),
    (run_chaos, chaos_specs, chaos_config),
    (run_bakeoff, bakeoff_specs, bakeoff_config),
], ids=["sweep", "chaos", "bakeoff"])
def test_preset_dispatches_once_in_spec_order(failing_pool, run, specs,
                                              config):
    lines = []
    result = run(config(), progress=lines.append)
    labels = [spec.label for spec in specs(config())]
    assert failing_pool == [labels]
    assert [failure.label for failure in result.failures] == labels
    assert len(lines) == len(labels)
    assert result.manifest["config_hash"]


def test_campaign_dispatches_once_and_fails_on_baseline(failing_pool):
    lines = []
    with pytest.raises(CampaignExecutionError, match="fake pool"):
        run_campaign(campaign_config(), progress=lines.append)
    assert failing_pool == [["baseline", "crash"]]
    assert [spec.label for spec in campaign_specs(campaign_config())] \
        == failing_pool[0]
    assert lines[0].startswith("baseline (6 min, seed 7)")
    assert lines[1].startswith("cell crash: ")


def test_study_needs_one_line_per_spec():
    specs = bakeoff_specs(bakeoff_config())
    with pytest.raises(ValueError, match="one progress line per spec"):
        Study(command="bakeoff", specs=specs, lines=["only one"],
              config_dict={}, seed=7)


@pytest.mark.parametrize("config, field, value", [
    (campaign_config, "cells", ()),
    (sweep_config, "seeds", (1,)),
    (chaos_config, "seeds", (1,)),
    (bakeoff_config, "seeds", (7,)),
], ids=["campaign", "sweep", "chaos", "bakeoff"])
def test_study_configs_are_frozen(config, field, value):
    """Selections cannot bypass validation by assignment, nor by
    mutating a sequence field in place."""
    built = config()
    assert isinstance(getattr(built, field), tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, field, value)
