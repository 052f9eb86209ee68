"""Scalar-vs-SoA bit-exactness across topology sizes.

The vectorized physics core (:mod:`repro.physics.vector`,
``physics_vector=True``) is a *transcription* of the scalar per-zone
objects, not an approximation: both paths must produce identical
discrete log hashes, identical final zone states, identical energy
meters and identical guard counters on every topology — one zone,
the paper's four, and grid floors up to 128 zones — on both physics
paths (macro-stepped and reference per-tick), with observability on
and off.  Any divergence is a bug in the transcription, never an
accepted tolerance.
"""

import dataclasses

import pytest

from repro.analysis.fingerprint import discrete_log_hash, state_digest
from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.core.system import BubbleZero
from repro.obs import create_observability
from repro.physics.room import SubspaceState
from repro.scenarios.topology import grid_topology


def _run(config, topology=None, minutes=10.0, obs=None):
    system = BubbleZero(config, topology=topology, obs=obs)
    system.start()
    system.run(minutes=minutes)
    system.finalize()
    return system


def _assert_identical(scalar, vector):
    assert discrete_log_hash(scalar) == discrete_log_hash(vector)
    for ss, vs in zip(scalar.plant.room.subspaces,
                      vector.plant.room.subspaces):
        assert ss.state.temp_c == vs.state.temp_c
        assert ss.state.humidity_ratio == vs.state.humidity_ratio
        assert ss.state.co2_ppm == vs.state.co2_ppm
    sm, vm = scalar.plant.meter_snapshot(), vector.plant.meter_snapshot()
    assert sm == vm
    sg, vg = scalar.plant.guard, vector.plant.guard
    assert sg.worst_margin_k == vg.worst_margin_k
    assert sg.violations == vg.violations
    assert (scalar.sim.events_dispatched == vector.sim.events_dispatched)


def _compare(config, topology=None, minutes=10.0, obs_on=False):
    scalar_cfg = dataclasses.replace(config, physics_vector=False)
    vector_cfg = dataclasses.replace(config, physics_vector=True)
    make_obs = (lambda: create_observability(profile=False)) \
        if obs_on else (lambda: None)
    scalar = _run(scalar_cfg, topology, minutes, obs=make_obs())
    vector = _run(vector_cfg, topology, minutes, obs=make_obs())
    _assert_identical(scalar, vector)
    return scalar, vector


DIRECT = NetworkConfig(enabled=False)


class TestGridEquivalence:
    """Both physics paths, grid floors from 1 to 128 zones.

    Horizons shrink as the grids grow — the point is branch coverage
    (panels serving one zone vs pairs, fallback clamps, tank chains at
    width), not long trajectories.
    """

    @pytest.mark.parametrize("zones,cols,minutes", [
        (1, 1, 10.0), (4, 2, 10.0), (8, 4, 10.0),
        (32, 8, 5.0), (128, 16, 2.0),
    ])
    @pytest.mark.parametrize("macro", [True, False])
    def test_direct_grid(self, zones, cols, minutes, macro):
        config = BubbleZeroConfig(seed=7, network=DIRECT,
                                  physics_macro_step=macro)
        _compare(config, topology=grid_topology(zones, cols=cols),
                 minutes=minutes)

    def test_networked_paper_topology(self):
        # The default 4-zone paper layout with the BT stack live: the
        # vector kernel must stay bit-exact under sensed (not wired)
        # control too.
        _compare(BubbleZeroConfig(seed=7), minutes=10.0)

    def test_networked_reference_physics(self):
        _compare(BubbleZeroConfig(seed=7, physics_macro_step=False),
                 minutes=5.0)

    def test_paper_va_scripted_trial(self):
        # The truncated §V-A trial behind the committed golden: BT
        # network live plus the phase-two door script, so the vector
        # path is pinned under workload events too (the goldens pin it
        # against the committed NPZ; this pins it against scalar
        # directly).
        import dataclasses as dc

        from repro.scenarios.registry import get_scenario
        from repro.scenarios.spec import run_scenario

        spec = get_scenario("golden-hvac-va")
        runs = []
        for vector in (False, True):
            run_spec = dc.replace(
                spec, config=dc.replace(spec.config,
                                        physics_vector=vector))
            runs.append(run_scenario(run_spec))
        _assert_identical(*runs)


class TestObservedEquivalence:
    """Telemetry must neither perturb a path nor split the two paths."""

    @pytest.mark.parametrize("zones,cols", [(8, 4), (32, 8)])
    def test_obs_on_grid(self, zones, cols):
        config = BubbleZeroConfig(seed=7, network=DIRECT)
        observed_s, observed_v = _compare(
            config, topology=grid_topology(zones, cols=cols),
            minutes=5.0, obs_on=True)
        blind_s, _ = _compare(
            config, topology=grid_topology(zones, cols=cols),
            minutes=5.0, obs_on=False)
        assert (discrete_log_hash(observed_s)
                == discrete_log_hash(blind_s))


class TestStateDigest:
    """The identity gates compare :func:`state_digest`, which must see
    what the discrete hash cannot: the continuous end state."""

    def _grid(self, vector):
        config = BubbleZeroConfig(seed=7, network=DIRECT,
                                  physics_vector=vector)
        return _run(config, topology=grid_topology(4, cols=2), minutes=5.0)

    def test_equal_across_physics_paths(self):
        assert (state_digest(self._grid(False))
                == state_digest(self._grid(True)))

    def test_one_ulp_changes_the_digest(self):
        import math

        system = self._grid(True)
        before_digest = state_digest(system)
        before_hash = discrete_log_hash(system)
        subspace = system.plant.room.subspaces[2]
        state = subspace.state
        subspace.state = SubspaceState(
            math.nextafter(state.temp_c, math.inf), state.humidity_ratio,
            state.co2_ppm)
        assert state_digest(system) != before_digest
        # The discrete hash is blind to it — why the gates moved off it.
        assert discrete_log_hash(system) == before_hash

    def test_tank_temperature_is_covered(self):
        import math

        system = self._grid(False)
        before = state_digest(system)
        tank = system.plant.vent_tank
        tank.temp_c = math.nextafter(tank.temp_c, -math.inf)
        assert state_digest(system) != before


class TestMacroFallback:
    def test_kernel_fallback_matches_scalar(self, monkeypatch):
        """With the closed form refused on every gap, the kernel's own
        per-tick fallback must still match the scalar room's."""
        from repro.physics import spectral

        monkeypatch.setattr(spectral, "decomposition",
                            lambda *args, **kwargs: None)
        config = BubbleZeroConfig(seed=7, network=DIRECT)
        scalar, vector = _compare(config, topology=grid_topology(4, cols=2),
                                  minutes=10.0)
        assert state_digest(scalar) == state_digest(vector)
        room_s, room_v = scalar.plant.room, vector.plant.room
        assert room_v.macro_gaps > 0
        assert (room_s.macro_gaps == room_s.macro_fallbacks
                == room_v.macro_gaps == room_v.macro_fallbacks)
