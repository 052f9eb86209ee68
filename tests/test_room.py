"""Tests for the multi-subspace room model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.physics.room import (
    ADJACENCY,
    DOOR_WEIGHTS,
    WINDOW_WEIGHTS,
    Room,
    RoomGeometry,
    RoomParameters,
    SubspaceInputs,
)
from repro.physics.weather import OutdoorState


def idle_inputs(n=4, **overrides):
    return [SubspaceInputs(equipment_w=0.0, **overrides) for _ in range(n)]


OUTDOOR = OutdoorState(temp_c=28.9, dew_point_c=27.4)


class TestGeometry:
    def test_paper_volume(self):
        geometry = RoomGeometry()
        assert geometry.volume_m3 == pytest.approx(60.0)
        assert geometry.subspace_volume_m3 == pytest.approx(15.0)

    def test_weights_are_distributions(self):
        assert sum(DOOR_WEIGHTS) == pytest.approx(1.0)
        assert sum(WINDOW_WEIGHTS) == pytest.approx(1.0)

    def test_adjacency_is_2x2_grid(self):
        assert set(ADJACENCY) == {(0, 1), (0, 2), (1, 3), (2, 3)}


class TestRoomBasics:
    def test_initial_state_uniform(self):
        room = Room(initial_temp_c=28.9, initial_dew_c=27.4)
        for i in range(4):
            assert room.state_of(i).temp_c == 28.9
            assert room.state_of(i).dew_point_c == pytest.approx(27.4)

    def test_rejects_dew_above_temp(self):
        with pytest.raises(ValueError):
            Room(initial_temp_c=20.0, initial_dew_c=25.0)

    def test_wrong_input_count_raises(self):
        room = Room()
        with pytest.raises(ValueError):
            room.step(1.0, OUTDOOR, idle_inputs(n=3))


class TestThermalBehaviour:
    def test_relaxes_toward_outdoor(self):
        """A cool room with no HVAC warms toward the tropical outdoors."""
        room = Room(initial_temp_c=22.0, initial_dew_c=15.0)
        for _ in range(600):
            room.step(1.0, OUTDOOR, idle_inputs())
        assert room.mean_temp_c() > 22.05
        assert room.mean_temp_c() < OUTDOOR.temp_c

    def test_equilibrium_never_overshoots_outdoor(self):
        room = Room(initial_temp_c=25.0, initial_dew_c=18.0)
        for _ in range(3600):
            room.step(4.0, OUTDOOR, idle_inputs())
        assert room.mean_temp_c() <= OUTDOOR.temp_c + 0.01

    def test_panel_cooling_lowers_temperature(self):
        room = Room()
        inputs = [SubspaceInputs(panel_heat_w=250.0, equipment_w=0.0)
                  for _ in range(4)]
        for _ in range(300):
            room.step(1.0, OUTDOOR, inputs)
        assert room.mean_temp_c() < 28.9

    def test_occupants_heat_the_room(self):
        empty = Room()
        crowded = Room()
        occupied = [SubspaceInputs(occupants=3.0, equipment_w=0.0)
                    for _ in range(4)]
        for _ in range(600):
            empty.step(1.0, OUTDOOR, idle_inputs())
            crowded.step(1.0, OUTDOOR, occupied)
        assert crowded.mean_temp_c() > empty.mean_temp_c()

    def test_heat_spreads_between_subspaces(self):
        room = Room(initial_temp_c=25.0, initial_dew_c=15.0)
        inputs = idle_inputs()
        inputs[0] = SubspaceInputs(equipment_w=500.0)
        for _ in range(300):
            room.step(1.0, OUTDOOR, inputs)
        # Subspace 0 is hottest; its neighbours warmed more than diagonal.
        temps = [room.state_of(i).temp_c for i in range(4)]
        assert temps[0] == max(temps)
        assert temps[1] > temps[3]
        assert temps[2] > temps[3]


class TestMoisture:
    def test_dry_supply_air_dries_the_room(self):
        room = Room()
        inputs = [SubspaceInputs(vent_flow_m3s=0.01, vent_supply_temp_c=18.0,
                                 vent_supply_w=0.011, equipment_w=0.0)
                  for _ in range(4)]
        w0 = room.mean_humidity_ratio()
        for _ in range(600):
            room.step(1.0, OUTDOOR, inputs)
        assert room.mean_humidity_ratio() < w0

    def test_occupants_add_moisture(self):
        room = Room(initial_temp_c=25.0, initial_dew_c=15.0)
        inputs = [SubspaceInputs(occupants=4.0, equipment_w=0.0)
                  for _ in range(4)]
        w0 = room.mean_humidity_ratio()
        for _ in range(600):
            room.step(1.0, OUTDOOR, inputs)
        assert room.mean_humidity_ratio() > w0

    def test_door_admits_humid_outdoor_air(self):
        dry = Room(initial_temp_c=25.0, initial_dew_c=15.0)
        inputs = idle_inputs(door_open_fraction=0.0)
        door_inputs = [
            SubspaceInputs(equipment_w=0.0,
                           door_open_fraction=DOOR_WEIGHTS[i])
            for i in range(4)
        ]
        for _ in range(60):
            dry.step(1.0, OUTDOOR, door_inputs)
        # Door-side subspace 0 wettest.
        dews = [dry.state_of(i).dew_point_c for i in range(4)]
        assert dews[0] == max(dews)
        assert dews[0] > 15.1

    def test_humidity_ratio_never_negative(self):
        room = Room(initial_temp_c=25.0, initial_dew_c=5.0)
        inputs = [SubspaceInputs(vent_flow_m3s=0.02, vent_supply_w=1e-5,
                                 vent_supply_temp_c=20.0, equipment_w=0.0)
                  for _ in range(4)]
        for _ in range(3600):
            room.step(1.0, OUTDOOR, inputs)
        for i in range(4):
            assert room.state_of(i).humidity_ratio > 0


class TestCO2:
    def test_occupants_raise_co2(self):
        room = Room()
        inputs = [SubspaceInputs(occupants=2.0, equipment_w=0.0)
                  for _ in range(4)]
        for _ in range(600):
            room.step(1.0, OUTDOOR, inputs)
        assert room.mean_co2_ppm() > 450.0

    def test_ventilation_dilutes_co2(self):
        room = Room(initial_co2_ppm=1500.0)
        inputs = [SubspaceInputs(vent_flow_m3s=0.02, equipment_w=0.0,
                                 vent_supply_w=0.012)
                  for _ in range(4)]
        for _ in range(600):
            room.step(1.0, OUTDOOR, inputs)
        assert room.mean_co2_ppm() < 1000.0

    def test_co2_floor_is_bounded(self):
        room = Room(initial_co2_ppm=410.0)
        inputs = [SubspaceInputs(vent_flow_m3s=0.05, equipment_w=0.0,
                                 vent_supply_w=0.012)
                  for _ in range(4)]
        for _ in range(1200):
            room.step(1.0, OUTDOOR, inputs)
        assert room.mean_co2_ppm() >= OUTDOOR.co2_ppm * 0.5


class TestIntegrationStability:
    def test_large_dt_subdivides(self):
        """A 60 s step must agree closely with 60 x 1 s steps."""
        fine = Room()
        coarse = Room()
        inputs = [SubspaceInputs(panel_heat_w=300.0) for _ in range(4)]
        for _ in range(60):
            fine.step(1.0, OUTDOOR, inputs)
        coarse.step(60.0, OUTDOOR, inputs)
        assert coarse.mean_temp_c() == pytest.approx(fine.mean_temp_c(),
                                                     abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(heat=st.floats(0.0, 800.0), flow=st.floats(0.0, 0.02),
           occupants=st.floats(0.0, 4.0))
    def test_state_stays_physical(self, heat, flow, occupants):
        room = Room()
        inputs = [SubspaceInputs(panel_heat_w=heat, vent_flow_m3s=flow,
                                 vent_supply_temp_c=16.0,
                                 vent_supply_w=0.0105,
                                 occupants=occupants)
                  for _ in range(4)]
        for _ in range(120):
            room.step(5.0, OUTDOOR, inputs)
        for i in range(4):
            state = room.state_of(i)
            assert -10.0 < state.temp_c < 60.0
            assert 0.0 < state.humidity_ratio < 0.05
            assert 150.0 < state.co2_ppm < 20000.0


class TestSharedGapSolver:
    """:meth:`Room.solve_gaps` serves the solo room, the SoA kernel and
    the lockstep replicas alike, so a row's result must not depend on
    the batch it rides in."""

    DT = 1800.0
    DRY = 3  # the row whose trajectory dives through the humidity floor

    def _stack(self):
        rng = np.random.default_rng(11)
        b, n = 6, 4
        x0 = np.empty((b, 3, n))
        x0[:, 0] = rng.uniform(22.0, 30.0, (b, n))
        x0[:, 1] = rng.uniform(0.012, 0.022, (b, n))
        x0[:, 2] = rng.uniform(450.0, 900.0, (b, n))
        outdoor = [rng.uniform(26.0, 32.0, b), rng.uniform(0.015, 0.02, b),
                   np.full(b, 400.0)]
        cols = {
            "vent_flow": rng.choice([0.0, 0.02, 0.05], (b, n)),
            "supply_temp": rng.uniform(14.0, 20.0, (b, n)),
            "supply_w": rng.uniform(0.007, 0.01, (b, n)),
            "panel_heat": rng.uniform(0.0, 400.0, (b, n)),
            "occupants": rng.integers(0, 3, (b, n)).astype(float),
            "equipment": np.full((b, n), 40.0),
            "opening": rng.choice([0.0, 0.3], (b, n)),
        }
        # Rows 1 and 4 share their actuation, hence their diagonal
        # losses, but not their state or forcing.
        cols["vent_flow"][4] = cols["vent_flow"][1]
        cols["opening"][4] = cols["opening"][1]
        # Bone-dry supply and outdoor air at a high flow: the closed
        # form overshoots the 1e-5 humidity floor inside the gap.  Row 0
        # shares the dry row's actuation (so its decomposition) but not
        # its dry air, and stays clear of the floor.
        outdoor[1][self.DRY] = 0.0
        cols["vent_flow"][[0, self.DRY]] = 0.2
        cols["opening"][self.DRY] = cols["opening"][0]
        cols["supply_w"][self.DRY] = 0.0
        cols["occupants"][self.DRY] = 0.0
        return x0, outdoor, cols

    @staticmethod
    def _solve(room, x0, outdoor, cols, rows):
        return room.solve_gaps(
            TestSharedGapSolver.DT, x0[rows], *(o[rows] for o in outdoor),
            **{name: col[rows] for name, col in cols.items()})

    def test_rows_match_solo_calls_byte_for_byte(self):
        room = Room()
        x0, outdoor, cols = self._stack()
        rows = np.arange(len(x0))
        end, held = self._solve(room, x0, outdoor, cols, rows)
        assert list(held) == [k != self.DRY for k in rows]
        for k in rows:
            solo_end, solo_held = self._solve(room, x0, outdoor, cols,
                                              rows[k:k + 1])
            assert solo_held[0] == held[k]
            assert solo_end[0].tobytes() == end[k].tobytes()

    def test_floor_row_leaves_neighbours_alone(self):
        room = Room()
        x0, outdoor, cols = self._stack()
        rows = np.arange(len(x0))
        end, held = self._solve(room, x0, outdoor, cols, rows)
        others = rows[rows != self.DRY]
        end_wo, held_wo = self._solve(room, x0, outdoor, cols, others)
        assert held[others].all() and held_wo.all()
        assert end_wo.tobytes() == end[others].tobytes()

    def test_one_lookup_per_distinct_diagonal(self):
        from repro.physics import spectral

        room = Room()
        x0, outdoor, cols = self._stack()
        distinct = {(cols["vent_flow"][k].tobytes(),
                     cols["opening"][k].tobytes()) for k in range(len(x0))}
        assert len(distinct) < len(x0)
        stats = spectral.cache_stats()
        before = stats["hits"] + stats["misses"]
        self._solve(room, x0, outdoor, cols, np.arange(len(x0)))
        stats = spectral.cache_stats()
        assert stats["hits"] + stats["misses"] - before == len(distinct)
