"""Lockstep seed-replication batches: one master engine, ``(R, zone)`` math.

Sweep and bench campaigns replicate one scenario across seeds.  In
direct (wired) control the seed reaches the trajectory only through the
weather model, so every replica shares the master's *event timeline* —
the same control periods, the same event-free gaps, the same macro tick
counts — while its numbers differ.  This module exploits that: replica 0
("the master") runs as a completely normal, bit-exact solo system, and
the remaining R replicas are never started at all.  Instead the master
calls back into :class:`LockstepBatch` after every physics firing and
every direct control step (see ``BubbleZero.attach_lockstep``), and the
batch advances all R replicas as ``(R,)``- and ``(R, zone)``-shaped
numpy expressions — a second structure-of-arrays axis on top of the
per-zone one :mod:`repro.physics.vector` introduced.

Exactness contract — weaker than the solo vector path, deliberately:

* The master's trajectory is untouched: it runs its own engine, scalar
  controllers and :class:`~repro.physics.vector.VectorPlantKernel`, so
  its discrete log hash and golden fingerprints stay bit-identical to a
  solo run.
* Replica math is a faithful *batched transcription* of the scalar
  component models (same expressions, same branch structure via masks)
  with one physical relaxation: within each one-second tick every
  radiant panel and every vent coil reads the **tick-start** tank
  temperature instead of threading the tank serially through the
  panel/unit chain, and the summed returns are applied to the tank once
  per tick.  The substitution error is bounded by one tick of tank
  drift (microkelvin per read), so replica trajectories agree with
  their solo runs to roughly 1e-3 K over a trial — close enough for
  sweep screening, far from bitwise.  It is what buys the throughput:
  the whole tick becomes ``(R, zone)``-wide vector arithmetic with no
  per-unit Python loop.  Everything is still deterministic: same seeds,
  same batch, same results, run after run.
* Replicas share the master's gap pattern.  That is exactly what a solo
  run of the same scenario produces anyway (the schedule is built from
  periods, not from state), so no replica sees a coarser integration
  than it would solo.

The payoff is throughput: one process macro-steps a whole
seed-replication batch in lockstep, and the per-gap cost grows far
slower than linearly in the batch size (the tick loop is R-wide vector
arithmetic).  A macro gap's room advance is not transcribed here: the
replicas are one batch of the master room's
:meth:`~repro.physics.room.Room.solve_gaps`, the same closed-form
solver the solo paths use, so replicas with equal actuation share one
cached eigendecomposition.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.airside.airbox import AirboxOutput
from repro.airside.fan import FAN_SPEED_TABLE
from repro.control.condensation import (
    HOLD_MARGIN_K,
    PULLDOWN_MARGIN_K,
    PULLDOWN_TRIGGER_K,
)
from repro.control.ventilation import CONTROL_HORIZON_S
from repro.core.plant import CONDENSER_APPROACH_K
from repro.hydronics.panel import PanelResult
from repro.hydronics.water import WATER_CP, WATER_DENSITY
from repro.physics.psychrometrics import (
    dew_point_from_humidity_ratio_array,
    humidity_ratio_from_dew_point_array,
    moist_air_enthalpy_array,
)
from repro.physics.room import (
    AIR_CP,
    AIR_DENSITY,
    OCCUPANT_CO2_M3S,
    OCCUPANT_LATENT_KGS,
    OCCUPANT_SENSIBLE_W,
)
from repro.scenarios.spec import ScenarioSpec, prepare_run

_FAN_FLOWS = np.array([row[1] for row in FAN_SPEED_TABLE])
_FAN_POWERS = np.array([row[2] for row in FAN_SPEED_TABLE])

def _batch_pid(integral: np.ndarray, last: np.ndarray, meas: np.ndarray,
               dt: float, kp: float, ki: float, kd: float,
               lo: float, hi: float):
    """Vectorised :meth:`PIDController.update` (setpoint 0).

    ``last`` uses NaN where the scalar controller holds ``None``.
    Returns ``(new_integral, new_last, output)``.
    """
    error = -meas
    proportional = kp * error
    have_last = ~np.isnan(last)
    with np.errstate(invalid="ignore"):
        derivative = np.where(have_last, -kd * ((meas - last) / dt), 0.0)
    candidate = integral + ki * error * dt
    unclamped = proportional + candidate + derivative
    sat_hi = unclamped > hi
    sat_lo = unclamped < lo
    inside = ~sat_hi & ~sat_lo
    moving_inward = (sat_hi & (error < 0)) | (sat_lo & (error > 0))
    new_integral = np.where(inside | moving_inward, candidate, integral)
    output = np.clip(proportional + new_integral + derivative, lo, hi)
    return new_integral, meas, output


def _pump_flow(voltage, max_flow, max_v, dead):
    """Vectorised :meth:`PumpCurve.flow_at`."""
    span = max_v - dead
    flow = max_flow * (np.minimum(voltage, max_v) - dead) / span
    return np.where(voltage <= dead, 0.0, flow)


def _pump_voltage(flow, max_flow, max_v, dead):
    """Vectorised :meth:`PumpCurve.voltage_for`."""
    span = max_v - dead
    volts = dead + span * np.minimum(flow, max_flow) / max_flow
    return np.where(flow <= 0, 0.0, volts)


def _pump_power(flow_lps, rated, standby, head, efficiency):
    """Vectorised :meth:`DCPump.electrical_power_w`."""
    flow_m3s = flow_lps * 1e-3
    powered = np.minimum(rated, standby + flow_m3s * head / efficiency)
    return np.where(flow_m3s <= 0, standby, powered)


class LockstepBatch:
    """Drive ``1 + R`` seed replicas of one scenario off one engine.

    ``seeds[0]`` becomes the master (a normal solo system, bit-exact);
    the rest are built but never started — their state lives in the
    ``(R, ...)`` arrays here and is written back into their component
    objects by :meth:`run`, so meters, fingerprints and scoring read
    the finished replicas exactly as if each had run solo.
    """

    def __init__(self, spec: ScenarioSpec, seeds: Sequence[int],
                 obs=None) -> None:
        if len(seeds) < 1:
            raise ValueError("need at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        config = spec.config
        if config.network.enabled:
            raise ValueError(
                "lockstep batching requires direct (wired) control; "
                "networked replicas do not share the master's timeline")
        if not (config.physics_vector and config.physics_macro_step):
            raise ValueError(
                "lockstep batching requires physics_vector and "
                "physics_macro_step")
        if spec.script != "none" or spec.fault_script != "none" or spec.faults:
            raise ValueError(
                "lockstep batching supports fault-free, scriptless "
                "scenarios only (workload events would have to fire on "
                "every replica's own schedule)")
        if spec.controller != "pid":
            raise ValueError(
                "lockstep batching transcribes the reference pid law; "
                f"controller {spec.controller!r} cannot be batched")
        self.spec = spec
        self.seeds = list(seeds)
        self.specs = [
            dataclasses.replace(
                spec, config=dataclasses.replace(config, seed=seed))
            for seed in seeds
        ]
        built = [prepare_run(s, obs=obs if k == 0 else None)
                 for k, s in enumerate(self.specs)]
        self.systems = [system for system, _clearance in built]
        self.master = self.systems[0]
        self.replicas = self.systems[1:]
        self._r = len(self.replicas)
        self._finalized = False
        if self._r:
            self._init_batch_state()
        self.master.attach_lockstep(self)

    # ------------------------------------------------------------------
    # Batch state
    # ------------------------------------------------------------------
    def _init_batch_state(self) -> None:
        reps = self.replicas
        R = self._r
        master_plant = self.master.plant
        room = master_plant.room
        topo = master_plant.topology
        n = len(room.subspaces)
        P = len(master_plant.panel_loops)
        self._n = n
        self._np = P

        def stack(reader):
            return np.array([reader(rep) for rep in reps], dtype=np.float64)

        # Zone state, (R, n).
        self._T = stack(lambda s: s.plant._vector_kernel.arrays.temp_c)
        self._W = stack(
            lambda s: s.plant._vector_kernel.arrays.humidity_ratio)
        self._C = stack(lambda s: s.plant._vector_kernel.arrays.co2_ppm)

        # Tanks and chillers, (R,).
        def tank_state(pick):
            temp = stack(lambda s: pick(s.plant).temp_c)
            ein = stack(lambda s: pick(s.plant).energy_in_j)
            hret = stack(lambda s: pick(s.plant).heat_returned_j)
            gain = stack(lambda s: pick(s.plant).ambient_gain_j)
            chill = np.array([pick(s.plant)._chilling for s in reps])
            ce = stack(lambda s: pick(s.plant).chiller.energy_j)
            chm = stack(lambda s: pick(s.plant).chiller.heat_moved_j)
            return [temp, ein, hret, gain, chill, ce, chm]

        self._r_tank = tank_state(lambda p: p.radiant_tank)
        self._v_tank = tank_state(lambda p: p.vent_tank)
        rtank = master_plant.radiant_tank
        vtank = master_plant.vent_tank
        self._r_mass = rtank.thermal_mass_j_per_k
        self._v_mass = vtank.thermal_mass_j_per_k
        self._r_ua = rtank.ambient_ua_w_per_k
        self._v_ua = vtank.ambient_ua_w_per_k
        self._r_hi = rtank.setpoint_c + rtank.deadband_k
        self._r_lo = rtank.setpoint_c - rtank.deadband_k
        self._v_hi = vtank.setpoint_c + vtank.deadband_k
        self._v_lo = vtank.setpoint_c - vtank.deadband_k
        self._r_cap = rtank.chiller.capacity_w
        self._v_cap = vtank.chiller.capacity_w
        self._r_par = rtank.chiller.parasitic_w
        self._v_par = vtank.chiller.parasitic_w
        self._r_chillers = [s.plant.radiant_tank.chiller for s in reps]
        self._v_chillers = [s.plant.vent_tank.chiller for s in reps]
        self._cop_key = np.full(R, np.nan)
        self._r_cop = np.zeros(R)
        self._v_cop = np.zeros(R)
        self._weathers = [s.plant.weather for s in reps]

        # Radiant loops, (R, P) state plus (P,) constants.
        loops = list(master_plant.panel_loops)
        self._p_served = [np.array(topo.panel_zones[p]) for p in range(P)]
        self._serve_len = np.array(
            [float(len(z)) for z in self._p_served])
        self._serve_mat = np.zeros((P, n))
        for p in range(P):
            self._serve_mat[p, self._p_served[p]] = 1.0
        self._p_ua = np.array([lp.panel.ua_w_per_k for lp in loops])
        self._p_film = np.array(
            [lp.panel.surface_film_fraction for lp in loops])
        sp = [lp.supply_pump for lp in loops]
        self._p_maxf = np.array([p.curve.max_flow_lps for p in sp])
        self._p_maxv = np.array([p.curve.max_voltage for p in sp])
        self._p_dead = np.array([p.curve.deadband_v for p in sp])
        self._p_rated = np.array([p.rated_power_w for p in sp])
        self._p_standby = np.array([p.standby_power_w for p in sp])
        self._p_head = np.array([p.head_pa for p in sp])
        self._p_peff = np.array([p.efficiency for p in sp])

        def loop_stack(reader):
            return np.array([[reader(lp) for lp in s.plant.panel_loops]
                             for s in reps], dtype=np.float64)

        self._p_rt = loop_stack(lambda lp: lp.return_temp_c)
        self._p_heat_abs = loop_stack(lambda lp: lp.panel.heat_absorbed_j)
        self._p_sup_e = loop_stack(lambda lp: lp.supply_pump.energy_j)
        self._p_rcy_e = loop_stack(lambda lp: lp.recycle_pump.energy_j)
        self._p_sup_v = loop_stack(lambda lp: lp.supply_pump._voltage)
        self._p_rcy_v = loop_stack(lambda lp: lp.recycle_pump._voltage)
        self._p_last_heat = np.zeros((R, P))
        self._p_last_ret = np.zeros((R, P))
        self._p_last_surf = np.zeros((R, P))
        self._p_last_mixt = np.zeros((R, P))
        self._p_last_total = np.zeros((R, P))
        self._p_last_eff = np.zeros((R, P))

        # Vent units, (R, n) state plus (n,) constants.
        units = list(master_plant.vent_units)
        self._u_maxwf = np.array(
            [u.airbox.coil.max_water_flow_lps for u in units])
        self._u_drop = np.array(
            [u.airbox.coil.dew_drop_per_lps for u in units])
        self._u_appr = np.array([u.airbox.coil.approach_k for u in units])
        self._u_bf1 = np.array(
            [1.0 - u.airbox.coil.bypass_factor for u in units])
        self._u_reheat_k = np.array(
            [u.airbox.SUPPLY_REHEAT_K for u in units])
        self._u_tau = np.array(
            [u.airbox.COIL_FLOW_TAU_S for u in units])
        self._u_motor_pw = np.array([u.flap.motor_power_w for u in units])
        self._u_travel = np.array([u.flap.travel_time_s for u in units])
        cp = [u.airbox.coil_pump for u in units]
        self._c_maxf = np.array([p.curve.max_flow_lps for p in cp])
        self._c_maxv = np.array([p.curve.max_voltage for p in cp])
        self._c_dead = np.array([p.curve.deadband_v for p in cp])
        self._c_rated = np.array([p.rated_power_w for p in cp])
        self._c_standby = np.array([p.standby_power_w for p in cp])
        self._c_head = np.array([p.head_pa for p in cp])
        self._c_peff = np.array([p.efficiency for p in cp])

        def unit_stack(reader):
            return np.array([[reader(u) for u in s.plant.vent_units]
                             for s in reps], dtype=np.float64)

        self._u_eff = unit_stack(
            lambda u: u.airbox._coil_flow_effective_lps)
        self._u_heat_e = unit_stack(lambda u: u.airbox.coil.heat_extracted_j)
        self._u_fan_e = unit_stack(lambda u: u.airbox.fans.energy_j)
        self._u_pump_e = unit_stack(lambda u: u.airbox.coil_pump.energy_j)
        self._u_pump_v = unit_stack(lambda u: u.airbox.coil_pump._voltage)
        self._u_flap_pos = unit_stack(lambda u: u.flap._position)
        self._u_flap_tgt = unit_stack(lambda u: u.flap._target)
        self._u_flap_e = unit_stack(lambda u: u.flap.energy_j)
        self._u_fan_step = np.array(
            [[u.airbox.fans.speed_step for u in s.plant.vent_units]
             for s in reps], dtype=np.int64)
        self._u_supt = np.zeros((R, n))
        self._u_supw = np.zeros((R, n))
        self._u_eflow = np.zeros((R, n))
        self._u_last_dew = np.zeros((R, n))
        self._u_last_heat = np.zeros((R, n))
        self._u_last_waterT = np.zeros((R, n))
        self._u_last_flow = np.zeros((R, n))
        self._u_last_fan_pw = np.zeros((R, n))

        # Guard / plant accumulators, (R,).
        self._g_margin = master_plant.guard.margin_k
        self._g_worst = stack(lambda s: s.plant.guard.worst_margin_k)
        self._g_viol = np.array(
            [s.plant.guard.violations for s in reps], dtype=np.int64)
        self._cond_ev = np.array(
            [s.plant.room.condensation_events for s in reps],
            dtype=np.int64)
        self._fan_acc = stack(lambda s: s.plant.fan_energy_j)
        self._time_int = stack(lambda s: s.plant.time_integrated_s)

        # Boundary terms frozen for the whole run: occupants, equipment
        # and openings can only change through workload scripts or API
        # calls, both excluded by the constructor's validation.
        occupants = np.array(master_plant.occupants, dtype=np.float64)
        equipment = np.array(master_plant.equipment_w, dtype=np.float64)
        for s in reps:
            if (list(s.plant.occupants) != list(master_plant.occupants)
                    or list(s.plant.equipment_w)
                    != list(master_plant.equipment_w)
                    or s.plant.door_open_fraction
                    != master_plant.door_open_fraction
                    or s.plant.window_open_fraction
                    != master_plant.window_open_fraction):
                raise ValueError("replicas must share boundary conditions")
        door_f = master_plant.door_open_fraction
        w08 = 0.8 * master_plant.window_open_fraction
        opening = np.array(
            [door_f * topo.door_weights[i] + w08 * topo.window_weights[i]
             for i in range(n)])
        self._occupants = occupants
        self._equipment = equipment
        self._opening = opening
        self._occ_sens = occupants * OCCUPANT_SENSIBLE_W + equipment
        self._occ_lat = occupants * OCCUPANT_LATENT_KGS
        self._occ_co2 = occupants * OCCUPANT_CO2_M3S * 1e6

        # Room constants (shared across replicas by construction); the
        # macro gap solver is the master room's own.
        self._room = room
        params = room.params
        self._envelope_ua = params.envelope_ua_w_per_k
        self._capacity = params.capacity_j_per_k
        self._buffer = params.moisture_buffer_factor
        self._coupling_ua = params.coupling_ua_w_per_k
        self._mixing_flow = params.mixing_flow_m3s
        self._m_mix = room._m_mix
        self._mc_mix = room._mc_mix
        self._infil = room._infil
        self._water_masses = np.array(room._water_masses)
        self._volumes = np.array([s.volume_m3 for s in room.subspaces])
        self._max_euler_dt = room._max_euler_dt
        door_flow = opening * params.door_exchange_m3s
        self._g_exch = self._infil + door_flow
        self._m_exch = self._g_exch * AIR_DENSITY
        edges = np.array(room.adjacency, dtype=np.int64).reshape(-1, 2)
        self._adj_i = edges[:, 0]
        self._adj_j = edges[:, 1]
        incidence = np.zeros((len(edges), n))
        for e, (i, j) in enumerate(edges):
            incidence[e, i] = 1.0
            incidence[e, j] = -1.0
        self._incidence = incidence

        # Control constants, read from the master's direct controllers.
        rad = self.master._radiant_direct[0]
        if rad.conservative_extra_margin_k != 0.0:
            raise ValueError("supervisor margin must be inactive")
        self._rad_pref = rad.preferred_temp_c
        self._rad_margin = rad.dew_margin_k
        g = rad.pid.gains
        self._rad_kp, self._rad_ki, self._rad_kd = g.kp, g.ki, g.kd
        self._rad_lo, self._rad_hi = rad.pid.output_limits
        vent = self.master._vent_direct[0]
        self._pref_dew = vent.preferred_dew_point()
        self._co2_target = vent.co2_target_ppm
        self._min_fresh = vent.min_fresh_air_m3s
        self._dew_deadband = vent.dew_deadband_k
        g = vent.pid.gains
        self._vent_kp, self._vent_ki, self._vent_kd = g.kp, g.ki, g.kd
        self._vent_lo, self._vent_hi = vent.pid.output_limits
        self._vols = np.array(
            [c.subspace_volume_m3 for c in self.master._vent_direct])
        self._outdoor_co2_const = 400.0  # VentilationInputs default

        self._rad_int = np.zeros((R, P))
        self._rad_last = np.full((R, P), np.nan)
        self._vent_int = np.zeros((R, n))
        self._vent_last = np.full((R, n), np.nan)

        self._gap_count = 0
        self._alpha_cache: Dict[float, np.ndarray] = {}
        self._out_t = np.zeros(R)
        self._out_w = np.zeros(R)
        self._out_c = np.zeros(R)

    # ------------------------------------------------------------------
    # Master seam: physics
    # ------------------------------------------------------------------
    def on_gap(self, now: float, ticks: int, dt: float) -> None:
        """Advance every replica over the master's event-free gap."""
        if not self._r:
            return
        R = self._r
        n = self._n
        P = self._np
        macro = ticks > 1
        self._gap_count += 1

        for r, weather in enumerate(self._weathers):
            st = weather.state_at(now)
            self._out_t[r] = st.temp_c
            self._out_w[r] = st.humidity_ratio
            self._out_c[r] = st.co2_ppm
        out_t = self._out_t
        out_w = self._out_w
        out_c = self._out_c
        reject = out_t + CONDENSER_APPROACH_K
        stale = reject != self._cop_key
        if stale.any():
            for r in np.nonzero(stale)[0]:
                self._cop_key[r] = reject[r]
                self._r_cop[r] = self._r_chillers[r].cop_at(reject[r])
                self._v_cop[r] = self._v_chillers[r].cop_at(reject[r])

        T = self._T
        W = self._W
        in_dew = dew_point_from_humidity_ratio_array(out_w)
        h_in = moist_air_enthalpy_array(out_t, out_w)
        dew_z = dew_point_from_humidity_ratio_array(W)
        if macro:
            ambient = T.mean(axis=1)

        # Per-gap derived actuation quantities (pump curves, exchanger
        # effectiveness, fan tables) — vector ops are cheap enough to
        # recompute unconditionally instead of tracking dirtiness.
        fsupp = _pump_flow(self._p_sup_v, self._p_maxf, self._p_maxv,
                           self._p_dead)
        frcyc = _pump_flow(self._p_rcy_v, self._p_maxf, self._p_maxv,
                           self._p_dead)
        total = fsupp + frcyc
        act = total > 0
        total_safe = np.where(act, total, 1.0)
        mcp = (total * 1e-3 * WATER_DENSITY) * WATER_CP
        mcp_safe = np.where(act, mcp, 1.0)
        effectiveness = np.where(
            act, 1.0 - np.exp(-self._p_ua / mcp_safe), 0.0)
        emcp = effectiveness * mcp_safe
        sup_on = fsupp > 0
        mf_supp = np.where(sup_on, fsupp * 1e-3 * WATER_DENSITY, 0.0)
        mwc = (mf_supp * dt) * WATER_CP
        sup_pd = _pump_power(fsupp, self._p_rated, self._p_standby,
                             self._p_head, self._p_peff) * dt
        rcy_pd = _pump_power(frcyc, self._p_rated, self._p_standby,
                             self._p_head, self._p_peff) * dt
        p_zt = np.empty((R, P))
        p_dew = np.empty((R, P))
        for p in range(P):
            served = self._p_served[p]
            p_zt[:, p] = T[:, served].mean(axis=1)
            p_dew[:, p] = dew_z[:, served].max(axis=1)
        self._p_last_total = total
        self._p_last_eff = effectiveness

        fanflow = _FAN_FLOWS[self._u_fan_step]
        fan_pw = _FAN_POWERS[self._u_fan_step]
        # Damper: open passes the fan flow; closed leaks nothing in
        # still air (leakage * wind_leak with wind_leak 0).
        u_flow = fanflow
        mass_air = u_flow * AIR_DENSITY
        reheat = np.where(u_flow > 0, self._u_reheat_k, 0.0)
        pumpflow = _pump_flow(self._u_pump_v, self._c_maxf, self._c_maxv,
                              self._c_dead)
        pump_pd = _pump_power(pumpflow, self._c_rated, self._c_standby,
                              self._c_head, self._c_peff) * dt
        fan_pd = fan_pw * dt
        alpha = self._alpha_cache.get(dt)
        if alpha is None:
            alpha = 1.0 - (np.zeros(n) if dt == 0
                           else np.exp(-dt / self._u_tau))
            self._alpha_cache[dt] = alpha
        flap_rate = dt / self._u_travel
        flap_pd = self._u_motor_pw * dt
        self._u_last_flow = u_flow
        self._u_last_fan_pw = fan_pw

        r_t, r_ein, r_hret, r_gain, r_chill, r_ce, r_chm = self._r_tank
        v_t, v_ein, v_hret, v_gain, v_chill, v_ce, v_chm = self._v_tank
        g_worst = self._g_worst
        g_viol = self._g_viol
        cond_ev = self._cond_ev
        fan_acc = self._fan_acc
        rt = self._p_rt
        heat_abs = self._p_heat_abs
        eff = self._u_eff
        flap_pos = self._u_flap_pos
        flap_tgt = self._u_flap_tgt

        if macro:
            heat_sum = np.zeros((R, n))
            flow_sum = np.zeros((R, n))
            flow_t_sum = np.zeros((R, n))
            flow_w_sum = np.zeros((R, n))
            t_sum = np.zeros((R, n))
            w_sum = np.zeros((R, n))

        serve_mat = self._serve_mat
        for _ in range(ticks):
            # --- radiant panels, all (R, P) at once --------------------
            # The scalar chain threads the tank temperature through the
            # panels serially; here every panel reads the tick-start
            # tank temperature and the summed returns are applied once
            # per tick.  The difference is bounded by one tick of tank
            # drift (microkelvin), inside the batch lane's tolerance.
            r_tc = r_t[:, None]
            mix_t = np.where(act, (fsupp * r_tc + frcyc * rt) / total_safe,
                             r_tc)
            heat_w = emcp * (p_zt - mix_t)
            return_t = mix_t + heat_w / mcp_safe
            heat_abs += np.where(act & (heat_w > 0), heat_w * dt, 0.0)
            new_rt = np.where(act, return_t,
                              rt + (p_zt - rt) * dt / 600.0)
            heat_j = np.where(act & sup_on, mwc * (return_t - r_tc), 0.0)
            r_dq = heat_j.sum(axis=1)
            r_t = r_t + r_dq / self._r_mass
            r_ein = r_ein + r_dq
            r_hret = r_hret + np.where(heat_j > 0, heat_j, 0.0).sum(axis=1)
            heat_act = np.where(act, heat_w, 0.0)
            tick_ph = (heat_act / self._serve_len) @ serve_mat
            mean_water = 0.5 * (mix_t + return_t)
            surface = mean_water + self._p_film * (p_zt - mean_water)
            margin = surface - p_dew
            g_worst = np.minimum(
                g_worst, np.where(act, margin, np.inf).min(axis=1))
            viol = act & (margin < self._g_margin)
            nviol = viol.sum(axis=1)
            g_viol = g_viol + nviol
            cond_ev = cond_ev + nviol
            self._p_last_heat = heat_act
            self._p_last_ret = np.where(act, return_t, mix_t)
            self._p_last_surf = np.where(act, surface, p_zt)
            self._p_last_mixt = mix_t
            self._p_sup_e += sup_pd
            self._p_rcy_e += rcy_pd
            rt = new_rt

            # --- vent units, all (R, n) at once ------------------------
            # Same relaxation for the vent tank: every coil reads the
            # tick-start water temperature.
            waterT = v_t[:, None]
            eff = eff + alpha * (pumpflow - eff)
            off = (u_flow == 0) | (eff == 0)
            wf = np.minimum(eff, self._u_maxwf)
            in_dew_c = in_dew[:, None]
            o_dew = np.maximum(in_dew_c - self._u_drop * wf,
                               waterT + self._u_appr)
            o_dew = np.minimum(o_dew, in_dew_c)
            o_w = humidity_ratio_from_dew_point_array(o_dew)
            o_w = np.minimum(o_w, out_w[:, None])
            wetness = wf / self._u_maxwf
            apparatus = waterT + self._u_appr * (1.0 - wetness)
            contact = self._u_bf1 * wetness
            out_tc = out_t[:, None]
            o_temp = out_tc - contact * (out_tc - apparatus)
            o_temp = np.maximum(o_temp, o_dew)
            heat_w = np.maximum(
                0.0, mass_air
                * (h_in[:, None] - moist_air_enthalpy_array(o_temp, o_w)))
            o_temp = np.where(off, out_tc, o_temp)
            o_w = np.where(off, out_w[:, None], o_w)
            o_dew = np.where(off, in_dew_c, o_dew)
            heat_w = np.where(off, 0.0, heat_w)
            sup_t = o_temp + reheat
            self._u_heat_e += heat_w * dt
            self._u_fan_e += fan_pd
            self._u_pump_e += pump_pd

            tgt = flap_tgt
            moving = np.abs(tgt - flap_pos) > 1e-9
            pos = np.where(flap_pos < tgt,
                           np.minimum(tgt, flap_pos + flap_rate),
                           np.where(flap_pos > tgt,
                                    np.maximum(tgt, flap_pos - flap_rate),
                                    flap_pos))
            self._u_flap_e += np.where(moving, flap_pd, 0.0)
            flap_pos = pos

            e_flow = u_flow * (0.25 + 0.75 * pos)
            cm = (eff > 0) & (heat_w > 0)
            mf = eff * 1e-3 * WATER_DENSITY
            m_cp = np.where(cm, mf * WATER_CP, 1.0)
            coil_return = waterT + heat_w / m_cp
            heat_j = np.where(cm, (mf * dt) * WATER_CP
                              * (coil_return - waterT), 0.0)
            v_dq = heat_j.sum(axis=1)
            v_t = v_t + v_dq / self._v_mass
            v_ein = v_ein + v_dq
            v_hret = v_hret + np.where(heat_j > 0, heat_j, 0.0).sum(axis=1)
            fan_acc = fan_acc + fan_pd.sum(axis=1)

            self._u_supt = sup_t
            self._u_supw = o_w
            self._u_eflow = e_flow
            self._u_last_dew = o_dew
            self._u_last_heat = heat_w
            self._u_last_waterT = np.broadcast_to(
                waterT, (R, n)).copy()
            if macro:
                heat_sum += tick_ph
                flow_sum += e_flow
                flow_t_sum += e_flow * sup_t
                flow_w_sum += e_flow * o_w
                t_sum += sup_t
                w_sum += o_w

            if macro:
                r_t, r_ein, r_hret, r_gain, r_chill, r_ce, r_chm = (
                    _tank_tick_batch(
                        r_t, r_ein, r_hret, r_gain, r_chill, r_ce, r_chm,
                        dt, ambient, self._r_ua, self._r_mass, self._r_hi,
                        self._r_lo, self._r_cap, self._r_par, self._r_cop))
                v_t, v_ein, v_hret, v_gain, v_chill, v_ce, v_chm = (
                    _tank_tick_batch(
                        v_t, v_ein, v_hret, v_gain, v_chill, v_ce, v_chm,
                        dt, ambient, self._v_ua, self._v_mass, self._v_hi,
                        self._v_lo, self._v_cap, self._v_par, self._v_cop))

        if macro:
            flow = flow_sum / ticks
            has = flow_sum > 0
            denom = np.where(has, flow_sum, 1.0)
            sup_t_avg = np.where(has, flow_t_sum / denom, t_sum / ticks)
            sup_w_avg = np.where(has, flow_w_sum / denom, w_sum / ticks)
            heat_avg = heat_sum / ticks
            self._advance_rooms_macro(ticks * dt, flow, sup_t_avg,
                                      sup_w_avg, heat_avg,
                                      out_t, out_w, out_c)
        else:
            self._euler_advance(None, dt, out_t, out_w, out_c,
                                self._u_eflow, self._u_supt, self._u_supw,
                                tick_ph)
            ambient = self._T.mean(axis=1)
            r_t, r_ein, r_hret, r_gain, r_chill, r_ce, r_chm = (
                _tank_tick_batch(
                    r_t, r_ein, r_hret, r_gain, r_chill, r_ce, r_chm,
                    dt, ambient, self._r_ua, self._r_mass, self._r_hi,
                    self._r_lo, self._r_cap, self._r_par, self._r_cop))
            v_t, v_ein, v_hret, v_gain, v_chill, v_ce, v_chm = (
                _tank_tick_batch(
                    v_t, v_ein, v_hret, v_gain, v_chill, v_ce, v_chm,
                    dt, ambient, self._v_ua, self._v_mass, self._v_hi,
                    self._v_lo, self._v_cap, self._v_par, self._v_cop))

        self._r_tank = [r_t, r_ein, r_hret, r_gain, r_chill, r_ce, r_chm]
        self._v_tank = [v_t, v_ein, v_hret, v_gain, v_chill, v_ce, v_chm]
        self._p_rt = rt
        self._u_eff = eff
        self._u_flap_pos = flap_pos
        self._g_worst = g_worst
        self._g_viol = g_viol
        self._cond_ev = cond_ev
        self._fan_acc = fan_acc
        self._time_int = self._time_int + ticks * dt

    # ------------------------------------------------------------------
    def _advance_rooms_macro(self, dt: float, flow, sup_t, sup_w,
                             panel_heat, out_t, out_w, out_c) -> None:
        """Closed-form room advance for all replicas over one macro gap.

        The replicas are one batch of the master room's
        :meth:`~repro.physics.room.Room.solve_gaps`; replicas whose
        closed form does not hold drop to the per-tick Euler
        transcription, mirroring :meth:`Room.macro_step`'s fallback.
        """
        x0 = np.stack([self._T, self._W, self._C], axis=1)
        end, held = self._room.solve_gaps(
            dt, x0, out_t, out_w, out_c, vent_flow=flow, supply_temp=sup_t,
            supply_w=sup_w, panel_heat=panel_heat,
            occupants=self._occupants, equipment=self._equipment,
            opening=self._opening)
        self._T[held] = end[held, 0]
        self._W[held] = end[held, 1]
        self._C[held] = end[held, 2]
        sel = np.flatnonzero(~held)
        if sel.size:
            self._euler_advance(sel, dt, out_t[sel], out_w[sel],
                                out_c[sel], flow[sel], sup_t[sel],
                                sup_w[sel], panel_heat[sel])

    def _euler_advance(self, sel: Optional[np.ndarray], dt: float,
                       out_t, out_w, out_c, flow, sup_t, sup_w,
                       panel_heat) -> None:
        """Batched :meth:`Room.step` (per-tick Euler with floor clamps)."""
        if sel is None:
            T, W, C = self._T, self._W, self._C
        else:
            T, W, C = self._T[sel], self._W[sel], self._C[sel]
        ai = self._adj_i
        aj = self._adj_j
        inc = self._incidence
        m_vent = flow * AIR_DENSITY
        co2_floor = (out_c * 0.5)[:, None]
        out_t = out_t[:, None]
        out_w = out_w[:, None]
        out_c = out_c[:, None]
        remaining = float(dt)
        while remaining > 1e-12:
            sub_dt = min(self._max_euler_dt, remaining)
            delta_t = T[:, aj] - T[:, ai]
            q_pair = self._coupling_ua * delta_t + self._mc_mix * delta_t
            d_temp = q_pair @ inc
            d_w = (self._m_mix * (W[:, aj] - W[:, ai])) @ inc
            d_co2 = (self._mixing_flow * (C[:, aj] - C[:, ai])) @ inc

            q = (d_temp + self._envelope_ua * (out_t - T)
                 + self._occ_sens - panel_heat
                 + m_vent * AIR_CP * (sup_t - T)
                 + self._m_exch * AIR_CP * (out_t - T))
            new_t = T + sub_dt * q / self._capacity

            mw = (d_w * self._buffer + m_vent * (sup_w - W)
                  + self._m_exch * (out_w - W) + self._occ_lat)
            new_w = np.maximum(W + sub_dt * mw / self._water_masses, 1e-5)

            c = (d_co2 + flow * (out_c - C) + self._g_exch * (out_c - C)
                 + self._occ_co2)
            new_c = np.maximum(C + sub_dt * c / self._volumes, co2_floor)

            T, W, C = new_t, new_w, new_c
            remaining -= sub_dt
        if sel is None:
            self._T, self._W, self._C = T, W, C
        else:
            self._T[sel] = T
            self._W[sel] = W
            self._C[sel] = C

    # ------------------------------------------------------------------
    # Master seam: control
    # ------------------------------------------------------------------
    def on_control(self, now: float) -> None:
        """Run every replica's direct control step (batched)."""
        if not self._r:
            return
        from repro.devices.boards import CONTROL_PERIOD_S
        dt = float(CONTROL_PERIOD_S)
        T = self._T
        W = self._W
        C = self._C
        supply = self._r_tank[0]
        room_temp = T.mean(axis=1)
        dew_z = dew_point_from_humidity_ratio_array(W)

        # --- radiant module, (R, P) ------------------------------------
        P = self._np
        ceil_dew = np.empty((self._r, P))
        for p in range(P):
            ceil_dew[:, p] = dew_z[:, self._p_served[p]].max(axis=1)
        supply_c = supply[:, None]
        mix_temp = np.maximum(supply_c, ceil_dew + self._rad_margin)
        ret = self._p_rt
        achievable = np.maximum(supply_c, ret)
        blocked = mix_temp > achievable + 1e-9
        delta = self._rad_pref - room_temp[:, None]
        new_int, new_last, flow_target = _batch_pid(
            self._rad_int, self._rad_last, delta, dt,
            self._rad_kp, self._rad_ki, self._rad_kd,
            self._rad_lo, self._rad_hi)
        self._rad_int = np.where(blocked, 0.0, new_int)
        self._rad_last = np.where(blocked, np.nan, new_last)
        lo = np.minimum(supply_c, ret)
        hi = np.maximum(supply_c, ret)
        target = np.minimum(np.maximum(mix_temp, lo), hi)
        same = np.abs(ret - supply_c) < 1e-9
        denom = np.where(same, 1.0, ret - supply_c)
        frac = np.clip((target - supply_c) / denom, 0.0, 1.0)
        f_rcyc = np.where(same, 0.0, flow_target * frac)
        f_supp = flow_target - f_rcyc
        sup_v = _pump_voltage(f_supp, self._p_maxf, self._p_maxv,
                              self._p_dead)
        rcy_v = _pump_voltage(f_rcyc, self._p_maxf, self._p_maxv,
                              self._p_dead)
        self._p_sup_v = np.where(blocked, 0.0, sup_v)
        self._p_rcy_v = np.where(blocked, 0.0, rcy_v)

        # --- ventilation module, (R, n) --------------------------------
        room_target = np.minimum(self._pref_dew, supply)[:, None]
        pulldown = dew_z - room_target > PULLDOWN_TRIGGER_K
        supply_target = np.where(pulldown,
                                 room_target - PULLDOWN_MARGIN_K,
                                 room_target - HOLD_MARGIN_K)
        if self._gap_count == 0:
            airbox_dew = dew_z
        else:
            airbox_dew = np.where(self._u_last_flow == 0,
                                  dew_z, self._u_last_dew)
        proxy = supply_target - airbox_dew
        new_int, new_last, coil_flow = _batch_pid(
            self._vent_int, self._vent_last, proxy, dt,
            self._vent_kp, self._vent_ki, self._vent_kd,
            self._vent_lo, self._vent_hi)
        self._vent_int = new_int
        self._vent_last = new_last

        wet = dew_z - room_target > self._dew_deadband
        current_w = humidity_ratio_from_dew_point_array(dew_z)
        target_w = humidity_ratio_from_dew_point_array(room_target)
        supply_w = humidity_ratio_from_dew_point_array(
            np.maximum(supply_target, airbox_dew - 5.0))
        surplus = current_w - target_w
        leverage = current_w - supply_w
        usable = wet & (surplus > 0) & (leverage > 1e-9)
        v_humd = np.where(
            usable,
            self._vols * surplus / np.where(usable, leverage, 1.0), 0.0)
        c_surplus = C - self._co2_target
        c_leverage = C - self._outdoor_co2_const
        c_usable = (c_surplus > 0) & (c_leverage > 1e-9)
        v_co2 = np.where(
            c_usable,
            self._vols * c_surplus / np.where(c_usable, c_leverage, 1.0),
            0.0)
        demand = np.maximum(v_humd, v_co2) / CONTROL_HORIZON_S
        demand = np.clip(demand, self._min_fresh, _FAN_FLOWS[-1])
        step = np.searchsorted(_FAN_FLOWS, demand - 1e-12, side="left")
        self._u_fan_step = step
        self._u_flap_tgt = np.where(step > 0, 1.0, 0.0)
        self._u_pump_v = _pump_voltage(coil_flow, self._c_maxf,
                                       self._c_maxv, self._c_dead)

    def on_record(self, now: float) -> None:
        """Mirror the master's recorder tick into every replica trace.

        The master records through :meth:`BubbleZero._record` as usual;
        this seam writes the same series names from the batch arrays so
        a finalized replica summarises like a finished solo run
        (comfort/dew violation minutes need the trace, not just final
        state).  Values live in the lockstep tolerance lane, like the
        rest of the replica trajectory.
        """
        if not self._r:
            return
        dew_z = dew_point_from_humidity_ratio_array(self._W)
        for r, rep in enumerate(self.replicas):
            trace = rep.sim.trace
            outdoor = rep.plant.outdoor(now)
            trace.record("outdoor/temp", now, outdoor.temp_c)
            trace.record("outdoor/dew", now, outdoor.dew_point_c)
            for i in range(self._n):
                trace.record(f"subspace/{i}/temp", now,
                             float(self._T[r, i]))
                trace.record(f"subspace/{i}/dew", now,
                             float(dew_z[r, i]))
                trace.record(f"subspace/{i}/co2", now,
                             float(self._C[r, i]))
            trace.record("tank/18C", now, float(self._r_tank[0][r]))
            trace.record("tank/8C", now, float(self._v_tank[0][r]))
            for p in range(self._np):
                trace.record(f"panel/{p}/mix_temp", now,
                             float(self._p_last_mixt[r, p]))
                total = float(self._p_last_total[r, p])
                trace.record(f"panel/{p}/mix_flow", now,
                             total if total > 0 else 0.0)
                if self._gap_count:
                    trace.record(f"panel/{p}/heat", now,
                                 float(self._p_last_heat[r, p]))
                    trace.record(f"panel/{p}/surface", now,
                                 float(self._p_last_surf[r, p]))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self, minutes: Optional[float] = None) -> List:
        """Run master + batch to the horizon; returns the systems."""
        horizon = self.spec.run_minutes if minutes is None else minutes
        self.master.start()
        self.master.run(minutes=horizon)
        self.master.finalize()
        self.finalize_replicas()
        return self.systems

    def finalize_replicas(self) -> None:
        """Write the batch arrays back into the replica objects.

        After this, each replica's plant reads exactly like a finished
        solo run: meters, tanks, pumps, guard and zone state all hold
        the batch results (controller-internal PID state is not written
        back — replicas' controller objects never ran).
        """
        if self._finalized or not self._r:
            self._finalized = True
            return
        self._finalized = True
        for r, rep in enumerate(self.replicas):
            plant = rep.plant
            arrays = plant._vector_kernel.arrays
            arrays.temp_c[:] = self._T[r]
            arrays.humidity_ratio[:] = self._W[r]
            arrays.co2_ppm[:] = self._C[r]
            for name, tank, chiller in (
                    ("r", plant.radiant_tank, plant.radiant_tank.chiller),
                    ("v", plant.vent_tank, plant.vent_tank.chiller)):
                st = self._r_tank if name == "r" else self._v_tank
                tank.temp_c = float(st[0][r])
                tank.energy_in_j = float(st[1][r])
                tank.heat_returned_j = float(st[2][r])
                tank.ambient_gain_j = float(st[3][r])
                tank._chilling = bool(st[4][r])
                chiller.energy_j = float(st[5][r])
                chiller.heat_moved_j = float(st[6][r])
            for p, loop in enumerate(plant.panel_loops):
                loop.return_temp_c = float(self._p_rt[r, p])
                loop.mix_temp_c = float(self._p_last_mixt[r, p])
                total = float(self._p_last_total[r, p])
                loop.mix_flow_lps = total if total > 0 else 0.0
                loop.last_result = PanelResult(
                    float(self._p_last_heat[r, p]),
                    float(self._p_last_ret[r, p]),
                    float(self._p_last_surf[r, p]),
                    float(self._p_last_eff[r, p]) if total > 0 else 0.0)
                loop.panel.heat_absorbed_j = float(self._p_heat_abs[r, p])
                loop.supply_pump.energy_j = float(self._p_sup_e[r, p])
                loop.recycle_pump.energy_j = float(self._p_rcy_e[r, p])
                loop.supply_pump.set_voltage(float(self._p_sup_v[r, p]))
                loop.recycle_pump.set_voltage(float(self._p_rcy_v[r, p]))
            for i, unit in enumerate(plant.vent_units):
                ab = unit.airbox
                ab._coil_flow_effective_lps = float(self._u_eff[r, i])
                ab.coil.heat_extracted_j = float(self._u_heat_e[r, i])
                ab.coil.water_temp_c = float(self._u_last_waterT[r, i])
                ab.fans.energy_j = float(self._u_fan_e[r, i])
                ab.fans.speed_step = int(self._u_fan_step[r, i])
                ab.coil_pump.energy_j = float(self._u_pump_e[r, i])
                ab.coil_pump.set_voltage(float(self._u_pump_v[r, i]))
                flap = unit.flap
                flap._position = float(self._u_flap_pos[r, i])
                flap._target = float(self._u_flap_tgt[r, i])
                flap.energy_j = float(self._u_flap_e[r, i])
                if self._gap_count:
                    unit.last_output = AirboxOutput(
                        flow_m3s=float(self._u_last_flow[r, i]),
                        supply_temp_c=float(self._u_supt[r, i]),
                        supply_humidity_ratio=float(self._u_supw[r, i]),
                        supply_dew_point_c=float(self._u_last_dew[r, i]),
                        coil_heat_w=float(self._u_last_heat[r, i]),
                        coil_water_flow_lps=float(self._u_eff[r, i]),
                        fan_power_w=float(self._u_last_fan_pw[r, i]),
                    )
            guard = plant.guard
            guard.worst_margin_k = float(self._g_worst[r])
            guard.violations = int(self._g_viol[r])
            plant.room.condensation_events = int(self._cond_ev[r])
            plant.fan_energy_j = float(self._fan_acc[r])
            plant.time_integrated_s = float(self._time_int[r])


def _tank_tick_batch(t, ein, hret, gain, chilling, ce, chm, dt, ambient,
                     ua, mass, hi, lo, cap, par, cop):
    """Vectorised :func:`repro.physics.vector._tank_tick` over replicas."""
    gain_w = ua * (ambient - t)
    g_dt = gain_w * dt
    t = t + g_dt / mass
    gain = gain + g_dt
    chilling = np.where(t > hi, True, np.where(t < lo, False, chilling))
    max_removable = (t - lo) * mass / dt if dt else np.zeros_like(t)
    load = np.minimum(cap, np.maximum(0.0, max_removable))
    clamped = np.minimum(load, cap)
    active_e = np.where(clamped == 0, par * dt, (par + clamped / cop) * dt)
    ce = ce + np.where(chilling, active_e, par * dt)
    chm = chm + np.where(chilling, clamped * dt, 0.0)
    t = t - np.where(chilling, load * dt / mass, 0.0)
    return t, ein, hret, gain, chilling, ce, chm


def run_lockstep(spec: ScenarioSpec, seeds: Sequence[int],
                 minutes: Optional[float] = None, obs=None
                 ) -> LockstepBatch:
    """Build, run and finalize a lockstep batch; returns it."""
    batch = LockstepBatch(spec, seeds, obs=obs)
    batch.run(minutes=minutes)
    return batch
