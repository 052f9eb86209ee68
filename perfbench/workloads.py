"""The benchmark's three workloads: inputs from a seed, the timed region,
and the digest of what each one computed.

Every workload is a closed-loop batch job driven from one process: one
client, and the next run starts only when the previous one finished.
Pooled workloads fan out over ``os.cpu_count()`` spawn workers through
the program's own ``repro.runtime.pool.run_specs``.

Each workload exposes the same steps, used by ``child.py``:

``build()``
    make the inputs (scenario or run specs) from the seed;
``start()``
    build the first system and boot it — the tail of set-up;
``timed(workers)``
    the timed region; returns a :class:`PoolLog` for pooled workloads;
``record()`` / ``stats()``
    the digest record (exact public outputs) and the simulated
    statistics pinned for the default seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional

#: Seed the pinned digests and statistics were recorded with.
DEFAULT_SEED = 7


def digest(record: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a digest record.

    ``json`` writes floats with ``repr``, so every bit of every float
    reaches the hash.
    """
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


class PoolLog:
    """What one ``run_specs`` call did, seen from outside the pool.

    Progress events carry no worker id, so busy time per worker is
    rebuilt from event order: a run starts on the worker that freed up
    most recently, exactly as the pool hands out work.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.retries = 0
        self.run_walls: List[float] = []
        self.replicas = 0
        self.runs = 0
        self._free = list(range(workers))
        self._slot: Dict[int, int] = {}
        self.slot_busy_s = [0.0] * workers

    def on_progress(self, event) -> None:
        from repro.runtime.progress import FAILED, FINISHED, RETRIED, STARTED

        if event.kind == STARTED:
            self._slot[event.index] = (self._free.pop() if self._free
                                       else 0)
        elif event.kind in (FINISHED, FAILED, RETRIED):
            slot = self._slot.pop(event.index, None)
            if slot is not None:
                if event.wall_s is not None:
                    self.slot_busy_s[slot] += event.wall_s
                self._free.append(slot)
            if event.kind == RETRIED:
                self.retries += 1

    def on_payloads(self, payloads) -> None:
        from repro.runtime.spec import BatchRunResult, RunFailure

        for payload in payloads:
            if isinstance(payload, RunFailure):
                continue
            self.runs += 1
            self.run_walls.append(payload.wall_s)
            if isinstance(payload, BatchRunResult):
                self.replicas += len(payload.results) - 1

    def as_dict(self) -> Dict[str, object]:
        return {"workers": self.workers, "runs": self.runs,
                "retries": self.retries, "run_walls": self.run_walls,
                "replicas": self.replicas,
                "busiest_worker_s": max(self.slot_busy_s, default=0.0)}


def logged_run_specs(log: PoolLog):
    """A ``run_specs`` stand-in that tees progress and payloads into
    ``log`` and otherwise calls the program's pool unchanged."""
    from repro.runtime import pool

    real = pool.run_specs

    def run_specs(specs, workers=None, timeout_s=None, retries=1,
                  progress=None, **kwargs):
        def tee(event):
            log.on_progress(event)
            if progress is not None:
                progress(event)
        payloads = real(specs, workers=workers, timeout_s=timeout_s,
                        retries=retries, progress=tee, **kwargs)
        log.on_payloads(payloads)
        return payloads
    return run_specs


def _reseeded(scenario, seed: int):
    return dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, seed=seed))


class PaperVC:
    """§V-C: five simulated hours of BT-ADPT on the 4-zone lab."""

    name = "paper-vc"
    pooled = False
    runs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.system = None

    def build(self) -> None:
        from repro.scenarios.registry import get_scenario

        self.spec = _reseeded(get_scenario("paper-vc"), self.seed)
        self.sim_s = self.spec.run_minutes * 60.0

    def start(self) -> None:
        from repro.scenarios.spec import prepare_run

        self.system, _clearance = prepare_run(self.spec)
        self.system.start()

    def timed(self, workers: int) -> Optional[PoolLog]:
        self.system.run(minutes=self.spec.run_minutes)
        self.system.finalize()
        return None

    def failures(self) -> int:
        return 0

    def record(self) -> Dict[str, object]:
        from repro.analysis.fingerprint import discrete_log_hash

        system = self.system
        room = system.plant.room
        zones = [room.state_of(i) for i in range(len(room.subspaces))]
        return {
            "discrete_log_hash": discrete_log_hash(system),
            "events_dispatched": system.sim.events_dispatched,
            "zones": [[z.temp_c, z.humidity_ratio, z.co2_ppm]
                      for z in zones],
            "tanks": [system.plant.radiant_tank.temp_c,
                      system.plant.vent_tank.temp_c],
            "meters": system.plant.meter_snapshot(),
        }

    def stats(self) -> Dict[str, object]:
        system = self.system
        net = system.network_stats()
        elapsed = system.sim.clock.elapsed
        nodes = system.bt_nodes
        return {
            "transmissions": net["transmissions"],
            "collisions": net["collisions"],
            "mean_tsnd_s": sum(n.send_period_s for n in nodes) / len(nodes),
            "mean_lifetime_years": sum(
                n.projected_lifetime_years(elapsed) for n in nodes)
            / len(nodes),
            "cop": system.plant.cop_report(),
        }


class Bakeoff8z:
    """pid/consensus/deadband x 2 seeds on the 8-zone network grid."""

    name = "bakeoff-8z"
    pooled = True
    runs = 6  # three controllers x two seeds
    minutes = 15.0
    warmup_minutes = 5.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.result = None

    def build(self) -> None:
        from repro.workloads.bakeoff import BakeoffConfig, bakeoff_specs

        # Seeds (s, s+4) make the default (7, 11) BakeoffConfig's own.
        self.config = BakeoffConfig(
            scenarios=("bakeoff/pid/8z",), seeds=(self.seed, self.seed + 4),
            minutes=self.minutes, warmup_minutes=self.warmup_minutes)
        self.specs = bakeoff_specs(self.config)
        self.sim_s = len(self.specs) * self.minutes * 60.0

    def start(self) -> None:
        from repro.scenarios.spec import prepare_run

        system, _clearance = prepare_run(self.specs[0].scenario)
        system.start()

    def timed(self, workers: int) -> PoolLog:
        from repro.runtime import pool
        from repro.workloads.bakeoff import run_bakeoff

        log = PoolLog(workers)
        real = pool.run_specs
        pool.run_specs = logged_run_specs(log)
        try:
            self.result = run_bakeoff(self.config, workers=workers)
        finally:
            pool.run_specs = real
        self.result.render()  # rendering the report is timed work too
        self.report_json = json.dumps(self.result.report_dict(),
                                      sort_keys=True)
        return log

    def failures(self) -> int:
        return len(self.result.failures)

    def record(self) -> Dict[str, object]:
        report = json.loads(self.report_json)
        del report["manifest"]  # carries git_rev, not an output
        return report

    def stats(self) -> Dict[str, object]:
        return {"aggregates": json.loads(self.report_json)["aggregates"]}


class Grid128Seeds:
    """16 seed replicas of the radio-off 128-zone grid, lockstep groups
    over the pool."""

    name = "grid128-seeds"
    pooled = True
    runs = 16
    # Fixed, not derived from the CPU count, so the master lanes (and
    # with them the digest) are the same on every host.
    group = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.payloads = None

    def build(self) -> None:
        from repro.runtime.spec import RunSpec
        from repro.scenarios.registry import get_scenario

        self.scenario = get_scenario("grid-128")
        seeds = list(range(self.seed, self.seed + self.runs))
        self.specs = [
            RunSpec(label=f"group-{k}", scenario=self.scenario,
                    lockstep_seeds=tuple(seeds[k:k + self.group]))
            for k in range(0, len(seeds), self.group)]
        self.sim_s = len(seeds) * self.scenario.run_minutes * 60.0

    def start(self) -> None:
        from repro.runtime.lockstep import LockstepBatch

        batch = LockstepBatch(self.scenario, self.specs[0].lockstep_seeds)
        batch.master.start()

    def timed(self, workers: int) -> PoolLog:
        log = PoolLog(workers)
        self.payloads = logged_run_specs(log)(self.specs, workers=workers)
        return log

    def failures(self) -> int:
        from repro.runtime.spec import RunFailure

        return sum(len(spec.lockstep_seeds)
                   for spec, payload in zip(self.specs, self.payloads)
                   if isinstance(payload, RunFailure))

    def _lanes(self):
        from repro.runtime.spec import RunFailure

        for spec, payload in zip(self.specs, self.payloads):
            if isinstance(payload, RunFailure):
                continue
            for seed, result in zip(spec.lockstep_seeds, payload.results):
                yield seed, result

    def record(self) -> Dict[str, object]:
        masters = {spec.lockstep_seeds[0] for spec in self.specs}
        return {"masters": [
            {"seed": seed, "discrete_hash": r.discrete_hash,
             "events": r.events, "metrics": r.metrics}
            for seed, r in self._lanes() if seed in masters]}

    def stats(self) -> Dict[str, object]:
        return {str(lane["seed"]): lane["metrics"]
                for lane in self.record()["masters"]}

    def replica_metrics(self) -> Dict[str, Dict[str, float]]:
        """Replica-lane metrics checked against solo runs within the
        documented lockstep tolerance."""
        masters = {spec.lockstep_seeds[0] for spec in self.specs}
        return {str(seed): {key: r.metrics[key]
                            for key in REPLICA_TOLERANCE}
                for seed, r in self._lanes() if seed not in masters}


#: Replica-vs-solo tolerance: (absolute, relative), the bounds the
#: lockstep sweep tests document for replica lanes.
REPLICA_TOLERANCE = {
    "mean_temp_c": (5e-3, 0.0),
    "mean_dew_c": (5e-3, 0.0),
    "energy_j": (0.0, 1e-2),
}

WORKLOADS = {w.name: w for w in (PaperVC, Bakeoff8z, Grid128Seeds)}


def solo_replica_metrics(seeds) -> Dict[str, Dict[str, float]]:
    """Solo (non-lockstep) runs of grid-128 for the given seeds — the
    reference the replica lanes are pinned against."""
    from repro.analysis.degradation import summarize_run
    from repro.runtime.spec import paper_metrics
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import run_scenario

    out = {}
    base = get_scenario("grid-128")
    for seed in seeds:
        system = run_scenario(_reseeded(base, seed))
        outcome = summarize_run(system, f"seed-{seed}",
                                warmup_s=base.warmup_minutes * 60.0)
        metrics = paper_metrics(system, outcome)
        out[str(seed)] = {key: metrics[key] for key in REPLICA_TOLERANCE}
    return out


def replica_violations(observed: Dict[str, Dict[str, float]],
                       solo: Dict[str, Dict[str, float]]) -> List[str]:
    """Replica metrics outside :data:`REPLICA_TOLERANCE` of solo runs."""
    bad = []
    for seed, metrics in observed.items():
        for key, (abs_tol, rel_tol) in REPLICA_TOLERANCE.items():
            ref = solo[seed][key]
            if abs(metrics[key] - ref) > abs_tol + rel_tol * abs(ref):
                bad.append(f"seed {seed} {key}: {metrics[key]!r} vs "
                           f"solo {ref!r}")
    return bad


def peak_rss_mb() -> Dict[str, float]:
    """Peak RSS of this process and of its largest reaped child."""
    import resource

    kib = 1024.0
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib,
        "children":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib,
    }
