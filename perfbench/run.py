"""Benchmark of record for the BubbleZERO reproduction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --write-pins

Run from the root of a checkout; the program is imported from its
``src/``.  Workloads, metrics and the layer each metric belongs to are
described in ``perfbench/metrics.json``; ``BENCHMARK.json`` at the root
lists the workloads and metrics with their units and bounds.

``--trace 0`` (end-to-end):
    set-up is sampled ``SETUP_SAMPLES`` times, each in a fresh
    interpreter, and reported as the median.  Then the workload runs in
    a closed loop — one fresh interpreter per iteration, the next
    started when the previous one ended — until ``--seconds`` have
    passed.  Times are medians over iterations, each rescaled to the
    reference CPU speed by the probe of ``calibrate.py``; the raw host
    medians are printed on the ``host`` line before the result.
``--trace 1`` (per layer):
    one untraced iteration (pool numbers, tracing baseline) and one
    traced iteration under ``tracer.Tracer``, in-process at pool width
    1.  Both must produce the same digest.

Every iteration's output digest must equal every other's.  On the
default seed the digests and simulated statistics must also equal the
ones pinned in ``perfbench/pinned.json``; the model has no hardware
reference here, so those are regression pins, not error figures.  On any
other seed only raised runs and ``RunFailure`` payloads are failures.

The last line of standard output is the result object; the line before
it records the environment.  Exits non-zero, printing no result, when
set-up cannot run (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    replica_violations,
)
from calibrate import speed_scale  # noqa: E402
from tracer import NAMED_LAYERS, UNATTRIBUTED  # noqa: E402

PINS = os.path.join(HERE, "pinned.json")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170.0
#: Share of the traced wall within which named + unattributed layer
#: time must reconcile with it.
RECONCILE_TOL = 0.005


class ChildFailed(RuntimeError):
    pass


def pin_environment() -> None:
    """Environment every process of the benchmark inherits."""
    # One BLAS thread per process: with the library default, pool
    # workers on a 2-CPU host oversubscribe and the grid workload's
    # wall time swings 3-4x between identical runs.  The thread count
    # also moves LAPACK results in the last bits, so the pins depend
    # on it.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1",
                      # The bake-off manifest asks git for a revision;
                      # keep it from searching above the checkout.
                      GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))


def spawn(mode: str, workload: str, seed: int, record: bool = False) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
           str(seed)] + (["--record"] if record else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} {workload}: timed out")
    finally:
        # Reap anything the child left in its session (pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} {workload}: exit {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def pin_failures(workload: str, seed: int, sample: dict, pins: dict) -> list:
    """How ``sample`` departs from the pinned outputs (default seed)."""
    if seed != DEFAULT_SEED:
        return []
    pin = pins[workload]
    bad = []
    if sample["digest"] != pin["digest"]:
        bad.append(f"digest {sample['digest']} != pinned {pin['digest']}")
    if sample["stats"] != pin["stats"]:
        bad.append("simulated statistics differ from the pinned ones")
    if "replicas" in sample:
        bad.extend(replica_violations(sample["replicas"],
                                      pin["replica_solo"]))
    return bad


class Tally:
    """Attempted/failed runs and correctness over one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pins = load_pins()
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.problems = []

    def run(self, mode: str) -> dict:
        runs = WORKLOADS[self.workload].runs
        self.attempted += runs
        try:
            sample = spawn(mode, self.workload, self.seed)
        except ChildFailed as exc:
            self.failed += runs
            self.problems.append(str(exc))
            return None
        self.failed += sample["failed"]
        self.digests.add(sample["digest"])
        bad = pin_failures(self.workload, self.seed, sample, self.pins)
        if bad:
            self.failed += runs - sample["failed"]
            self.problems.extend(bad)
        return sample

    def correct(self) -> bool:
        if len(self.digests) > 1:
            self.problems.append(f"digests differ between iterations: "
                                 f"{sorted(self.digests)}")
        return (self.failed == 0 and len(self.digests) == 1
                and not self.problems)


def end_to_end(tally: Tally, seconds: float):
    """End-to-end metrics (rescaled to the reference CPU speed, see
    ``calibrate``) and the raw host-time medians behind them."""
    setups = [spawn("setup", tally.workload, tally.seed)
              for _ in range(SETUP_SAMPLES)]
    samples = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sample = tally.run("run")
        if sample is not None:
            samples.append(sample)
    if not samples:
        raise ChildFailed("no iteration completed")
    walls = [s["wall_s"] * speed_scale(s["probes"]) for s in samples]
    metrics = {
        "setup_s": statistics.median(
            s["setup_s"] * speed_scale(s["probes"]) for s in setups),
        "wall_s": statistics.median(walls),
        "sim_s_per_wall_s": statistics.median(
            s["sim_s"] / wall for s, wall in zip(samples, walls)),
        "peak_rss_mb": statistics.median(
            max(s["rss_mb"].values()) for s in samples),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    raw = {
        "iterations": len(samples),
        "host_setup_s": statistics.median(s["setup_s"] for s in setups),
        "host_wall_s": statistics.median(s["wall_s"] for s in samples),
        "probe_s": statistics.median(statistics.median(s["probes"])
                                     for s in samples),
    }
    return metrics, raw


def per_layer(tally: Tally):
    """Per-layer metrics and the traced run's span edges."""
    untraced = tally.run("run")
    traced = tally.run("trace")
    if untraced is None or traced is None:
        raise ChildFailed("traced or untraced iteration failed")
    trace = traced["trace"]
    self_s, counts = trace["self_s"], trace["counts"]
    wall = traced["wall_s"] - trace["excluded_s"]

    def count(key):
        return counts.get(key, 0.0)

    def busy(layer):
        return self_s.get(layer, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    # Named layers plus the unattributed rest (modules with no named
    # layer, and time inside no span) must add up to the traced wall.
    # Self times and span durations are summed separately, so this
    # catches double-counted or lost span time.
    named = sum(busy(layer) for layer in NAMED_LAYERS)
    top_level = sum(seconds for parent, _c, _n, seconds in trace["edges"]
                    if parent == "-")
    unattributed = busy(UNATTRIBUTED) + wall - top_level
    if (abs(named + unattributed - wall) > RECONCILE_TOL * wall
            or unattributed < -RECONCILE_TOL * wall):
        tally.problems.append(
            f"layer self times ({named:.4f} s named, {unattributed:.4f} s "
            f"unattributed) do not reconcile with the traced wall "
            f"({wall:.4f} s)")
    pool = untraced["pool"] or {}
    walls = pool.get("run_walls") or []
    workers = pool.get("workers", 0)
    replicas = (traced["pool"] or {}).get("replicas", 0)
    sent, enqueued = count("mac.sent"), count("mac.enqueued")
    frames, deliveries = count("medium.frames"), count("medium.deliveries")
    return {
        "engine.events": count("engine.events"),
        "engine.self_s": busy("engine"),
        "engine.ns_per_event": ratio(busy("engine") * 1e9,
                                     count("engine.events")),
        "mac.self_s": busy("mac"),
        "mac.enqueued": enqueued,
        "mac.sent": sent,
        "mac.backoffs": count("mac.backoffs"),
        "mac.cca_failures": count("mac.cca_failures"),
        "mac.dropped": count("mac.dropped"),
        "mac.sent_frac": ratio(sent, enqueued),
        "mac.access_delay_ms": ratio(count("mac.access_delay_s") * 1e3,
                                     sent),
        "medium.self_s": busy("medium"),
        "medium.frames": frames,
        "medium.collisions": count("medium.collisions"),
        "medium.deliveries": deliveries,
        "medium.fanout": ratio(deliveries, frames),
        "medium.ns_per_delivery": ratio(busy("medium") * 1e9, deliveries),
        "bus.self_s": busy("bus"),
        "bus.receives": count("bus.receives"),
        "btadpt.self_s": busy("btadpt"),
        "btadpt.samples": count("btadpt.samples"),
        "btadpt.sends": count("btadpt.sends"),
        "btadpt.send_frac": ratio(count("btadpt.sends"),
                                  count("btadpt.samples")),
        "btadpt.mean_tsnd_s": trace["mean_tsnd_s"],
        "schedule.self_s": busy("schedule"),
        "schedule.calls": count("schedule.calls"),
        "devices.self_s": busy("devices"),
        "devices.reports": count("devices.reports"),
        "control.self_s": busy("control"),
        "control.steps": count("control.steps"),
        "physics.self_s": busy("physics"),
        "physics.kernel_calls": count("physics.kernel_calls"),
        "physics.sim_s_per_call": ratio(count("physics.kernel_sim_s"),
                                        count("physics.kernel_calls")),
        "physics.psychro_hit_rate": trace["psychro_hit_rate"],
        "physics.spectral_hit_rate": trace["spectral_hit_rate"],
        "physics.ns_per_zone_tick": ratio(busy("physics") * 1e9,
                                          count("physics.zone_ticks")),
        "core.self_s": busy("core"),
        "lockstep.self_s": busy("lockstep"),
        "lockstep.replicas": replicas,
        "lockstep.s_per_replica": ratio(busy("lockstep"), replicas),
        "pool.runs": pool.get("runs", 0),
        "pool.retries": pool.get("retries", 0),
        "pool.run_wall_s_p50": statistics.median(walls) if walls else 0.0,
        "pool.busy_frac": ratio(sum(walls), workers * untraced["wall_s"]),
        "pool.overhead_s": (untraced["wall_s"] - pool["busiest_worker_s"]
                            if pool else 0.0),
        "study.specs_s": busy("study.specs"),
        "study.merge_s": busy("study.merge"),
        "trace.overhead_pct": 100.0 * (traced["wall_s"]
                                       / untraced["wall_s"] - 1.0),
        "trace.unattributed_pct": 100.0 * unattributed / wall,
    }, trace["edges"]


def environment(load_before) -> dict:
    from importlib import metadata

    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_rev": rev,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def write_pins() -> None:
    """Re-record ``pinned.json`` from the default seed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import solo_replica_metrics

    pins = {"seed": DEFAULT_SEED}
    for name in WORKLOADS:
        sample = spawn("run", name, DEFAULT_SEED, record=True)
        pins[name] = {"digest": sample["digest"], "stats": sample["stats"],
                      "record": sample["record"]}
        if "replicas" in sample:
            pins[name]["replica_solo"] = solo_replica_metrics(
                int(seed) for seed in sample["replicas"])
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    pin_environment()
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    load_before = os.getloadavg()
    tally = Tally(args.workload, args.seed)
    try:
        if args.trace:
            metrics, edges = per_layer(tally)
            print(json.dumps({"trace_edges": edges}))
        else:
            metrics, raw = end_to_end(tally, args.seconds)
            print(json.dumps({"host": raw}))
    except ChildFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    correct = tally.correct()
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    unit = units(args.trace)
    if set(unit) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(unit) ^ set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps({"env": environment(load_before)}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
