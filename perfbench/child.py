"""One measured process of the benchmark: ``run.py`` starts a fresh
interpreter running this file for every sample, so no sample inherits
another's warm caches, imports or heap.

    python3 perfbench/child.py {setup|run|trace} WORKLOAD SEED [--record]

``setup``  time importing ``repro``, building the inputs and
           ``start()``-ing the first system;
``run``    set up untimed, then time the workload at full pool width;
``trace``  the same run in-process (pool width 1) under the layer
           tracer.

The last line of standard output is one JSON object.  The program under
test is imported from ``src/`` of the checkout that holds this file.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def setup(workload) -> dict:
    from calibrate import probe

    workload.build()  # imports repro; the registry builds every scenario
    workload.start()
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s, "probes": [probe() for _ in range(9)]}


def run(workload, tracer, record: bool) -> dict:
    from calibrate import Prober
    from workloads import digest, peak_rss_mb

    workload.build()
    if not workload.pooled:
        workload.start()
    if tracer is None and workload.pooled:
        workers = min(os.cpu_count() or 1, len(workload.specs))
    else:
        workers = 1  # the tracer's wrappers do not reach pool workers
    if tracer is not None:
        tracer.reset()  # keep set-up out of the spans and counters
    # The traced run is not calibrated: the probe would land in spans.
    with (Prober() if tracer is None
          else contextlib.nullcontext()) as prober:
        t0 = time.perf_counter()
        pool = workload.timed(workers)
        wall_s = time.perf_counter() - t0
    out = {
        "wall_s": wall_s,
        "probes": prober.samples if prober is not None else None,
        "sim_s": workload.sim_s,
        "failed": workload.failures(),
        "pool": pool.as_dict() if pool is not None else None,
        "rss_mb": peak_rss_mb(),
    }
    rec = workload.record()
    out["digest"] = digest(rec)
    out["stats"] = workload.stats()
    if hasattr(workload, "replica_metrics"):
        out["replicas"] = workload.replica_metrics()
    if record:
        out["record"] = rec
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


def main(argv) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    if mode == "setup":
        out = setup(workload)
    elif mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        out = run(workload, tracer, "--record" in argv)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
