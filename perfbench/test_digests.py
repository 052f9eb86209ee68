"""Self-test of the benchmark's correctness checks: every pinned digest
can fail.

For each workload, the digest record pinned in ``pinned.json`` must hash
to the pinned digest, and perturbing any single field it covers — one
ulp for a float, one for an integer, one character for a string — must
change the digest.  Needs no simulation run:

    python3 -m pytest perfbench/test_digests.py     # or
    python3 perfbench/test_digests.py
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    REPLICA_TOLERANCE,
    WORKLOADS,
    digest,
    replica_violations,
)

with open(os.path.join(HERE, "pinned.json")) as _fh:
    PINS = json.load(_fh)


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, str):
        return value[:-1] + ("0" if value[-1:] != "0" else "1")
    if value is None:
        return 0
    raise TypeError(f"unexpected leaf {value!r}")


def _leaves(node, path=()):
    """Every (path, value) leaf of a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaves(child, path + (index,))
    else:
        yield path, node


def _mutated(record, path):
    copy = json.loads(json.dumps(record))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _perturbed(node[path[-1]])
    return copy


def test_pins_cover_every_workload():
    assert set(WORKLOADS) <= set(PINS)


def test_pinned_records_hash_to_pinned_digests():
    for name in WORKLOADS:
        assert digest(PINS[name]["record"]) == PINS[name]["digest"], name


def test_every_covered_field_moves_the_digest():
    for name in WORKLOADS:
        record = PINS[name]["record"]
        pinned = PINS[name]["digest"]
        leaves = list(_leaves(record))
        assert leaves, name
        for path, _value in leaves:
            assert digest(_mutated(record, path)) != pinned, (name, path)


def test_replica_tolerance_check_can_fail():
    solo = PINS["grid128-seeds"]["replica_solo"]
    assert replica_violations(solo, solo) == []
    for seed in solo:
        for key, (abs_tol, rel_tol) in REPLICA_TOLERANCE.items():
            off = json.loads(json.dumps(solo))
            ref = off[seed][key]
            off[seed][key] = ref + 2 * (abs_tol + rel_tol * abs(ref))
            assert replica_violations(off, solo), (seed, key)


def test_metric_descriptions_match_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        described = json.load(fh)
    assert ([m["name"] for m in bench["per_layer"]]
            == list(described["per_layer"]))
    assert ([m["name"] for m in bench["end_to_end"]]
            == list(described["end_to_end"]))
    assert ([w["name"] for w in bench["workloads"]]
            == list(described["workloads"]) == list(WORKLOADS))


if __name__ == "__main__":
    for _name, _test in sorted(globals().items()):
        if _name.startswith("test_") and callable(_test):
            _test()
            print(f"ok {_name}")
