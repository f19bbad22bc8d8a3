"""Task lists of the benchmark workloads, as plain data.

A task is one checked call into the public stabcat API: a dict with a
`name`, an `op` (the handler in worker.py), its arguments and the expected
outcome. This module does not import stabcat, so the load generator in
run.py stays free of the package's process-global caches; the worker turns
each task into a call.

The seed only picks the P^1 point orders of `sheaf`; `enum` and `oracle`
are fixed.
"""

from __future__ import annotations

import random

WORKLOADS = ("enum", "sheaf", "oracle")
SIZES = ("full", "tiny")

P1_FULL = "p1:window=-6..6:points=5"
X2_FULL = "x2:window=-6..6:points=3"
KRON_FULL = "kronecker:window=20:points=3"

TABLES = ("a2-torsion", "a3-torsion", "a3-finest", "t3-finest", "t3-torsion",
          "kron-torsion", "p1-torsion", "x2-finest", "x2-torsion")


def _count(op, ambient, expect):
    return {"name": f"{op}:{ambient}", "op": op, "ambient": ambient, "expect": expect}


def _verify(table):
    return {"name": f"verify_table:{table}", "op": "verify_table", "table": table}


def _suite(suite, cases):
    return {"name": f"run_suite:{suite}", "op": "run_suite", "suite": suite, "expect": cases}


def _datum(ambient, datum, **kwargs):
    """A validate task; the worker adds one hn_filtration task per object
    in the ambient's hn_scope right after it."""
    label = datum + "".join(f":{k}={v}" for k, v in sorted(kwargs.items()))
    return {"name": f"validate:{ambient}:{label}", "op": "validate", "ambient": ambient,
            "datum": datum, "label": label, **kwargs}


def _point_orders(seed: int, n_points: int, count: int) -> list:
    rng = random.Random(seed)
    return [rng.sample(range(n_points), n_points) for _ in range(count)]


def _enum(size):
    if size == "tiny":
        return [_verify("a2-torsion"),
                _count("enumerate_finest", "an:2", 2),
                _count("enumerate_torsion_pairs", "an:3", 12),
                _count("enumerate_valid", "an:2", 5)]
    # Expected counts: finest data 98/12/204; torsion pairs are the Catalan
    # number 132 and binom(8,4) = 70 minus the two trivial pairs.
    return ([_verify(t) for t in TABLES]
            + [_count("enumerate_finest", "an:4", 98),
               _count("enumerate_finest", "tube:3", 12),
               _count("enumerate_finest", "tube:4", 204),
               _count("enumerate_torsion_pairs", "an:5", 130),
               _count("enumerate_torsion_pairs", "tube:4", 68),
               _count("enumerate_valid", "tube:3", 181)])


def _sheaf(size, seed):
    if size == "tiny":
        p1, x2, kron, n_points = ("p1:window=-1..1:points=2", "x2:window=-1..1:points=2",
                                  "kronecker:window=3:points=2", 2)
    else:
        p1, x2, kron, n_points = P1_FULL, X2_FULL, KRON_FULL, 5
    tasks = [_datum(p1, "finest_p1", perm=",".join(map(str, order)))
             for order in _point_orders(seed, n_points, 2)]
    tasks += [_datum(p1, "slope_data_p1"),
              _datum(x2, "finest_x2", family="full"),
              _datum(x2, "finest_x2", family="coset"),
              _datum(x2, "slope_data_x2"),
              _datum(kron, "finest_kron_directing"),
              _datum(kron, "finest_kron_two_phase")]
    return tasks


def _oracle(size):
    if size == "tiny":
        return [_suite("tube-socle", 60), _suite("tube-hom", 1416)]
    # GF(2) closure, GF(3) middle terms, GF(2) Hom: two fields, so a kernel
    # specialised to one of them shows on one suite and not the other.
    return [_suite("tube-closure-t2", 74), _suite("tube-middle-gf3", 210),
            _suite("tube-hom", 1416)]


def tasks(workload: str, seed: int, size: str = "full") -> list:
    if workload == "enum":
        return _enum(size)
    if workload == "sheaf":
        return _sheaf(size, seed)
    if workload == "oracle":
        return _oracle(size)
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def ambients(task_list) -> list:
    """Ambient specs the workload's set-up parses and builds tables for.

    The oracle suites build their own ambients internally; for them set-up
    parses tube:2, the carrier of the closure suite.
    """
    specs = []
    for task in task_list:
        spec = task.get("ambient")
        if spec is None and task["op"] == "run_suite":
            spec = "tube:2"
        if spec is not None and spec not in specs:
            specs.append(spec)
    return specs
