"""Oracle cross-check suites: every combinatorial rule in the package is
replayed against explicit linear algebra over small prime fields.

Each suite returns a CheckResult with a total count and the list of
mismatches (empty = pass).  The closure comparison is length-bounded on both
sides: the combinatorial side iterates the same indecomposable-end
middle-term rule the subcategory engine uses, restricted to the oracle's
total-length budget, since the representative identifications of the
periodic families need sequences longer than the budget allows.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from . import oracle, tube
from .ambient import TubeAmbient
from .intervals import all_intervals, embed_in_tube, hom_nonzero_interval, middle_terms_interval
from .subcat import closure
from .tube import TubeIndec, truncate_rep


@dataclass
class CheckResult:
    name: str
    total: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def record(self, ok: bool, witness):
        self.total += 1
        if not ok:
            self.mismatches.append(witness)

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.mismatches)} mismatches, first: {self.mismatches[0]})"
        return f"{self.name}: {self.total} cases, {status}"


def _chunked_records(fn, head: tuple, items: list, jobs: int) -> list:
    """fn(head + (items,)), a list of records; with jobs > 1 the items go in
    chunks to a process pool of min(jobs, os.cpu_count()) workers and the
    records come back flattened in item order.  Only `tube-hom` splits its
    items this way; every other suite runs serially."""
    if jobs <= 1:
        return fn(head + (items,))
    import multiprocessing as mp

    chunk = max(1, len(items) // (4 * jobs))
    tasks = [head + (items[i:i + chunk],) for i in range(0, len(items), chunk)]
    with mp.Pool(min(jobs, os.cpu_count() or 1)) as pool:
        return [rec for batch in pool.map(fn, tasks) for rec in batch]


def _tube_objects(n: int, max_len: int):
    return [TubeIndec(n, j, t) for j in range(n) for t in range(1, max_len + 1)]


def _hom_chunk(task):
    p, pairs = task
    out = []
    for x, y in pairs:
        expected = oracle.hom_dim(oracle.build_indec(("cyclic", x.n), x, p),
                                  oracle.build_indec(("cyclic", x.n), y, p)) > 0
        got = tube.hom_nonzero(x, y)
        out.append((got == expected, (str(x), str(y), got, expected)))
    return out


def check_tube_hom(n_max: int = 4, p: int = 2, jobs: int = 1) -> CheckResult:
    """tube hom_nonzero == (oracle hom_dim > 0), all pairs, lengths <= 2n."""
    res = CheckResult(f"tube-hom(n<={n_max}, GF({p}), jobs={jobs})")
    pairs = []
    for n in range(1, n_max + 1):
        objs = _tube_objects(n, 2 * n)
        pairs.extend((x, y) for x in objs for y in objs)
    for ok, witness in _chunked_records(_hom_chunk, (p,), pairs, jobs):
        res.record(ok, witness)
    return res


def check_tube_hom_single_condition(n_max: int = 4) -> CheckResult:
    """The one-sided criteria (by top when longer, by socle when shorter)
    agree with the two-sided rule."""
    res = CheckResult(f"tube-hom-single-condition(n<={n_max})")
    for n in range(1, n_max + 1):
        for x in _tube_objects(n, 2 * n):
            for y in _tube_objects(n, 2 * n):
                full = tube.hom_nonzero(x, y)
                if x.t >= y.t:
                    one_sided = tube.top(x) in tube.comp_factor_set(y)
                    res.record(full == one_sided, ("top-side", str(x), str(y)))
                if x.t <= y.t:
                    one_sided = tube.soc(y) in tube.comp_factor_set(x)
                    res.record(full == one_sided, ("soc-side", str(x), str(y)))
    return res


def check_tube_middle_terms(n_max: int = 3, total_len: int = 6, p: int = 2) -> CheckResult:
    """Lift-rule middle terms == oracle brute force, pairs with bounded length."""
    res = CheckResult(f"tube-middle(n<={n_max}, len<={total_len}, GF({p}))")
    for n in range(1, n_max + 1):
        objs = _tube_objects(n, total_len - 1)
        for a, b in itertools.product(objs, objs):
            if a.t + b.t > total_len:
                continue
            got = {tuple(sorted((str(c) for c in ms))) for ms in tube.middle_terms(a, b)}
            expected = {tuple(sorted((str(c) for c in ms)))
                        for ms in oracle.middle_terms_bruteforce(("cyclic", n), a, b, p=p)}
            res.record(got == expected, (str(a), str(b), sorted(got), sorted(expected)))
    return res


def _bounded_tube_closure(n: int, gens, length_bound: int) -> frozenset:
    """Fixpoint of the combinatorial middle-term rule with indecomposable end
    terms, restricted to lengths <= length_bound."""
    members = set(gens)
    while True:
        new = set()
        for a in members:
            for b in members:
                if a.t + b.t > length_bound:
                    continue
                for ms in tube.middle_terms(a, b):
                    for c in ms:
                        if c not in members:
                            new.add(c)
        if not new:
            return frozenset(members)
        members |= new


def check_tube_closure(n: int, length_bound: int = 6, p: int = 2,
                       max_gens: int = 2) -> CheckResult:
    """Bounded combinatorial closure == oracle fixpoint with decomposable end
    terms, for every generator set drawn from the representative carrier.
    Runs serially: the generator sets share the oracle memo's sweeps."""
    res = CheckResult(f"tube-closure(n={n}, bound={length_bound}, GF({p}))")
    amb = TubeAmbient(n)
    reps = amb.carrier()
    gen_sets = [()]
    for k in range(1, max_gens + 1):
        gen_sets += list(itertools.combinations(reps, k))
    gen_sets = [g for g in gen_sets if all(x.t <= length_bound for x in g)]
    for gens in gen_sets:
        ours = _bounded_tube_closure(n, gens, length_bound)
        via_oracle = oracle.closure_fixpoint_bruteforce(("cyclic", n), gens, length_bound, p)
        names = [str(g) for g in gens]
        res.record(ours == via_oracle,
                   (names, sorted(str(x) for x in ours), sorted(str(x) for x in via_oracle)))
        if ours == via_oracle:
            # the representative-space closure refines the bounded one
            res.record(frozenset(map(truncate_rep, ours)) <= closure(amb, frozenset(gens)),
                       ("rep-closure-missing", names))
    return res


def check_interval_hom(n_max: int = 4, p: int = 2) -> CheckResult:
    res = CheckResult(f"interval-hom(n<={n_max}, GF({p}))")
    for n in range(1, n_max + 1):
        mods = all_intervals(n)
        for x, y in itertools.product(mods, mods):
            expected = oracle.hom_dim(oracle.build_indec(("linear", n), x, p),
                                      oracle.build_indec(("linear", n), y, p)) > 0
            res.record(hom_nonzero_interval(x, y) == expected, (str(x), str(y)))
    return res


def check_interval_middle_terms(n_max: int = 4, p: int = 2) -> CheckResult:
    res = CheckResult(f"interval-middle(n<={n_max}, GF({p}))")
    for n in range(1, n_max + 1):
        mods = all_intervals(n)
        for a, b in itertools.product(mods, mods):
            got = {tuple(sorted((str(c) for c in ms))) for ms in middle_terms_interval(a, b)}
            expected = {tuple(sorted((str(c) for c in ms)))
                        for ms in oracle.middle_terms_bruteforce(("linear", n), a, b, p=p)}
            res.record(got == expected, (str(a), str(b), sorted(got), sorted(expected)))
    return res


def check_tube_embedding(n_max: int = 4) -> CheckResult:
    """mod-A_{n-1} -> <S_1,...,S_{n-1}>: Hom and middle terms transported."""
    res = CheckResult(f"interval-tube-embedding(n<={n_max})")
    for n in range(2, n_max + 1):
        mods = all_intervals(n - 1)
        for x, y in itertools.product(mods, mods):
            ex, ey = embed_in_tube(x), embed_in_tube(y)
            res.record(hom_nonzero_interval(x, y) == tube.hom_nonzero(ex, ey),
                       ("hom", str(x), str(y)))
            got = {tuple(sorted((str(embed_in_tube(c)) for c in ms)))
                   for ms in middle_terms_interval(x, y)}
            expected = {tuple(sorted((str(c) for c in ms))) for ms in tube.middle_terms(ex, ey)}
            res.record(got == expected, ("middle", str(x), str(y), sorted(got), sorted(expected)))
    return res


def check_field_independence(n_max: int = 3, max_len: int = 4) -> CheckResult:
    """hom_dim and middle terms agree over GF(2), GF(3), GF(5) on tubes."""
    res = CheckResult(f"field-independence(n<={n_max}, len<={max_len})")
    for n in range(1, n_max + 1):
        objs = _tube_objects(n, max_len)
        for x, y in itertools.product(objs, objs):
            dims = {p: oracle.hom_dim(oracle.build_indec(("cyclic", n), x, p),
                                      oracle.build_indec(("cyclic", n), y, p))
                    for p in (2, 3, 5)}
            res.record(len(set(dims.values())) == 1, ("hom", str(x), str(y), dims))
            if x.t + y.t <= max_len:
                mids = {p: frozenset(tuple(sorted((str(c) for c in ms)))
                                     for ms in oracle.middle_terms_bruteforce(("cyclic", n), x, y, p=p))
                        for p in (2, 3)}
                res.record(len(set(mids.values())) == 1, ("middle", str(x), str(y)))
    return res


def check_ar_duality(n_max: int = 3, max_len: int = 4, p: int = 2) -> CheckResult:
    """Non-split extension of B by A exists  <=>  Hom(A, tau B) != 0."""
    res = CheckResult(f"ar-duality(n<={n_max}, len<={max_len}, GF({p}))")
    for n in range(1, n_max + 1):
        objs = _tube_objects(n, max_len)
        for a, b in itertools.product(objs, objs):
            if a.t + b.t > 2 * max_len:
                continue
            has_ext = bool(oracle.middle_terms_bruteforce(("cyclic", n), a, b, p=p))
            hom_tau = oracle.hom_dim(oracle.build_indec(("cyclic", n), a, p),
                                     oracle.build_indec(("cyclic", n), tube.tau(b), p)) > 0
            res.record(has_ext == hom_tau, (str(a), str(b), has_ext, hom_tau))
    return res


def check_decompose_roundtrip(samples: int = 500, seed: int = 7, p: int = 2) -> CheckResult:
    """build/decompose round-trips on `samples` random direct sums per shape."""
    import random

    rng = random.Random(seed)
    res = CheckResult(f"decompose-roundtrip({samples} samples/shape, GF({p}))")
    shapes = [("cyclic", 2), ("cyclic", 3), ("linear", 3), ("linear", 4)]
    for shape in shapes:
        if shape[0] == "cyclic":
            pool = _tube_objects(shape[1], 4)
        else:
            pool = all_intervals(shape[1])
        for _ in range(samples):
            multiset = tuple(sorted((rng.choice(pool) for _ in range(rng.randint(1, 3))), key=str))
            rep = oracle.direct_sum([oracle.build_indec(shape, d, p) for d in multiset])
            res.record(oracle.decompose(rep) == multiset, (shape, [str(d) for d in multiset]))
    return res


def check_kronecker_hom(window: int = 6, p: int = 2) -> CheckResult:
    """Component Hom rules == oracle intertwiner dimensions."""
    from .sheaves.kronecker import KroneckerAmbient, oracle_descriptor

    amb = KroneckerAmbient(window)
    res = CheckResult(f"kronecker-hom(window={window}, GF({p}))")
    shape = ("kronecker",)
    for x in amb.carrier():
        for y in amb.carrier():
            expected = oracle.hom_dim(oracle.build_indec(shape, oracle_descriptor(x), p),
                                      oracle.build_indec(shape, oracle_descriptor(y), p)) > 0
            res.record(amb.hom_nonzero(x, y) == expected, (str(x), str(y)))
    return res


def check_tube_socle(n_max: int = 4, p: int = 2) -> CheckResult:
    """Formula socle == oracle kernel-of-arrows socle."""
    res = CheckResult(f"tube-socle(n<={n_max}, GF({p}))")
    for n in range(1, n_max + 1):
        for x in _tube_objects(n, 2 * n):
            rep = oracle.build_indec(("cyclic", n), x, p)
            dims = oracle.socle_dims(rep)
            expected = {v: (1 if v == tube.soc(x) else 0) for v in range(n)}
            res.record(dims == expected, (str(x), dims, expected))
    return res


SUITES = {
    "tube-hom": lambda jobs=1: check_tube_hom(jobs=jobs),
    "tube-hom-sided": lambda jobs=1: check_tube_hom_single_condition(),
    "tube-middle": lambda jobs=1: check_tube_middle_terms(),
    "tube-middle-gf3": lambda jobs=1: check_tube_middle_terms(p=3),
    "tube-closure-t2": lambda jobs=1: check_tube_closure(2),
    "tube-closure-t3": lambda jobs=1: check_tube_closure(3),
    "tube-closure-t2-gf3": lambda jobs=1: check_tube_closure(2, p=3),
    "tube-closure-t3-gf3": lambda jobs=1: check_tube_closure(3, p=3),
    "tube-socle": lambda jobs=1: check_tube_socle(),
    "interval-hom": lambda jobs=1: check_interval_hom(),
    "interval-middle": lambda jobs=1: check_interval_middle_terms(),
    "embedding": lambda jobs=1: check_tube_embedding(),
    "field-independence": lambda jobs=1: check_field_independence(),
    "ar-duality": lambda jobs=1: check_ar_duality(),
    "decompose-roundtrip": lambda jobs=1: check_decompose_roundtrip(),
    "kronecker-hom": lambda jobs=1: check_kronecker_hom(),
}


def run_suite(name: str, jobs: int = 1) -> CheckResult:
    if name not in SUITES:
        raise KeyError(f"unknown oracle-check suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name](jobs=jobs)
