import gc
import hashlib

import pytest

from reference import (_invert_reference, _sub_and_quotient_reference, _submodules_reference,
                       cokernel_rep, direct_middle_answers)
from stabcat import gf, oracle
from stabcat.intervals import IntervalModule
from stabcat.tube import TubeIndec, tau


def test_build_tube_dims():
    rep = oracle.build_indec(("cyclic", 3), TubeIndec(3, 1, 2), 2)
    assert (rep.dims[0], rep.dims[1], rep.dims[2]) == (1, 1, 0)
    nonzero = [k for k, m in rep.maps.items() if any(any(row) for row in m)]
    assert len(nonzero) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_rotation_moves_tube_representations_one_vertex_on(p):
    """The fact the rotation sharing rests on: the representation of
    tau^-1 S_j^(t) = S_{j+1}^(t) is that of S_j^(t) with every dimension and
    map moved from vertex v to v+1."""
    for n in range(1, 5):
        shape = ("cyclic", n)
        for x in (TubeIndec(n, j, t) for j in range(n) for t in range(1, 2 * n + 1)):
            rep, moved = (oracle.build_indec(shape, d, p) for d in (x, tau(x, -1)))
            for v in range(n):
                assert moved.dims[(v + 1) % n] == rep.dims[v], (str(x), v)
                assert moved.maps["c", (v + 1) % n] == rep.maps["c", v], (str(x), v)


def test_build_interval():
    rep = oracle.build_indec(("linear", 2), IntervalModule(2, 1, 2), 2)
    assert (rep.dims[1], rep.dims[2]) == (1, 1)
    assert rep.maps[("l", 1)] == [[1]]


def test_build_kronecker_regular():
    rep = oracle.build_indec(("kronecker",), ("R", 3, 1), 5)
    assert rep.dims == {1: 1, 2: 1}
    assert rep.maps["u"] == [[1]] and rep.maps["v"] == [[3]]
    p1 = oracle.build_indec(("kronecker",), ("P", 2), 5)
    assert oracle.hom_dim(p1, rep) > 0


def test_hom_dim_examples():
    r22 = oracle.build_indec(("cyclic", 2), TubeIndec(2, 0, 2), 2)
    assert oracle.hom_dim(r22, r22) == 1
    r12 = oracle.build_indec(("cyclic", 1), TubeIndec(1, 0, 2), 2)
    assert oracle.hom_dim(r12, r12) == 2
    zero = oracle.QuiverRep(("cyclic", 2), 2, {v: 0 for v in oracle.vertices(("cyclic", 2))}, {})
    assert oracle.hom_dim(r22, zero) == 0


def test_hom_shape_mismatch():
    a = oracle.build_indec(("cyclic", 2), TubeIndec(2, 0, 1), 2)
    b = oracle.build_indec(("cyclic", 3), TubeIndec(3, 0, 1), 2)
    with pytest.raises(oracle.OracleError):
        oracle.hom_dim(a, b)
    c = oracle.build_indec(("cyclic", 2), TubeIndec(2, 0, 1), 3)
    with pytest.raises(oracle.OracleError):
        oracle.hom_dim(a, c)


def strs(mss):
    return {tuple(str(c) for c in ms) for ms in mss}


def test_middle_terms_bruteforce_examples():
    got = oracle.middle_terms_bruteforce(("cyclic", 3), TubeIndec(3, 0, 1), TubeIndec(3, 1, 1))
    assert strs(got) == {("S1^(2)@3",)}
    got = oracle.middle_terms_bruteforce(("cyclic", 3), TubeIndec(3, 0, 2), TubeIndec(3, 1, 2))
    assert strs(got) == {("S0^(1)@3", "S1^(3)@3")}
    got = oracle.middle_terms_bruteforce(("cyclic", 3), TubeIndec(3, 0, 1), TubeIndec(3, 0, 1))
    assert got == frozenset()


def test_decompose_examples():
    shape = ("cyclic", 3)
    parts = [TubeIndec(3, 0, 1), TubeIndec(3, 1, 2)]
    rep = oracle.direct_sum([oracle.build_indec(shape, d, 2) for d in parts])
    assert oracle.decompose(rep) == tuple(sorted(parts, key=str))
    single = oracle.build_indec(shape, TubeIndec(3, 1, 3), 2)
    assert oracle.decompose(single) == (TubeIndec(3, 1, 3),)


def test_decompose_middle_consistency():
    # a sampled non-split extension decomposes as returned
    shape = ("cyclic", 2)
    a, b = TubeIndec(2, 0, 1), TubeIndec(2, 1, 1)
    for ms in oracle.middle_terms_bruteforce(shape, a, b):
        rep = oracle.direct_sum([oracle.build_indec(shape, d, 2) for d in ms])
        assert oracle.decompose(rep) == tuple(sorted(ms, key=str))


def test_closure_fixpoint_examples():
    got = oracle.closure_fixpoint_bruteforce(("cyclic", 3),
                                             [TubeIndec(3, 0, 1), TubeIndec(3, 1, 1)], 6, 2)
    assert {str(x) for x in got} == {"S0^(1)@3", "S1^(1)@3", "S1^(2)@3"}
    got = oracle.closure_fixpoint_bruteforce(("cyclic", 1), [TubeIndec(1, 0, 1)], 5, 2)
    assert {str(x) for x in got} == {f"S0^({t})@1" for t in range(1, 6)}
    assert oracle.closure_fixpoint_bruteforce(("cyclic", 2), [], 6, 2) == frozenset()


def test_budget_rejection(monkeypatch):
    monkeypatch.setenv("STABCAT_BUDGET", "1")
    # the first candidate past the Hom bounds is S^(3)+S^(1), with dim Hom(A, E) = 3
    with pytest.raises(oracle.BudgetExceededError,
                       match=r"needs 8 maps, budget 1 \(A = S0\^\(2\)@1, B = S0\^\(2\)@1, "
                             r"E = S0\^\(1\)@1\+S0\^\(3\)@1\)"):
        oracle.middle_terms_bruteforce(("cyclic", 1), TubeIndec(1, 0, 2), TubeIndec(1, 0, 2), p=2)
    s1 = TubeIndec(1, 0, 1)
    # decomposable A: E = S^(1)+S^(2) has 7 two-dimensional subspaces
    with pytest.raises(oracle.BudgetExceededError,
                       match=r"needs 7 tuples, budget 1 \(A = S0\^\(1\)@1\+S0\^\(1\)@1, "
                             r"B = S0\^\(1\)@1, E = S0\^\(1\)@1\+S0\^\(2\)@1\)"):
        oracle.middle_terms_of_sums(("cyclic", 1), (s1, s1), (s1,), p=2)


def test_budget_holds_on_cache_hits(monkeypatch, empty_oracle):
    """A cached answer under a smaller budget raises exactly what a fresh
    sweep raises: the first candidate, in sweep order, above the budget."""
    s2, s1 = TubeIndec(1, 0, 2), TubeIndec(1, 0, 1)
    queries = [((s2,), (s2,)), ((s1, s1), (s1,))]
    fresh = []
    with monkeypatch.context() as m:
        m.setenv("STABCAT_BUDGET", "1")
        for a, b in queries:
            with pytest.raises(oracle.BudgetExceededError) as exc:
                oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2)
            fresh.append(str(exc.value))
    oracle.clear()
    warm = [oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2) for a, b in queries]
    assert all(warm)
    monkeypatch.setenv("STABCAT_BUDGET", "1")
    for (a, b), message in zip(queries, fresh):
        with pytest.raises(oracle.BudgetExceededError) as exc:
            oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2)
        assert str(exc.value) == message
    monkeypatch.setenv("STABCAT_BUDGET", "8")  # the largest need of either sweep
    assert [oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2) for a, b in queries] == warm


def _least_rotation(n, a, b):
    keys = [(oracle._rotated(a, r), oracle._rotated(b, r)) for r in range(n)]
    return min(range(n), key=keys.__getitem__)


@pytest.mark.parametrize("n, a, b, budget", [
    (2, ((1, 1),), ((0, 1),), "1"),
    (3, ((2, 1),), ((1, 2),), "1"),
    # the least rotation meets its first candidate over the budget elsewhere
    # in its own candidate order
    (2, ((1, 1), (1, 1), (1, 2)), ((0, 1), (1, 1)), "44"),
    (3, ((1, 1), (2, 1), (2, 2)), ((0, 1), (2, 1)), "6"),
])
def test_budget_holds_on_rotated_queries(monkeypatch, empty_oracle, n, a, b, budget):
    """A query answered through its rotation orbit raises exactly what a
    direct computation of it raises: fresh, through an orbit-mate computed
    without a budget, and on its own cache hit."""
    shape = ("cyclic", n)
    a, b = (tuple(sorted((TubeIndec(n, j, t) for j, t in ms), key=str)) for ms in (a, b))
    assert _least_rotation(n, a, b) != 0
    monkeypatch.setenv("STABCAT_BUDGET", budget)
    with pytest.raises(oracle.BudgetExceededError) as direct:
        direct_middle_answers([(shape, 2, a, b)])

    def raised():
        with pytest.raises(oracle.BudgetExceededError) as exc:
            oracle.middle_terms_of_sums(shape, a, b, p=2)
        assert (a, b) not in oracle._MEMO[shape, 2].middle
        return str(exc.value)

    assert raised() == str(direct.value)
    oracle.clear()
    with monkeypatch.context() as m:
        m.delenv("STABCAT_BUDGET")
        mates = [(oracle._rotated(a, r), oracle._rotated(b, r)) for r in range(1, n)]
        for mate in mates:
            oracle.middle_terms_of_sums(shape, *mate, p=2)
    assert raised() == str(direct.value)
    with monkeypatch.context() as m:
        m.delenv("STABCAT_BUDGET")
        oracle.middle_terms_of_sums(shape, a, b, p=2)
    with pytest.raises(oracle.BudgetExceededError) as exc:
        oracle.middle_terms_of_sums(shape, a, b, p=2)
    assert str(exc.value) == str(direct.value)


def test_submodule_path_agrees_with_map_path():
    # the decomposable-ends search must reproduce the map-enumeration answer
    shape = ("cyclic", 2)
    for a in [TubeIndec(2, 0, 1), TubeIndec(2, 1, 2), TubeIndec(2, 0, 3)]:
        for b in [TubeIndec(2, 0, 1), TubeIndec(2, 1, 1), TubeIndec(2, 1, 2)]:
            by_maps = oracle.middle_terms_of_sums(shape, (a,), (b,))
            a_rep = oracle.build_indec(shape, a, 2)
            dims_query = tuple(sorted(a_rep.dims.items()))
            target = tuple((v, a_rep.dims[v] + oracle.build_indec(shape, b, 2).dims[v])
                           for v in oracle.vertices(shape))
            split = tuple(sorted((a, b), key=str))
            by_subs = set()
            for cand, _, _ in oracle._candidates(shape, 2, target):
                if cand == split:
                    continue
                if oracle._has_sub_quotient(shape, 2, cand, dims_query, ((a,), (b,))):
                    by_subs.add(cand)
            assert by_maps == frozenset(by_subs), (str(a), str(b))


def test_candidates_cover_every_multiset_with_exact_hom_profiles():
    from collections import Counter
    from itertools import combinations_with_replacement

    shape, p, max_len = ("cyclic", 2), 3, 4
    target = ((0, 2), (1, 2))
    descs = oracle._hom_table(shape, p, max_len).descs
    got = oracle._candidates(shape, p, target)
    assert got is oracle._candidates(shape, p, target)
    expected = set()
    for k in range(1, 5):
        for ms in combinations_with_replacement(descs, k):
            dims = Counter()
            for d in ms:
                dims.update(oracle.build_indec(shape, d, p).dims)
            if all(dims[v] == t for v, t in target):
                expected.add(tuple(sorted(ms, key=str)))
    assert expected and len(got) == len(expected)
    assert {e for e, _, _ in got} == expected
    for e, into, out in got:
        e_rep = oracle.direct_sum([oracle.build_indec(shape, d, p) for d in e])
        for x, i, o in zip(descs, into, out):
            x_rep = oracle.build_indec(shape, x, p)
            assert (i, o) == (oracle.hom_dim(x_rep, e_rep), oracle.hom_dim(e_rep, x_rep))


def _middle_terms_unbounded(monkeypatch, queries):
    """middle_terms_of_sums on each (shape, a, b, p) with every candidate
    admitted past the Hom bounds, from an emptied oracle memo."""
    admitted = []
    oracle.clear()
    with monkeypatch.context() as m:
        m.setattr(oracle, "_hom_bounds_admit", lambda *args: admitted.append(args) or True)
        out = [oracle.middle_terms_of_sums(shape, a, b, p=p) for shape, a, b, p in queries]
    assert admitted
    return out


def _assert_bounds_agree(monkeypatch, queries):
    bounded = [oracle.middle_terms_of_sums(shape, a, b, p=p) for shape, a, b, p in queries]
    for q, got, ref in zip(queries, bounded, _middle_terms_unbounded(monkeypatch, queries)):
        assert got == ref, q


@pytest.mark.parametrize("p", [2, 3])
def test_hom_bounds_agree_with_unbounded_sweep_on_tube_pairs(monkeypatch, empty_oracle, p):
    queries = []
    for n in (1, 2, 3):
        objs = [TubeIndec(n, j, t) for j in range(n) for t in range(1, 5)]
        queries += [(("cyclic", n), (a,), (b,), p) for a in objs for b in objs if a.t + b.t <= 5]
    assert len(queries) == 140
    _assert_bounds_agree(monkeypatch, queries)


def test_hom_bounds_agree_with_unbounded_sweep_on_interval_pairs(monkeypatch, empty_oracle):
    from stabcat.intervals import all_intervals

    queries = [(("linear", n), (a,), (b,), 2)
               for n in range(1, 5) for a in all_intervals(n) for b in all_intervals(n)]
    assert len(queries) == 146
    _assert_bounds_agree(monkeypatch, queries)


def test_hom_bounds_agree_with_unbounded_sweep_on_t2_closure_queries(monkeypatch, empty_oracle):
    # the decomposable-end queries that one closure sweep over T_2 makes
    shape = ("cyclic", 2)
    seen = []
    sweep = oracle.middle_terms_of_sums

    def record(shape_, a, b, p=2):
        seen.append((shape_, tuple(a), tuple(b), p))
        return sweep(shape_, a, b, p=p)

    with monkeypatch.context() as m:
        m.setattr(oracle, "middle_terms_of_sums", record)
        oracle.closure_fixpoint_bruteforce(shape, [TubeIndec(2, 0, 1), TubeIndec(2, 1, 2)], 5, 2)
    queries = sorted({q for q in seen if len(q[1]) > 1 or len(q[2]) > 1}, key=str)
    assert len(queries) >= 20
    _assert_bounds_agree(monkeypatch, queries)


def test_hom_bounds_prune_before_linear_algebra(monkeypatch, empty_oracle):
    shape, s2 = ("cyclic", 1), TubeIndec(1, 0, 2)
    calls = []
    hom_basis = oracle.hom_basis

    def counting(r1, r2):
        calls.append(r2)
        return hom_basis(r1, r2)

    monkeypatch.setattr(oracle, "hom_basis", counting)
    got = oracle.middle_terms_bruteforce(shape, s2, s2)
    # S^(2)+S^(1)+S^(1) and S^(1)^4 have too large a socle: [S^(1), E] > [S^(1), A] + [S^(1), B]
    assert len(calls) == 2
    assert strs(got) == {("S0^(4)@1",), ("S0^(1)@1", "S0^(3)@1")}


def test_fraction_free_inverse_agrees_with_fractions(empty_oracle):
    """`_invert` gives the reference's (inv, den) on every Hom table of the
    cyclic shapes up to length 6 and the linear ones up to 4, and on random
    integer matrices, whose pivots need row swaps and have either sign; a
    singular matrix raises in both."""
    import random

    matrices = [oracle._hom_table(("cyclic", n), 2, length).hom
                for n in (1, 2, 3) for length in range(1, 7)]
    matrices += [oracle._hom_table(("linear", n), 2, n).hom for n in (1, 2, 3, 4)]
    rng = random.Random(5)
    matrices += [[[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
                 for k in (1, 2, 3, 4, 6) for _ in range(60)]
    singular = 0
    for m in matrices:
        try:
            expected = _invert_reference(m)
        except oracle.OracleError:
            singular += 1
            with pytest.raises(oracle.OracleError, match="singular"):
                oracle._invert(m)
            continue
        assert oracle._invert(m) == expected, m
    assert 0 < singular < 100


@pytest.mark.parametrize("increasing", [True, False])
def test_hom_tables_share_dims_by_descriptor(monkeypatch, increasing):
    """Hom tables built from an empty oracle, by increasing or by decreasing
    length, hold the Hom dimension of every pair, and compute each one once:
    a table reads what an earlier table holds by descriptor, whatever the
    positions."""
    computed = []
    hom_dim = oracle.hom_dim

    def counting(r1, r2):
        computed.append((r1, r2))
        return hom_dim(r1, r2)

    for shape, max_len in [(("cyclic", 1), 6), (("cyclic", 2), 6), (("cyclic", 3), 6),
                           (("linear", 3), 3), (("linear", 4), 4)]:
        for p in (2, 3):
            monkeypatch.setattr(oracle, "_MEMO", {})
            monkeypatch.setattr(oracle, "hom_dim", counting)
            computed.clear()
            lengths = range(1, max_len + 1)
            for length in (lengths if increasing else reversed(lengths)):
                oracle._hom_table(shape, p, length)
            monkeypatch.setattr(oracle, "hom_dim", hom_dim)
            tables = oracle._MEMO[shape, p].tables
            assert len(computed) == len(tables[max_len].descs) ** 2, (shape, p)
            for table in tables.values():
                for (d1, r1), row in zip(zip(table.descs, table.reps), table.hom):
                    for (d2, r2), dim in zip(zip(table.descs, table.reps), row):
                        assert dim == hom_dim(r1, r2), (shape, p, str(d1), str(d2))


def test_socle_dims():
    rep = oracle.build_indec(("cyclic", 2), TubeIndec(2, 0, 2), 2)
    assert oracle.socle_dims(rep) == {0: 0, 1: 1}
    rep = oracle.build_indec(("linear", 3), IntervalModule(3, 1, 3), 2)
    assert oracle.socle_dims(rep) == {1: 0, 2: 0, 3: 1}


def test_nilpotency_enforced():
    with pytest.raises(oracle.OracleError, match="nilpotent"):
        oracle.QuiverRep(("cyclic", 1), 2, {0: 1}, {("c", 0): [[1]]})
    with pytest.raises(oracle.OracleError, match="nilpotent"):
        oracle.QuiverRep(("cyclic", 2), 3, {0: 1, 1: 1}, {("c", 0): [[4]], ("c", 1): [[2]]})


def test_public_rep_reduces_entries_mod_p():
    rep = oracle.QuiverRep(("linear", 2), 3, {1: 1, 2: 2}, {("l", 1): [[4], [-1]]})
    assert rep.maps[("l", 1)] == [[1], [2]]
    rep = oracle.QuiverRep(("cyclic", 2), 2, {0: 1, 1: 1}, {("c", 1): [[3]]})
    assert rep.maps == {("c", 0): [[0]], ("c", 1): [[1]]}


@pytest.mark.parametrize("check", [True, False])
def test_rep_map_shape_checked_in_both_modes(check):
    with pytest.raises(oracle.OracleError, match=r"expected \(1, 1\)"):
        oracle.QuiverRep(("linear", 2), 2, {1: 1, 2: 1}, {("l", 1): [[1, 0]]}, check=check)
    with pytest.raises(oracle.OracleError, match=r"expected \(2, 1\)"):
        oracle.QuiverRep(("linear", 2), 2, {1: 1, 2: 2}, {("l", 1): [[1]]}, check=check)


def test_subobject_chain_matches_submodule_lattice(empty_oracle):
    # every subrepresentation of a tube segment lies on its chain of subobjects
    from stabcat.tube import chain_splits

    shape, x = ("cyclic", 2), TubeIndec(2, 0, 3)
    rep = oracle.build_indec(shape, x, 2)
    subs = set()
    for d0 in range(rep.dims[0] + 1):
        for d1 in range(rep.dims[1] + 1):
            dims_query = ((0, d0), (1, d1))
            assert not oracle._has_sub_quotient(shape, 2, (x,), dims_query, None)
            pairs, resume = oracle._MEMO[shape, 2].sweeps[(x,), dims_query]
            assert resume is None
            subs |= {sub for sub, _ in pairs if sub}
    indecomposable_subs = {ds[0] for ds in subs if len(ds) == 1}
    assert indecomposable_subs == set([s for s, _ in chain_splits(x)] + [x])


def test_gf_linear_algebra():
    a = gf.mat([[1, 1], [0, 1]], 2)
    assert gf.rank(a, 2) == 2
    ns = gf.nullspace(gf.mat([[1, 1]], 2), 2, 2)
    assert ns == [[1, 1]]
    sols = gf.solve_many(a, [[1, 1]], 2, 2)
    assert sols is not None and gf.matmul(a, gf.transpose(sols, 2), 1, 2) == [[1], [1]]
    assert len(list(gf.subspaces_fixed(3, 1, 2))) == 7
    assert len(list(gf.subspaces_fixed(3, 2, 2))) == 7
    assert len(list(gf.subspaces_fixed(4, 2, 3))) == 130


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_axioms_exhaustive(p):
    els = list(range(p))
    for a in els:
        for b in els:
            assert (a + b) % p == (b + a) % p
            assert (a * b) % p == (b * a) % p
            for c in els:
                assert ((a + b) + c) % p == (a + (b + c)) % p
                assert ((a * b) * c) % p == (a * (b * c)) % p
                assert (a * (b + c)) % p == (a * b + a * c) % p
    with pytest.raises(gf.FieldError):
        gf.check_prime(4)


def test_package_does_not_import_numpy():
    import subprocess
    import sys

    code = ("import sys\n"
            "import stabcat.cli, stabcat.checks, stabcat.oracle\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_multisets_up_to_length_leaves_no_cycle():
    """With the cyclic collector off, dropping the result of one walk (the
    multisets of total length <= 5 over the six T_2 segments of length <= 3)
    leaves nothing for a full collection: the walk builds no reference cycle."""
    lengths = [(t,) for _ in range(2) for t in range(1, 4)]
    gc.collect()
    gc.disable()
    try:
        out = list(oracle._multisets(lengths, (5,)))
        assert len(out) == 65
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()


def _sub_quotient_classes_reference(shape, p, e_multiset, dims_query):
    """Isomorphism classes (decompose(sub), decompose(E/sub)) over all
    submodules of ⊕E with the given dimension vector."""
    e_rep = oracle.direct_sum([oracle.build_indec(shape, d, p) for d in e_multiset])
    classes = set()
    for _, bases in _submodules_reference(e_rep, dict(dims_query)):
        sub_rep, coker_rep = _sub_and_quotient_reference(e_rep, bases)
        classes.add((oracle.decompose(sub_rep), oracle.decompose(coker_rep)))
    return frozenset(classes)


def _rotation_closure(keys) -> list:
    """Every rotation of each sweep key (shape, p, E, dims) on a cyclic shape:
    E's segments and the dimension vector moved r vertices on, 0 <= r < n."""
    out = {}
    for shape, p, e_multiset, dims_query in keys:
        n = shape[1]
        for r in range(n):
            dims = tuple(sorted(((v + r) % n, k) for v, k in dims_query))
            out.setdefault((shape, p, oracle._rotated(e_multiset, r), dims), None)
    return list(out)


@pytest.mark.parametrize("p", [2, 3])
def test_resumable_sweep_agrees_with_full_enumeration(monkeypatch, empty_oracle, p):
    """Every submodule query of one T_2 closure sweep, from empty caches,
    answers membership in the full class set; driven to its end, the sweep
    of each asked key and of each rotation of one has seen exactly that set
    and passed each submodule once."""
    shape = ("cyclic", 2)
    queries, visits, current = [], {}, []
    has, subs = oracle._has_sub_quotient, oracle._submodules_with_dims

    def record(*args):
        current[:] = [args[:4]]
        queries.append((args, has(*args)))
        return queries[-1][1]

    def visit(e_rep, dims_query, start=0):
        for index, bases in subs(e_rep, dims_query, start):
            visits.setdefault(current[0], []).append(index)
            yield index, bases

    monkeypatch.setattr(oracle, "_has_sub_quotient", record)
    monkeypatch.setattr(oracle, "_submodules_with_dims", visit)
    oracle.closure_fixpoint_bruteforce(shape, [TubeIndec(2, 0, 1), TubeIndec(2, 1, 1)], 5, p)
    keys = {args[:4] for args, _ in queries}
    # the sweeps share work: some queries resume a sweep another query began,
    # and some sweeps end early
    assert len(keys) < len(queries)
    # the sweeps a rotation orbit shares are asked in one frame only; their
    # rotations are driven from scratch below
    rotated = _rotation_closure(keys)
    assert len(rotated) >= 100
    sweeps = oracle._MEMO[shape, p].sweeps
    assert any(resume is not None for _, resume in sweeps.values())
    reference = {key: _sub_quotient_classes_reference(*key) for key in rotated}
    for args, got in queries:
        assert got == (args[4] in reference[args[:4]]), args
    for key in rotated:
        assert not oracle._has_sub_quotient(*key, None)
        assert sweeps[key[2:]] == (set(reference[key]), None), key
        e_rep = oracle.direct_sum([oracle.build_indec(shape, d, p) for d in key[2]])
        indices = visits.get(key, [])
        assert indices == sorted(set(indices)), key
        assert len(indices) == len(_submodules_reference(e_rep, dict(key[3]))), key


def _assert_sweep_agrees_with_reference(shape, p, e_multiset, dims_query):
    """The echelon-form sweep passes the reference's (index, bases) in its
    order, and resumed at the last one passes only that; each sub rep equals
    the reference's, and the quotient, on another complement, decomposes
    alike."""
    e_rep = oracle.direct_sum([oracle.build_indec(shape, d, p) for d in e_multiset])
    dims = dict(dims_query)
    reference = _submodules_reference(e_rep, dims)
    key = (shape, p, e_multiset, dims_query)
    assert list(oracle._submodules_with_dims(e_rep, dims)) == reference, key
    if reference:
        assert list(oracle._submodules_with_dims(e_rep, dims, reference[-1][0])) == reference[-1:]
    for _, bases in reference:
        sub, quotient = oracle._sub_and_quotient(e_rep, bases)
        ref_sub, ref_quotient = _sub_and_quotient_reference(e_rep, bases)
        assert (sub.dims, sub.maps) == (ref_sub.dims, ref_sub.maps), (key, bases)
        assert quotient.dims == ref_quotient.dims, (key, bases)
        assert oracle.decompose(quotient) == oracle.decompose(ref_quotient), (key, bases)


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_echelon_sweep_agrees_with_rank_reference_on_closure_keys(monkeypatch, empty_oracle, n, p):
    """Every (E, dims) sweep that the T_n closure suite over GF(p) asks, in
    each of its rotations: the suite asks one frame of each rotation orbit."""
    from stabcat import checks

    keys, has = {}, oracle._has_sub_quotient

    def record(shape, p_, e_multiset, dims_query, pair):
        keys.setdefault((shape, p_, e_multiset, dims_query), None)
        return has(shape, p_, e_multiset, dims_query, pair)

    monkeypatch.setattr(oracle, "_has_sub_quotient", record)
    assert checks.check_tube_closure(n, p=p).ok
    rotated = _rotation_closure(keys)
    assert len(keys) < len(rotated)
    assert len(rotated) > 400
    for key in rotated:
        _assert_sweep_agrees_with_reference(*key)


def test_echelon_sweep_agrees_with_rank_reference_over_gf5():
    """A few middle terms over GF(5), on the tube and the linear quiver."""
    s = {(j, t): TubeIndec(2, j, t) for j in range(2) for t in range(1, 4)}
    m = {(a, b): IntervalModule(3, a, b) for a in range(1, 4) for b in range(a, 4)}
    cases = [(("cyclic", 2), (s[0, 1], s[1, 2]), ((0, 1), (1, 0))),
             (("cyclic", 2), (s[0, 2], s[1, 2]), ((0, 1), (1, 1))),
             (("cyclic", 2), (s[0, 1], s[0, 3]), ((0, 1), (1, 1))),
             (("cyclic", 2), (s[1, 1], s[1, 1], s[0, 2]), ((0, 1), (1, 2))),
             (("linear", 3), (m[1, 3], m[2, 2]), ((1, 0), (2, 1), (3, 1))),
             (("linear", 3), (m[1, 2], m[2, 3], m[2, 2]), ((1, 0), (2, 2), (3, 1)))]
    for shape, e_multiset, dims_query in cases:
        _assert_sweep_agrees_with_reference(shape, 5, e_multiset, dims_query)


@pytest.mark.parametrize("p", [2, 3])
def test_map_sweep_quotients_agree_with_cokernel_reference(monkeypatch, empty_oracle, p):
    """Every map that the map sweep meets, on the indecomposable pairs of
    total length <= 5 over the tubes of rank 1 to 3 and over A_3 and A_4:
    it counts as injective exactly when its rank at each vertex is A's
    dimension there, and then its quotient, read off the RREF of the image,
    decomposes as the reference cokernel on a complement of the image."""
    from stabcat.intervals import all_intervals

    met, quotient_of = [], oracle._injection_quotient

    def checked(f, a_rep, e_rep):
        quotient = quotient_of(f, a_rep, e_rep)
        injective = all(gf.rank(f[v], p) == a_rep.dims[v] for v in f)
        met.append(injective)
        if not injective:
            assert quotient is None
            return None
        reference = cokernel_rep(f, a_rep, e_rep)
        assert quotient.dims == reference.dims
        assert oracle.decompose(quotient) == oracle.decompose(reference)
        return quotient

    monkeypatch.setattr(oracle, "_injection_quotient", checked)
    pools = [(("cyclic", n), [TubeIndec(n, j, t) for j in range(n) for t in range(1, 5)])
             for n in (1, 2, 3)]
    pools += [(("linear", n), all_intervals(n)) for n in (3, 4)]
    for shape, pool in pools:
        size = {x: oracle.build_indec(shape, x, p).total_dim() for x in pool}
        for a in pool:
            for b in pool:
                if size[a] + size[b] <= 5:
                    oracle.middle_terms_bruteforce(shape, a, b, p=p)
    injective = sum(met)
    assert 50 < injective < len(met)


def _sums_up_to(members, lengths, max_total, start=0, acc=(), total=0):
    """(multiset, total length) for every nonempty multiset over `members`
    of total length <= max_total, depth-first in member order."""
    for i in range(start, len(members)):
        if total + lengths[i] <= max_total:
            yield acc + (members[i],), total + lengths[i]
            yield from _sums_up_to(members, lengths, max_total, i, acc + (members[i],),
                                   total + lengths[i])


def _closure_fixpoint_reference(shape, gens, length_bound, p):
    """The fixpoint asking every pair of end-term multisets in every round."""
    current = set(gens)
    while True:
        added = False
        members = sorted(current, key=str)
        lengths = [oracle.build_indec(shape, d, p).total_dim() for d in members]
        sums = list(_sums_up_to(members, lengths, length_bound - 1))
        for a_ms, a_len in sums:
            for b_ms, b_len in sums:
                if a_len + b_len > length_bound:
                    continue
                for middle in oracle.middle_terms_of_sums(shape, a_ms, b_ms, p=p):
                    for comp in middle:
                        if comp not in current:
                            current.add(comp)
                            added = True
        if not added:
            return frozenset(current)


@pytest.mark.parametrize("length_bound", [5, 6])
def test_closure_asks_each_pair_once_in_reference_order(monkeypatch, length_bound):
    """On every generator set of the tube-closure-t2 suite, the fixpoint
    gives the every-pair fixpoint's closure with the same distinct queries,
    first asked in the same order, and asks no pair twice."""
    from itertools import combinations

    from stabcat.ambient import TubeAmbient

    shape, p = ("cyclic", 2), 2
    reps = [x for x in TubeAmbient(2).carrier() if x.t <= length_bound]
    gen_sets = [()] + [g for k in (1, 2) for g in combinations(reps, k)]
    asked = []
    sweep = oracle.middle_terms_of_sums

    def record(shape_, a, b, p=2):
        asked.append((tuple(sorted(a, key=str)), tuple(sorted(b, key=str))))
        return sweep(shape_, a, b, p=p)

    monkeypatch.setattr(oracle, "middle_terms_of_sums", record)
    for gens in gen_sets:
        asked.clear()
        got = oracle.closure_fixpoint_bruteforce(shape, gens, length_bound, p)
        ours = list(asked)
        asked.clear()
        assert got == _closure_fixpoint_reference(shape, gens, length_bound, p), gens
        assert len(set(ours)) == len(ours)
        assert ours == list(dict.fromkeys(asked)), gens


def _needs_of(key):
    shape, p, a, b = key
    return oracle._needs(shape, a, b, p)[1]


def _middle_cache_digest(entries):
    """Digest of the (shape, p, A, B) -> (result, peak) entries, each with
    the needs of (A, B) that `_needs` reads off the Hom table."""
    rows = sorted(str((key, sorted(map(str, result)), tuple(_needs_of(key)), peak))
                  for key, (result, peak) in entries.items())
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_closure_suite_cache_contents_and_sweep_state(empty_oracle):
    """From an empty memo, the tube-closure-t2 suite leaves the middle-term
    answers it always has, and each sweep keeps only its pairs and an index."""
    from stabcat import checks

    assert checks.run_suite("tube-closure-t2").ok
    # the answers keyed (shape, p, A, B), as one flat cache held them
    entries = {(shape, p, a, b): answer for (shape, p), memo in oracle._MEMO.items()
               for (a, b), answer in memo.middle.items()}
    assert len(entries) == 713
    assert _middle_cache_digest(entries) == ("d35569a5586abc682994f913e3810a20"
                                             "02b11eb011a18a58c9af89ad97099c18")
    sweeps = [state for memo in oracle._MEMO.values() for state in memo.sweeps.values()]
    assert sweeps
    for state in sweeps:
        assert type(state) is tuple and len(state) == 2
        pairs, resume = state
        assert type(pairs) is set
        assert resume is None or type(resume) is int
        for pair in pairs:
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(side) is tuple and all(type(d) is TubeIndec for d in side)
                       for side in pair)


@pytest.mark.parametrize("suite", ["tube-closure-t3", "tube-middle-gf3", "ar-duality"])
def test_middle_entries_hold_the_peak_of_their_needs(empty_oracle, suite):
    """Every middle-term answer a suite leaves in the memo is (result, peak),
    with peak the largest need that `_needs` reads off the Hom table for
    its own query, or 0 when no candidate has one."""
    from stabcat import checks

    assert checks.run_suite(suite).ok
    entries = {(shape, p, a, b): answer for (shape, p), memo in oracle._MEMO.items()
               for (a, b), answer in memo.middle.items()}
    assert len(entries) > 100
    assert any(answer[1] == 0 for answer in entries.values())
    for key, answer in entries.items():
        assert type(answer) is tuple and len(answer) == 2 and type(answer[0]) is frozenset
        assert answer[1] == max((count for count, _, _ in _needs_of(key)), default=0), key


@pytest.mark.parametrize("suite", ["tube-closure-t3", "tube-closure-t3-gf3", "tube-middle-gf3"])
def test_shared_middle_answers_equal_direct_computation(empty_oracle, suite):
    """Every middle-term answer a suite leaves in the memo, result and
    peak, equals the direct computation of its own query."""
    from stabcat import checks

    assert checks.run_suite(suite).ok
    entries = {(shape, p, a, b): answer for (shape, p), memo in oracle._MEMO.items()
               for (a, b), answer in memo.middle.items()}
    assert any(_least_rotation(key[0][1], *key[2:]) for key in entries)
    direct = direct_middle_answers(entries)
    for key, answer in entries.items():
        assert answer == direct[key], [str(d) for d in key[2]] + ["|"] + [str(d) for d in key[3]]


def test_clear_gives_back_the_memo_memory(empty_oracle):
    """Everything two suites leave behind lives in the oracle memo: after
    `oracle.clear()` and a full collection, traced memory is back within
    16 KB of where it started."""
    import tracemalloc

    from stabcat import checks

    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert checks.run_suite("tube-closure-t2").ok
        assert checks.run_suite("tube-middle-gf3").ok
        held = tracemalloc.get_traced_memory()[0] - start
        oracle.clear()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert not oracle._MEMO
    assert held > 1_000_000
    assert left < 16 * 1024, left
