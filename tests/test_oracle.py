import gc

import pytest

from stabcat import gf, oracle
from stabcat.intervals import IntervalModule
from stabcat.tube import TubeIndec


def test_build_tube_dims():
    rep = oracle.build_indec(("cyclic", 3), TubeIndec(3, 1, 2), 2)
    assert (rep.dims[0], rep.dims[1], rep.dims[2]) == (1, 1, 0)
    nonzero = [k for k, m in rep.maps.items() if any(any(row) for row in m)]
    assert len(nonzero) == 1


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
    zero = oracle.zero_rep(("cyclic", 2), 2)
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


def test_budget_holds_on_cache_hits(monkeypatch):
    """A cached answer under a smaller budget raises exactly what a fresh
    sweep raises: the first candidate, in sweep order, above the budget."""
    s2, s1 = TubeIndec(1, 0, 2), TubeIndec(1, 0, 1)
    queries = [((s2,), (s2,)), ((s1, s1), (s1,))]
    fresh = []
    with monkeypatch.context() as m:
        m.setattr(oracle, "_MIDDLE_CACHE", {})
        m.setenv("STABCAT_BUDGET", "1")
        for a, b in queries:
            with pytest.raises(oracle.BudgetExceededError) as exc:
                oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2)
            fresh.append(str(exc.value))
    monkeypatch.setattr(oracle, "_MIDDLE_CACHE", {})
    warm = [oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2) for a, b in queries]
    assert all(warm)
    monkeypatch.setenv("STABCAT_BUDGET", "1")
    for (a, b), message in zip(queries, fresh):
        with pytest.raises(oracle.BudgetExceededError) as exc:
            oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2)
        assert str(exc.value) == message
    monkeypatch.setenv("STABCAT_BUDGET", "8")  # the largest need of either sweep
    assert [oracle.middle_terms_of_sums(("cyclic", 1), a, b, p=2) for a, b in queries] == warm


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
            for cand, _, _ in oracle._candidates(shape, 2, target, a.t + b.t):
                if cand == split:
                    continue
                classes = oracle._sub_quotient_classes(shape, 2, cand, dims_query)
                if ((a,), (b,)) in classes:
                    by_subs.add(cand)
            assert by_maps == frozenset(by_subs), (str(a), str(b))


def test_candidates_cover_every_multiset_with_exact_hom_profiles():
    from collections import Counter
    from itertools import combinations_with_replacement

    shape, p, max_len = ("cyclic", 2), 3, 4
    target = ((0, 2), (1, 2))
    descs, _ = oracle._hom_table(shape, p, max_len)
    got = oracle._candidates(shape, p, target, max_len)
    assert got is oracle._candidates(shape, p, target, max_len)
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
    admitted past the Hom bounds and an empty middle-term cache."""
    admitted = []
    with monkeypatch.context() as m:
        m.setattr(oracle, "_hom_bounds_admit", lambda *args: admitted.append(args) or True)
        m.setattr(oracle, "_MIDDLE_CACHE", {})
        out = [oracle.middle_terms_of_sums(shape, a, b, p=p) for shape, a, b, p in queries]
    assert admitted
    return out


def _assert_bounds_agree(monkeypatch, queries):
    bounded = [oracle.middle_terms_of_sums(shape, a, b, p=p) for shape, a, b, p in queries]
    for q, got, ref in zip(queries, bounded, _middle_terms_unbounded(monkeypatch, queries)):
        assert got == ref, q


@pytest.mark.parametrize("p", [2, 3])
def test_hom_bounds_agree_with_unbounded_sweep_on_tube_pairs(monkeypatch, p):
    queries = []
    for n in (1, 2, 3):
        objs = [TubeIndec(n, j, t) for j in range(n) for t in range(1, 5)]
        queries += [(("cyclic", n), (a,), (b,), p) for a in objs for b in objs if a.t + b.t <= 5]
    assert len(queries) == 140
    _assert_bounds_agree(monkeypatch, queries)


def test_hom_bounds_agree_with_unbounded_sweep_on_interval_pairs(monkeypatch):
    from stabcat.intervals import all_intervals

    queries = [(("linear", n), (a,), (b,), 2)
               for n in range(1, 5) for a in all_intervals(n) for b in all_intervals(n)]
    assert len(queries) == 146
    _assert_bounds_agree(monkeypatch, queries)


def test_hom_bounds_agree_with_unbounded_sweep_on_t2_closure_queries(monkeypatch):
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


def test_hom_bounds_prune_before_linear_algebra(monkeypatch):
    shape, s2 = ("cyclic", 1), TubeIndec(1, 0, 2)
    calls = []
    hom_basis = oracle.hom_basis

    def counting(r1, r2):
        calls.append(r2)
        return hom_basis(r1, r2)

    monkeypatch.setattr(oracle, "hom_basis", counting)
    monkeypatch.setattr(oracle, "_MIDDLE_CACHE", {})
    got = oracle.middle_terms_bruteforce(shape, s2, s2)
    # S^(2)+S^(1)+S^(1) and S^(1)^4 have too large a socle: [S^(1), E] > [S^(1), A] + [S^(1), B]
    assert len(calls) == 2
    assert strs(got) == {("S0^(4)@1",), ("S0^(1)@1", "S0^(3)@1")}


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


def test_subobject_chain_matches_submodule_lattice():
    # every subrepresentation of a tube segment lies on the stated chain
    from stabcat.tube import subobject_chain

    x = TubeIndec(2, 0, 3)
    rep = oracle.build_indec(("cyclic", 2), x, 2)
    found = []
    for bases in oracle._submodules_with_dims(rep, {0: 0, 1: 0}):
        found.append(())
    all_subs = []
    import itertools as it

    for d0 in range(rep.dims[0] + 1):
        for d1 in range(rep.dims[1] + 1):
            for bases in oracle._submodules_with_dims(rep, {0: d0, 1: d1}):
                sub, _ = oracle._sub_and_quotient(rep, bases)
                if sub.total_dim():
                    all_subs.append(oracle.decompose(sub))
    indecomposable_subs = {ds[0] for ds in all_subs if len(ds) == 1}
    assert indecomposable_subs == set(subobject_chain(x))


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
    """With the cyclic collector off, dropping the result of one walk leaves
    nothing for a full collection: the walk builds no reference cycle."""
    pool = [TubeIndec(2, j, t) for j in range(2) for t in range(1, 4)]
    gc.collect()
    gc.disable()
    try:
        out = oracle._multisets_up_to_length(("cyclic", 2), 2, pool, 5)
        assert len(out) == 65
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()
