import pytest
from hypothesis import given, settings, strategies as st

from stabcat import tube
from stabcat.ambient import TubeAmbient
from stabcat.tube import (TubeError, TubeIndec, chain_splits, comp_factor_set, family,
                          hom_nonzero, middle_terms, parse_tube, rho, soc, tau, top,
                          truncate_rep)


def T(n, j, t):
    return TubeIndec(n, j, t)


def test_comp_factor_set_examples():
    assert comp_factor_set(T(3, 2, 2)) == {1, 2}
    assert comp_factor_set(T(3, 0, 3)) == {0, 1, 2}
    assert comp_factor_set(T(1, 0, 5)) == {0}


def test_soc_top_examples():
    assert soc(T(3, 2, 2)) == 1
    assert top(T(3, 2, 2)) == 2
    # frozen from the oracle's kernel-of-arrows socle (see checks tube-socle)
    assert soc(T(2, 0, 2)) == 1


def test_tau_examples():
    assert tau(T(3, 0, 1)) == T(3, 2, 1)
    assert tau(T(3, 1, 2), 0) == T(3, 1, 2)
    x = T(3, 2, 4)
    assert tau(x, 3) == x


def test_tau_soc_shift():
    for n in (2, 3, 4):
        for j in range(n):
            for t in range(1, 2 * n):
                x = T(n, j, t)
                assert soc(tau(x)) == (soc(x) - 1) % n


def _subobject_chain(x):
    """The chain S_{j-t+1}^(1) ⊂ ... ⊂ S_j^(t) = x of nonzero subobjects."""
    return [s for s, _ in chain_splits(x)] + [x]


def test_subobject_chain_examples():
    assert _subobject_chain(T(3, 2, 2)) == [T(3, 1, 1), T(3, 2, 2)]
    assert _subobject_chain(T(3, 1, 1)) == [T(3, 1, 1)]
    # frozen from the oracle submodule lattice (test_oracle cross-checks it)
    assert _subobject_chain(T(2, 0, 3)) == [T(2, 0, 1), T(2, 1, 2), T(2, 0, 3)]
    for x in _subobject_chain(T(3, 2, 5)):
        assert soc(x) == soc(T(3, 2, 5))


def test_hom_nonzero_examples():
    assert hom_nonzero(T(3, 1, 2), T(3, 2, 2))
    assert not hom_nonzero(T(3, 0, 1), T(3, 0, 2))
    assert hom_nonzero(T(3, 0, 3), T(3, 1, 3))
    assert hom_nonzero(T(3, 1, 3), T(3, 0, 3))


def test_hom_rank_mismatch_rejected():
    with pytest.raises(TubeError, match="rank"):
        hom_nonzero(T(2, 0, 1), T(3, 0, 1))
    with pytest.raises(TubeError, match="rank"):
        middle_terms(T(2, 0, 1), T(3, 0, 1))


def str_multisets(ms):
    return {tuple(str(c) for c in m) for m in ms}


def test_middle_terms_examples():
    assert str_multisets(middle_terms(T(3, 0, 1), T(3, 1, 1))) == {("S1^(2)@3",)}
    assert str_multisets(middle_terms(T(3, 0, 2), T(3, 1, 2))) == {("S0^(1)@3", "S1^(3)@3")}
    assert middle_terms(T(3, 0, 1), T(3, 0, 1)) == frozenset()


def test_fundamental_sequences():
    # the four families of non-split sequences, for every rank <= 4
    for n in range(1, 5):
        for j in range(n):
            for t in range(1, 2 * n + 1):
                # (1) S_{j-1}^(t) -> S_j^(t+1) -> S_j
                ms = middle_terms(T(n, (j - 1) % n, t), T(n, j, 1))
                assert (TubeIndec(n, j, t + 1),) in ms
                # (2) S_{j-t} -> S_j^(t+1) -> S_j^(t)
                ms = middle_terms(T(n, (j - t) % n, 1), T(n, j, t))
                assert (TubeIndec(n, j, t + 1),) in ms
                # (3) S_j^(t) -> S_{j+1}^(t+1) + S_j^(t-1) -> S_{j+1}^(t)
                ms = middle_terms(T(n, j, t), T(n, (j + 1) % n, t))
                if t == 1:
                    expected = (TubeIndec(n, (j + 1) % n, 2),)
                else:
                    expected = tuple(sorted(
                        (TubeIndec(n, (j + 1) % n, t + 1), TubeIndec(n, j, t - 1)), key=str))
                assert expected in ms
                # (4) factors through S_j^(t-1): both chain splits exist
                if t >= 2:
                    assert (T(n, (j - t + 1) % n, 1), T(n, j, t - 1)) in chain_splits(T(n, j, t))
                    assert (T(n, j, t - 1), T(n, (j + 1) % n, 1)) in chain_splits(T(n, (j + 1) % n, t))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3),
       st.integers(1, 9), st.integers(1, 9))
def test_middle_terms_length_conservation(n, j1, j2, t1, t2):
    a, b = T(n, j1 % n, t1), T(n, j2 % n, t2)
    for ms in middle_terms(a, b):
        assert sum(c.t for c in ms) == t1 + t2
        assert len(ms) in (1, 2)


def test_rho_representatives():
    assert rho(9, 3) == 6
    assert rho(3, 3) == 3
    assert rho(5, 3) == 5
    for n in (1, 2, 3, 4):
        for t in range(1, 5 * n):
            assert rho(rho(t, n), n) == rho(t, n)


def test_shared_representative_iff_periodic():
    n = 3
    for t1 in range(1, 12):
        for t2 in range(1, 12):
            same = truncate_rep(T(n, 1, t1)) == truncate_rep(T(n, 1, t2))
            periodic = t1 == t2 or (t1 > n and t2 > n and (t1 - t2) % n == 0)
            assert same == periodic, (t1, t2)


def test_truncate_examples():
    assert truncate_rep(T(3, 1, 9)) == T(3, 1, 6)
    assert truncate_rep(T(3, 1, 3)) == T(3, 1, 3)
    assert truncate_rep(T(3, 1, 5)) == T(3, 1, 5)


@pytest.mark.parametrize("n", range(1, 5))
def test_carrier_members_are_their_own_representatives(n):
    for m in TubeAmbient(n).carrier():
        assert truncate_rep(m) == m
        lengths = family(m.t, n, 4)
        assert (lengths == [m.t]) == (m.t <= n), str(m)
        assert all(truncate_rep(T(n, m.j, t)) == m for t in lengths), str(m)
        assert all(b - a == n for a, b in zip(lengths, lengths[1:])), str(m)


def test_parse_and_format():
    assert parse_tube("S1^(2)@3") == T(3, 1, 2)
    assert str(T(3, 1, 2)) == "S1^(2)@3"
    assert parse_tube("S2^(10)", n=4) == T(4, 2, 10)
    with pytest.raises(TubeError):
        parse_tube("S1^(2)")
    with pytest.raises(TubeError):
        parse_tube("S1^(2)@3", n=2)


def test_ambient_middle_terms_stabilize():
    # enlarging the family instantiation count changes nothing
    def swept(a, b, count):
        n = a.n
        return {tuple(sorted((truncate_rep(c) for c in ms), key=str))
                for ta in family(a.t, n, count) for tb in family(b.t, n, count)
                for ms in tube.middle_terms(T(n, a.j, ta), T(n, b.j, tb))}

    for n in (2, 3):
        amb = TubeAmbient(n)
        for a in amb.carrier():
            for b in amb.carrier():
                assert swept(a, b, 3) == swept(a, b, 4), (str(a), str(b))


@pytest.mark.parametrize("a", range(1, 11))
def test_homogeneous_rules_match_rank_one_tube(a):
    for b in range(1, 11):
        got = {tuple(sorted(lens)) for lens in tube.homogeneous_middle_lengths(a, b)}
        want = {tuple(sorted(c.t for c in ms)) for ms in middle_terms(T(1, 0, a), T(1, 0, b))}
        assert got == want, (a, b)
    assert tube.homogeneous_chain_splits(a) == [(s.t, q.t) for s, q in chain_splits(T(1, 0, a))]
