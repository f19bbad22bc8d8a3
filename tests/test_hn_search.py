"""The HN search: agreement with the descriptor-based reference search, the
per-datum memo, the combination cap, and the torsion-spread generators."""

import itertools
from collections import Counter

import pytest

import stabcat.stability as stability
from stabcat.ambient import IntervalAmbient, TubeAmbient
from stabcat.phases import ExplicitOrder, Phase
from stabcat.sheaves.kronecker import (KroneckerAmbient, finest_kron_directing,
                                      finest_kron_two_phase)
from stabcat.sheaves.p1 import P1Ambient, P1Tor, finest_p1, slope_data_p1
from stabcat.sheaves.x2 import X2Ambient, X2Exc, X2Ord, finest_x2, slope_data_x2
from stabcat.stability import (HNBoundError, StabilityData, _hn_chains_reference,
                               enumerate_finest, hn_chains, hn_filtration, validate)
from stabcat.subcat import EnumerationBoundError


def assert_matches_reference(amb, sd):
    for x in amb.hn_scope():
        assert hn_chains(amb, sd, x) == _hn_chains_reference(amb, sd, x), (str(sd), str(x))


@pytest.mark.parametrize("amb", [IntervalAmbient(n) for n in (2, 3, 4)]
                         + [TubeAmbient(n) for n in (1, 2, 3)], ids=lambda a: a.name)
def test_finest_data_match_reference(amb):
    for sd in enumerate_finest(amb):
        assert_matches_reference(amb, sd)


def test_p1_data_match_reference():
    amb = P1Ambient(-3, 3, 3)
    for order in (("0", "1", "lam"), ("lam", "0", "1"), ("1", "lam", "0")):
        assert_matches_reference(amb, finest_p1(amb, order))
    assert_matches_reference(amb, slope_data_p1(amb))


def test_x2_data_match_reference():
    amb = X2Ambient(-2, 2, 3)
    for sd in (finest_x2(amb, "full"), finest_x2(amb, "coset"), slope_data_x2(amb)):
        assert_matches_reference(amb, sd)


def test_kronecker_data_match_reference():
    amb = KroneckerAmbient(6, 3)
    for sd in (finest_kron_directing(amb), finest_kron_two_phase(amb)):
        assert_matches_reference(amb, sd)


def test_invalid_datum_matches_reference():
    """S3 lies in no piece (no chain); M[1,2] is semistable and also splits
    as S2 over S1 (two chains)."""
    amb = IntervalAmbient(3)
    phases = [Phase.integer(i) for i in (1, 2, 3)]
    sd = StabilityData(ExplicitOrder(phases), {
        phases[0]: {amb.parse("S1")}, phases[1]: {amb.parse("S2")},
        phases[2]: {amb.parse("M[1,2]")}})
    counts = {str(x): len(hn_chains(amb, sd, x)) for x in amb.hn_scope()}
    assert counts[str(amb.parse("S3"))] == 0
    assert counts[str(amb.parse("M[1,2]"))] == 2
    assert_matches_reference(amb, sd)
    assert not validate(amb, sd).valid


def counting_decompositions(monkeypatch, amb):
    calls = Counter()
    original = amb.decompositions

    def counted(x):
        calls[x] += 1
        return original(x)

    monkeypatch.setattr(amb, "decompositions", counted)
    return calls


def test_hn_filtration_after_validate_is_a_lookup(monkeypatch):
    amb = P1Ambient(-3, 3, 3)
    sd = finest_p1(amb)
    calls = counting_decompositions(monkeypatch, amb)
    assert validate(amb, sd).valid
    assert calls and max(calls.values()) == 1
    calls.clear()
    for x in amb.hn_scope():
        hn_filtration(amb, sd, x)
    assert not calls


def test_search_follows_the_ambient():
    """A datum searched over a second ambient gets a fresh search."""
    a, b = P1Ambient(-2, 2, 2), P1Ambient(-2, 2, 2)
    sd = finest_p1(a)
    assert sd.hn_search(a) is sd.hn_search(a)
    assert sd.hn_search(b) is not sd.hn_search(a)
    assert validate(a, sd).valid and validate(b, sd).valid


def test_pieces_are_read_only():
    amb = IntervalAmbient(2)
    sd = enumerate_finest(amb)[0]
    ph = sd.phases()[0]
    with pytest.raises(TypeError):
        sd.pieces[ph] = frozenset()
    with pytest.raises(TypeError):
        del sd.pieces[ph]


def test_combination_cap_names_object_and_count(monkeypatch):
    amb = KroneckerAmbient(6, 3)
    sd = finest_kron_directing(amb)
    monkeypatch.setattr(stability, "_HN_COMBO_CAP", 0)
    with pytest.raises(HNBoundError, match=r"HN search of \S+: 1 combinations .* cap 0") as exc:
        validate(amb, sd)
    assert isinstance(exc.value, EnumerationBoundError)
    monkeypatch.setattr(stability, "_HN_COMBO_CAP", 512)
    # the aborted search left no stale memo entries behind
    assert validate(amb, sd).valid
    assert_matches_reference(amb, sd)


def product_spreads_p1(points, gap):
    out = []
    for lens in itertools.product(range(gap + 1), repeat=len(points)):
        if sum(lens) == gap:
            out.append(tuple(P1Tor(x, k) for x, k in zip(points, lens) if k))
    return [s for s in out if s]


def product_spreads_x2(points, gap, parity):
    out = []
    for m_exc in range(gap + 1):
        rest = gap - m_exc
        if rest % 2:
            continue
        for lens in itertools.product(range(rest // 2 + 1), repeat=len(points)):
            if 2 * sum(lens) != rest:
                continue
            quot = [X2Exc(parity, m_exc)] if m_exc else []
            quot.extend(X2Ord(x, k) for x, k in zip(points, lens) if k)
            if quot:
                out.append(tuple(quot))
    return out


@pytest.mark.parametrize("n_points", range(1, 7))
def test_p1_spreads_match_product_filter(n_points):
    amb = P1Ambient(0, 0, n_points)
    for gap in range(7):
        assert amb._torsion_spreads(gap) == product_spreads_p1(amb.points, gap)


@pytest.mark.parametrize("n_points", range(1, 4))
def test_x2_spreads_match_product_filter(n_points):
    amb = X2Ambient(0, 0, n_points)
    for gap in range(7):
        for parity in (0, 1):
            assert amb._torsion_spreads(gap, parity) == product_spreads_x2(amb.points, gap,
                                                                           parity)
