"""The HN search: agreement with the descriptor-based reference search, the
per-datum memo, the combination cap, and the torsion-spread generators."""

import itertools
import random
from collections import Counter

import pytest

import stabcat.ambient as ambient
import stabcat.stability as stability
from stabcat.ambient import IntervalAmbient, TubeAmbient
from stabcat.phases import ExplicitOrder, Phase
from stabcat.sheaves.kronecker import (KroneckerAmbient, finest_kron_directing,
                                      finest_kron_two_phase)
from stabcat.sheaves.p1 import P1Ambient, P1Line, P1Tor, finest_p1, slope_data_p1
from stabcat.sheaves.x2 import X2Ambient, X2Exc, X2Line, X2Ord, finest_x2, slope_data_x2
from stabcat.stability import (HNBoundError, StabilityData, enumerate_finest, hn_chains,
                               hn_filtration, validate)
from stabcat.subcat import EnumerationBoundError, ctx_for

import reference
from reference import _hn_chains_reference


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
    amb = P1Ambient(-3, 3, 4)
    for order in (amb.points, tuple(reversed(amb.points))):
        assert_matches_reference(amb, finest_p1(amb, order))
    assert_matches_reference(amb, slope_data_p1(amb))


def test_x2_data_match_reference():
    amb = X2Ambient(-2, 2, 3)
    for sd in (finest_x2(amb, "full"), finest_x2(amb, "coset"), finest_x2(amb, "lm", m=0),
               slope_data_x2(amb)):
        assert_matches_reference(amb, sd)


def datum_over(amb, pieces):
    """A datum with the given pieces of descriptor strings, lowest phase
    first; pieces need not be extension-closed."""
    phases = [Phase.integer(i + 1) for i in range(len(pieces))]
    return StabilityData(ExplicitOrder(phases),
                         {ph: frozenset(amb.parse(m) for m in names)
                          for ph, names in zip(phases, pieces)})


def lines_p1(lo, hi):
    return [[f"O({n})"] for n in range(lo, hi + 1)]


def lines_x2(amb, lo_dd, hi_dd):
    return [[str(ln)] for ln in amb.internal_lines() if lo_dd <= ln.dd <= hi_dd]


def invalid_p1_data(amb):
    """S_x^(1) and S_x^(2) in different phases, torsion phases among the
    line phases, phases owning several points with different slots, and
    lines in no piece, whose chains end in a torsion phase."""
    return [
        datum_over(amb, [["S[0]^(1)"], ["S[0]^(2)"], ["S[1]^(2)"], ["S[1]^(1)"],
                         ["S[lam]^(1)", "S[lam]^(2)"]] + lines_p1(-3, 3)),
        datum_over(amb, lines_p1(-3, -2) + [["S[0]^(1)"]] + lines_p1(-1, 0)
                   + [["S[0]^(2)", "S[1]^(1)"]] + lines_p1(1, 1) + [["S[1]^(2)"]]
                   + lines_p1(2, 3) + [["S[lam]^(1)", "S[lam]^(2)"]]),
        datum_over(amb, [["S[0]^(2)", "S[1]^(1)", "S[lam]^(1)", "S[lam]^(2)"]]
                   + lines_p1(-3, 0) + [["S[0]^(1)", "S[1]^(2)"]] + lines_p1(1, 3)),
        datum_over(amb, [["S[0]^(1)"], ["O(-2)"], ["S[0]^(2)", "S[1]^(1)"], ["O(0)"],
                         ["S[1]^(2)", "S[lam]^(1)"], ["O(2)"], ["S[lam]^(2)"]]),
    ]


def invalid_x2_data(amb):
    """Split ordinary tubes, the exceptional lengths 1-4 of both parities
    across phases, torsion phases among the line phases, and lines in no
    piece."""
    return [
        datum_over(amb, [["S[0]^(1)"], ["S[1,0]^(1)"], ["S[0]^(2)", "S[1]^(1)"],
                         ["S[1,0]^(2)"], ["S[1,0]^(3)", "S[1,1]^(1)"], ["S[1]^(2)"],
                         ["S[1,0]^(4)"], ["S[1,1]^(2)", "S[1,1]^(4)"], ["S[1,1]^(3)"],
                         ["S[lam]^(1)", "S[lam]^(2)"]] + lines_x2(amb, -6, 5)),
        datum_over(amb, lines_x2(amb, -6, -3) + [["S[1,0]^(1)", "S[0]^(2)"]]
                   + lines_x2(amb, -2, 0) + [["S[1,1]^(1)", "S[1,1]^(3)", "S[0]^(1)"]]
                   + lines_x2(amb, 1, 2) + [["S[1,0]^(2)", "S[1,0]^(4)", "S[1]^(1)"]]
                   + lines_x2(amb, 3, 5)
                   + [["S[1,0]^(3)", "S[1,1]^(2)", "S[1,1]^(4)", "S[1]^(2)"],
                      ["S[lam]^(2)"], ["S[lam]^(1)"]]),
        datum_over(amb, [["S[1,0]^(1)", "S[0]^(1)"], ["O(-3c+0x1)"], ["S[1,1]^(1)", "S[0]^(2)"],
                         ["O(-2c+1x1)"], ["S[1,0]^(2)", "S[1,1]^(3)"], ["O(0c+0x1)"],
                         ["S[1,0]^(3)", "S[1,0]^(4)", "S[1]^(1)", "S[1]^(2)"], ["O(1c+1x1)"],
                         ["S[1,1]^(2)", "S[1,1]^(4)", "S[lam]^(2)"], ["O(2c+1x1)"],
                         ["S[lam]^(1)"]]),
    ]


def test_invalid_sheaf_data_match_reference():
    p1 = P1Ambient(-3, 3, 3)
    for sd in invalid_p1_data(p1):
        assert_matches_reference(p1, sd)
        assert not validate(p1, sd).valid
    x2 = X2Ambient(-2, 2, 3)
    for sd in invalid_x2_data(x2):
        assert_matches_reference(x2, sd)
        assert not validate(x2, sd).valid


SHEAF_CASES = [
    pytest.param(P1Ambient(-3, 3, 3),
                 lambda a: [finest_p1(a), slope_data_p1(a)] + invalid_p1_data(a), id="p1"),
    pytest.param(X2Ambient(-2, 2, 3),
                 lambda a: [finest_x2(a, "full"), finest_x2(a, "coset"),
                            slope_data_x2(a)] + invalid_x2_data(a), id="x2"),
]
SHEAF_DATA = pytest.mark.parametrize("amb, data", SHEAF_CASES)


def random_sheaf_data(seed) -> list:
    """Random phase orders with random pieces over part of the carrier, one
    datum on P^1 and one on X(2): phases may own S_x^(1) without S_x^(2),
    the reverse, or only some exceptional lengths."""
    rng = random.Random(seed)
    out = []
    for amb in (P1Ambient(-2, 2, 3), X2Ambient(-1, 1, 2)):
        members = list(amb.carrier())
        rng.shuffle(members)
        k = rng.randrange(3, len(members))
        phases = [Phase.integer(i) for i in range(k)]
        pieces = {}
        for m in members:
            if rng.random() < 0.85:
                pieces.setdefault(rng.choice(phases), set()).add(m)
        out.append((amb, StabilityData(ExplicitOrder(phases), pieces)))
    return out


def filtered_decompositions(amb, search, x, top_of):
    """The reference decompositions of x whose quotient one phase below the
    sub's top owns; a line bundle's from `reference.line_decompositions`."""
    out = set()
    for subs, quots in reference.decompositions(amb, x):
        p = amb.owning_phase(quots, search.owner)
        if 0 <= p < top_of(subs):
            out.add((subs, tuple(sorted(quots, key=str)), p))
    return out


@pytest.mark.parametrize("amb, data", SHEAF_CASES + [
    pytest.param(amb, lambda a, sd=sd: [sd], id=f"random{seed}-{amb.name.split(':')[0]}")
    for seed in range(12) for amb, sd in random_sheaf_data(seed)])
def test_phase_quotients_are_the_filtered_decompositions(amb, data):
    """The generated spreads are exactly the decompositions whose quotient
    one phase below the sub's top owns."""
    for sd in data(amb):
        search = sd.hn_search(amb)

        def top_of(subs):
            chains = search.chains(subs[0])
            return max((search.pidx[c[-1][0]] for c in chains), default=-1)

        for x in amb.hn_scope():
            got = [(subs, tuple(sorted(quots, key=str)), p)
                   for subs, quots, p in amb.phase_quotients(x, search.owner, top_of)]
            assert len(got) == len(set(got))
            assert set(got) == filtered_decompositions(amb, search, x, top_of), (str(sd), str(x))


@pytest.mark.parametrize("seed", range(12))
def test_random_sheaf_data_match_reference(seed):
    """Random phase orders with random pieces over part of the carrier."""
    for amb, sd in random_sheaf_data(seed):
        assert_matches_reference(amb, sd)


@pytest.mark.parametrize("amb, data", [
    (P1Ambient(-20, 20, 6), (finest_p1, slope_data_p1)),
    (X2Ambient(-12, 12, 3), (lambda a: finest_x2(a, "full"), slope_data_x2)),
], ids=["p1:-20..20:6", "x2:-12..12:3"])
def test_wide_windows_validate(amb, data):
    for make in data:
        assert validate(amb, make(amb)).valid


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


def counting(monkeypatch, amb, method):
    calls = Counter()
    original = getattr(amb, method)

    def counted(x, *args):
        calls[x] += 1
        return original(x, *args)

    monkeypatch.setattr(amb, method, counted)
    return calls


def test_hn_filtration_after_validate_is_a_lookup(monkeypatch):
    """`validate` asks `phase_quotients` once per object, which covers each
    (object, sub) pair once; `hn_filtration` afterwards asks nothing."""
    amb = P1Ambient(-3, 3, 3)
    sd = finest_p1(amb)
    calls = counting(monkeypatch, amb, "phase_quotients")
    assert validate(amb, sd).valid
    assert calls and max(calls.values()) == 1
    calls.clear()
    for x in amb.hn_scope():
        hn_filtration(amb, sd, x)
    assert not calls


@SHEAF_DATA
def test_line_bundles_skip_decompositions(monkeypatch, amb, data):
    """The search builds a line bundle's torsion spreads itself: it never
    asks `decompositions` for a line bundle."""
    calls = counting(monkeypatch, amb, "decompositions")
    for sd in data(amb):
        validate(amb, sd)
        for x in amb.hn_scope():
            hn_chains(amb, sd, x)
    assert calls and not any(isinstance(x, (P1Line, X2Line)) for x in calls)


def test_search_follows_the_ambient():
    """A datum searched over a second ambient gets a fresh search."""
    a, b = P1Ambient(-2, 2, 2), P1Ambient(-2, 2, 2)
    sd = finest_p1(a)
    assert sd.hn_search(a) is sd.hn_search(a)
    assert sd.hn_search(b) is not sd.hn_search(a)
    assert validate(a, sd).valid and validate(b, sd).valid


@pytest.mark.parametrize("make, datum", [
    (lambda: P1Ambient(-20, 20, 6), finest_p1),
    (lambda: X2Ambient(-12, 12, 3), lambda a: finest_x2(a, "full"))], ids=["p1", "x2"])
def test_hn_filtration_builds_no_carrier_tables(make, datum):
    """`hn_filtration` on a fresh ambient checks pieces against the carrier
    only: the Hom and middle-term tables are never built."""
    amb = make()
    sd = datum(amb)
    for x in (amb.hn_scope()[0], amb.hn_scope()[-1]):
        hn_filtration(amb, sd, x)
    assert getattr(amb, "_carrier_ctx", None) is None


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


def spreads_by_gap(amb, x, degree) -> dict:
    """The quotients the `phase_quotients` walk gives x when one phase owns
    every member and tops every sub, in order, keyed by the degree gap
    between x and the line subsheaf."""
    out = {}
    owner = dict.fromkeys(amb.carrier(), 0)
    for (sub,), quot, _ in amb.phase_quotients(x, owner, lambda subs: 1):
        out.setdefault(degree(x) - degree(sub), []).append(quot)
    return out


@pytest.mark.parametrize("amb, data", [
    (P1Ambient(-3, 3, 3), lambda a: [finest_p1(a), slope_data_p1(a)]),
    (X2Ambient(-2, 2, 3), lambda a: [finest_x2(a, "full"), finest_x2(a, "coset"),
                                     slope_data_x2(a)])], ids=["p1", "x2"])
def test_references_do_not_read_the_spread_walk(monkeypatch, amb, data):
    """The HN and split-mask references give what the fast paths give with
    the package's spread walk switched off: they enumerate a line bundle's
    quotients themselves."""
    data = data(amb)
    ctx = ctx_for(amb)
    chains = [[hn_chains(amb, sd, x) for x in amb.hn_scope()] for sd in data]
    masks = [{(s, q) for s, quotients in ctx.split_masks(amb, i) for q in quotients}
             for _, i in ctx.scope]

    def walked(*args):
        raise AssertionError("a reference read the spread walk")

    monkeypatch.setattr(ambient.Ambient, "phase_quotients", walked)
    monkeypatch.setattr(P1Ambient, "spread_splits", walked)
    monkeypatch.setattr(ambient, "length_spreads", walked)
    assert chains == [[_hn_chains_reference(amb, sd, x) for x in amb.hn_scope()] for sd in data]
    assert masks == [reference._split_masks_reference(amb, i) for _, i in ctx.scope]


@pytest.mark.parametrize("n_points", range(1, 7))
def test_p1_spreads_match_product_filter(n_points):
    amb = P1Ambient(-6, 0, n_points)
    spreads = spreads_by_gap(amb, P1Line(0), lambda d: d.n)
    assert sorted(spreads) == list(range(1, 7))
    for gap, quots in spreads.items():
        assert quots == product_spreads_p1(amb.points, gap)


@pytest.mark.parametrize("n_points", range(1, 4))
def test_x2_spreads_match_product_filter(n_points):
    """O(0c+0x1) and O(0c+1x1) cover both top parities of the exceptional
    summand."""
    amb = X2Ambient(-3, 0, n_points)
    for line in (X2Line(0, 0), X2Line(0, 1)):
        spreads = spreads_by_gap(amb, line, lambda d: d.dd)
        assert sorted(spreads) == list(range(1, line.dd - 2 * amb.inner_lo + 1))
        for gap, quots in spreads.items():
            assert quots == product_spreads_x2(amb.points, gap, line.dd % 2)
