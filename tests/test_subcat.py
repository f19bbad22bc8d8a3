import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import stabcat.subcat as subcat
from stabcat.ambient import IntervalAmbient, TubeAmbient
from stabcat.ambients import parse_ambient
from stabcat.sheaves import KroneckerAmbient, P1Ambient, P1Line, X2Ambient, X2Line
from stabcat.stability import enumerate_finest
from stabcat.subcat import (EnumerationBoundError, SubcatError, closure, enumerate_ext_closed,
                            is_closed, left_perp, right_perp)
from stabcat.torsion import enumerate_torsion_pairs
from stabcat.tube import TubeIndec

from reference import _mid_mask_reference, enumerate_ext_closed_by_filter


def members_str(s):
    return sorted(str(x) for x in s)


def test_closure_examples():
    t3 = TubeAmbient(3)
    got = closure(t3, {TubeIndec(3, 0, 1), TubeIndec(3, 1, 1)})
    assert members_str(got) == ["S0^(1)@3", "S1^(1)@3", "S1^(2)@3"]
    got = closure(t3, {TubeIndec(3, 1, 3)})
    assert members_str(got) == ["S1^(3)@3", "S1^(6)@3"]
    assert closure(t3, frozenset()) == frozenset()


def test_closure_short_pieces_are_singletons():
    t3 = TubeAmbient(3)
    for j in range(3):
        for s in (1, 2):
            assert closure(t3, {TubeIndec(3, j, s)}) == frozenset({TubeIndec(3, j, s)})


def test_closure_rejects_foreign_generator():
    t3 = TubeAmbient(3)
    with pytest.raises(SubcatError):
        closure(t3, {TubeIndec(2, 0, 1)})


@settings(max_examples=120, deadline=None)
@given(st.sets(st.integers(0, 17), max_size=4), st.sets(st.integers(0, 17), max_size=4))
def test_closure_idempotent_and_monotone(idx_g, idx_h):
    t3 = TubeAmbient(3)
    carrier = t3.carrier()
    g = frozenset(carrier[i] for i in idx_g)
    h = frozenset(carrier[i] for i in idx_h)
    cg = closure(t3, g)
    assert closure(t3, cg) == cg
    if g <= h:
        assert cg <= closure(t3, h)
    assert cg <= closure(t3, g | h)


def test_right_perp_examples():
    t3 = TubeAmbient(3)
    s = closure(t3, {TubeIndec(3, 2, 1)})
    perp = right_perp(t3, s)
    for name in ("S0^(1)@3", "S1^(1)@3", "S2^(2)@3"):
        assert t3.parse(name) in perp
    # the perp equals the torsion-free class of the first ray pair
    assert perp == right_perp(t3, {TubeIndec(3, 2, 1)})
    assert is_closed(t3, perp)
    full = frozenset(t3.carrier())
    assert right_perp(t3, frozenset()) == full
    assert right_perp(t3, full) == frozenset()
    assert left_perp(t3, full) == frozenset()


def test_perps_of_closed_sets_are_closed():
    for amb in (TubeAmbient(2), TubeAmbient(3), IntervalAmbient(3)):
        for s in enumerate_ext_closed(amb):
            assert is_closed(amb, right_perp(amb, s))
            assert is_closed(amb, left_perp(amb, s))


def test_enumerate_t1():
    t1 = TubeAmbient(1)
    sets = enumerate_ext_closed(t1)
    assert len(sets) == 2
    assert frozenset() in sets and frozenset(t1.carrier()) in sets


def test_enumerate_a2_count_and_members():
    a2 = IntervalAmbient(2)
    sets = enumerate_ext_closed(a2)
    named = {tuple(members_str(s)) for s in sets}
    s1, s2, p1 = "M[1,1]@A2", "M[2,2]@A2", "M[1,2]@A2"
    for expected in [(), (s1,), (s2,), (p1,), (s2, p1), (s1, p1), (s1, p1, s2)]:
        assert tuple(sorted(expected)) in named
    # count frozen after cross-checking against the subset filter
    assert len(sets) == 7


def test_enumerate_agrees_with_filter():
    for amb in (IntervalAmbient(2), IntervalAmbient(3), TubeAmbient(2)):
        walk = {frozenset(s) for s in enumerate_ext_closed(amb)}
        filt = {frozenset(s) for s in enumerate_ext_closed_by_filter(amb)}
        assert walk == filt


def test_enumerate_empty_carrier_like_bound(monkeypatch):
    monkeypatch.setattr(subcat, "ENUMERATION_BOUND", 4)
    with pytest.raises(SubcatError, match="bound"):
        enumerate_ext_closed(TubeAmbient(3))


def test_bound_checked_before_carrier_tables(monkeypatch):
    def no_tables(ambient):
        raise AssertionError("carrier tables built for an over-bound carrier")

    monkeypatch.setattr(subcat, "CarrierContext", no_tables)
    for enumerate_ in (enumerate_ext_closed, enumerate_torsion_pairs, enumerate_finest):
        with pytest.raises(EnumerationBoundError,
                           match="carrier size 98 exceeds enumeration bound 64"):
            enumerate_(TubeAmbient(7))


def test_enumerate_finitely_many_t3():
    # Every extension-closed set shows up; the count is frozen as a golden
    # value after the filter cross-check on T_2.
    sets = enumerate_ext_closed(TubeAmbient(3))
    assert len(sets) == len({frozenset(s) for s in sets})
    assert all(is_closed(TubeAmbient(3), s) for s in sets)


def test_carrier_context_lives_with_its_ambient():
    """The context is stored on the ambient; dropped ambients are freed."""
    refs = []
    for _ in range(50):
        amb = IntervalAmbient(3)
        assert subcat.ctx_for(amb) is subcat.ctx_for(amb)
        refs.append(weakref.ref(amb))
        del amb
    assert all(r() is None for r in refs)


@pytest.mark.parametrize("make", [
    lambda: TubeAmbient(2),
    lambda: P1Ambient(-2, 2, 2),
    lambda: X2Ambient(-1, 1, 1),
    lambda: KroneckerAmbient(3, 2),
], ids=["tube", "p1", "x2", "kronecker"])
def test_method_caches_live_with_their_ambient(make):
    """The carrier tables and the split masks are stored on the ambient's
    context: an ambient whose tables were built is freed once dropped."""
    amb = make()
    ctx = subcat.ctx_for(amb)
    for i in range(len(ctx.carrier)):
        ctx.split_masks(amb, i)
    assert len(ctx.splits) == len(amb.carrier())
    ref = weakref.ref(amb)
    del amb, ctx
    gc.collect()
    assert ref() is None


TABLE_SPECS = ([f"an:{n}" for n in range(1, 7)] + [f"tube:{n}" for n in range(1, 7)]
               + [f"kronecker:window={w}:points={p}" for w in range(2, 9) for p in range(4)]
               + [f"p1:window={-k}..{k}:points={p}" for k in range(4) for p in range(7)]
               + [f"x2:window={-k}..{k}:points={p}" for k in range(4) for p in range(4)])


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_mid_mask_matches_middle_terms(spec):
    """The extension table, τ-orbit rows and all, equals the one ORed from
    `Ambient.middle_terms` pair by pair."""
    amb = parse_ambient(spec)
    ctx = subcat.ctx_for(amb)
    want = _mid_mask_reference(amb)
    diff = next(((a, b) for i, a in enumerate(ctx.carrier) for j, b in enumerate(ctx.carrier)
                 if ctx.mid_mask[i][j] != want[i][j]), None)
    assert diff is None, f"mid_mask differs first at (a, b) = ({diff[0]}, {diff[1]})"


@pytest.mark.parametrize("spec", ["kronecker:window=30:points=3", "x2:window=-20..20:points=3",
                                  "p1:window=-30..30:points=6"])
def test_mid_mask_matches_middle_terms_at_wide_windows(spec):
    """The `middle_ranges` closed forms at windows wide enough that an
    off-by-one at a window edge or in the X(2) stride shows."""
    test_mid_mask_matches_middle_terms(spec)


@pytest.mark.parametrize("spec", ["kronecker:window=60:points=3", "x2:window=-60..60:points=3",
                                  "p1:window=-140..140:points=6"])
def test_line_and_kronecker_pairs_never_sweep_the_rules(spec, monkeypatch):
    """At the member limit, no line-line pair and no Kronecker pair reaches
    `embedded_middles`: a `middle_ranges` that answered None would pass
    every agreement test and lose the closed forms."""
    amb = parse_ambient(spec)
    swept = []
    rules = amb.embedded_middles

    def counted(a, b):
        swept.append((a, b))
        return rules(a, b)

    monkeypatch.setattr(amb, "embedded_middles", counted)
    subcat.ctx_for(amb)
    lines = (P1Line, X2Line)
    bad = [(a, b) for a, b in swept
           if isinstance(amb, KroneckerAmbient) or isinstance(a, lines) and isinstance(b, lines)]
    assert not bad, f"{len(bad)} pairs swept the rules, first {bad[0][0]}, {bad[0][1]}"
    assert swept or isinstance(amb, KroneckerAmbient), "the count saw no line-torsion pair"
