import itertools

import pytest

from stabcat.ambient import AmbientError, WindowError
from stabcat.sheaves.x2 import (EXC_HI, EXC_LO, EXC_MID, X2Ambient, X2Exc, X2Line, X2Ord,
                                finest_x2, line_of_dd, slope_data_x2, x2_torsion_family)
from stabcat.stability import (count_finest, enumerate_finest, hn_filtration, is_coarser,
                               is_finest, validate)
from stabcat.torsion import enumerate_torsion_pairs, validate_torsion_pair


@pytest.fixture(scope="module")
def amb():
    return X2Ambient(-4, 4, 3)


def test_degree_order_and_line_homs(amb):
    assert amb.hom_nonzero(X2Line(0, 0), X2Line(0, 1))   # O -> O(x1)
    assert not amb.hom_nonzero(X2Line(0, 1), X2Line(0, 0))
    assert amb.hom_nonzero(X2Line(-1, 1), X2Line(0, 0))  # x1 - c < 0
    assert X2Line(0, 1).dd == 1 and X2Line(-1, 1).dd == -1


def test_stored_degree_is_2l_plus_e_and_invisible_to_compare():
    """`dd` is stored once per line; it stays out of ==, hash, order and repr."""
    import dataclasses
    import pickle

    lines = [X2Line(l, e) for l in range(-60, 61) for e in (0, 1)]
    assert all(x.dd == 2 * x.l + x.e for x in lines)
    assert sorted(lines, key=lambda x: x.dd) == sorted(lines)
    assert [line_of_dd(x.dd) for x in lines] == lines
    x = X2Line(-3, 1)
    assert repr(x) == "X2Line(l=-3, e=1)" and hash(x) == hash((-3, 1))
    assert pickle.loads(pickle.dumps(x)).dd == -5 and dataclasses.replace(x, e=0).dd == -6
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.dd = 0


def test_line_to_torsion_homs(amb):
    assert amb.hom_nonzero(X2Line(0, 0), X2Exc(0, 1))    # Hom(O, S_{1,0}) != 0
    assert not amb.hom_nonzero(X2Line(0, 0), X2Exc(1, 1))
    assert amb.hom_nonzero(X2Line(0, 1), X2Exc(1, 1))
    assert amb.hom_nonzero(X2Line(0, 0), X2Exc(1, 2))    # length >= 2 absorbs both parities
    assert amb.hom_nonzero(X2Line(2, 1), X2Ord("0", 1))
    assert not amb.hom_nonzero(X2Exc(0, 1), X2Line(3, 0))
    assert not amb.hom_nonzero(X2Ord("0", 1), X2Exc(0, 1))


def test_exceptional_tube_is_rank_two(amb):
    assert amb.hom_nonzero(X2Exc(0, 1), X2Exc(1, 2))
    assert amb.hom_nonzero(X2Exc(0, 1), X2Exc(0, 1))
    assert not amb.hom_nonzero(X2Exc(1, 1), X2Exc(0, 1))
    assert amb.embed(X2Exc(0, 5)) == X2Exc(0, 3)
    assert amb.embed(X2Exc(1, 6)) == X2Exc(1, 4)


def test_three_families_valid_and_finest(amb):
    for family, kwargs in [("full", {}), ("coset", {}),
                           ("lm", dict(m=-1)), ("lm", dict(m=0)), ("lm", dict(m=2))]:
        sd = finest_x2(amb, family, **kwargs)
        assert validate(amb, sd).valid, (family, kwargs)
        assert is_finest(amb, sd)[0], (family, kwargs)


def test_lm_semistable_line_set(amb):
    m = 0
    sd = finest_x2(amb, "lm", m=m)
    piece_of = sd.piece_of_map()
    for line in amb.reported_lines():
        semistable = line in piece_of
        if line.dd % 2 == 1:
            assert semistable
        else:
            assert semistable == (line.l < m)


def test_coset_hn_filtrations(amb):
    coset = finest_x2(amb, "coset")

    def factors(x):
        return [(str(ph), [str(f) for f in fac]) for _, fac, ph in
                hn_filtration(amb, coset, x).steps]

    assert factors(X2Line(0, 0)) == [("-1", ["O(-1c+1x1)"]), ("(inf|0)", ["S[1,0]^(1)"])]
    assert factors(X2Line(2, 0)) == [("3", ["O(1c+1x1)"]), ("(inf|0)", ["S[1,0]^(1)"])]
    assert factors(X2Exc(1, 5)) == [("(inf|1)", ["S[1,1]^(1)"]), ("(inf|1/2)", ["S[1,1]^(4)"])]
    assert factors(X2Exc(0, 5)) == [("(inf|1/2)", ["S[1,1]^(4)"]), ("(inf|0)", ["S[1,0]^(1)"])]
    assert factors(X2Exc(0, 6)) == [("(inf|1)", ["S[1,1]^(1)"]), ("(inf|1/2)", ["S[1,1]^(4)"]),
                                    ("(inf|0)", ["S[1,0]^(1)"])]


def test_coset_semistable_census(amb):
    """Exactly the objects listed in the classification are non-semistable
    under the coset family, inside the window."""
    coset = finest_x2(amb, "coset")
    piece_of = coset.piece_of_map()
    for x in amb.hn_scope():
        semistable = amb.embed(x) in piece_of
        if isinstance(x, X2Line):
            assert semistable == (x.dd % 2 == 1)
        elif isinstance(x, X2Exc):
            if x.j == 1:
                assert semistable == (x.t == 1 or x.t % 2 == 0)
            else:
                assert semistable == (x.t == 1)
        else:
            assert semistable


def test_nonsemistable_line_has_two_hn_factors(amb):
    """Windowed shape of the one-step reduction: a non-semistable line bundle
    peels exactly [L(-x1); S_{1,L}]."""
    for family, kwargs in [("coset", {}), ("lm", dict(m=0)), ("lm", dict(m=2))]:
        sd = finest_x2(amb, family, **kwargs)
        piece_of = sd.piece_of_map()
        for line in amb.reported_lines():
            if line in piece_of:
                continue
            filt = hn_filtration(amb, sd, line)
            assert len(filt.steps) == 2
            (_, top_fac, _), (_, low_fac, _) = filt.steps
            assert list(top_fac) == [line_of_dd(line.dd - 1)]
            assert list(low_fac) == [X2Exc(line.dd % 2, 1)]


def test_slope_comparison(amb):
    slope = slope_data_x2(amb)
    assert validate(amb, slope).valid
    assert is_coarser(amb, slope, finest_x2(amb, "full")) is not None
    assert is_coarser(amb, slope, finest_x2(amb, "coset")) is None
    assert is_coarser(amb, slope, finest_x2(amb, "lm", m=0)) is None


def test_torsion_families(amb):
    for row, kwargs in [("I", dict(points=("0",))), ("I", dict(points=("inf",))),
                        ("I", dict(points=("0", "1", "lam", "inf"))),
                        ("II", dict(points=())), ("II", dict(points=("0", "lam"))),
                        ("III", dict(points=())), ("III", dict(points=("1",))),
                        ("IV", dict()), ("IV", dict(shift=-2)),
                        ("V", dict()), ("V", dict(shift=1)), ("VI", dict())]:
        pair = x2_torsion_family(amb, row, **kwargs)
        assert validate_torsion_pair(amb, pair.t, pair.f).valid, (row, kwargs)


def test_torsion_family_shapes(amb):
    row4 = x2_torsion_family(amb, "IV")
    assert all(not isinstance(d, X2Line) or d.dd >= 0 for d in row4.t)
    assert all(isinstance(d, X2Line) and d.dd < 0 for d in row4.f)
    row5 = x2_torsion_family(amb, "V")
    assert X2Exc(0, 1) in row5.f
    assert all(not isinstance(d, X2Line) or d.dd < 1 for d in row5.f)
    row6 = x2_torsion_family(amb, "VI")
    assert row6.f == frozenset({X2Exc(0, 1)})


def test_family_guards(amb):
    with pytest.raises(AmbientError, match="nonempty"):
        x2_torsion_family(amb, "I", points=())
    with pytest.raises(WindowError):
        finest_x2(amb, "lm", m=amb.hi + 2)
    with pytest.raises(AmbientError):
        finest_x2(amb, "nope")
    with pytest.raises(AmbientError, match="lo < mid < hi"):
        finest_x2(amb, "full", xtilde_order=[EXC_MID, EXC_LO, EXC_HI, "0", "1", "lam"])
    with pytest.raises(AmbientError, match="must come first"):
        finest_x2(amb, "coset", xtilde_order=["0", EXC_LO, EXC_MID, EXC_HI, "1", "lam"])


def test_xtilde_order_missing_a_marker_raises_at_once(amb):
    order = [EXC_LO, EXC_MID, "0", "1", "lam"]
    with pytest.raises(AmbientError, match="each exceptional marker and point once"):
        finest_x2(amb, "full", xtilde_order=order)


@pytest.mark.parametrize("anchor", [2, -1])
def test_anchor_outside_the_parities_raises_at_once(amb, anchor):
    with pytest.raises(AmbientError, match=f"the parity 0 or 1, got {anchor}"):
        finest_x2(amb, "full", anchor=anchor)


def test_window_stability_x2():
    small, big = X2Ambient(-2, 2, 2), X2Ambient(-4, 4, 2)
    for x in small.carrier():
        for y in small.carrier():
            assert small.hom_nonzero(x, y) == big.hom_nonzero(x, y)
    for fam, kw in [("full", {}), ("coset", {}), ("lm", dict(m=0))]:
        assert validate(small, finest_x2(small, fam, **kw)).valid


def _interleavings(movable):
    base = [EXC_LO, EXC_MID, EXC_HI]
    for pos in itertools.product(range(len(base) + 1), repeat=len(movable)):
        tokens = list(base)
        for x, k in sorted(zip(movable, pos), key=lambda z: -z[1]):
            tokens.insert(k, x)
        yield tokens


def test_no_other_finest_in_small_window():
    """Windowed exhaustiveness of the three-family classification: the
    general search finds exactly the family instantiations over all anchor
    normalizations, torsion-phase interleavings and visible cuts."""
    small = X2Ambient(-1, 1, 1)
    found = enumerate_finest(small)
    reported = set(small.reported_members())

    def key(sd):
        seq = []
        for piece in sd.piece_sequence():
            restricted = tuple(sorted(str(m) for m in piece if m in reported))
            if restricted:
                seq.append(restricted)
        return tuple(seq)

    expected = set()
    for anchor in (0, 1):
        for tokens in _interleavings(list(small.points)):
            expected.add(key(finest_x2(small, "full", anchor=anchor, xtilde_order=tokens)))
            if tokens[0] != EXC_LO:
                continue
            expected.add(key(finest_x2(small, "coset", anchor=anchor, xtilde_order=tokens)))
            for m in range(small.lo, small.hi + 2):
                expected.add(key(finest_x2(small, "lm", m=m, anchor=anchor, xtilde_order=tokens)))
    found_keys = {key(sd) for sd in found}
    assert found_keys == expected
    assert len(found_keys) == 29


def test_parse_and_strings(amb):
    assert amb.parse("O(-3c+1x1)") == X2Line(-3, 1)
    assert amb.parse("O(2c)") == X2Line(2, 0)
    assert amb.parse("O(0)") == X2Line(0, 0)
    assert amb.parse("S[1,0]^(7)") == X2Exc(0, 3)
    assert amb.parse("S[lam]^(9)") == X2Ord("lam", 2)
    assert str(X2Line(-1, 1)) == "O(-1c+1x1)"
    with pytest.raises(AmbientError):
        amb.parse("S[9]^(1)")


def test_consecutive_semistable_lines_descend(amb):
    """If a line bundle and its x1-shift are both semistable, every lower
    twist is semistable too (windowed shape of the descent argument)."""
    for family, kwargs in [("full", {}), ("coset", {}), ("lm", dict(m=0)), ("lm", dict(m=2))]:
        sd = finest_x2(amb, family, **kwargs)
        piece_of = sd.piece_of_map()
        lines = sorted(amb.internal_lines(), key=lambda ln: ln.dd)
        semistable = [ln in piece_of for ln in lines]
        for i in range(1, len(lines)):
            if semistable[i - 1] and semistable[i]:
                assert all(semistable[:i]), (family, kwargs, str(lines[i]))


def test_middle_terms_match_translate_hom_criterion(amb):
    """Non-split extensions of B by A exist exactly when Hom(A, tau B) != 0,
    with tau the shift by the dualizing element: degree -3 on line bundles,
    parity flip on the exceptional tube, identity on ordinary tubes.
    Checked away from the window boundary so no middle term is cut off."""
    def tau(d):
        if isinstance(d, X2Line):
            return line_of_dd(d.dd - 3)
        if isinstance(d, X2Exc):
            return X2Exc(1 - d.j, d.t)
        return d

    def interior_line(d):
        return 2 * amb.lo + 8 <= d.dd <= 2 * amb.hi - 7

    for a in amb.carrier():
        for b in amb.carrier():
            if isinstance(a, X2Line) and not interior_line(a):
                continue
            if isinstance(b, X2Line) and not interior_line(b):
                continue
            if isinstance(b, X2Line) and not isinstance(a, X2Line):
                assert not amb.middle_terms(a, b)
                continue
            has_middle = bool(amb.middle_terms(a, b))
            assert has_middle == amb.hom_nonzero(a, tau(b)), (str(a), str(b))


def test_hn_uniqueness_on_window(amb):
    from stabcat.stability import hn_chains

    for family, kwargs in [("full", {}), ("coset", {}), ("lm", dict(m=0))]:
        sd = finest_x2(amb, family, **kwargs)
        for x in amb.hn_scope():
            assert len(hn_chains(amb, sd, x)) == 1, (family, str(x))
    sd = slope_data_x2(amb)
    for x in amb.hn_scope():
        assert len(hn_chains(amb, sd, x)) == 1, ("slope", str(x))


@pytest.mark.parametrize("lo, hi, points, finest, pairs", [
    (-2, 2, 3, 960, 70), (-4, 4, 3, 1440, 86), (-6, 6, 3, 1920, 102), (-11, 11, 3, 3120, 142),
    (-2, 2, 0, 14, 28),
])
def test_classification_counts_pinned(lo, hi, points, finest, pairs):
    """The finest-datum and torsion-pair counts, pinned so that a change to
    the line, point or exceptional-tube rules shows here first."""
    amb = X2Ambient(lo, hi, points)
    assert count_finest(amb) == finest
    assert len(enumerate_torsion_pairs(amb)) == pairs
