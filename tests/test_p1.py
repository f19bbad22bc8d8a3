import random
import time

import pytest

from stabcat.ambient import AmbientError, WindowError
from stabcat.sheaves.p1 import (P1Ambient, P1Line, P1Tor, finest_p1, slope_data_p1,
                                torsion_family_degree, torsion_family_points)
from stabcat.stability import (count_finest, enumerate_finest, equivalent, is_coarser,
                               is_finest, validate)
from stabcat.torsion import enumerate_torsion_pairs, validate_torsion_pair


@pytest.fixture(scope="module")
def amb():
    return P1Ambient(-5, 5, 3)


def test_hom_rules(amb):
    assert not amb.hom_nonzero(P1Line(2), P1Line(1))
    assert amb.hom_nonzero(P1Line(1), P1Line(2))
    assert amb.hom_nonzero(P1Line(5), P1Tor("0", 1))
    assert not amb.hom_nonzero(P1Tor("0", 1), P1Line(0))
    assert amb.hom_nonzero(P1Tor("0", 1), P1Tor("0", 2))
    assert not amb.hom_nonzero(P1Tor("0", 1), P1Tor("1", 1))


def test_finest_random_point_orders(amb):
    rng = random.Random(11)
    for _ in range(10):
        order = list(amb.points)
        rng.shuffle(order)
        sd = finest_p1(amb, order)
        assert validate(amb, sd).valid
        assert is_finest(amb, sd)[0]


def test_finest_phase_constraints(amb):
    sd = finest_p1(amb)
    idx = {ph: i for i, ph in enumerate(sd.phases())}
    piece_of = sd.piece_of_map()
    for n in range(amb.lo, amb.hi):
        assert idx[piece_of[P1Line(n)]] < idx[piece_of[P1Line(n + 1)]]
    for x in amb.points:
        assert idx[piece_of[P1Line(amb.hi)]] < idx[piece_of[P1Tor(x, 1)]]
    # distinct points take distinct phases
    phases = {piece_of[P1Tor(x, 1)] for x in amb.points}
    assert len(phases) == len(amb.points)


def test_every_indecomposable_semistable_under_finest(amb):
    sd = finest_p1(amb)
    piece_of = sd.piece_of_map()
    assert all(amb.embed(x) in piece_of for x in amb.hn_scope())


def test_nonequivalent_for_different_point_orders(amb):
    sd1 = finest_p1(amb, ["0", "1", "lam"])
    sd2 = finest_p1(amb, ["lam", "1", "0"])
    assert not equivalent(sd1, sd2)


def test_finest_refines_slope(amb):
    slope = slope_data_p1(amb)
    assert validate(amb, slope).valid
    for order in (["0", "1", "lam"], ["1", "lam", "0"]):
        sd = finest_p1(amb, order)
        assert is_coarser(amb, slope, sd) is not None
        assert is_coarser(amb, sd, slope) is None


def test_torsion_families(amb):
    for pts in [("0",), ("0", "1"), ("0", "1", "lam")]:
        pair = torsion_family_points(amb, pts)
        assert validate_torsion_pair(amb, pair.t, pair.f).valid
    for n in (-1, 0, 1):
        pair = torsion_family_degree(amb, n)
        assert validate_torsion_pair(amb, pair.t, pair.f).valid
        assert P1Line(n) in pair.f and P1Line(n + 1) in pair.t


def test_torsion_family_rows(amb):
    rows = [torsion_family_points(amb, ("0", "1")), torsion_family_degree(amb, 0)]
    for pair in rows:
        assert validate_torsion_pair(amb, pair.t, pair.f).valid


def test_degenerate_families_rejected(amb):
    with pytest.raises(AmbientError, match="nonempty"):
        torsion_family_points(amb, ())
    with pytest.raises(WindowError):
        torsion_family_degree(amb, amb.hi)
    with pytest.raises(WindowError):
        torsion_family_degree(amb, amb.lo - 1)


def test_window_stability():
    small = P1Ambient(-2, 2, 2)
    big = P1Ambient(-4, 4, 2)
    for x in small.carrier():
        for y in small.carrier():
            assert small.hom_nonzero(x, y) == big.hom_nonzero(x, y)
    # validation verdicts for data supported inside the small window agree
    sd_small = finest_p1(small)
    assert validate(small, sd_small).valid
    sd_small_in_big = type(sd_small)(sd_small.order, sd_small.pieces)
    # the same pieces extended by the remaining line bundles of the big window
    from stabcat.phases import ExplicitOrder, Phase

    phases = [Phase.integer(n) for n in range(big.lo, big.hi + 1)]
    pieces = {Phase.integer(n): frozenset({P1Line(n)}) for n in range(big.lo, big.hi + 1)}
    for x in small.points:
        from stabcat.sheaves.p1 import point_phase

        phases.append(point_phase(x))
        pieces[point_phase(x)] = big.tube_members(x)
    from stabcat.stability import StabilityData

    assert validate(big, StabilityData(ExplicitOrder(phases), pieces)).valid


def test_no_other_finest_in_small_window():
    small = P1Ambient(-2, 2, 2)
    found = enumerate_finest(small)
    expected = [finest_p1(small, order) for order in (["0", "1"], ["1", "0"])]

    def key(sd):
        return tuple(tuple(sorted(str(m) for m in piece)) for piece in sd.piece_sequence())

    assert {key(sd) for sd in found} == {key(sd) for sd in expected}


def test_parse_and_strings(amb):
    assert amb.parse("O(-3)") == P1Line(-3)
    assert amb.parse("S[lam]^(4)") == P1Tor("lam", 2)
    assert str(P1Tor("0", 2)) == "S[0]^(2)"
    with pytest.raises(AmbientError):
        amb.parse("S[zz]^(1)")


def test_slope_data_refines_to_finest(amb):
    from stabcat.stability import refine_to_finest, validate as validate_sd

    slope = slope_data_p1(amb)
    fine = refine_to_finest(amb, slope)
    assert validate_sd(amb, fine).valid
    assert is_finest(amb, fine)[0]
    assert is_coarser(amb, slope, fine) is not None


def test_middle_terms_match_translate_hom_criterion(amb):
    """Non-split extensions of B by A exist exactly when Hom(A, tau B) != 0,
    with tau the degree-(-2) shift on line bundles and the identity on
    torsion; checked away from the window boundary so no middle is cut off."""
    def tau(d):
        return P1Line(d.n - 2) if isinstance(d, P1Line) else d

    interior = [d for d in amb.carrier()
                if not isinstance(d, P1Line) or amb.lo + 2 <= d.n <= amb.hi - 3]
    for a in interior:
        for b in interior:
            if isinstance(b, P1Line) and isinstance(a, P1Tor):
                continue  # tau(B) below the window has no carrier image
            has_middle = bool(amb.middle_terms(a, b))
            tb = tau(b)
            expected = amb.hom_nonzero(a, tb) if amb.lo <= getattr(tb, "n", amb.lo) else False
            assert has_middle == expected, (str(a), str(b))
    # torsion-by-line extensions never exist
    for x in amb.points:
        assert not amb.middle_terms(P1Tor(x, 1), P1Line(0))


def test_hn_uniqueness_on_window(amb):
    from stabcat.stability import hn_chains

    for sd in (finest_p1(amb), finest_p1(amb, ["lam", "0", "1"]), slope_data_p1(amb)):
        for x in amb.hn_scope():
            assert len(hn_chains(amb, sd, x)) == 1, str(x)


@pytest.mark.parametrize("lo, hi, points, finest, pairs", [
    (-2, 2, 3, 6, 11), (-10, 10, 4, 24, 35), (0, 0, 2, 2, 3), (-25, 25, 6, 720, 113),
])
def test_classification_counts_pinned(lo, hi, points, finest, pairs):
    """The finest-datum and torsion-pair counts, pinned so that a change to
    the line or point rules shows here first."""
    amb = P1Ambient(lo, hi, points)
    assert count_finest(amb) == finest
    assert len(enumerate_torsion_pairs(amb)) == pairs


@pytest.mark.parametrize("spec, line", [("p1:window=-25..25:points=6", "O(25)"),
                                        ("x2:window=-12..12:points=3", "O(12c+1x1)")],
                         ids=["p1", "x2"])
def test_line_bundle_decompositions_raise_at_once(spec, line):
    """A line bundle's quotients are described only by `spread_splits`: its
    `decompositions` and `carrier_decompositions` raise one line at once
    instead of listing every torsion spread."""
    from stabcat.ambients import parse_ambient

    amb = parse_ambient(spec)
    x = amb.parse(line)
    for method in (amb.decompositions, amb.carrier_decompositions):
        start = time.perf_counter()
        with pytest.raises(AmbientError, match="spread_splits") as exc:
            method(x)
        assert time.perf_counter() - start < 1
        assert "\n" not in str(exc.value)
    assert amb.spread_splits(x) is not None
