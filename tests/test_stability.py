import gc
import random
import time
import weakref

import pytest

import stabcat.stability as stability
import stabcat.subcat as subcat
from stabcat.ambient import IntervalAmbient, TubeAmbient
from stabcat.ambients import parse_ambient
from stabcat.phases import ExplicitOrder, Phase
from stabcat.stability import (HNFailureError, StabilityData, StabilityError,
                               all_cuts, count_finest, cut_torsion_pair,
                               enumerate_finest, enumerate_valid, equivalent, hn_chains,
                               hn_filtration, is_coarser, is_finest, refine_to_finest,
                               split_phase, tau_canonical, tau_orbit_size, validate)
from stabcat.subcat import EnumerationBoundError, canon_members, closure, left_perp, right_perp
from stabcat.torsion import TorsionError, torsion_lattice
from stabcat.tube import TubeIndec

from reference import _enumerate_finest_reference, _enumerate_valid_reference


def sd_over(amb, *piece_names):
    phases = [Phase.integer(i + 1) for i in range(len(piece_names))]
    pieces = {ph: frozenset(amb.parse(n) for n in names)
              for ph, names in zip(phases, piece_names)}
    return StabilityData(ExplicitOrder(phases), pieces)


def seq_strs(sd):
    return [tuple(str(m) for m in canon_members(p)) for p in sd.piece_sequence()]


def test_validate_a2_two_phase():
    a2 = IntervalAmbient(2)
    sd = sd_over(a2, ["S1"], ["S2"])
    assert validate(a2, sd).valid


def test_validate_t2_increasing_phases_fails():
    t2 = TubeAmbient(2)
    sd = sd_over(t2, ["S1^(1)@2"], ["S0^(1)@2"])
    report = validate(t2, sd)
    assert not report.valid
    assert TubeIndec(2, 0, 2) in report.hn_failures


def test_validate_one_phase_full():
    a2 = IntervalAmbient(2)
    sd = sd_over(a2, ["S1", "S2", "P1"])
    assert validate(a2, sd).valid


def test_validate_lists_every_hom_violation_in_order():
    """A finest tube:3 datum with its pieces in reverse phase order breaks
    Hom vanishing many times; `validate` lists every (higher phase, x,
    lower phase, y) with Hom(x, y) != 0, in the order of the pairwise
    definition: higher phase, then lower phase, then x and y by name."""
    t3 = TubeAmbient(3)
    sd = enumerate_finest(t3)[-1]
    phases = sd.phases()
    flipped = StabilityData(ExplicitOrder(phases),
                            {ph: sd.pieces[other] for ph, other in zip(phases, reversed(phases))})
    expected = [(hi, x, lo, y) for i, hi in enumerate(phases) for lo in phases[:i]
                for x in canon_members(flipped.pieces[hi])
                for y in canon_members(flipped.pieces[lo]) if t3.hom_nonzero(x, y)]
    assert len(expected) == 13
    assert len({(hi, lo) for hi, _, lo, _ in expected}) == 9
    report = validate(t3, flipped)
    assert report.hom_violations == expected
    assert not report.valid and not report.piece_issues


def test_validate_rejects_foreign_member():
    a2 = IntervalAmbient(2)
    sd = sd_over(IntervalAmbient(3), ["S1"], ["S3"])
    with pytest.raises(StabilityError):
        validate(a2, sd)


def test_hn_examples():
    a2 = IntervalAmbient(2)
    sd = sd_over(a2, ["S1"], ["S2"])
    filt = hn_filtration(a2, sd, a2.parse("P1"))
    assert [(str(ph), [str(f) for f in fac]) for _, fac, ph in filt.steps] == \
        [("2", ["M[2,2]@A2"]), ("1", ["M[1,1]@A2"])]
    # semistable: single step
    filt = hn_filtration(a2, sd, a2.parse("S1"))
    assert len(filt.steps) == 1
    t2 = TubeAmbient(2)
    sd = sd_over(t2, ["S0^(1)@2"], ["S1^(2)@2", "S1^(4)@2"], ["S1^(1)@2"])
    filt = hn_filtration(t2, sd, TubeIndec(2, 0, 2))
    assert [(str(ph), [str(f) for f in fac]) for _, fac, ph in filt.steps] == \
        [("3", ["S1^(1)@2"]), ("1", ["S0^(1)@2"])]


def test_hn_failure_names_object():
    t2 = TubeAmbient(2)
    sd = sd_over(t2, ["S1^(1)@2"], ["S0^(1)@2"])
    with pytest.raises(HNFailureError, match="S0\\^\\(2\\)@2"):
        hn_filtration(t2, sd, TubeIndec(2, 0, 2))


def test_hn_boundary_factors():
    """First factor of HN(X/X_i) is A_{i+1}; last factor of HN(X_i) is A_i."""
    for amb in (TubeAmbient(2), TubeAmbient(3)):
        for sd in enumerate_finest(amb):
            for x in amb.hn_scope():
                filt = hn_filtration(amb, sd, x)
                if len(filt.steps) < 2:
                    continue
                # cumulative subobjects along the chain
                cumulative = 0
                for i, (upto, fac, ph) in enumerate(filt.steps):
                    cumulative += sum(f.t for f in fac)
                    if cumulative == x.t:
                        continue
                    sub = TubeIndec(x.n, (x.j - x.t + cumulative) % x.n, cumulative)
                    quot = TubeIndec(x.n, x.j, x.t - cumulative)
                    last_of_sub = hn_filtration(amb, sd, sub).steps[-1]
                    assert (last_of_sub[2], last_of_sub[1]) == (ph, fac)
                    first_of_quot = hn_filtration(amb, sd, quot).steps[0]
                    assert (first_of_quot[2], first_of_quot[1]) == \
                        (filt.steps[i + 1][2], filt.steps[i + 1][1])


def test_is_finest_examples():
    a2 = IntervalAmbient(2)
    assert is_finest(a2, sd_over(a2, ["S1"], ["S2"]))[0]
    finest, witness = is_finest(a2, sd_over(a2, ["S1", "S2", "P1"]))
    assert not finest and witness is not None


def test_split_phase_recipe():
    a2 = IntervalAmbient(2)
    full = sd_over(a2, ["S1", "S2", "P1"])
    out = split_phase(a2, full, Phase.integer(1), a2.parse("S1"))
    assert validate(a2, out).valid
    assert is_coarser(a2, full, out) is not None
    lo_piece, hi_piece = out.piece_sequence()
    assert lo_piece == frozenset({a2.parse("P1"), a2.parse("S2")})
    assert a2.parse("S1") in hi_piece
    # the split pieces regenerate the original phase
    assert closure(a2, lo_piece | hi_piece) == full.piece_sequence()[0]


def test_split_phase_rejects_connected():
    a2 = IntervalAmbient(2)
    sd = sd_over(a2, ["S1"], ["S2"])
    with pytest.raises(StabilityError, match="Hom-connected"):
        split_phase(a2, sd, Phase.integer(1), a2.parse("S1"))


def test_refine_to_finest_terminates_in_two_splits():
    a2 = IntervalAmbient(2)
    full = sd_over(a2, ["S1", "S2", "P1"])
    splits = 0
    current = full
    while not is_finest(a2, current)[0]:
        ph, x, _ = is_finest(a2, current)[1]
        current = split_phase(a2, current, ph, x)
        splits += 1
    assert splits <= 2
    assert validate(a2, current).valid


def test_refine_to_finest_fixpoint_on_finest_input():
    a2 = IntervalAmbient(2)
    sd = sd_over(a2, ["S2"], ["P1"], ["S1"])
    assert equivalent(refine_to_finest(a2, sd), sd)


def test_refine_to_finest_on_tube():
    t3 = TubeAmbient(3)
    one = StabilityData(ExplicitOrder([Phase.integer(1)]),
                        {Phase.integer(1): frozenset(t3.carrier())})
    assert validate(t3, one).valid
    fine = refine_to_finest(t3, one)
    assert validate(t3, fine).valid and is_finest(t3, fine)[0]
    assert is_coarser(t3, one, fine) is not None
    keys = {tuple(seq_strs(sd)) for sd in enumerate_finest(t3)}
    assert tuple(seq_strs(fine)) in keys


def test_is_coarser_examples():
    a2 = IntervalAmbient(2)
    # a two-phase torsion-pair-style datum against its three-phase refinement
    two = sd_over(a2, ["S2", "P1"], ["S1"])
    three = sd_over(a2, ["S2"], ["P1"], ["S1"])
    r = is_coarser(a2, two, three)
    assert r is not None and len(set(r.values())) == 2
    # the two finest classes are incomparable
    f1, f2 = sd_over(a2, ["S2"], ["P1"], ["S1"]), sd_over(a2, ["S1"], ["S2"])
    assert is_coarser(a2, f1, f2) is None
    assert is_coarser(a2, f2, f1) is None
    assert is_coarser(a2, f1, f1) is not None


def test_equivalent_relabeling():
    a2 = IntervalAmbient(2)
    sd1 = sd_over(a2, ["S1"], ["S2"])
    phases = [Phase.label("a"), Phase.label("b")]
    sd2 = StabilityData(ExplicitOrder(phases),
                        {phases[0]: frozenset({a2.parse("S1")}),
                         phases[1]: frozenset({a2.parse("S2")})})
    assert equivalent(sd1, sd2)
    assert not equivalent(sd1, sd_over(a2, ["S2"], ["P1"], ["S1"]))


def test_tau_translate_not_equivalent_but_same_orbit():
    t3 = TubeAmbient(3)
    ctx = subcat.ctx_for(t3)
    masks = tuple(map(ctx.to_mask, enumerate_finest(t3)[0].piece_sequence()))
    shifted = ctx.translate(masks)
    assert shifted != masks
    assert ctx.orbit(shifted) == ctx.orbit(masks)


def test_datum_canonical_when_built():
    """Construction keeps only the phases with non-empty pieces, in order,
    and still refuses a piece at a phase outside the order."""
    a2 = IntervalAmbient(2)
    s1, s2 = a2.parse("S1"), a2.parse("S2")
    ph = [Phase.integer(i) for i in range(1, 5)]
    sd = StabilityData(ExplicitOrder(ph), {ph[2]: [s2], ph[1]: frozenset(), ph[0]: {s1}})
    assert sd.phases() == sd.order.elements() == (ph[0], ph[2])
    assert dict(sd.pieces) == {ph[0]: frozenset({s1}), ph[2]: frozenset({s2})}
    assert equivalent(sd, sd_over(a2, ["S1"], ["S2"]))
    assert sd.to_json() == {"order": ["1", "3"], "pieces": {"1": [str(s1)], "3": [str(s2)]}}
    for piece in ({s1}, frozenset()):
        with pytest.raises(StabilityError, match="phase 5 is not carried by the order"):
            StabilityData(ExplicitOrder(ph), {ph[0]: {s1}, Phase.integer(5): piece})


@pytest.mark.parametrize("n", [2, 3])
def test_tau_orbit_ignores_empty_phases(n):
    """An empty phase changes neither the τ-orbit size nor the least
    τ-translate: the one-piece datum is τ-fixed with or without it."""
    amb = TubeAmbient(n)
    one, empty = Phase.integer(1), Phase.label("e")
    whole = StabilityData(ExplicitOrder([one]), {one: frozenset(amb.carrier())})
    padded = StabilityData(ExplicitOrder([empty, one]),
                           {empty: frozenset(), one: frozenset(amb.carrier())})
    assert tau_orbit_size(amb, whole) == tau_orbit_size(amb, padded) == 1
    assert tau_canonical(amb, padded).piece_sequence() == whole.piece_sequence()
    for sd in enumerate_finest(amb):
        phases = sd.phases()
        order = ExplicitOrder(phases[:1] + (empty,) + phases[1:])
        with_empty = StabilityData(order, {**sd.pieces, empty: frozenset()})
        assert tau_orbit_size(amb, with_empty) == tau_orbit_size(amb, sd)
        assert tau_canonical(amb, with_empty).piece_sequence() == \
            tau_canonical(amb, sd).piece_sequence()


def test_cut_examples():
    a2 = IntervalAmbient(2)
    finest1 = sd_over(a2, ["S2"], ["P1"], ["S1"])
    pair = cut_torsion_pair(a2, finest1, {Phase.integer(1)})
    assert sorted(str(m) for m in canon_members(pair.t)) == ["M[1,1]@A2", "M[1,2]@A2"]
    assert sorted(str(m) for m in canon_members(pair.f)) == ["M[2,2]@A2"]
    trivial_lo = cut_torsion_pair(a2, finest1, set())
    assert trivial_lo.t == frozenset(a2.carrier()) and trivial_lo.f == frozenset()
    trivial_hi = cut_torsion_pair(a2, finest1, set(finest1.phases()))
    assert trivial_hi.t == frozenset() and trivial_hi.f == frozenset(a2.carrier())
    with pytest.raises(StabilityError, match="down-closed"):
        cut_torsion_pair(a2, finest1, {Phase.integer(2)})


def test_piece_equals_double_perp_intersection():
    """Every piece equals the double-perp intersection over the other pieces."""
    for amb in (TubeAmbient(2), IntervalAmbient(2)):
        for sd in enumerate_valid(amb):
            phases = sd.phases()
            for i, ph in enumerate(phases):
                expected = frozenset(amb.carrier())
                for other in phases[i + 1:]:
                    expected &= right_perp(amb, sd.pieces[other])
                for other in phases[:i]:
                    expected &= left_perp(amb, sd.pieces[other])
                assert sd.pieces[ph] <= expected
                # and the piece is recovered when the datum is valid
                sem = frozenset().union(*[sd.pieces[p] for p in phases])
                assert sd.pieces[ph] == expected & sem


def test_enumerate_valid_a2():
    a2 = IntervalAmbient(2)
    data = enumerate_valid(a2)
    keys = {tuple(seq_strs(sd)) for sd in data}
    s1, s2, p1 = "M[1,1]@A2", "M[2,2]@A2", "M[1,2]@A2"
    assert keys == {
        ((s1, p1, s2),),
        ((s1,), (s2,)),
        ((p1, s2), (s1,)),
        ((s2,), (s1, p1)),
        ((s2,), (p1,), (s1,)),
    }


def test_enumerate_valid_matches_reference():
    """The walk over all chains of the torsion-class lattice returns exactly
    the data that validating every datum over the closed pieces finds, in
    the same order."""
    specs = ["an:1", "an:2", "an:3", "tube:1", "tube:2", "tube:3", "p1:window=-1..1:points=2"]
    for spec in specs:
        walked = [seq_strs(sd) for sd in enumerate_valid(parse_ambient(spec))]
        assert walked == [seq_strs(sd) for sd in _enumerate_valid_reference(parse_ambient(spec))]


def test_enumerate_valid_counts():
    assert len(enumerate_valid(IntervalAmbient(3))) == 81
    assert len(enumerate_valid(TubeAmbient(2))) == 7
    assert len(enumerate_valid(TubeAmbient(3))) == 181


def test_enumerate_valid_x2_reported_members_match_reference():
    """On X(2) the two enumerations place the margin objects (line bundles
    below the reported window) differently, and agree on the reported
    members."""
    def reported_keys(amb, data):
        reported = frozenset(amb.reported_members())
        keys = set()
        for sd in data:
            pieces = [tuple(str(m) for m in canon_members(p & reported))
                      for p in sd.piece_sequence()]
            keys.add(tuple(p for p in pieces if p))
        return keys

    spec = "x2:window=0..0:points=0"
    walked, reference = parse_ambient(spec), parse_ambient(spec)
    keys = reported_keys(walked, enumerate_valid(walked))
    assert len(keys) == 44
    assert keys == reported_keys(reference, _enumerate_valid_reference(reference))


def test_enumerations_raise_on_unclosed_perp(monkeypatch):
    """A lattice class whose right perp is not extension-closed is reported
    by both enumerations, never passed on as pieces."""
    a2 = IntervalAmbient(2)
    s1 = subcat.ctx_for(a2).to_mask([a2.parse("S1")])
    perp = subcat.ctx_for(a2).right_perp_mask(s1)
    real = subcat.CarrierContext.is_closed_mask
    monkeypatch.setattr(subcat.CarrierContext, "is_closed_mask",
                        lambda ctx, mask: mask != perp and real(ctx, mask))
    for enumerate_data in (enumerate_valid, enumerate_finest):
        with pytest.raises(TorsionError,
                           match=r"lattice class \['M\[1,1\]@A2'\] on an:2 is not a torsion class"):
            enumerate_data(IntervalAmbient(2))


def test_enumerations_raise_on_disconnected_label(monkeypatch):
    """A cover whose label is not Hom-connected is reported by both
    enumerations: with S1's Hom row sent to {P1, S2}, the cover 0 < {S1, P1}
    has the label {S1, P1} and Hom(S1, S1) = 0."""
    real = subcat.CarrierContext.__init__

    def patched(ctx, ambient):
        real(ctx, ambient)
        ctx.hom_to[ctx.index[ambient.parse("S1")]] = ctx.to_mask(
            [ambient.parse("P1"), ambient.parse("S2")])

    monkeypatch.setattr(subcat.CarrierContext, "__init__", patched)
    for enumerate_data in (enumerate_valid, enumerate_finest):
        with pytest.raises(TorsionError, match=r"lattice cover \[\] < \['M\[1,1\]@A2', "
                                               r"'M\[1,2\]@A2'\] on an:2: label .* is empty or "
                                               "not Hom-connected"):
            enumerate_data(IntervalAmbient(2))


def test_enumerations_skip_the_reference_path(monkeypatch):
    """Both production enumerations read the torsion-class lattice only."""
    def refuse(*args, **kwargs):
        raise AssertionError("reference enumeration path reached")

    monkeypatch.setattr(subcat, "enumerate_ext_closed", refuse)
    t3 = TubeAmbient(3)
    assert len(enumerate_valid(t3)) == 181
    assert len(enumerate_finest(t3)) == 12


def test_enumerations_never_validate(monkeypatch):
    """The lattice certificate stands in for validation: neither enumeration
    runs `validate`, `is_finest` or an HN search."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-datum check reached")

    for name in ("validate", "is_finest", "HNSearch"):
        monkeypatch.setattr(stability, name, refuse)
    t3 = TubeAmbient(3)
    assert len(enumerate_valid(t3)) == 181
    assert len(enumerate_finest(t3)) == 12


def test_enumerated_data_pass_validation():
    """Test oracle for the lattice certificate: every enumerated datum passes
    the full `validate`, and every finest one `is_finest` as well."""
    specs = ["an:2", "an:3", "an:4", "an:5", "tube:1", "tube:2", "tube:3", "tube:4"]
    for spec in specs:
        amb = parse_ambient(spec)
        for sd in enumerate_finest(amb):
            assert validate(amb, sd).valid and is_finest(amb, sd)[0], (spec, sd)
    for spec in ["an:2", "an:3", "an:4", "tube:2", "tube:3"]:
        amb = parse_ambient(spec)
        for sd in enumerate_valid(amb):
            assert validate(amb, sd).valid, (spec, sd)


def test_count_finest():
    """The DP over the covers counts exactly the enumerated finest data, and
    the an:6 and tube:5 counts without enumerating them."""
    for spec in ["an:2", "an:3", "an:4", "an:5", "tube:1", "tube:2", "tube:3", "tube:4"]:
        assert count_finest(parse_ambient(spec)) == len(enumerate_finest(parse_ambient(spec)))
    assert count_finest(IntervalAmbient(6)) == 340549
    assert count_finest(TubeAmbient(5)) == 10120


def test_enumerate_finest_limit():
    """Above FINEST_LIMIT maximal chains, enumeration is refused before any
    datum is built."""
    assert 10120 <= stability.FINEST_LIMIT  # tube:5 still enumerates
    with pytest.raises(EnumerationBoundError,
                       match="an:6 has 340549 finest data, more than the enumeration limit"):
        enumerate_finest(IntervalAmbient(6))


def test_enumerate_valid_limit():
    """Both enumerations count their chains before building any datum:
    the count of all chains is the number of valid data, and above
    FINEST_LIMIT `enumerate_valid` is refused at once."""
    for spec in ["an:2", "an:3", "an:4", "tube:2", "tube:3"]:
        covers = torsion_lattice(parse_ambient(spec))
        larger = {t: tuple(u for u in covers if u != t and t & ~u == 0) for t in covers}
        assert stability._count_chains(larger) == len(enumerate_valid(parse_ambient(spec)))
    assert len(enumerate_valid(IntervalAmbient(4))) == 5077
    covers = torsion_lattice(TubeAmbient(4))
    assert stability._count_chains({t: tuple(u for u in covers if u != t and t & ~u == 0)
                                    for t in covers}) == 17543
    assert 17543 <= stability.FINEST_LIMIT  # tube:4 still enumerates
    start = time.perf_counter()
    with pytest.raises(EnumerationBoundError) as exc:
        enumerate_valid(IntervalAmbient(5))
    assert time.perf_counter() - start < 1
    assert str(exc.value) == ("an:5 has 1624917 valid data, "
                              f"more than the enumeration limit {stability.FINEST_LIMIT}")


def test_enumerate_finest_counts():
    assert len(enumerate_finest(IntervalAmbient(2))) == 2
    assert len(enumerate_finest(IntervalAmbient(3))) == 9
    assert len(enumerate_finest(IntervalAmbient(4))) == 98
    assert len(enumerate_finest(IntervalAmbient(5))) == 2981
    t3 = TubeAmbient(3)
    assert len(enumerate_finest(t3)) == 12
    assert len(enumerate_finest(t3, upto_tau=True)) == 4
    assert len(enumerate_finest(TubeAmbient(4))) == 204


def test_enumerate_finest_matches_reference():
    """The chain walk returns exactly the finest data that validating every
    datum over the Hom-connected closed pieces finds, in the same order."""
    ambients = [IntervalAmbient(n) for n in (2, 3, 4)] + [TubeAmbient(n) for n in (1, 2, 3)]
    for amb in ambients:
        chains = [seq_strs(sd) for sd in enumerate_finest(amb)]
        assert chains == [seq_strs(sd) for sd in _enumerate_finest_reference(amb)]


def test_tube_census():
    """f(1)=n, f(t)<=n-t+1, f(n)=1, nothing of length rn+s; equality when the
    simple phases increase cyclically."""
    for n in (2, 3):
        amb = TubeAmbient(n)
        for sd in enumerate_finest(amb):
            semistables = frozenset().union(*sd.piece_sequence())
            by_len = {}
            for m in semistables:
                by_len.setdefault(m.t, set()).add(m)
            assert len(by_len.get(1, ())) == n
            assert len(by_len.get(n, ())) == 1
            for t in range(2, n):
                assert len(by_len.get(t, ())) <= n - t + 1
            for rt in range(n + 1, 2 * n):
                assert rt % n == 0 or not by_len.get(rt)
            # cyclically increasing simple phases force the full census
            piece_of = sd.piece_of_map()
            idx = {ph: i for i, ph in enumerate(sd.phases())}
            simple_phase = [idx[piece_of[TubeIndec(n, j, 1)]] for j in range(n)]
            if any(all(simple_phase[(k + i) % n] < simple_phase[(k + i + 1) % n]
                       for i in range(n - 1)) for k in range(n)):
                for t in range(1, n):
                    assert len(by_len.get(t, ())) == n - t + 1


def test_enumerate_finest_leaves_no_cycle():
    """With the cyclic collector off, the ambient dies as soon as it and the
    result are dropped: neither enumeration leaves a reference cycle behind."""
    gc.collect()
    gc.disable()
    try:
        for enumerate_data, count in ((enumerate_finest, 12), (enumerate_valid, 181)):
            amb = TubeAmbient(3)
            ref = weakref.ref(amb)
            data = enumerate_data(amb)
            assert len(data) == count
            del amb, data
            assert ref() is None
    finally:
        gc.enable()


def test_merge_adjacent_keeps_validity(merge_adjacent):
    rng = random.Random(1)
    for amb in (TubeAmbient(2), TubeAmbient(3)):
        finest = enumerate_finest(amb)
        for _ in range(20):
            sd = rng.choice(finest)
            while len(sd.phases()) > 1 and rng.random() < 0.7:
                sd = merge_adjacent(amb, sd, rng.randrange(len(sd.phases()) - 1))
            assert validate(amb, sd).valid


def test_all_cuts_count():
    a2 = IntervalAmbient(2)
    sd = sd_over(a2, ["S2"], ["P1"], ["S1"])
    assert len(all_cuts(sd)) == 4


def test_json_round_trip():
    a2 = IntervalAmbient(2)
    sd = sd_over(a2, ["S2"], ["P1"], ["S1"])
    doc = sd.to_json()
    again = StabilityData.from_json(doc, a2)
    assert equivalent(sd, again) and again.to_json() == doc


def test_split_phase_on_tube_one_phase_datum():
    t2 = TubeAmbient(2)
    one = StabilityData(ExplicitOrder([Phase.integer(1)]),
                        {Phase.integer(1): frozenset(t2.carrier())})
    finest, witness = is_finest(t2, one)
    assert not finest
    ph, x, _ = witness
    out = split_phase(t2, one, ph, x)
    assert validate(t2, out).valid
    assert is_coarser(t2, one, out) is not None
    assert len(out.phases()) == 2


def test_enumerate_finest_bound_guard():
    with pytest.raises(EnumerationBoundError, match="carrier size 72 exceeds enumeration bound 64"):
        enumerate_finest(TubeAmbient(6))
