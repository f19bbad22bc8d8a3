import random

import pytest

import stabcat.torsion as torsion
from stabcat.ambient import IntervalAmbient, TubeAmbient
from stabcat.stability import all_cuts, cut_torsion_pair, enumerate_finest
from stabcat.subcat import closure, ctx_for, left_perp, right_perp
from stabcat.torsion import (TorsionError, TorsionPair, classify_tube_torsion_pairs,
                             dedupe_upto_tau, enumerate_torsion_pairs, is_quotient_closed,
                             pairs_to_markdown, tau_pair_orbit_size, torsion_lattice,
                             torsion_pairs_from_finest, validate_torsion_pair)

from reference import _enumerate_torsion_pairs_brute


def is_sub_closed(ambient, members) -> bool:
    members = frozenset(members)
    return all(s in members for x in members
               for subs, _ in ambient.carrier_decompositions(x) for s in subs)


def parse_set(amb, names):
    return frozenset(amb.parse(n) for n in names)


def test_validate_ray_pair_t3():
    t3 = TubeAmbient(3)
    t = closure(t3, parse_set(t3, ["S2^(1)@3"]))
    f = right_perp(t3, t)
    report = validate_torsion_pair(t3, t, f)
    assert report.valid
    for name in ("S0^(1)@3", "S1^(1)@3", "S2^(2)@3"):
        assert t3.parse(name) in f


def test_validate_rejects_undersized_f():
    t3 = TubeAmbient(3)
    t = closure(t3, parse_set(t3, ["S2^(1)@3"]))
    f = closure(t3, parse_set(t3, ["S0^(1)@3", "S1^(1)@3"]))
    report = validate_torsion_pair(t3, t, f)
    assert not report.valid
    assert any("S2^(2)@3" in msg for msg in report.perp_failures)


def test_trivial_pairs_valid():
    t3 = TubeAmbient(3)
    full = frozenset(t3.carrier())
    assert validate_torsion_pair(t3, full, frozenset()).valid
    assert validate_torsion_pair(t3, frozenset(), full).valid


def test_enumerate_counts():
    assert len(enumerate_torsion_pairs(IntervalAmbient(2))) == 3
    assert len(enumerate_torsion_pairs(IntervalAmbient(3))) == 12
    t3 = TubeAmbient(3)
    assert len(enumerate_torsion_pairs(t3, upto_tau=True)) == 6
    assert len(enumerate_torsion_pairs(t3)) == 18


def test_torsion_class_counts():
    """Catalan numbers for A_n (Ingalls-Thomas), binom(2n, n) for the rank-n
    tube (Baur-Buan-Marsh); both count the two trivial classes."""
    for n, count in ((2, 5), (3, 14), (4, 42), (5, 132)):
        assert len(torsion_lattice(IntervalAmbient(n))) == count
    for n, count in ((2, 6), (3, 20), (4, 70)):
        assert len(torsion_lattice(TubeAmbient(n))) == count


def test_lattice_class_limit(monkeypatch):
    """The lattice walk is refused once it has seen more than FINEST_LIMIT
    classes, before any class is certified."""
    from stabcat import stability
    from stabcat.subcat import EnumerationBoundError

    monkeypatch.setattr(stability, "FINEST_LIMIT", 100)
    assert len(torsion_lattice(IntervalAmbient(4))) == 42
    with pytest.raises(EnumerationBoundError) as exc:
        torsion_lattice(IntervalAmbient(5))
    assert str(exc.value) == ("an:5 has at least 101 torsion classes, "
                              "more than the enumeration limit 100")


def test_lattice_matches_brute_force():
    ambients = [IntervalAmbient(n) for n in range(1, 6)] + [TubeAmbient(n) for n in range(1, 5)]
    for amb in ambients:
        lattice = [p.key() for p in enumerate_torsion_pairs(amb, include_trivial=True)]
        assert lattice == [p.key() for p in _enumerate_torsion_pairs_brute(amb)]


def test_lattice_raises_on_bad_class(monkeypatch):
    """A lattice class that fails validation is reported, never dropped."""
    real = torsion.validate_torsion_pair

    def reject_nonempty(ambient, t, f):
        report = real(ambient, t, f)
        report.valid = not t
        return report

    monkeypatch.setattr(torsion, "validate_torsion_pair", reject_nonempty)
    with pytest.raises(TorsionError, match=r"lattice class \['M\[1,1\]@A2'\] on an:2"):
        torsion_lattice(IntervalAmbient(2))


def test_finest_data_are_maximal_chains():
    """The cuts of each finest datum form one maximal chain of the torsion
    lattice, distinct data give distinct chains, and every chain is hit."""
    for amb in (IntervalAmbient(2), IntervalAmbient(3), IntervalAmbient(4),
                TubeAmbient(2), TubeAmbient(3)):
        ctx = ctx_for(amb)
        covers = torsion_lattice(amb)
        chains = set()
        data = enumerate_finest(amb)
        for sd in data:
            chain = [ctx.to_mask(cut_torsion_pair(amb, sd, cut).t)
                     for cut in reversed(all_cuts(sd))]
            assert chain[0] == 0 and chain[-1] == ctx.full_mask
            assert all(hi in covers[lo] for lo, hi in zip(chain, chain[1:]))
            chains.add(tuple(chain))
        assert len(chains) == len(data)
        n_chains = {ctx.full_mask: 1}
        for t in sorted(covers, key=lambda t: -t.bit_count()):
            n_chains.setdefault(t, sum(n_chains[u] for u in covers[t]))
        assert n_chains[0] == len(data)


def test_double_perp_closure():
    for amb in (IntervalAmbient(3), TubeAmbient(3)):
        for pair in enumerate_torsion_pairs(amb, include_trivial=True):
            assert left_perp(amb, right_perp(amb, pair.t)) == pair.t
            assert right_perp(amb, left_perp(amb, pair.f)) == pair.f
            assert is_quotient_closed(amb, pair.t)
            assert is_sub_closed(amb, pair.f)


def test_classifier_matches_bruteforce():
    for n in (2, 3):
        amb = TubeAmbient(n)
        brute = {p.key() for p in enumerate_torsion_pairs(amb)}
        structural = {p.key() for p in classify_tube_torsion_pairs(n)}
        assert brute == structural


def test_classifier_t1_trivial_only():
    pairs = classify_tube_torsion_pairs(1, include_trivial=True)
    assert len(pairs) == 2
    assert all(p.is_trivial(TubeAmbient(1)) for p in pairs)
    assert classify_tube_torsion_pairs(1) == []


def test_cuts_match_bruteforce():
    for amb in (IntervalAmbient(2), IntervalAmbient(3), TubeAmbient(2), TubeAmbient(3)):
        brute = {p.key() for p in enumerate_torsion_pairs(amb)}
        cuts = {p.key() for p in torsion_pairs_from_finest(amb)}
        assert brute == cuts


def test_cuts_include_trivial_pairs():
    a2 = IntervalAmbient(2)
    cuts = torsion_pairs_from_finest(a2, include_trivial=True)
    assert len(cuts) == 5
    full = frozenset(a2.carrier())
    keys = {p.key() for p in cuts}
    assert TorsionPair(full, frozenset()).key() in keys
    assert TorsionPair(frozenset(), full).key() in keys


def test_every_cut_of_random_valid_data_is_torsion_pair(merge_adjacent):
    rng = random.Random(5)
    for amb in (TubeAmbient(2), TubeAmbient(3)):
        finest = enumerate_finest(amb)
        samples = 0
        while samples < 50:
            sd = rng.choice(finest)
            while len(sd.phases()) > 1 and rng.random() < 0.6:
                sd = merge_adjacent(amb, sd, rng.randrange(len(sd.phases()) - 1))
            for cut in all_cuts(sd):
                pair = cut_torsion_pair(amb, sd, cut)
                assert validate_torsion_pair(amb, pair.t, pair.f).valid
                samples += 1


def test_tau_orbits_reported():
    t3 = TubeAmbient(3)
    pairs = enumerate_torsion_pairs(t3)
    assert {tau_pair_orbit_size(t3, p) for p in pairs} == {3}
    assert len(dedupe_upto_tau(t3, pairs)) == 6


def test_markdown_emitter():
    a2 = IntervalAmbient(2)
    md = pairs_to_markdown(enumerate_torsion_pairs(a2), "Non-trivial torsion pairs")
    assert md.startswith("### Non-trivial torsion pairs")
    assert md.count("|---|") == 1
    assert "M[1,2]@A2" in md


def test_canonical_order_stable():
    a3 = IntervalAmbient(3)
    pairs = enumerate_torsion_pairs(a3)
    assert pairs == sorted(pairs, key=lambda p: (len(p.t), p.key()))


def test_pair_json_round_trip():
    t3 = TubeAmbient(3)
    for pair in enumerate_torsion_pairs(t3, upto_tau=True):
        doc = pair.to_json()
        assert TorsionPair.from_json(doc, t3) == pair
