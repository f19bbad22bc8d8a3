"""The one order and τ action of member masks (`CarrierContext.key`,
`translate` and `orbit`) against the descriptor-string oracle they replace:
member sets keyed by the `str` of their sorted members, and translated member
by member through `Ambient.tau`."""

import pytest

from stabcat.ambient import TubeAmbient
from stabcat.ambients import parse_ambient
from stabcat.stability import enumerate_finest, enumerate_valid, tau_canonical, tau_orbit_size
from stabcat.subcat import ctx_for
from stabcat.torsion import (TorsionPair, classify_tube_torsion_pairs, dedupe_upto_tau,
                             enumerate_torsion_pairs, tau_pair_canonical, tau_pair_orbit_size,
                             torsion_pairs_from_finest)
from stabcat.tube import TubeIndec

ORACLE_SPECS = ["an:2", "an:3", "an:4", "an:5", "tube:1", "tube:2", "tube:3", "tube:4",
                "p1:window=-1..1:points=2", "x2:window=0..0:points=1"]
TWO_SIZES = ["an:3", "an:7", "tube:2", "tube:5", "p1:window=-1..1:points=2",
             "p1:window=-4..4:points=3", "x2:window=0..0:points=1", "x2:window=-3..3:points=3",
             "kronecker:window=3:points=1", "kronecker:window=8:points=3"]


def str_key(sets) -> tuple:
    """The oracle's key of a sequence of member sets."""
    return tuple(tuple(sorted(map(str, s))) for s in sets)


def str_orbit(amb, sets) -> tuple:
    """(size, least translate by `str_key`) of the τ-orbit of a sequence of
    member sets, translating k = 1 .. tau_order - 1 steps member by member."""
    orbit = [tuple(sets)]
    for _ in range(1, amb.tau_order()):
        orbit.append(tuple(frozenset(map(amb.tau, s)) for s in orbit[-1]))
    size = next((k for k in range(1, len(orbit)) if orbit[k] == orbit[0]), len(orbit))
    return size, min(orbit, key=str_key)


@pytest.mark.parametrize("spec", TWO_SIZES)
def test_carrier_index_order_is_str_order(spec):
    """The index key relies on it: `str` strictly increases along the carrier."""
    names = [str(x) for x in ctx_for(parse_ambient(spec)).carrier]
    assert all(a < b for a, b in zip(names, names[1:]))


@pytest.mark.parametrize("n", range(1, 6))
def test_tau_permutes_the_tube_carrier(n):
    amb = TubeAmbient(n)
    ctx = ctx_for(amb)
    if n == 1:
        assert ctx.tau == () and all(amb.tau(x) == x for x in ctx.carrier)
    else:
        assert sorted(ctx.tau) == list(range(len(ctx.carrier)))
        assert [ctx.carrier[i] for i in ctx.tau] == [amb.tau(x) for x in ctx.carrier]
    simple = 1 << ctx.index[TubeIndec(n, 0, 1)]
    assert ctx.orbit((simple, ctx.full_mask)) == (n, (simple, ctx.full_mask))
    assert ctx.orbit((ctx.full_mask,)) == (1, (ctx.full_mask,))


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_finest_order_and_tau_match_str_oracle(spec):
    amb = parse_ambient(spec)
    ctx = ctx_for(amb)
    finest = enumerate_finest(amb)
    seqs = [sd.piece_sequence() for sd in finest]
    assert seqs == sorted(seqs, key=lambda seq: (len(seq), str_key(seq)))
    reps = {}
    for sd in finest:
        size, least = str_orbit(amb, sd.piece_sequence())
        assert tau_orbit_size(amb, sd) == size
        assert tau_canonical(amb, sd).piece_sequence() == least
        assert ctx.key(ctx.orbit(tuple(map(ctx.to_mask, sd.piece_sequence())))[1]) == tuple(
            tuple(ctx.index[m] for m in sorted(piece, key=str)) for piece in least)
        reps.setdefault(str_key(least), sd.piece_sequence())
    upto = [sd.piece_sequence() for sd in enumerate_finest(amb, upto_tau=True)]
    assert upto == list(reps.values())


@pytest.mark.parametrize("spec", [s for s in ORACLE_SPECS if s != "an:5"])
def test_valid_order_matches_str_oracle(spec):
    seqs = [sd.piece_sequence() for sd in enumerate_valid(parse_ambient(spec))]
    assert len(set(seqs)) == len(seqs)
    assert seqs == sorted(seqs, key=str_key)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_pair_order_and_tau_match_str_oracle(spec):
    amb = parse_ambient(spec)

    def order(pair):
        return len(pair[0]), str_key(pair)

    pairs = [(p.t, p.f) for p in enumerate_torsion_pairs(amb, include_trivial=True)]
    assert len(set(pairs)) == len(pairs)
    assert pairs == sorted(pairs, key=order)
    reps = set()
    for p in enumerate_torsion_pairs(amb):
        size, least = str_orbit(amb, (p.t, p.f))
        assert tau_pair_orbit_size(amb, p) == size
        assert tau_pair_canonical(amb, p) == TorsionPair(*least)
        reps.add(least)
    upto = enumerate_torsion_pairs(amb, upto_tau=True)
    assert [(p.t, p.f) for p in upto] == sorted(reps, key=order)
    assert dedupe_upto_tau(amb, enumerate_torsion_pairs(amb)) == upto
    for upto_tau in (False, True):
        brute = enumerate_torsion_pairs(amb, upto_tau=upto_tau)
        assert torsion_pairs_from_finest(amb, upto_tau=upto_tau) == brute
        if isinstance(amb, TubeAmbient):
            assert classify_tube_torsion_pairs(amb.n, upto_tau=upto_tau) == brute
