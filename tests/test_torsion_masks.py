"""The torsion-pair check on carrier masks against the descriptor-level
reference check of `tests/reference.py`: the same report on every lattice
pair, on pairs one member away from them, and on the sheaf family rows, the
same quotient-closedness on every extension-closed set, and the same split
masks as every torsion spread gives."""

import functools

import pytest

import reference
from stabcat.ambients import parse_ambient
from stabcat.sheaves.kronecker import kron_torsion_family
from stabcat.sheaves.p1 import torsion_family_degree, torsion_family_points
from stabcat.sheaves.x2 import x2_torsion_family
from stabcat.subcat import ctx_for, enumerate_ext_closed
from stabcat.tables import TABLE_AMBIENTS
from stabcat.torsion import enumerate_torsion_pairs, is_quotient_closed, validate_torsion_pair

SMALL = ["an:2", "an:3", "an:4", "tube:1", "tube:2", "tube:3", "tube:4"]


def assert_same_report(amb, t, f):
    got = validate_torsion_pair(amb, t, f)
    want = reference.validate_torsion_pair(amb, t, f)
    assert (got.valid, got.perp_failures, got.decomposition_failures) == \
        (want.valid, want.perp_failures, want.decomposition_failures), (t, f)
    return got


def memoised(spec):
    """The parsed ambient, its carrier decompositions memoised: the reference
    re-reads them for every pair, and the ambient keeps no memo."""
    amb = parse_ambient(spec)
    amb.carrier_decompositions = functools.cache(amb.carrier_decompositions)
    return amb


def perturbed(pair, m):
    """The pairs one step from `pair` at member m: m dropped from its side
    or moved to the other side, or, in neither side, added to each."""
    t, f = pair.t, pair.f
    if m in t:
        return [(t - {m}, f), (t - {m}, f | {m})]
    if m in f:
        return [(t, f - {m}), (t | {m}, f - {m})]
    return [(t | {m}, f), (t, f | {m})]


@pytest.mark.parametrize("spec", SMALL)
def test_lattice_pairs_match_reference(spec):
    amb = memoised(spec)
    pairs = enumerate_torsion_pairs(amb, include_trivial=True)
    assert all(assert_same_report(amb, p.t, p.f).valid for p in pairs)


@pytest.mark.parametrize("spec", SMALL)
def test_perturbed_pairs_match_reference(spec):
    """Every one-member perturbation of every lattice pair."""
    amb = memoised(spec)
    invalid = 0
    for pair in enumerate_torsion_pairs(amb, include_trivial=True):
        for m in amb.carrier():
            for t, f in perturbed(pair, m):
                invalid += not assert_same_report(amb, t, f).valid
    assert invalid > 0


def family_rows():
    p1 = parse_ambient(TABLE_AMBIENTS["p1-torsion"])
    x2 = parse_ambient(TABLE_AMBIENTS["x2-torsion"])
    kron = parse_ambient(TABLE_AMBIENTS["kron-torsion"])
    rows = [(p1, torsion_family_points(p1, pts))
            for pts in [("0",), ("0", "1"), ("0", "1", "lam")]]
    rows += [(p1, torsion_family_degree(p1, n)) for n in (-1, 0, 1)]
    rows += [(x2, x2_torsion_family(x2, row, **kwargs))
             for row, kwargs in [("I", dict(points=("0",))), ("I", dict(points=("inf",))),
                                 ("I", dict(points=("0", "1", "lam", "inf"))),
                                 ("II", dict(points=())), ("II", dict(points=("0",))),
                                 ("III", dict(points=())), ("III", dict(points=("0", "1"))),
                                 ("IV", dict()), ("V", dict()), ("VI", dict())]]
    rows += [(kron, kron_torsion_family(kron, row, **kwargs))
             for row, kwargs in [(1, dict(points=())), (1, dict(points=("0",))),
                                 (1, dict(points=("0", "1", "inf"))),
                                 (2, dict(n=1)), (2, dict(n=2)),
                                 (3, dict(n=1)), (3, dict(n=2)), (4, dict())]]
    return rows


def test_family_rows_match_reference():
    """The P^1, X(2) and Kronecker family rows of the tables, each valid, and
    each with its least member moved to the other side."""
    for amb, pair in family_rows():
        assert assert_same_report(amb, pair.t, pair.f).valid
        for t, f in perturbed(pair, min(pair.t | pair.f, key=str))[1:]:
            assert_same_report(amb, t, f)


@pytest.mark.parametrize("spec", ["an:2", "an:3", "tube:1", "tube:2"])
def test_quotient_closed_matches_reference(spec):
    amb = parse_ambient(spec)
    sets = enumerate_ext_closed(amb)
    assert ([is_quotient_closed(amb, s) for s in sets]
            == [reference.is_quotient_closed(amb, s) for s in sets])


SPREAD_SPECS = ([f"p1:window={-k}..{k}:points={p}" for k in range(7) for p in range(7)]
                + [f"x2:window={-k}..{k}:points={p}" for k in range(5) for p in range(4)])


@pytest.mark.parametrize("spec", SPREAD_SPECS)
def test_split_masks_match_spreads(spec):
    """The line-bundle split masks built from length classes equal, as sets,
    those read off every torsion spread, on every scope object."""
    amb = parse_ambient(spec)
    ctx = ctx_for(amb)
    assert any(amb.spread_splits(x) is not None for x in ctx.carrier)
    for x, i in ctx.scope:
        got = {(s, q) for s, quotients in ctx.split_masks(amb, i) for q in quotients}
        assert got == reference._split_masks_reference(amb, i), x
