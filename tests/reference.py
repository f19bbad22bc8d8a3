"""Reference paths kept as test oracles for the package's fast paths.

Each function is the slow, descriptor-level path a fast path replaced:

- the HN search by descriptors (`_hn_chains_reference`) for `hn_chains`;
- every (sub, quotient) pair of a P^1 or X(2) line bundle, enumerated from
  the degree gap (`line_decompositions`), for the quotients the package
  describes only as length classes (`Ambient.spread_splits`);
- validating every datum over the closed pieces (`_enumerate_valid_reference`,
  `_enumerate_finest_reference`) for the lattice enumerations;
- every extension-closed set that passes the torsion-pair check
  (`_enumerate_torsion_pairs_brute`) for `enumerate_torsion_pairs`;
- the subset filter (`enumerate_ext_closed_by_filter`) for `enumerate_ext_closed`;
- the extension table ORed from `Ambient.middle_terms` pair by pair
  (`_mid_mask_reference`) for `CarrierContext.mid_mask`, which reads each
  τ-orbit's least row and translates it;
- every torsion spread, embedded in the carrier (`carrier_decompositions`),
  for the split masks `CarrierContext` builds from length classes
  (`_split_masks_reference`);
- the torsion-pair check on descriptor sets (`validate_torsion_pair`,
  `_decomposes`, `is_quotient_closed`) for the bit tests of `stabcat.torsion`;
- the rank test of every subspace combo (`_submodules_reference`) for the
  oracle's echelon-form sweep `_submodules_with_dims`, and the sub and
  quotient by `solve_many` and `cokernel_rep` (`_sub_and_quotient_reference`)
  for `_sub_and_quotient`, which reads both off the pivots;
- the cokernel of a map on the standard vectors that complete its image
  (`cokernel_rep`, `column_space_complement`) for `_injection_quotient`,
  which reads it off the RREF of the image;
- Gauss-Jordan elimination over `Fraction`s (`_invert_reference`) for the
  oracle's fraction-free `_invert`;
- each middle-term query computed by itself, in its own frame
  (`direct_middle_answers`), for the answers `middle_terms_of_sums` shares
  across a rotation orbit of the cyclic quiver.

They run on small carriers only and are imported by the tests alone.  The
HN, split-mask and torsion-pair references read a line bundle's pairs from
`line_decompositions`, never from the package's spread walk, and every
other object's from the model's `decompositions`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from stabcat import gf, oracle
from stabcat.phases import ExplicitOrder, Phase
from stabcat.sheaves import P1Line, X2Ambient, X2Exc, X2Line
from stabcat.stability import (_HN_COMBO_CAP, StabilityData, StabilityError, _piece_masks,
                               is_finest, validate)
from stabcat.subcat import (EnumerationBoundError, SubcatError, canon_members, ctx_for,
                            enumerate_ext_closed, left_perp, right_perp)
from stabcat.torsion import TorsionReport, _pairs


def _compositions(total: int, parts: int):
    """Each tuple of `parts` lengths >= 0 summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def line_decompositions(ambient, x) -> tuple:
    """Every (sub, quotient) pair of the P^1 or X(2) line bundle x, by its
    definition: the sub is a carrier line O(s) below x, and the quotient
    spreads the degree gap g = dd(x) - dd(s) as w * sum(l_p) + e, with l_p
    the length of the summand at the point p, w the degree of a point's
    simple and e the length of the exceptional summand, whose top parity is
    dd(x) mod 2 (X(2) only, else e = 0)."""
    w, points = ambient.WEIGHT, ambient.points
    out = []
    for sub in [s for s in ambient.internal_lines() if s.dd < x.dd]:
        gap = x.dd - sub.dd
        for e in range(gap + 1) if isinstance(ambient, X2Ambient) else (0,):
            if (gap - e) % w:
                continue
            for lengths in _compositions((gap - e) // w, len(points)):
                quot = [X2Exc(x.dd % 2, e)] if e else []
                quot += [ambient.Tor(p, k) for p, k in zip(points, lengths) if k]
                out.append(((sub,), tuple(quot)))
    return tuple(out)


def decompositions(ambient, x) -> tuple:
    """The proper (subs, quots) pairs of x: `line_decompositions` for a line
    bundle, the model's `decompositions` for every other object."""
    if isinstance(x, (P1Line, X2Line)):
        return line_decompositions(ambient, x)
    return ambient.decompositions(x)


def carrier_decompositions(ambient, x) -> tuple:
    """`decompositions` of the carrier member x in carrier space, each pair
    once: a line bundle's summands embedded, every other member's pairs
    from the model's `carrier_decompositions`."""
    if isinstance(x, (P1Line, X2Line)):
        embed = ambient.embed
        return tuple(dict.fromkeys((subs, tuple(map(embed, quots)))
                                   for subs, quots in line_decompositions(ambient, x)))
    return ambient.carrier_decompositions(x)


def _hn_chains_reference(ambient, sd: StabilityData, x) -> tuple:
    """Test oracle for `hn_chains`: the descriptor-based search with a fresh
    memo, testing quotients through `piece_of_map`."""
    pidx = {ph: i for i, ph in enumerate(sd.order.elements())}
    return _reference_chains(ambient, sd, x, {}, sd.piece_of_map(), pidx)


def _reference_chains(ambient, sd, x, memo, piece_of, pidx):
    if x in memo:
        return memo[x]
    memo[x] = ()
    results = set()
    emb = ambient.embed(x)
    ph = piece_of.get(emb)
    if ph is not None:
        results.add(((ph, (x,), (x,)),))
    for subs, quots in decompositions(ambient, x):
        qphases = {piece_of.get(ambient.embed(q)) for q in quots}
        if len(qphases) != 1 or None in qphases:
            continue
        qph = next(iter(qphases))
        quots_c = tuple(sorted(quots, key=str))
        for chain_s in _reference_multiset(ambient, sd, subs, memo, piece_of, pidx):
            if pidx[chain_s[-1][0]] > pidx[qph]:
                results.add(chain_s + ((qph, quots_c, (x,)),))
    memo[x] = tuple(sorted(results, key=str))
    return memo[x]


def _reference_multiset(ambient, sd, subs, memo, piece_of, pidx):
    if len(subs) == 1:
        return _reference_chains(ambient, sd, subs[0], memo, piece_of, pidx)
    per = [_reference_chains(ambient, sd, s, memo, piece_of, pidx) for s in subs]
    if any(not c for c in per):
        return ()
    combos = 1
    for c in per:
        combos *= len(c)
    if combos > _HN_COMBO_CAP:
        raise StabilityError(f"HN search explosion ({combos} combinations)")
    merged = set()
    for pick in itertools.product(*per):
        by_phase = {}
        for chain in pick:
            for ph, fac, _ in chain:
                by_phase.setdefault(ph, []).extend(fac)
        phases = sorted(by_phase, key=lambda p: -pidx[p])
        merged.add(tuple((ph, tuple(sorted(by_phase[ph], key=str)), None) for ph in phases))
    return tuple(sorted(merged, key=str))


def candidate_pieces(ambient) -> list:
    """Nonempty Hom-connected extension-closed subcats: the only sets that
    can serve as pieces of a finest datum (mutual Hom-nonvanishing)."""
    ctx = ctx_for(ambient)
    return [s for s in enumerate_ext_closed(ambient)
            if s and ctx.is_connected_mask(ctx.to_mask(s))]


def _valid_data_over_pieces(ambient, pieces_pool):
    """Every valid datum whose pieces are drawn from the pool and hold every
    object with no proper decomposition (semistable in any datum)."""
    ctx = ctx_for(ambient)
    pool = [frozenset(p) for p in pieces_pool]
    masks = [ctx.to_mask(p) for p in pool]
    npool = len(pool)
    hom = [[any(ambient.hom_nonzero(x, y) for x in pool[i] for y in pool[j])
            for j in range(npool)] for i in range(npool)]
    results = []

    def orders_of(chosen):
        edges = {i: set() for i in chosen}
        for i in chosen:
            for j in chosen:
                if i != j and hom[i][j]:
                    if hom[j][i]:
                        return
                    edges[i].add(j)
        seq = []

        def extend(remaining):
            if not remaining:
                yield tuple(seq)
                return
            for i in sorted(remaining):
                if all(i not in edges[j] for j in remaining if j != i):
                    seq.append(i)
                    yield from extend(remaining - {i})
                    seq.pop()

        yield from extend(frozenset(chosen))

    mandatory_mask = ctx.to_mask(ambient.embed(x) for x in ambient.hn_scope()
                                 if not decompositions(ambient, x))

    def rec(start, chosen, used_mask):
        if chosen:
            if not mandatory_mask & ~used_mask:
                for order in orders_of(chosen):
                    phases = [Phase.integer(i + 1) for i in range(len(order))]
                    sd = StabilityData(ExplicitOrder(phases),
                                       {phases[k]: pool[i] for k, i in enumerate(order)})
                    valid = validate(ambient, sd).valid
                    sd._search = None  # results would otherwise keep every HN memo alive
                    if valid:
                        results.append(sd)
        for i in range(start, npool):
            if masks[i] & used_mask:
                continue
            rec(i + 1, chosen + [i], used_mask | masks[i])

    rec(0, [], 0)
    return results


def _enumerate_valid_reference(ambient) -> list:
    """Reference enumeration: validate every datum over the closed pieces
    (small carriers only)."""
    ctx = ctx_for(ambient)
    pool = [s for s in enumerate_ext_closed(ambient) if s]
    return sorted(_valid_data_over_pieces(ambient, pool),
                  key=lambda sd: ctx.key(_piece_masks(ctx, sd)))


def _enumerate_finest_reference(ambient, bound: int = 18) -> list:
    """Reference enumeration: validate every datum over the Hom-connected
    closed pieces and keep the finest ones (small carriers only)."""
    n = len(ambient.carrier())
    if n > bound:
        raise EnumerationBoundError(f"carrier size {n} exceeds reference-enumeration bound {bound}")
    ctx = ctx_for(ambient)
    finest = [sd for sd in _valid_data_over_pieces(ambient, candidate_pieces(ambient))
              if is_finest(ambient, sd)[0]]
    return sorted(finest, key=lambda sd: (len(sd.phases()), ctx.key(_piece_masks(ctx, sd))))


def _mid_mask_reference(ambient) -> list:
    """mid[i][j]: the members of every middle term of carrier members i and
    j, ORed from `middle_terms`."""
    ctx = ctx_for(ambient)
    return [[sum({1 << ctx.index[c] for ms in ambient.middle_terms(a, b) for c in ms})
             for b in ctx.carrier] for a in ctx.carrier]


def _split_masks_reference(ambient, i: int) -> frozenset:
    """The (sub mask, quotient mask) pairs of carrier member i, one per pair
    `carrier_decompositions` gives."""
    ctx = ctx_for(ambient)
    return frozenset((ctx.to_mask(s), ctx.to_mask(q))
                     for s, q in carrier_decompositions(ambient, ctx.carrier[i]))


def _decomposes(ambient, t, f, x) -> bool:
    """x itself in T or F, or some subobject in T with quotient in F.

    Checking indecomposables suffices: the torsion subobject of a direct sum
    is the direct sum of the torsion subobjects.
    """
    emb = ambient.embed(x)
    if emb in t or emb in f:
        return True
    for subs, quots in carrier_decompositions(ambient, emb):
        if all(s in t for s in subs) and all(q in f for q in quots):
            return True
    return False


def validate_torsion_pair(ambient, t, f) -> TorsionReport:
    t, f = frozenset(t), frozenset(f)
    report = TorsionReport(valid=True)
    scope = frozenset(ambient.reported_members())
    rp = right_perp(ambient, t) & scope
    lp = left_perp(ambient, f) & scope
    if t & scope != lp:
        diff = canon_members(lp.symmetric_difference(t & scope))
        report.perp_failures.append(f"T != perp(F), differs at {diff[0]}")
    if f & scope != rp:
        diff = canon_members(rp.symmetric_difference(f & scope))
        report.perp_failures.append(f"F != T^perp, differs at {diff[0]}")
    for x in ambient.hn_scope():
        if not _decomposes(ambient, t, f, x):
            report.decomposition_failures.append(x)
    report.valid = not (report.perp_failures or report.decomposition_failures)
    return report


def is_quotient_closed(ambient, members) -> bool:
    members = frozenset(members)
    return all(frozenset(q for _, quots in carrier_decompositions(ambient, x) for q in quots)
               <= members for x in members)


def _enumerate_torsion_pairs_brute(ambient) -> list:
    """Reference enumeration, trivial pairs included: every extension-closed
    set that is quotient-closed, equal to its double perp and passes
    `validate_torsion_pair`."""
    ctx = ctx_for(ambient)
    masks = []
    for t in enumerate_ext_closed(ambient):
        if not is_quotient_closed(ambient, t):
            continue
        f = right_perp(ambient, t)
        if left_perp(ambient, f) != t:
            continue
        if validate_torsion_pair(ambient, t, f).valid:
            masks.append((ctx.to_mask(t), ctx.to_mask(f)))
    return _pairs(ctx, masks, upto_tau=False, include_trivial=True)


def enumerate_ext_closed_by_filter(ambient, bound: int = 16) -> list:
    """Reference enumeration: test closedness of every subset (tiny carriers)."""
    ctx = ctx_for(ambient)
    n = len(ctx.carrier)
    if n > bound:
        raise SubcatError(f"carrier size {n} exceeds filter-enumeration bound {bound}")
    closed = [m for m in range(1 << n) if ctx.is_closed_mask(m)]
    return [ctx.to_set(m) for m in sorted(closed, key=lambda m: (m.bit_count(), ctx.key((m,))))]


def _submodules_reference(e_rep, dims_query):
    """(index, bases) for every arrow-stable subspace tuple of e_rep with the
    given dimension vector, bases per-vertex row-basis matrices and index
    the combo's position in `product` order: the eager reference for the
    resumable sweep, testing each arrow of each combo by a rank."""
    p = e_rep.p
    verts = oracle.vertices(e_rep.shape)
    per_vertex = []
    for v in verts:
        per_vertex.append(list(gf.subspaces_fixed(e_rep.dims[v], dims_query[v], p)))
    out = []
    for index, combo in enumerate(itertools.product(*per_vertex)):
        bases = dict(zip(verts, combo))
        stable = True
        for key, src, tgt in oracle.arrows(e_rep.shape):
            if not bases[src]:
                continue
            image = gf.matvecs(e_rep.maps[key], bases[src], p)
            tgt_basis = bases[tgt]
            if gf.rank(tgt_basis + image, p) > len(tgt_basis):
                stable = False
                break
        if stable:
            out.append((index, bases))
    return out


def column_space_complement(a: list, cols: int, p: int) -> list:
    """Indices i, ascending, of the standard basis vectors e_i that complete
    the column space of `a` (with `cols` columns) to the full space; each
    e_i is taken when it is not in col(a) + span(e_j, j < i)."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    _, pivots = gf.rref(aug, p)
    return [c - cols for c in pivots if c >= cols]


def cokernel_rep(f, r1, r2):
    """Quotient of r2 by the image of the injective map f.

    At each vertex the image columns followed by standard basis vectors e_i
    (i in the complement) form a basis of r2; the quotient has the e_i as
    its basis, and an arrow sends e_i to the complement coordinates of the
    image of e_i, that is of column i of r2's map."""
    p = r2.p
    verts = oracle.vertices(r2.shape)
    bases = {}
    comps = {}
    for v in verts:
        img = f[v]
        comp = column_space_complement(img, r1.dims[v], p)
        bases[v] = [row + [int(i == e) for e in comp] for i, row in enumerate(img)]
        comps[v] = comp
    dims = {v: len(comps[v]) for v in verts}
    maps = {}
    for key, src, tgt in oracle.arrows(r2.shape):
        m = r2.maps[key]
        image_cols = [[row[e] for row in m] for e in comps[src]]
        coords = gf.solve_many(bases[tgt], image_cols, r2.dims[tgt], p)
        if coords is None:
            raise oracle.OracleError("cokernel coordinates failed")
        skip = r1.dims[tgt]
        maps[key] = gf.transpose([x[skip:] for x in coords], dims[tgt])
    return oracle.QuiverRep(r2.shape, p, dims, maps, check=False)


def _sub_and_quotient_reference(e_rep, bases):
    """(submodule rep, quotient rep) for a stable subspace tuple: the sub's
    coordinates by `solve_many` and the quotient by `cokernel_rep` of the
    inclusion."""
    p = e_rep.p
    verts = oracle.vertices(e_rep.shape)
    dims = {v: len(bases[v]) for v in verts}
    inclusion = {v: gf.transpose(bases[v], e_rep.dims[v]) for v in verts}
    maps = {}
    for key, src, tgt in oracle.arrows(e_rep.shape):
        image = gf.matvecs(e_rep.maps[key], bases[src], p)
        coords = gf.solve_many(inclusion[tgt], image, dims[tgt], p)
        if coords is None:
            raise oracle.OracleError("submodule basis is not arrow-stable")
        maps[key] = gf.transpose(coords, dims[tgt])
    sub_rep = oracle.QuiverRep(e_rep.shape, p, dims, maps, check=False)
    return sub_rep, cokernel_rep(inclusion, sub_rep, e_rep)


def _invert_reference(matrix):
    """(inv, den) with inv / den the inverse of the square integer matrix,
    den the least common denominator, by Gauss-Jordan elimination over
    `Fraction`s; raises OracleError if the matrix is singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise oracle.OracleError("fingerprint system is singular; raise the length bound")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    den = lcm(*(x.denominator for row in a for x in row[n:]))
    return tuple(tuple(int(x * den) for x in row[n:]) for row in a), den


def direct_middle_answers(queries) -> dict:
    """{(shape, p, A, B): (result, peak)} for each (shape, p, A, B)
    with sorted multisets A and B, computed one query at a time by the
    oracle's unshared linear algebra `_middle_terms` on a fresh memo: what a
    direct computation stores in the memo's `middle`.  The oracle's own memo
    is left as it was; a query over the budget raises."""
    saved, oracle._MEMO = oracle._MEMO, {}
    try:
        return {(shape, p, a, b): oracle._middle_terms(shape, a, b, p) for shape, p, a, b in queries}
    finally:
        oracle._MEMO = saved
