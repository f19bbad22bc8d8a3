"""Torsion pairs: validation, the lattice of torsion classes, the ray/coray
classifier for tubes, and the cuts-of-finest-data construction, each ending
in one sort and τ-dedupe of (T, F) carrier masks (`_pairs`).  The check of
a torsion pair is bit tests on those masks; the tests keep the
descriptor-level check as its oracle."""

from __future__ import annotations

from dataclasses import dataclass, field

from .subcat import EnumerationBoundError, canon_members, check_enumerable, ctx_for


class TorsionError(ValueError):
    pass


@dataclass(frozen=True)
class TorsionPair:
    t: frozenset
    f: frozenset

    def key(self):
        return (tuple(str(m) for m in canon_members(self.t)),
                tuple(str(m) for m in canon_members(self.f)))

    def to_json(self) -> dict:
        return {"T": [str(m) for m in canon_members(self.t)],
                "F": [str(m) for m in canon_members(self.f)]}

    @staticmethod
    def from_json(doc, ambient) -> "TorsionPair":
        from .stability import FormatError, json_strings

        if not isinstance(doc, dict):
            raise FormatError('a torsion pair is an object with "T" and "F" members')
        return TorsionPair(frozenset(ambient.parse(m) for m in json_strings(doc.get("T"), '"T"')),
                           frozenset(ambient.parse(m) for m in json_strings(doc.get("F"), '"F"')))


@dataclass
class TorsionReport:
    valid: bool
    perp_failures: list = field(default_factory=list)
    decomposition_failures: list = field(default_factory=list)

    def summary(self) -> str:
        if self.valid:
            return "valid torsion pair"
        bits = []
        if self.perp_failures:
            bits.append(f"perpendicularity: {self.perp_failures[0]}")
        if self.decomposition_failures:
            bits.append(f"no T/F decomposition for {self.decomposition_failures[0]}")
        return "invalid: " + "; ".join(str(b) for b in bits)


def validate_torsion_pair(ambient, t, f) -> TorsionReport:
    """T = perp(F) and F = T^perp on the reported members, and each scope
    object in T, in F, or a subobject in T with quotient in F (indecomposables
    suffice: the torsion part of a sum is the sum of the torsion parts)."""
    ctx = ctx_for(ambient)
    t, f = ctx.to_mask(t), ctx.to_mask(f)
    report = TorsionReport(valid=True)
    for what, mask, perp in (("T != perp(F)", t, ctx.left_perp_mask(f)),
                             ("F != T^perp", f, ctx.right_perp_mask(t))):
        if diff := (mask ^ perp) & ctx.reported:
            report.perp_failures.append(f"{what}, differs at {ctx.carrier[next(ctx.bits(diff))]}")
    for x, i in ctx.scope:
        if not ((t | f) >> i & 1
                or any(not s & ~t and any(not q & ~f for q in quotients)
                       for s, quotients in ctx.split_masks(ambient, i))):
            report.decomposition_failures.append(x)
    report.valid = not (report.perp_failures or report.decomposition_failures)
    return report


def is_quotient_closed(ambient, members) -> bool:
    ctx = ctx_for(ambient)
    mask = ctx.to_mask(members)
    return not any(ctx.quotient_mask(ambient, i) & ~mask for i in ctx.bits(mask))


def _pairs(ctx, masks, upto_tau: bool, include_trivial: bool) -> list:
    """The torsion pairs of the (T, F) mask pairs `masks`, each once, sorted
    by |T|, then by `CarrierContext.key`; up to τ, the least pair of each
    orbit (`CarrierContext.orbit`)."""
    masks = set(masks)
    if not include_trivial:
        masks -= {(ctx.full_mask, 0), (0, ctx.full_mask)}
    if upto_tau:
        masks = {ctx.orbit(p)[1] for p in masks}
    return [TorsionPair(ctx.to_set(t), ctx.to_set(f))
            for t, f in sorted(masks, key=lambda p: (p[0].bit_count(), ctx.key(p)))]


def torsion_lattice(ambient) -> dict:
    """The lattice of torsion classes as carrier bitmasks.

    Maps each torsion class to the tuple of its upper covers, bottom class
    first (breadth-first order).  The torsion class generated by a set S is
    T(S) = perp(S^perp), and the upper covers of T are the minimal classes
    T(T + {x}) with x outside T.  Every cover T < T' is labelled by the
    piece T' & T^perp, the brick labelling of Demonet-Iyama-Reading-
    Reiten-Thomas ("Lattice theory of torsion classes").

    Each class is checked once (T and T^perp extension-closed, T quotient-
    closed, `validate_torsion_pair`), each cover once (label non-empty and
    Hom-connected); a failure raises TorsionError naming it.  Every chain
    0 = T_0 < ... < T_k = carrier is then a valid datum with the closed
    pieces T_{i+1} & T_i^perp, HN filtrations from the T/F decompositions
    (Gorodentsev-Kuleshov-Rudakov, "t-stabilities and t-structures on
    triangulated categories"), and finest when the chain is maximal.

    Over FINEST_LIMIT classes the walk raises EnumerationBoundError at once,
    naming the ambient, the count reached and the limit.
    """
    return certify_lattice(ambient, lattice_walk(ambient))


def lattice_walk(ambient) -> dict:
    """The covers of `torsion_lattice`, walked but not certified, so that a
    caller can count chains and refuse before it pays for the certificate."""
    from . import stability

    check_enumerable(ambient)
    ctx = ctx_for(ambient)

    def generated(mask):
        return ctx.left_perp_mask(ctx.right_perp_mask(mask))

    bottom = generated(0)
    covers, seen, frontier = {}, {bottom}, [bottom]
    while frontier:
        nxt = []
        for t in frontier:
            ups = {generated(t | 1 << i) for i in ctx.bits(ctx.full_mask & ~t)}
            covers[t] = tuple(sorted(u for u in ups
                                     if not any(v != u and v & ~u == 0 for v in ups)))
            for u in covers[t]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    if len(seen) > stability.FINEST_LIMIT:
                        raise EnumerationBoundError(
                            f"{ambient.spec_string()} has at least {len(seen)} torsion classes, "
                            f"more than the enumeration limit {stability.FINEST_LIMIT}")
        frontier = nxt
    return covers


def certify_lattice(ambient, covers: dict) -> dict:
    """`covers` from `lattice_walk`, once each class and cover is checked as
    `torsion_lattice` states; a failure raises TorsionError naming it."""
    ctx = ctx_for(ambient)

    def names(mask):
        return list(map(str, canon_members(ctx.to_set(mask))))

    for t in covers:
        perp, members = ctx.right_perp_mask(t), ctx.to_set(t)
        if not (ctx.is_closed_mask(t) and ctx.is_closed_mask(perp)
                and is_quotient_closed(ambient, members)
                and validate_torsion_pair(ambient, members, ctx.to_set(perp)).valid):
            raise TorsionError(f"lattice class {names(t)} on {ambient.spec_string()} "
                               "is not a torsion class")
        for u in covers[t]:
            if not (u & perp and ctx.is_connected_mask(u & perp)):
                raise TorsionError(f"lattice cover {names(t)} < {names(u)} on "
                                   f"{ambient.spec_string()}: label {names(u & perp)} "
                                   "is empty or not Hom-connected")
    return covers


def enumerate_torsion_pairs(ambient, upto_tau: bool = False,
                            include_trivial: bool = False) -> list:
    """Every torsion pair (T, T^perp), one per class of `torsion_lattice`."""
    lattice = torsion_lattice(ambient)  # refuses an over-bound carrier before any table
    ctx = ctx_for(ambient)
    return _pairs(ctx, ((t, ctx.right_perp_mask(t)) for t in lattice), upto_tau, include_trivial)


def tau_pair_orbit_size(ambient, pair: TorsionPair) -> int:
    ctx = ctx_for(ambient)
    return ctx.orbit((ctx.to_mask(pair.t), ctx.to_mask(pair.f)))[0]


def tau_pair_canonical(ambient, pair: TorsionPair) -> TorsionPair:
    return dedupe_upto_tau(ambient, [pair])[0]


def dedupe_upto_tau(ambient, pairs) -> list:
    """The least pair of each τ-orbit met in `pairs`, in canonical order."""
    ctx = ctx_for(ambient)
    return _pairs(ctx, ((ctx.to_mask(p.t), ctx.to_mask(p.f)) for p in pairs), upto_tau=True,
                  include_trivial=True)


def classify_tube_torsion_pairs(n: int, upto_tau: bool = False, include_trivial: bool = False) -> list:
    """Structural classification: ray pairs from torsion classes of
    <S_1, ..., S_{n-1}>  (an A_{n-1} module category), coray pairs from
    torsionfree classes of <S_0, ..., S_{n-2}>, with their τ-translates."""
    from .ambient import IntervalAmbient, TubeAmbient
    from .intervals import embed_in_tube
    from .tube import tau

    tube_amb = TubeAmbient(n)
    ctx = ctx_for(tube_amb)
    masks = {(ctx.full_mask, 0), (0, ctx.full_mask)}
    if n >= 2:
        for sp in enumerate_torsion_pairs(IntervalAmbient(n - 1), include_trivial=True):
            # ray type: image sits in <S_1, ..., S_{n-1}> after the embedding
            t = ctx.closure_mask(ctx.to_mask(map(embed_in_tube, sp.t)))
            # coray type: shift the torsionfree class into <S_0, ..., S_{n-2}>
            f = ctx.closure_mask(ctx.to_mask(tau(embed_in_tube(m)) for m in sp.f))
            for pair in ((t, ctx.right_perp_mask(t)), (ctx.left_perp_mask(f), f)):
                for _ in range(n):
                    masks.add(pair)
                    pair = ctx.translate(pair)
    valid = [(t, f) for t, f in masks
             if validate_torsion_pair(tube_amb, ctx.to_set(t), ctx.to_set(f)).valid]
    return _pairs(ctx, valid, upto_tau, include_trivial)


def torsion_pairs_from_finest(ambient, upto_tau: bool = False,
                              include_trivial: bool = False) -> list:
    """Union of all cuts of all finest data, T closed from the pieces above
    the cut and F from those below; must equal `enumerate_torsion_pairs`.
    The cuts form a set that `_pairs` sorts, so the chains are read unsorted."""
    from .stability import _chain_data

    covers = lattice_walk(ambient)
    chains = _chain_data(ambient, covers, covers, "finest data")
    ctx = ctx_for(ambient)
    closed = {}  # the chains share most of their cuts

    def closure(mask: int) -> int:
        if mask not in closed:
            closed[mask] = ctx.closure_mask(mask)
        return closed[mask]

    cuts = set()
    for chain in chains:
        for k in range(len(chain) + 1):
            # the pieces are disjoint, so their sum is their union
            cuts.add((closure(sum(chain[k:])), closure(sum(chain[:k]))))
    return _pairs(ctx, cuts, upto_tau, include_trivial)


def pairs_to_markdown(pairs, title: str) -> str:
    """Markdown table in the layout of the published classification tables."""
    lines = [f"### {title}", "", "| T | F |", "|---|---|"]
    for p in pairs:
        t = ", ".join(str(m) for m in canon_members(p.t))
        f = ", ".join(str(m) for m in canon_members(p.f))
        lines.append(f"| {t} | {f} |")
    return "\n".join(lines) + "\n"
