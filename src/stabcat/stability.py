"""Stability data: validation, HN filtrations, finest-ness, refinement,
comparison, cuts and exhaustive enumeration of valid and finest data.

A stability datum is a linearly ordered set of phases plus one extension
closed piece per phase.  A datum is canonical when built: it keeps only the
phases whose pieces are non-empty, in order, so every consumer reads the
same phases and none makes a canonical copy.  Validity means Hom vanishes
from higher to lower phase and every object in the ambient's validation
scope admits a filtration with semistable factors of strictly decreasing
phase; the filtration search runs over the ambient's subobject
decompositions and is exhaustive within the model, so a failure is a
genuine axiom violation for the windowed category.

The search generates only phase-admissible quotients: for each sub of x it
finds the sub's chains first and asks the ambient (`phase_quotients`) only
for quotients lying in one phase below the highest phase those chains end
in.  For a P^1 or X(2) line bundle the ambient derives those torsion
spreads from the length classes of `spread_splits`, the description the
torsion-pair masks read too.

Valid data are the chains 0 = T_0 < ... < T_k = carrier of torsion classes,
with pieces T_{i+1} & T_i^perp, and the finest data are the maximal chains.
`enumerate_valid` and `enumerate_finest` count the chains of the walked
torsion-class lattice, then certify it once per class and cover; no datum
goes through `validate` or `is_finest`.  The tests keep `validate` as oracle
(`tests/reference.py` validates every datum over the closed pieces).  Chains
stay piece masks through the sort and the τ-dedupe (`CarrierContext`); a
datum is built only for each chain returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

from .phases import ExplicitOrder, Phase
from .subcat import EnumerationBoundError, canon_members, closure, ctx_for, is_closed
from .torsion import TorsionPair, certify_lattice, lattice_walk, torsion_lattice

_HN_COMBO_CAP = 512
FINEST_LIMIT = 20000  # data `enumerate_finest` or `enumerate_valid` builds at most


class StabilityError(ValueError):
    pass


class HNFailureError(StabilityError):
    """Raised when an object admits no decreasing-phase chain decomposition."""


class HNBoundError(StabilityError, EnumerationBoundError):
    """The HN search of one object would combine more chains than the cap."""


class FormatError(ValueError):
    """A datum or torsion-pair document does not have the documented shape."""


def json_strings(value, what: str) -> list:
    """`value` as a list of strings, or FormatError naming `what`."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise FormatError(f"{what} must be a list of strings")
    return value


class StabilityData:
    """Phases and pieces, read-only and canonical when built: every piece
    must sit at a phase of `order`, and only the phases with non-empty pieces
    are kept, in order.  The datum caches its HN search for the ambient it
    was last searched over (`hn_search`)."""

    def __init__(self, order: ExplicitOrder, pieces: dict):
        frozen = {ph: frozenset(m) for ph, m in pieces.items()}
        for ph in frozen:
            if not order.contains(ph):
                raise StabilityError(f"phase {ph} is not carried by the order")
        if len(frozen) < len(order.elements()) or not all(frozen.values()):
            order = ExplicitOrder(ph for ph in order.elements() if frozen.get(ph))
            frozen = {ph: frozen[ph] for ph in order.elements()}
        self.order = order
        self.pieces = MappingProxyType(frozen)
        self._search = None

    def hn_search(self, ambient) -> "HNSearch":
        """The HN search of this datum over `ambient`, built on first use."""
        if self._search is None or self._search.ambient is not ambient:
            self._search = HNSearch(ambient, self)
        return self._search

    def phases(self) -> tuple:
        return self.order.elements()

    def piece_sequence(self) -> tuple:
        return tuple(self.pieces[ph] for ph in self.phases())

    def piece_of_map(self) -> dict:
        out = {}
        for ph in self.phases():
            for m in self.pieces[ph]:
                out.setdefault(m, ph)
        return out

    def relabeled(self) -> "StabilityData":
        """Same piece sequence with integer phases 1..k."""
        seq = self.piece_sequence()
        phases = [Phase.integer(i + 1) for i in range(len(seq))]
        return StabilityData(ExplicitOrder(phases), dict(zip(phases, seq)))

    def to_json(self) -> dict:
        return {
            "order": [ph.encode() for ph in self.phases()],
            "pieces": {ph.encode(): [str(m) for m in canon_members(self.pieces[ph])]
                       for ph in self.phases()},
        }

    @staticmethod
    def from_json(doc, ambient) -> "StabilityData":
        if not isinstance(doc, dict) or not isinstance(doc.get("pieces"), dict):
            raise FormatError('a datum is an object with "order" and "pieces" members')
        phases = [Phase.parse(s) for s in json_strings(doc.get("order"), '"order"')]
        pieces = {Phase.parse(k): frozenset(ambient.parse(m)
                                            for m in json_strings(v, f"piece {k!r}"))
                  for k, v in doc["pieces"].items()}
        try:
            return StabilityData(ExplicitOrder(phases), pieces)
        except StabilityError as exc:  # a piece at a phase outside the order
            raise FormatError(str(exc)) from exc

    def __repr__(self):
        parts = [f"{ph}:{{{','.join(str(m) for m in canon_members(self.pieces[ph]))}}}"
                 for ph in self.phases()]
        return "StabilityData(" + " < ".join(parts) + ")"


@dataclass
class HNFiltration:
    obj: object
    steps: tuple  # ((subobject or None, factor multiset, phase), ...), top phase first


@dataclass
class ValidationReport:
    valid: bool
    hom_violations: list = field(default_factory=list)
    hn_failures: list = field(default_factory=list)
    piece_issues: list = field(default_factory=list)

    def summary(self) -> str:
        if self.valid:
            return "valid"
        bits = []
        if self.piece_issues:
            bits.append(f"{len(self.piece_issues)} piece issue(s): {self.piece_issues[0]}")
        if self.hom_violations:
            ph1, x, ph2, y = self.hom_violations[0]
            bits.append(f"{len(self.hom_violations)} Hom violation(s): "
                        f"Hom({x}@{ph1}, {y}@{ph2}) != 0 with {ph1} > {ph2}")
        if self.hn_failures:
            bits.append(f"{len(self.hn_failures)} HN failure(s): no filtration for {self.hn_failures[0]}")
        return "invalid: " + "; ".join(bits)


# -- HN machinery ---------------------------------------------------------

class HNSearch:
    """The HN search of one datum over one ambient.

    Holds the datum's phases, `owner` (carrier member -> index of the
    lowest phase whose piece holds it) and the chain memo keyed by
    extended-space object.  Chains are tuples of (phase, sorted factors,
    upto) steps, top phase first.  The chains of each sub multiset of x
    come first; the ambient then yields only quotients lying in one phase
    below the highest phase those chains end in (`Ambient.phase_quotients`).
    """

    def __init__(self, ambient, sd: StabilityData):
        self.ambient = ambient
        self.phases = sd.phases()
        self.pidx = {ph: i for i, ph in enumerate(self.phases)}
        carrier = frozenset(ambient.carrier())
        self.owner = {}
        for p, ph in enumerate(self.phases):
            for m in sd.pieces[ph]:
                if m not in carrier:
                    raise StabilityError(f"piece at phase {ph} contains {m}, not in the carrier")
                self.owner.setdefault(m, p)
        self.memo = {}

    def chains(self, x) -> tuple:
        """All decreasing-phase chain decompositions of x, sorted by str."""
        try:
            return self._chains(x)
        except BaseException:
            self.memo.clear()  # in-progress entries hold the () cycle guard
            raise

    def _chains(self, x) -> tuple:
        memo = self.memo
        if x in memo:
            return memo[x]
        memo[x] = ()
        phases, pidx = self.phases, self.pidx
        results = set()
        p = self.owner.get(self.ambient.embed(x))
        if p is not None:
            results.add(((phases[p], (x,), (x,)),))
        sub_chains = {}

        def top_of(subs):
            if subs not in sub_chains:
                sub_chains[subs] = (self._chains(subs[0]) if len(subs) == 1
                                    else self._merged(x, subs))
            return max((pidx[c[-1][0]] for c in sub_chains[subs]), default=-1)

        for subs, quots, p in self.ambient.phase_quotients(x, self.owner, top_of):
            step = (phases[p], tuple(sorted(quots, key=str)), (x,))
            for chain_s in sub_chains[subs]:
                if pidx[chain_s[-1][0]] > p:
                    results.add(chain_s + (step,))
        memo[x] = tuple(results) if len(results) < 2 else tuple(sorted(results, key=str))
        return memo[x]

    def _merged(self, x, subs) -> tuple:
        """Chains of the direct sum of `subs`: one per pick of summand chains."""
        per = [self._chains(s) for s in subs]
        if any(not c for c in per):
            return ()
        combos = 1
        for c in per:
            combos *= len(c)
        if combos > _HN_COMBO_CAP:
            raise HNBoundError(f"HN search of {x}: {combos} combinations of subobject chains "
                               f"exceed the cap {_HN_COMBO_CAP}")
        pidx = self.pidx
        merged = set()
        for pick in itertools.product(*per):
            by_phase = {}
            for chain in pick:
                for ph, fac, _ in chain:
                    by_phase.setdefault(ph, []).extend(fac)
            order = sorted(by_phase, key=lambda p: -pidx[p])
            merged.add(tuple((ph, tuple(sorted(by_phase[ph], key=str)), None) for ph in order))
        return tuple(merged)


def hn_chains(ambient, sd: StabilityData, x) -> tuple:
    """All decreasing-phase chain decompositions of x (unique iff sd valid)."""
    return sd.hn_search(ambient).chains(x)


def hn_filtration(ambient, sd: StabilityData, x) -> HNFiltration:
    chains = hn_chains(ambient, sd, x)
    if not chains:
        raise HNFailureError(f"{x} has no decreasing-phase chain decomposition")
    if len(chains) > 1:
        raise StabilityError(f"{x} has {len(chains)} chain decompositions; datum violates HN uniqueness")
    chain = chains[0]
    steps = tuple((upto[0] if (upto is not None and len(upto) == 1) else upto, fac, ph)
                  for ph, fac, upto in chain)
    return HNFiltration(obj=x, steps=steps)


# -- validation ------------------------------------------------------------

def validate(ambient, sd: StabilityData) -> ValidationReport:
    search = sd.hn_search(ambient)
    report = ValidationReport(valid=True)
    phases = sd.phases()
    for ph in phases:
        if not is_closed(ambient, sd.pieces[ph]):
            report.piece_issues.append(f"piece at phase {ph} is not extension-closed")
    seen = {}
    for ph in phases:
        for m in sd.pieces[ph]:
            if m in seen and seen[m] != ph:
                report.piece_issues.append(f"{m} lies in phases {seen[m]} and {ph}")
            seen[m] = ph
    ctx = ctx_for(ambient)
    members = {ph: canon_members(sd.pieces[ph]) for ph in phases}
    for i, hi in enumerate(phases):
        for lo in phases[:i]:
            lower = ctx.to_mask(members[lo])
            for x in members[hi]:
                if row := ctx.hom_to[ctx.index[x]] & lower:
                    report.hom_violations.extend((hi, x, lo, y) for y in members[lo]
                                                 if row >> ctx.index[y] & 1)
    if not report.hom_violations and not report.piece_issues:
        for x in ambient.hn_scope():
            if not search.chains(x):
                report.hn_failures.append(x)
    report.valid = not (report.hom_violations or report.hn_failures or report.piece_issues)
    return report


# -- finest-ness and refinement ---------------------------------------------

def is_finest(ambient, sd: StabilityData):
    """Mutual Hom-nonvanishing within every phase; witness is a failing pair."""
    for ph in sd.phases():
        members = canon_members(sd.pieces[ph])
        for x in members:
            for y in members:
                if x != y and not ambient.hom_nonzero(x, y):
                    return False, (ph, x, y)
    return True, None


def split_phase(ambient, sd: StabilityData, phase, x) -> StabilityData:
    """Split Π_φ along x: Π_- = {Z : Hom(x, Z) = 0}, Π_+ its left-perp part."""
    piece = sd.pieces.get(phase)
    if piece is None:
        raise StabilityError(f"no piece at phase {phase}")
    if x not in piece:
        raise StabilityError(f"{x} is not in the piece at phase {phase}")
    minus = frozenset(z for z in piece if not ambient.hom_nonzero(x, z))
    if not minus:
        raise StabilityError(f"phase {phase} is already Hom-connected from {x}")
    plus = frozenset(w for w in piece if all(not ambient.hom_nonzero(w, z) for z in minus))
    lo = Phase.pair(phase, Phase.label("lo"))
    hi = Phase.pair(phase, Phase.label("hi"))
    new_phases = [q for ph in sd.phases() for q in ((lo, hi) if ph == phase else (ph,))]
    pieces = {ph: p for ph, p in sd.pieces.items() if ph != phase} | {lo: minus, hi: plus}
    return StabilityData(ExplicitOrder(new_phases), pieces)


def refine_to_finest(ambient, sd: StabilityData) -> StabilityData:
    """Split non-Hom-connected phases until finest; terminates because each
    split strictly increases the phase count, bounded by the carrier size."""
    while True:
        finest, witness = is_finest(ambient, sd)
        if finest:
            return sd
        ph, x, _ = witness
        sd = split_phase(ambient, sd, ph, x)


def is_coarser(ambient, coarse: StabilityData, fine: StabilityData):
    """The surjection r: Φ_fine -> Φ_coarse of the finer/coarser order, if any."""
    r = {}
    for psi in fine.phases():
        members = fine.pieces[psi]
        targets = [phi for phi in coarse.phases() if members <= coarse.pieces[phi]]
        if len(targets) != 1:
            return None
        r[psi] = targets[0]
    if set(r.values()) != set(coarse.phases()):
        return None
    cidx = {ph: i for i, ph in enumerate(coarse.phases())}
    psis = fine.phases()
    for i, p1 in enumerate(psis):
        for p2 in psis[:i]:
            if cidx[r[p2]] > cidx[r[p1]]:
                return None
    for phi in coarse.phases():
        union = frozenset().union(*[fine.pieces[psi] for psi in psis if r[psi] == phi])
        if closure(ambient, union) != coarse.pieces[phi]:
            return None
    return r


def equivalent(sd1: StabilityData, sd2: StabilityData) -> bool:
    """Order-preserving bijection matching the pieces."""
    return sd1.piece_sequence() == sd2.piece_sequence()


def cut_torsion_pair(ambient, sd: StabilityData, lower_phases):
    """Torsion pair from a down-closed cut: T from above, F from below."""
    lower = set(lower_phases)
    phases = sd.phases()
    for ph in lower:
        if ph not in phases:
            raise StabilityError(f"cut phase {ph} is not a phase of the datum")
    for i, ph in enumerate(phases):
        if ph in lower:
            for below in phases[:i]:
                if below not in lower:
                    raise StabilityError(f"cut is not down-closed: contains {ph} but not {below}")
    t = closure(ambient, frozenset().union(*(sd.pieces[ph] for ph in phases if ph not in lower)))
    f = closure(ambient, frozenset().union(*(sd.pieces[ph] for ph in phases if ph in lower)))
    return TorsionPair(t, f)


def all_cuts(sd: StabilityData):
    phases = sd.phases()
    return [set(phases[:k]) for k in range(len(phases) + 1)]


# -- piece masks and the τ-action --------------------------------------------

def _piece_masks(ctx, sd: StabilityData) -> tuple:
    """The datum's pieces as carrier masks, in phase order."""
    return tuple(map(ctx.to_mask, sd.piece_sequence()))


def _data(ctx, chains: list) -> list:
    """A datum with phases 1..k for each sequence of k piece masks; the data
    share one set per piece mask and one order per phase count."""
    sets = {m: ctx.to_set(m) for m in set().union(*chains)}
    orders = {k: ExplicitOrder(map(Phase.integer, range(1, k + 1))) for k in set(map(len, chains))}
    return [StabilityData(orders[len(c)], dict(zip(orders[len(c)].elements(), map(sets.get, c))))
            for c in chains]


def tau_canonical(ambient, sd: StabilityData) -> StabilityData:
    """The least τ-translate of the datum (`CarrierContext.orbit`), phases 1..k."""
    ctx = ctx_for(ambient)
    return _data(ctx, [ctx.orbit(_piece_masks(ctx, sd))[1]])[0]


def tau_orbit_size(ambient, sd: StabilityData) -> int:
    ctx = ctx_for(ambient)
    return ctx.orbit(_piece_masks(ctx, sd))[0]


# -- enumeration --------------------------------------------------------------

def _chain_data(ambient, covers: dict, successors: dict, what: str):
    """Yield the piece masks, in phase order, of every chain from the bottom
    class (the first key) to the carrier along `successors`: the step T < U
    gives the piece U & T^perp, and the last step phase 1.  Over FINEST_LIMIT
    chains raise EnumerationBoundError (naming the ambient, the count of
    `what` and the limit) before the walked lattice `covers` is certified;
    the certificate makes every chain a valid datum."""
    count = _count_chains(successors)
    if count > FINEST_LIMIT:
        raise EnumerationBoundError(f"{ambient.spec_string()} has {count} {what}, "
                                    f"more than the enumeration limit {FINEST_LIMIT}")
    certify_lattice(ambient, covers)
    ctx = ctx_for(ambient)
    steps = {t: [(u, u & ctx.right_perp_mask(t)) for u in reversed(us)]
             for t, us in successors.items()}
    stack = [(next(iter(successors)), ())]  # depth first, without a self-referencing closure
    while stack:
        t, pieces = stack.pop()
        if t == ctx.full_mask:
            yield pieces
            continue
        for u, piece in steps[t]:
            stack.append((u, (piece,) + pieces))


def enumerate_valid(ambient) -> list:
    """Every valid stability datum up to equivalence (small carriers only),
    sorted by piece sequence: one per chain of `torsion_lattice`, stepping
    from each class to every strictly larger one.  The lattice certificate
    makes each such datum valid; none is validated here.  Over FINEST_LIMIT
    chains raise EnumerationBoundError at once."""
    covers = lattice_walk(ambient)
    larger = {t: tuple(u for u in covers if u != t and t & ~u == 0) for t in covers}
    ctx = ctx_for(ambient)
    return _data(ctx, sorted(_chain_data(ambient, covers, larger, "valid data"), key=ctx.key))


def _count_chains(successors: dict) -> int:
    """Chains from the bottom class (the first key) to the carrier along
    `successors`, by a DP from the top: the maximal chains when they are the
    covers, every chain when they are all strictly larger classes.  A step to
    a class no larger (a walk whose certificate fails) counts 0."""
    count = {}
    for t in sorted(successors, key=lambda t: -t.bit_count()):
        count[t] = sum(count.get(u, 0) for u in successors[t]) if successors[t] else 1
    return count[next(iter(successors))]


def count_finest(ambient) -> int:
    """Count the finest data (maximal chains of `torsion_lattice`) without building any."""
    return _count_chains(torsion_lattice(ambient))


def _finest_chains(ambient) -> list:
    """The piece masks of the finest data, sorted by phase count, then by
    `CarrierContext.key`."""
    covers = lattice_walk(ambient)
    ctx = ctx_for(ambient)
    return sorted(_chain_data(ambient, covers, covers, "finest data"),
                  key=lambda chain: (len(chain), ctx.key(chain)))


def enumerate_finest(ambient, upto_tau: bool = False) -> list:
    """All finest valid data up to equivalence (optionally up to τ).

    Finest data are the maximal chains 0 = T_0 < T_1 < ... < T_k = carrier of
    the torsion-class lattice: the cover T_i < T_{i+1} is labelled by the
    piece T_{i+1} & T_i^perp, a Hom-connected brick filtration (the brick
    labelling of Demonet-Iyama-Reading-Reiten-Thomas, "Lattice theory of
    torsion classes"; such chains are counted in Brüstle-Dupont-Pérotin,
    "On maximal green sequences").  The last cover gives phase 1.  No datum
    is validated: `torsion_lattice` certifies each class and cover once.
    Over FINEST_LIMIT maximal chains raise EnumerationBoundError at once.
    """
    chains = _finest_chains(ambient)
    ctx = ctx_for(ambient)
    if upto_tau:  # translates have one length: the first met is the orbit's least
        kept, seen = [], set()
        for c in chains:
            if c not in seen:
                kept.append(c)
                image = ctx.translate(c)
                while image != c:
                    seen.add(image)
                    image = ctx.translate(image)
        chains = kept
    return _data(ctx, chains)
