"""Extension-and-summand-closed subcategories over a finite ambient model.

A subcategory is a frozenset of carrier descriptors; closure adds every
component of every middle term of every ordered pair of members (extensions
with indecomposable end terms; the matrix oracle guards this reduction).
Member sets are stored as bitmasks over the canonically indexed carrier
during enumeration.
"""

from __future__ import annotations

from .ambient import class_spreads


class SubcatError(ValueError):
    pass


class EnumerationBoundError(SubcatError):
    """The carrier is larger than an exhaustive enumeration accepts."""


ENUMERATION_BOUND = 64  # carrier members an exhaustive enumeration accepts


class CarrierContext:
    """Hom/extension tables for one ambient, as bitmasks.  Member masks have
    one sort key (`key`: index order is `str` order, as the carrier is sorted
    by `str`) and one τ action (`tau`, empty when `tau_order` is 1).
    `reported` masks the reported members; `scope` pairs each validation
    object with the index of its carrier member.

    The Hom and extension tables are built eagerly.  `mid_mask[i][j]` masks
    the components of every middle term of members i and j.  A pair the
    model answers in closed form (`Ambient.middle_ranges`) ORs one mask per
    range of a family, from that family's prefix masks (`_prefixes`, built
    once, as index order is not degree order); every other pair falls back
    to the rules (`Ambient.embedded_middles`).  Either way the row is made
    only for the least member of each τ-orbit, and `translate` carries it
    to the rest of the orbit.  The split masks of each member
    (`split_masks`) are read on first use."""

    def __init__(self, ambient):
        self.carrier = tuple(ambient.carrier())
        self.index = {d: i for i, d in enumerate(self.carrier)}
        n = len(self.carrier)
        self.full_mask = (1 << n) - 1
        self.tau_order = ambient.tau_order()
        self.tau = (tuple(self.index[ambient.tau(x)] for x in self.carrier)
                    if self.tau_order > 1 else ())
        self.hom_to = [0] * n
        self.hom_from = [0] * n
        for i, x in enumerate(self.carrier):
            for j, y in enumerate(self.carrier):
                if ambient.hom_nonzero(x, y):
                    self.hom_to[i] |= 1 << j
                    self.hom_from[j] |= 1 << i
        self.reported = self.to_mask(ambient.reported_members())
        self.scope = tuple((x, self.index[ambient.embed(x)]) for x in ambient.hn_scope())
        self.splits, self.quotients, self.spreads = {}, {}, {}
        prefixes = tuple(self._prefixes(family) for family in ambient.families())
        self.mid_mask = [None] * n
        for i in range(n):
            if self.mid_mask[i] is None:
                self._orbit_rows(ambient, prefixes, i)

    def _prefixes(self, family) -> tuple:
        """(None, stride-1, stride-2) prefix masks of a family in degree
        order: entry p of stride s masks the members at positions p, p - s,
        p - 2s, ... down to 1.  Positions count from 1, so entry 0 is empty."""
        one, two = [0], [0]
        for p, member in enumerate(family, 1):
            bit = 1 << self.index[member]
            one.append(one[-1] | bit)
            two.append((two[p - 2] if p > 1 else 0) | bit)
        return None, one, two

    def _orbit_rows(self, ambient, prefixes: tuple, i: int) -> None:
        """Row i of `mid_mask`, then the rows of its τ-translates by
        `translate`: mid[τa][τb] = τ mid[a][b], as τ is an autoequivalence.
        A pair the model gives `middle_ranges` for ORs the range masks
        `pre[hi] & ~pre[lo - 1]` from the family's `prefixes`; every other
        pair ORs the components of its `embedded_middles`."""
        index, middles, a = self.index, ambient.embedded_middles, self.carrier[i]
        ranges = ambient.middle_ranges
        row = []
        for b in self.carrier:
            m = 0
            spans = ranges(a, b)
            if spans is None:
                for multiset in middles(a, b):
                    for comp in multiset:
                        m |= 1 << index[comp]
            else:
                for f, lo, hi, step in spans:
                    if lo <= hi:
                        pre = prefixes[f]
                        m |= pre[step][hi] & ~pre[1][lo - 1]
            row.append(m)
        self.mid_mask[i] = row
        tau = self.tau
        while tau and self.mid_mask[tau[i]] is None:
            image, row, i = self.translate(row), [0] * len(row), tau[i]
            for j, m in enumerate(image):
                row[tau[j]] = m
            self.mid_mask[i] = row

    def split_masks(self, ambient, i: int) -> tuple:
        """The decompositions of member i as (sub mask, quotient masks)
        groups, built on first use.  A line bundle whose quotients are
        torsion spreads (`Ambient.spread_splits`) gets one group per line
        sub, with one quotient mask per feasible choice of length classes
        (`class_spreads` over the members' bits), each spread's masks shared
        between the members that meet it; every other member gets one group
        per pair `carrier_decompositions` gives."""
        if i in self.splits:
            return self.splits[i]
        x = self.carrier[i]
        spreads = ambient.spread_splits(x)
        if spreads is None:
            groups = tuple((self.to_mask(s), (self.to_mask(q),))
                           for s, q in ambient.carrier_decompositions(x))
        else:
            slots, pairs = spreads
            if slots not in self.spreads:
                bits = tuple(tuple((1 << self.index[m], lo, step) for m, lo, step in slot)
                             for slot in slots)
                self.spreads[slots] = bits, {}
            bits, by_total = self.spreads[slots]
            groups = []
            for subs, total in pairs:
                if total not in by_total:
                    by_total[total] = tuple(map(sum, class_spreads(total, bits)))
                groups.append((self.to_mask(subs), by_total[total]))
            groups = tuple(groups)
        self.splits[i] = groups
        return groups

    def quotient_mask(self, ambient, i: int) -> int:
        """The union of member i's quotient masks (`split_masks`)."""
        if i not in self.quotients:
            union = 0
            for _, quotients in self.split_masks(ambient, i):
                for q in quotients:
                    union |= q
            self.quotients[i] = union
        return self.quotients[i]

    def bits(self, mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def to_mask(self, members) -> int:
        mask = 0
        for m in members:
            if m not in self.index:
                raise SubcatError(f"descriptor {m} is not in the carrier")
            mask |= 1 << self.index[m]
        return mask

    def to_set(self, mask: int) -> frozenset:
        return frozenset(self.carrier[i] for i in self.bits(mask))

    def key(self, masks) -> tuple:
        """Sort key of a sequence of member masks: each mask's indices, ascending."""
        return tuple(tuple(self.bits(m)) for m in masks)

    def translate(self, masks) -> tuple:
        """τ applied to each member mask of a sequence."""
        tau = self.tau or range(len(self.carrier))
        return tuple(sum(1 << tau[i] for i in self.bits(m)) for m in masks)

    def orbit(self, masks: tuple) -> tuple:
        """(size, least translate by `key`) of the τ-orbit of a mask sequence."""
        orbit = [masks]
        while len(orbit) < self.tau_order and (image := self.translate(orbit[-1])) != masks:
            orbit.append(image)
        return len(orbit), min(orbit, key=self.key)

    def closure_mask(self, mask: int) -> int:
        while True:
            new = mask
            members = list(self.bits(mask))
            for i in members:
                row = self.mid_mask[i]
                for j in members:
                    new |= row[j]
            if new == mask:
                return mask
            mask = new

    def is_closed_mask(self, mask: int) -> bool:
        members = list(self.bits(mask))
        for i in members:
            row = self.mid_mask[i]
            for j in members:
                if row[j] & ~mask:
                    return False
        return True

    def is_connected_mask(self, mask: int) -> bool:
        """Hom(x, y) != 0 for all members x and y, x = y included."""
        return not any(mask & ~self.hom_to[i] for i in self.bits(mask))

    def right_perp_mask(self, mask: int) -> int:
        hit = 0
        for i in self.bits(mask):
            hit |= self.hom_to[i]
        return self.full_mask & ~hit

    def left_perp_mask(self, mask: int) -> int:
        hit = 0
        for j in self.bits(mask):
            hit |= self.hom_from[j]
        return self.full_mask & ~hit


def ctx_for(ambient) -> CarrierContext:
    """The ambient's carrier context, built on first use and stored on the
    ambient, so that it lives exactly as long as the ambient."""
    ctx = getattr(ambient, "_carrier_ctx", None)
    if ctx is None:
        ctx = ambient._carrier_ctx = CarrierContext(ambient)
    return ctx


def canon_members(members) -> tuple:
    return tuple(sorted(members, key=str))


def closure(ambient, gens) -> frozenset:
    ctx = ctx_for(ambient)
    return ctx.to_set(ctx.closure_mask(ctx.to_mask(gens)))


def is_closed(ambient, members) -> bool:
    ctx = ctx_for(ambient)
    return ctx.is_closed_mask(ctx.to_mask(members))


def right_perp(ambient, members) -> frozenset:
    ctx = ctx_for(ambient)
    return ctx.to_set(ctx.right_perp_mask(ctx.to_mask(members)))


def left_perp(ambient, members) -> frozenset:
    ctx = ctx_for(ambient)
    return ctx.to_set(ctx.left_perp_mask(ctx.to_mask(members)))


def check_enumerable(ambient) -> None:
    """Refuse exhaustive enumeration before any carrier table is built."""
    if not getattr(ambient, "supports_enumeration", True):
        raise SubcatError(f"{ambient.spec_string()} models only part of its extension "
                          "structure; exhaustive enumeration is disabled")
    n = len(ambient.carrier())
    if n > ENUMERATION_BOUND:
        raise EnumerationBoundError(f"carrier size {n} exceeds enumeration bound "
                                    f"{ENUMERATION_BOUND}")


def enumerate_ext_closed(ambient) -> list:
    """All extension-closed member sets, canonically sorted, reached from the
    empty set by closing one-element enlargements of smaller closed sets.  No
    package path calls it: it serves the tests and the benchmark tracer."""
    check_enumerable(ambient)
    ctx = ctx_for(ambient)
    n = len(ctx.carrier)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for i in range(n):
                if mask & (1 << i):
                    continue
                c = ctx.closure_mask(mask | (1 << i))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return [ctx.to_set(m) for m in sorted(seen, key=lambda m: (m.bit_count(), ctx.key((m,))))]

