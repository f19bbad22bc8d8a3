"""Finite ambient models: the carrier of indecomposables together with the
hom / extension / subobject data every engine consumes.

The base class owns the extension sweep: a carrier member may stand for a
periodic family of actual objects (`_instances`), and `embedded_middles`
and `carrier_decompositions` sweep those instances through the model's rules
on actual objects (`_middles_actual`, `decompositions`), embed the results in
the carrier and keep the ones inside it (`_in_carrier`).  A model supplies
those rules, not the sweep.  Where the union of a pair's middle-term
components has a closed form, the model also gives that union as ranges of
its families in degree order (`families`, `middle_ranges`): the
line-bundle pairs of the weighted-projective-line model (P^1, and X(2)
through it) and every Kronecker pair.  Neither is memoised: the
carrier context (`subcat.ctx_for`) turns each range into a mask from
prefix masks per family, ORs the components `embedded_middles` yields for
every other pair, and fills its bitmask table one row per τ-orbit;
`middle_terms` reads the same generator as sorted multisets.  The context
reads each member's decompositions once, on first use, as the (sub,
quotient) masks the torsion-pair check tests bits against; for P^1 and X(2)
line bundles it reads them as length classes (`spread_splits`,
`class_spreads`), one quotient per feasible class choice, not per torsion
spread.

The HN search asks `phase_quotients` only for the decompositions whose
quotient one phase owns, below the phases the sub's chains end in.  It
filters `decompositions`, except on a member with `spread_splits`: there it
keeps the length classes each phase owns, walks their actual lengths
(`length_spreads`) and turns each into a summand with the model's
`lengthen`.  So P^1 and X(2) describe a line bundle's quotients once, in
`spread_splits`, and list no `decompositions` of a line bundle.

The base class also stores the spec-string name and the carrier, sorted by
`str`.  A tube carrier member is a plain segment of length 1..2n, one of
length above n standing for its periodic family (`tube.family`); validation
additionally walks actual segments of length up to 3n, membership being
decided through truncation (`tube.truncate_rep`).  Sheaf-window ambients
live in stabcat.sheaves.
"""

from __future__ import annotations

from math import gcd

from . import tube
from .intervals import (all_intervals, chain_splits_interval, hom_nonzero_interval,
                        middle_terms_interval, parse_interval)
from .tube import TubeIndec, parse_tube, truncate_rep

FAMILY_INSTANCES = 3


def length_spreads(total: int, rows) -> list:
    """Ways to spread `total` over `rows`, one per key, each a list of
    (length, item) pairs ascending in length: each key takes no length or
    one pair.  Each way is a tuple of (item, length) for the keys given a
    length; the key absent comes first, then its lengths ascending."""
    if not rows:
        return [()] if total == 0 else []
    out = length_spreads(total, rows[1:])
    for k, item in rows[0]:
        if k > total:
            break
        out.extend(((item, k),) + tail for tail in length_spreads(total - k, rows[1:]))
    return out


def class_spreads(total: int, slots) -> list:
    """The spreads of `total` seen up to length classes: `slots` is
    a sequence of option tuples, one per key, each option (item, lo, step)
    standing for the lengths lo, lo + step, lo + 2 step, ... (step 0: lo
    alone).  Each key takes no option or one; a choice is kept when its
    lengths can sum to `total`: its lo's sum to at most `total` and the rest
    is a multiple of the gcd of its steps, which is exact as every step is
    0, 1 or 2.  Each kept choice is the tuple of its items."""
    out = []

    def walk(k: int, left: int, step: int, chosen: tuple) -> None:
        if k == len(slots):
            if left == 0 or (step and left % step == 0):
                out.append(chosen)
            return
        walk(k + 1, left, step, chosen)
        for item, lo, st in slots[k]:
            if lo <= left:
                walk(k + 1, left - lo, gcd(step, st), chosen + (item,))

    walk(0, total, 0, ())
    return out


def degree_pairs(lo: int, hi: int) -> list:
    """The pairs (c, lo + hi - c) with lo < c <= lo + hi - c < hi, ascending in
    c: the middle-term degrees of a line family's non-split extensions."""
    return [(c, lo + hi - c) for c in range(lo + 1, (lo + hi) // 2 + 1)]


class AmbientError(ValueError):
    pass


class WindowError(AmbientError):
    """A requested construction does not fit the configured window."""


class SizeLimitError(AmbientError):
    """An ambient spec asks for more carrier members than any command accepts."""


def sample_points(names: tuple, count: int) -> tuple:
    """The first `count` of a model's sample points; AmbientError unless
    0 <= count <= len(names)."""
    if not 0 <= count <= len(names):
        raise AmbientError(f"the point count must lie in 0..{len(names)}, got {count}")
    return names[:count]


def positive(descriptor: str, digits: str) -> int:
    """A length or index read from `descriptor`; AmbientError below 1."""
    value = int(digits)
    if value < 1:
        raise AmbientError(f"length or index {value} is below 1 in {descriptor!r}")
    return value


class Ambient:
    """Interface shared by all finite models: `name` is the model's spec
    string and the carrier is kept sorted by `str`."""

    def __init__(self, name: str, members):
        self.name = name
        self._carrier = tuple(sorted(members, key=str))

    def carrier(self) -> tuple:
        return self._carrier

    def reported_members(self) -> tuple:
        """Carrier members inside the reported window (everything, unless the
        model keeps internal margin objects for boundary subobjects)."""
        return self.carrier()

    def hom_nonzero(self, x, y) -> bool:
        raise NotImplementedError

    def _instances(self, x) -> list:
        """Actual objects the carrier member x stands for: FAMILY_INSTANCES
        members of a periodic family, else x alone."""
        return [x]

    def _middles_actual(self, a, b):
        """Middle-term multisets of non-split 0 -> a -> E -> b -> 0 between
        actual objects."""
        raise NotImplementedError

    def _in_carrier(self, x) -> bool:
        """Whether an embedded object lies in the carrier."""
        return True

    def embedded_middles(self, a, b):
        """Each middle-term multiset of a and b over all their instances, as
        a list of carrier members; multisets leaving the carrier are dropped,
        and one may come more than once."""
        embed, keep = self.embed, self._in_carrier
        b_instances = self._instances(b)
        for ai in self._instances(a):
            for bi in b_instances:
                for ms in self._middles_actual(ai, bi):
                    emb = [embed(c) for c in ms]
                    if all(map(keep, emb)):
                        yield emb

    def middle_terms(self, a, b) -> frozenset:
        """The distinct `embedded_middles` of a and b, each sorted by `str`."""
        return frozenset(tuple(sorted(ms, key=str)) for ms in self.embedded_middles(a, b))

    def families(self) -> tuple:
        """Carrier members grouped into families, each listed in degree
        order, for `middle_ranges`; empty for a model without them."""
        return ()

    def middle_ranges(self, a, b):
        """The union of the components of every `embedded_middles` of a and b
        as ranges (f, lo, hi, step) of `families`: family f's members at
        positions lo, lo + step, ..., hi, counted from 1, with step 1 or 2
        and hi - lo a multiple of step; a range with lo > hi is empty.  None
        where the model has no closed form for the pair."""
        return None

    def decompositions(self, x) -> tuple:
        """Proper (subobject multiset, quotient multiset) pairs of the
        extended-space object x, complete within the model, for every object
        without `spread_splits`."""
        raise NotImplementedError

    def owning_phase(self, quots, owner) -> int:
        """The one phase index owning every member of `quots` (embedded), or
        -1; `owner` maps a carrier member to its phase index."""
        embed = self.embed
        p = -1
        for q in quots:
            o = owner.get(embed(q), -1)
            if o < 0 or (p >= 0 and o != p):
                return -1
            p = o
        return p

    def phase_quotients(self, x, owner, top_of):
        """The decompositions of x an HN step can use, as (subs, quots, p).

        `owner` maps a carrier member to the index of the lowest phase whose
        piece holds it.  Each quotient lies entirely in the one phase p
        (through `embed`), and p < top_of(subs), the index of the highest
        phase a chain of the sub multiset ends in (-1 when it has none).
        Every sub yielded has been passed to `top_of` first.

        A member with `spread_splits` gets its quotients generated from
        them: per phase, the options whose class member the phase owns,
        walked through their actual lengths (`length_spreads`) and turned
        into summands by `lengthen`.  Every other object filters
        `decompositions(x)`, testing the quotient's phase before `top_of`
        recurses into the sub.
        """
        splits = self.spread_splits(x)
        if splits is None:
            for subs, quots in self.decompositions(x):
                p = self.owning_phase(quots, owner)
                if p >= 0 and p < top_of(subs):
                    yield subs, quots, p
            return
        slots, pairs = splits
        reach = max((total for _, total in pairs), default=0)
        rows = {}
        for k, slot in enumerate(slots):
            for item, lo, step in slot:
                p = owner.get(item, -1)
                if p >= 0:
                    lengths = range(lo, reach + 1, step) if step else (lo,)
                    rows.setdefault(p, {}).setdefault(k, []).extend((c, item) for c in lengths)
        tables = [(p, [sorted(row) for row in rows[p].values()]) for p in sorted(rows)]
        lengthen = self.lengthen
        for subs, total in pairs:
            top = top_of(subs)
            for p, table in tables:
                if p >= top:
                    break
                for spread in length_spreads(total, table):
                    yield subs, tuple(lengthen(item, c) for item, c in spread), p

    def hn_scope(self) -> tuple:
        """Extended-space objects whose HN filtration validation must find."""
        return self.carrier()

    def embed(self, x):
        """Extended-space object -> carrier member (identity by default)."""
        return x

    def carrier_decompositions(self, x) -> tuple:
        """(sub, quotient) pairs of the instances of x, in carrier space,
        each once, for every member without `spread_splits`."""
        embed = self.embed
        seen = {}
        for inst in self._instances(x):
            for subs, quots in self.decompositions(inst):
                seen[(tuple(map(embed, subs)), tuple(map(embed, quots)))] = None
        return tuple(seen)

    def spread_splits(self, x):
        """For a member whose decompositions are a line sub with a torsion
        quotient spread over length classes: (slots, pairs), the slots shared
        by every sub and one (subs, total) pair per sub.  The quotient
        supports of a sub are `class_spreads(total, slots)`, with carrier
        members as the items, and its actual quotients the `length_spreads`
        of those classes, each summand `lengthen(item, length)`.  This is the
        only description of those quotients.  None for every other member,
        whose pairs `decompositions` and `carrier_decompositions` give."""
        return None

    def lengthen(self, item, length: int):
        """The actual summand of length class `item` that contributes
        `length` to a `spread_splits` total."""
        raise NotImplementedError

    def tau(self, x):
        return None

    def tau_order(self) -> int:
        return 1

    def parse(self, s: str):
        raise NotImplementedError

    def spec_string(self) -> str:
        return self.name


class TubeAmbient(Ambient):
    """The rank-n tube.  Carrier members are the segments of length 1..2n;
    one of length above n stands for its periodic family, and `embed`
    truncates any segment to the member standing for it."""

    def __init__(self, n: int):
        if n < 1:
            raise AmbientError("tube rank must be >= 1")
        self.n = n
        super().__init__(f"tube:{n}", (TubeIndec(n, j, t)
                                       for j in range(n) for t in range(1, 2 * n + 1)))

    def hom_nonzero(self, x, y) -> bool:
        return tube.hom_nonzero(x, y)

    def _instances(self, x) -> list:
        return [TubeIndec(self.n, x.j, t) for t in tube.family(x.t, self.n, FAMILY_INSTANCES)]

    def _middles_actual(self, a, b):
        return tube.middle_terms(a, b)

    def hn_scope(self) -> tuple:
        return tuple(TubeIndec(self.n, j, t)
                     for t in range(1, 3 * self.n + 1) for j in range(self.n))

    def embed(self, x):
        return truncate_rep(x)

    def decompositions(self, x) -> tuple:
        return tuple(((s,), (q,)) for s, q in tube.chain_splits(x))

    def tau(self, x):
        return tube.tau(x)

    def tau_order(self) -> int:
        return self.n

    def parse(self, s: str):
        return truncate_rep(parse_tube(s, self.n))


class IntervalAmbient(Ambient):
    """mod-A_n for the linear orientation, as interval modules."""

    def __init__(self, n: int):
        if n < 1:
            raise AmbientError("quiver size must be >= 1")
        self.n = n
        super().__init__(f"an:{n}", all_intervals(n))

    def hom_nonzero(self, x, y) -> bool:
        return hom_nonzero_interval(x, y)

    def _middles_actual(self, a, b):
        return middle_terms_interval(a, b)

    def decompositions(self, x) -> tuple:
        return tuple(((s,), (q,)) for s, q in chain_splits_interval(x))

    def parse(self, s: str):
        return parse_interval(s, self.n)
