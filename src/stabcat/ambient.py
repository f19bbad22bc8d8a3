"""Finite ambient models: the carrier of indecomposables together with the
hom / extension / subobject data every engine consumes.

The base class owns the extension sweep: a carrier member may stand for a
periodic family of actual objects (`_instances`), and `middle_terms` and
`carrier_decompositions` sweep those instances through the model's rules on
actual objects (`_middles_actual`, `decompositions`), embed the results in
the carrier and keep the ones inside it (`_in_carrier`).  A model supplies
those rules, not the sweep.  Neither is memoised: the carrier context
(`subcat.ctx_for`) reads each middle term once and keeps it as bitmasks,
and reads each member's decompositions once, on first use, as the (sub,
quotient) masks the torsion-pair check tests bits against.

The HN search asks `phase_quotients` only for the decompositions whose
quotient one phase owns, below the phases the sub's chains end in.  The
default filters `decompositions`; P^1 and X(2) generate a line bundle's
quotients only there (`slotted_spreads`) and read its `decompositions`
back through `one_phase_quotients`.

The base class also stores the spec-string name and the carrier, sorted by
`str`.  A tube carrier member is a plain segment of length 1..2n, one of
length above n standing for its periodic family (`tube.family`); validation
additionally walks actual segments of length up to 3n, membership being
decided through truncation (`tube.truncate_rep`).  Sheaf-window ambients
live in stabcat.sheaves.
"""

from __future__ import annotations

from . import tube
from .intervals import (all_intervals, chain_splits_interval, hom_nonzero_interval,
                        middle_terms_interval, parse_interval)
from .tube import TubeIndec, parse_tube, truncate_rep

FAMILY_INSTANCES = 3


def slotted_spreads(total: int, slots) -> list:
    """Ways to spread `total` over `slots`, a sequence of (key, lo, hi): each
    key takes 0 or a length in lo..hi (hi None: no upper bound).  Each way
    is a tuple of (key, length) for the keys given a nonzero length."""
    if not slots:
        return [()] if total == 0 else []
    (key, lo, hi), rest = slots[0], slots[1:]
    out = slotted_spreads(total, rest)
    for k in range(lo, (total if hi is None else min(hi, total)) + 1):
        out.extend(((key, k),) + tail for tail in slotted_spreads(total - k, rest))
    return out


def degree_pairs(lo: int, hi: int) -> list:
    """The pairs (c, lo + hi - c) with lo < c <= lo + hi - c < hi, ascending in
    c: the middle-term degrees of a line family's non-split extensions."""
    return [(c, lo + hi - c) for c in range(lo + 1, (lo + hi) // 2 + 1)]


def one_phase_quotients(ambient, x) -> tuple:
    """Every decomposition of x, read off `ambient.phase_quotients` with each
    carrier member owned by phase 0 and every sub topped by phase 1."""
    quotients = ambient.phase_quotients(x, dict.fromkeys(ambient.carrier(), 0), lambda subs: 1)
    return tuple((subs, quots) for subs, quots, _ in quotients)


def point_tube_slots(owners: dict) -> dict:
    """Per phase index, the length slots of the rank-one point tubes it owns.

    `owners` maps each point to (o1, o2), the phases owning S_x^(1) and
    S_x^(2); S_x^(2) stands for every length t >= 2, -1 for no phase.  A
    phase owning both takes any length at x, only S_x^(1) exactly 1, only
    S_x^(2) at least 2: slots (x, 1, None), (x, 1, 1), (x, 2, None).
    """
    out = {}
    for x, (o1, o2) in owners.items():
        for p in {o1, o2} - {-1}:
            slot = (x, 1, None) if o1 == o2 else (x, 1, 1) if p == o1 else (x, 2, None)
            out.setdefault(p, []).append(slot)
    return out


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

    def middle_terms(self, a, b) -> frozenset:
        """Middle-term multisets of a and b over all their instances, in
        carrier space; multisets leaving the carrier are dropped."""
        embed, keep = self.embed, self._in_carrier
        b_instances = self._instances(b)
        out = set()
        for ai in self._instances(a):
            for bi in b_instances:
                for ms in self._middles_actual(ai, bi):
                    emb = [embed(c) for c in ms]
                    if all(map(keep, emb)):
                        out.add(tuple(sorted(emb, key=str)))
        return frozenset(out)

    def decompositions(self, x) -> tuple:
        """Proper (subobject multiset, quotient multiset) pairs of the
        extended-space object x; complete within the model."""
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
        Every sub yielded has been passed to `top_of` first.  The default
        filters `decompositions(x)`, testing the quotient's phase before
        `top_of` recurses into the sub.  An override that generates them must
        not call `decompositions(x)`: that reads back `one_phase_quotients`.
        """
        for subs, quots in self.decompositions(x):
            p = self.owning_phase(quots, owner)
            if p >= 0 and p < top_of(subs):
                yield subs, quots, p

    def hn_scope(self) -> tuple:
        """Extended-space objects whose HN filtration validation must find."""
        return self.carrier()

    def embed(self, x):
        """Extended-space object -> carrier member (identity by default)."""
        return x

    def carrier_decompositions(self, x) -> tuple:
        """(sub, quotient) pairs of the instances of x, in carrier space,
        each once."""
        embed = self.embed
        seen = {}
        for inst in self._instances(x):
            for subs, quots in self.decompositions(inst):
                seen[(tuple(map(embed, subs)), tuple(map(embed, quots)))] = None
        return tuple(seen)

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
