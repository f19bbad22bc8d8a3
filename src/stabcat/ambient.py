"""Finite ambient models: the carrier of indecomposables together with the
hom / extension / subobject data every engine consumes.

The base class owns the extension sweep: a carrier member may stand for a
periodic family of actual objects (`_instances`), and `middle_terms` and
`carrier_decompositions` sweep those instances through the model's rules on
actual objects (`_middles_actual`, `decompositions`), embed the results in
the carrier and keep the ones inside it (`_in_carrier`).  A model supplies
those rules, not the sweep.

Tube carriers use segment representatives (lengths capped at 2n); validation
additionally walks actual segments of length up to 3n, membership being
decided through truncation.  Sheaf-window ambients live in stabcat.sheaves.
"""

from __future__ import annotations

from functools import wraps

from . import tube
from .intervals import (all_intervals, chain_splits_interval, hom_nonzero_interval,
                        middle_terms_interval, parse_interval)
from .tube import SegmentRep, TubeIndec, parse_tube, truncate_rep

FAMILY_INSTANCES = 3


def compositions(total: int, parts: int) -> list:
    """Tuples of `parts` non-negative integers summing to `total`, in
    lexicographic order: C(total + parts - 1, parts - 1) of them."""
    if parts <= 1:
        return [(total,)] if parts == 1 else ([()] if total == 0 else [])
    return [(first,) + rest for first in range(total + 1)
            for rest in compositions(total - first, parts - 1)]


def ambient_memo(method):
    """Memoise a method on its positional arguments in a dict stored on the
    instance, so the cache is freed with the ambient; `functools.lru_cache`
    on a method would key a class-level cache by `self` and keep every
    instance alive."""
    slot = f"_memo_{method.__name__}"

    @wraps(method)
    def memoised(self, *args):
        memo = self.__dict__.setdefault(slot, {})
        try:
            return memo[args]
        except KeyError:
            out = memo[args] = method(self, *args)
            return out

    return memoised


class AmbientError(ValueError):
    pass


class WindowError(AmbientError):
    """A requested construction does not fit the configured window."""


def positive(descriptor: str, digits: str) -> int:
    """A length or index read from `descriptor`; AmbientError below 1."""
    value = int(digits)
    if value < 1:
        raise AmbientError(f"length or index {value} is below 1 in {descriptor!r}")
    return value


class Ambient:
    """Interface shared by all finite models."""

    name = "ambient"

    def carrier(self) -> tuple:
        raise NotImplementedError

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

    @ambient_memo
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

    def hn_scope(self) -> tuple:
        """Extended-space objects whose HN filtration validation must find."""
        return self.carrier()

    def embed(self, x):
        """Extended-space object -> carrier member (identity by default)."""
        return x

    @ambient_memo
    def carrier_decompositions(self, x) -> tuple:
        """(sub, quotient) pairs of the instances of x, in carrier space,
        each once."""
        embed = self.embed
        seen = {}
        for inst in self._instances(x):
            for subs, quots in self.decompositions(inst):
                seen[(tuple(map(embed, subs)), tuple(map(embed, quots)))] = None
        return tuple(seen)

    def quotient_components(self, x) -> frozenset:
        return frozenset(q for _, quots in self.carrier_decompositions(x) for q in quots)

    def sub_components(self, x) -> frozenset:
        return frozenset(s for subs, _ in self.carrier_decompositions(x) for s in subs)

    def tau(self, x):
        return None

    def tau_order(self) -> int:
        return 1

    def parse(self, s: str):
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


class TubeAmbient(Ambient):
    """The rank-n tube on segment representatives."""

    def __init__(self, n: int):
        if n < 1:
            raise AmbientError("tube rank must be >= 1")
        self.n = n
        self.name = f"tube:{n}"
        self._carrier = tuple(sorted(
            (SegmentRep(n, j, rt) for j in range(n) for rt in range(1, 2 * n + 1)),
            key=str))

    def spec_string(self) -> str:
        return self.name

    def carrier(self) -> tuple:
        return self._carrier

    def _as_rep(self, x) -> SegmentRep:
        if isinstance(x, SegmentRep):
            return x
        if isinstance(x, TubeIndec):
            return truncate_rep(x)
        raise AmbientError(f"not a tube descriptor: {x!r}")

    def hom_nonzero(self, x, y) -> bool:
        # soc/top/factor set only depend on the representative
        a, b = self._as_rep(x), self._as_rep(y)
        return tube.hom_nonzero(TubeIndec(self.n, a.j, a.rt), TubeIndec(self.n, b.j, b.rt))

    def _instances(self, x) -> list:
        return self._as_rep(x).instances(FAMILY_INSTANCES)

    def _middles_actual(self, a, b):
        return tube.middle_terms(a, b)

    def hn_scope(self) -> tuple:
        return tuple(TubeIndec(self.n, j, t)
                     for t in range(1, 3 * self.n + 1) for j in range(self.n))

    def embed(self, x):
        if isinstance(x, SegmentRep):
            return x
        return truncate_rep(x)

    def decompositions(self, x) -> tuple:
        if isinstance(x, SegmentRep):
            x = x.instances(1)[0]
        return tuple(((s,), (q,)) for s, q in tube.chain_splits(x))

    def tau(self, x):
        if isinstance(x, SegmentRep):
            return tube.tau_rep(x)
        return tube.tau(x)

    def tau_order(self) -> int:
        return self.n

    def parse(self, s: str):
        t = parse_tube(s, self.n)
        if t.t <= 2 * self.n:
            return SegmentRep(self.n, t.j, t.t)
        return truncate_rep(t)


class IntervalAmbient(Ambient):
    """mod-A_n for the linear orientation, as interval modules."""

    def __init__(self, n: int):
        if n < 1:
            raise AmbientError("quiver size must be >= 1")
        self.n = n
        self.name = f"an:{n}"
        self._carrier = tuple(sorted(all_intervals(n), key=str))

    def spec_string(self) -> str:
        return self.name

    def carrier(self) -> tuple:
        return self._carrier

    def hom_nonzero(self, x, y) -> bool:
        return hom_nonzero_interval(x, y)

    def _middles_actual(self, a, b):
        return middle_terms_interval(a, b)

    def decompositions(self, x) -> tuple:
        return tuple(((s,), (q,)) for s, q in chain_splits_interval(x))

    def parse(self, s: str):
        return parse_interval(s, self.n)
