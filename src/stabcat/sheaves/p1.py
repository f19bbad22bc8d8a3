"""Windowed model of coherent sheaves on the projective line.

Line bundles O(n) for n in a degree window, plus rank-one torsion tubes at a
finite point sample.  Hom rules: deg-monotone between line bundles, always
nonzero from a line bundle into torsion, never back, tubes at distinct
points orthogonal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .. import tube
from ..ambient import (FAMILY_INSTANCES, Ambient, AmbientError, WindowError, degree_pairs,
                       one_phase_quotients, positive, sample_points)
from ..phases import ExplicitOrder, Phase
from ..stability import StabilityData
from ..torsion import TorsionPair

DEFAULT_POINTS = ("0", "1", "lam", "mu", "nu", "xi")


@dataclass(frozen=True, order=True)
class P1Line:
    n: int

    def __str__(self):
        return f"O({self.n})"


@dataclass(frozen=True, order=True)
class P1Tor:
    x: str
    t: int

    def __str__(self):
        return f"S[{self.x}]^({self.t})"


_LINE_RE = re.compile(r"^O\((-?\d+)\)$")
_TOR_RE = re.compile(r"^S\[([^\]]+)\]\^\((\d+)\)$")


def point_phase(x: str) -> Phase:
    return Phase.parse(f"(inf|{x})")


class P1Ambient(Ambient):
    def __init__(self, lo: int, hi: int, n_points: int = 3):
        if lo > hi:
            raise AmbientError("empty degree window")
        self.lo, self.hi = lo, hi
        self.points = sample_points(DEFAULT_POINTS, n_points)
        self._lines = tuple(P1Line(n) for n in range(lo, hi + 1))
        carrier = list(self._lines)
        carrier += [P1Tor(x, t) for x in self.points for t in (1, 2)]
        super().__init__(f"p1:window={lo}..{hi}:points={n_points}", carrier)

    def embed(self, d):
        if isinstance(d, P1Tor) and d.t > 2:
            return P1Tor(d.x, 2)
        return d

    def _instances(self, d) -> list:
        if isinstance(d, P1Tor):
            return [P1Tor(d.x, t) for t in tube.family(d.t, 1, FAMILY_INSTANCES)]
        return [d]

    def hom_nonzero(self, a, b) -> bool:
        if isinstance(a, P1Line):
            if isinstance(b, P1Line):
                return a.n <= b.n
            return True
        if isinstance(b, P1Line):
            return False
        return a.x == b.x

    def _in_carrier(self, d) -> bool:
        if isinstance(d, P1Line):
            return self.lo <= d.n <= self.hi
        return True

    def families(self) -> tuple:
        return (self._lines,)

    def middle_ranges(self, a, b):
        """Between O(a) and O(b), every line of degree a+1..b-1."""
        if type(a) is P1Line and type(b) is P1Line:
            return ((0, a.n - self.lo + 2, b.n - self.lo, 1),)
        return None

    def _middles_actual(self, a, b):
        out = []
        if isinstance(a, P1Line) and isinstance(b, P1Line):
            # 0 -> O(a) -> O(c) + O(d) -> O(b) -> 0 for a < c <= d < b
            out.extend((P1Line(c), P1Line(d)) for c, d in degree_pairs(a.n, b.n))
        elif isinstance(a, P1Line) and isinstance(b, P1Tor):
            # the line absorbs the bottom length s of the torsion quotient
            for s in range(1, b.t + 1):
                line = P1Line(a.n + s)
                if s == b.t:
                    out.append((line,))
                else:
                    out.append((line, P1Tor(b.x, b.t - s)))
        elif isinstance(a, P1Tor) and isinstance(b, P1Tor) and a.x == b.x:
            out.extend(tuple(P1Tor(a.x, t) for t in lens)
                       for lens in tube.homogeneous_middle_lengths(a.t, b.t))
        return out

    def decompositions(self, d) -> tuple:
        if isinstance(d, P1Tor):
            return tuple(((P1Tor(d.x, r),), (P1Tor(d.x, q),))
                         for r, q in tube.homogeneous_chain_splits(d.t))
        return one_phase_quotients(self, d)

    def spread_splits(self, d):
        """A line bundle's quotient by O(m) spreads the gap over the points,
        each summand of length 1 or at least 2 (S_x^(1) or S_x^(2))."""
        if not isinstance(d, P1Line):
            return None
        slots = tuple(((P1Tor(x, 1), 1, 0), (P1Tor(x, 2), 2, 1)) for x in self.points)
        return slots, [((sub,), d.n - sub.n) for sub in self._lines[:max(0, d.n - self.lo)]]

    def lengthen(self, item, length: int):
        return P1Tor(item.x, length)

    def hn_scope(self) -> tuple:
        out = list(self._lines)
        out += [P1Tor(x, t) for x in self.points for t in (1, 2, 3)]
        return tuple(out)

    def parse(self, s: str):
        s = s.strip()
        m = _LINE_RE.match(s)
        if m:
            n = int(m.group(1))
            if not self.lo <= n <= self.hi:
                raise WindowError(f"O({n}) lies outside the window {self.lo}..{self.hi}")
            return P1Line(n)
        m = _TOR_RE.match(s)
        if m:
            x, t = m.group(1), positive(s, m.group(2))
            if x not in self.points:
                raise AmbientError(f"unknown sample point {x!r}")
            return self.embed(P1Tor(x, t))
        raise AmbientError(f"cannot parse sheaf descriptor {s!r}")

    def tube_members(self, x: str) -> frozenset:
        return frozenset({P1Tor(x, 1), P1Tor(x, 2)})


def finest_p1(amb: P1Ambient, point_order=None) -> StabilityData:
    """The finest datum: one phase per line bundle in degree order, then one
    phase per point tube in the requested order."""
    points = list(point_order) if point_order is not None else list(amb.points)
    if sorted(points) != sorted(amb.points):
        raise AmbientError("point order must permute the sample points")
    phases = [Phase.integer(n) for n in range(amb.lo, amb.hi + 1)]
    pieces = {Phase.integer(n): frozenset({P1Line(n)}) for n in range(amb.lo, amb.hi + 1)}
    for x in points:
        ph = point_phase(x)
        phases.append(ph)
        pieces[ph] = amb.tube_members(x)
    return StabilityData(ExplicitOrder(phases), pieces)


def slope_data_p1(amb: P1Ambient) -> StabilityData:
    """Slope stability data restricted to the window: integer slopes for line
    bundles, a single infinite phase holding every torsion sheaf."""
    phases = [Phase.integer(n) for n in range(amb.lo, amb.hi + 1)] + [Phase.infinity()]
    pieces = {Phase.integer(n): frozenset({P1Line(n)}) for n in range(amb.lo, amb.hi + 1)}
    pieces[Phase.infinity()] = frozenset(d for d in amb.carrier() if isinstance(d, P1Tor))
    return StabilityData(ExplicitOrder(phases), pieces)


def torsion_family_points(amb: P1Ambient, points) -> TorsionPair:
    """(<S_x : x in P>, <O(m), S_x : x not in P>) for nonempty P."""
    points = frozenset(points)
    if not points:
        raise AmbientError("the point family needs a nonempty point set")
    if not points <= set(amb.points):
        raise AmbientError(f"unknown points {sorted(points - set(amb.points))}")
    t = frozenset().union(*[amb.tube_members(x) for x in points])
    f = frozenset(amb.carrier()) - t
    return TorsionPair(t, f)


def torsion_family_degree(amb: P1Ambient, n: int) -> TorsionPair:
    """(<O(m) : m > n; all torsion>, <O(m) : m <= n>)."""
    if not (amb.lo <= n - 1 and n + 1 <= amb.hi):
        raise WindowError(f"window {amb.lo}..{amb.hi} too small for the degree-{n} family")
    t = frozenset(d for d in amb.carrier()
                  if isinstance(d, P1Tor) or d.n > n)
    f = frozenset(d for d in amb.carrier() if isinstance(d, P1Line) and d.n <= n)
    return TorsionPair(t, f)
