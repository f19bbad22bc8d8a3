"""Windowed model of coherent sheaves on the projective line, the weighted
projective line of weight type ().

Line bundles O(n) for n in a degree window, plus rank-one torsion tubes at a
finite point sample.  Hom rules: deg-monotone between line bundles, always
nonzero from a line bundle into torsion, never back, tubes at distinct
points orthogonal.

Everything the weighted projective lines share is written once, here, for
a point whose simple has degree `WEIGHT` (1 on P^1): the line-family and
ordinary-point rules, the margin column, the validation scope, the parser
and the slope datum.  The model of X(2) (stabcat.sheaves.x2) is this one
with weight 2 plus its exceptional tube and that tube's descriptors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .. import tube
from ..ambient import (FAMILY_INSTANCES, Ambient, AmbientError, WindowError, degree_pairs,
                       positive, sample_points)
from ..phases import ExplicitOrder, Phase
from ..stability import StabilityData
from ..torsion import TorsionPair

DEFAULT_POINTS = ("0", "1", "lam", "mu", "nu", "xi")


@dataclass(frozen=True, order=True)
class P1Line:
    n: int
    # the degree under the name the weighted models share
    dd: int = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dd", self.n)

    def __str__(self):
        return f"O({self.n})"


@dataclass(frozen=True, order=True)
class P1Tor:
    x: str
    t: int

    def __str__(self):
        return f"S[{self.x}]^({self.t})"


def point_phase(x: str) -> Phase:
    return Phase.parse(f"(inf|{x})")


class P1Ambient(Ambient):
    """P^1 in a degree window, its rules written for any weight: they read
    the classes `Line` and `Tor`, a line bundle's degree `dd` and `WEIGHT`,
    the degree of a point's simple, so that X(2) subclasses this model.
    The carrier's lines start `MARGIN` columns below the window, room for
    boundary HN factors; validation quantifies over the reported window
    only.  `parse` reads a line bundle by `LINE_RE` (its groups are the
    arguments of `Line`) and a point-tube object by `POINT_RE`."""

    KIND, POINTS, WEIGHT, MARGIN = "p1", DEFAULT_POINTS, 1, 0
    Line, Tor, line_of = P1Line, P1Tor, staticmethod(P1Line)
    LINE_RE, POINT_RE = re.compile(r"^O\((-?\d+)\)$"), re.compile(r"^S\[([^\]]+)\]\^\((\d+)\)$")
    POINT_NOUN, WINDOW_NOUN = "sample point", "degree window"

    def __init__(self, lo: int, hi: int, n_points: int = 3):
        if lo > hi:
            raise AmbientError(f"empty {self.WINDOW_NOUN}")
        self.lo, self.hi = lo, hi
        self.inner_lo = lo - self.MARGIN
        self.points = sample_points(self.POINTS, n_points)
        w = self.WEIGHT
        self._dds = range(w * self.inner_lo, w * (hi + 1))  # the carrier's line degrees
        self._lines = tuple(map(self.line_of, self._dds))
        super().__init__(f"{self.KIND}:window={lo}..{hi}:points={n_points}",
                         self._lines + self.tubes(2))

    def reported_members(self) -> tuple:
        return tuple(d for d in self._carrier
                     if not (isinstance(d, self.Line) and d.dd < self.WEIGHT * self.lo))

    def reported_lines(self) -> tuple:
        """The line bundles of the reported window, in degree order."""
        return self._lines[self.WEIGHT * self.MARGIN:]

    def internal_lines(self) -> tuple:
        """The carrier's line bundles, margin included, in degree order."""
        return self._lines

    def tubes(self, periods: int) -> tuple:
        """The torsion objects of length up to `periods` times their tube's
        rank: the exceptional tubes' (`exc_tube`), then each point's.  The
        carrier holds two periods, the validation scope three."""
        return self.exc_tube(periods) + tuple(self.Tor(x, t) for x in self.points
                                              for t in range(1, periods + 1))

    def exc_tube(self, periods: int) -> tuple:
        """The exceptional tubes' objects of length up to `periods` times
        their rank, simple by simple: none on P^1."""
        return ()

    def exc_tube_members(self) -> frozenset:
        """The carrier members of the exceptional tubes."""
        return frozenset(self.exc_tube(2))

    def embed(self, d):
        if isinstance(d, self.Tor) and d.t > 2:
            return self.Tor(d.x, 2)
        return d

    def _instances(self, d) -> list:
        if isinstance(d, self.Tor):
            return [self.Tor(d.x, t) for t in tube.family(d.t, 1, FAMILY_INSTANCES)]
        return [d]

    def hom_nonzero(self, a, b) -> bool:
        line = self.Line
        if isinstance(a, line):
            return not isinstance(b, line) or a.dd <= b.dd
        return not isinstance(b, line) and a.x == b.x

    def _in_carrier(self, d) -> bool:
        return not isinstance(d, self.Line) or d.dd in self._dds

    def families(self) -> tuple:
        return (self._lines,)

    def middle_ranges(self, a, b):
        """Between line bundles of degrees dd(a) < dd(b): every line strictly
        between when the weight w does not divide the gap; when it does, the
        filter of `_middles_actual` leaves the lines at dd(a)+w, dd(a)+2w,
        ..., dd(b)-w.  Exact for the weights 1 and 2."""
        if type(a) is self.Line and type(b) is self.Line:
            base, w = self._dds.start - 1, self.WEIGHT
            lo, hi = a.dd - base, b.dd - base
            step = w if (hi - lo) % w == 0 else 1
            return ((0, lo + step, hi - step, step),)
        return None

    def _middles_actual(self, a, b):
        line, tor, line_of, w = self.Line, self.Tor, self.line_of, self.WEIGHT
        if isinstance(a, line) and isinstance(b, line):
            # 0 -> O(a) -> O(c) + O(d) -> O(b) -> 0 for a < c <= d < b; no
            # coprime section pair exists when w divides neither degree gap
            return [(line_of(c), line_of(d)) for c, d in degree_pairs(a.dd, b.dd)
                    if (c - a.dd) % w == 0 or (d - a.dd) % w == 0]
        if isinstance(a, line) and isinstance(b, tor):
            # the line absorbs the bottom length s of the torsion quotient
            return [(line_of(a.dd + w * s),) + ((tor(b.x, b.t - s),) if s < b.t else ())
                    for s in range(1, b.t + 1)]
        if isinstance(a, tor) and isinstance(b, tor) and a.x == b.x:
            return [tuple(tor(a.x, t) for t in lens)
                    for lens in tube.homogeneous_middle_lengths(a.t, b.t)]
        return []

    def decompositions(self, d) -> tuple:
        if isinstance(d, self.Line):
            raise AmbientError(f"{d} lists no decompositions: its quotients are its spread_splits")
        return tuple(((self.Tor(d.x, r),), (self.Tor(d.x, q),))
                     for r, q in tube.homogeneous_chain_splits(d.t))

    def spread_splits(self, d):
        """A line bundle's quotient by a line sub spreads the degree gap over
        the points, each summand of length 1 or at least 2 (S_x^(1) or
        S_x^(2)), each length counting w times."""
        if not isinstance(d, self.Line):
            return None
        w, tor = self.WEIGHT, self.Tor
        slots = tuple(((tor(x, 1), w, 0), (tor(x, 2), 2 * w, w)) for x in self.points)
        subs = self._lines[:max(0, d.dd - self._dds.start)]
        return slots, [((sub,), d.dd - sub.dd) for sub in subs]

    def lengthen(self, item, length: int):
        return self.Tor(item.x, length // self.WEIGHT)

    def hn_scope(self) -> tuple:
        return self.reported_lines() + self.tubes(3)

    def parse(self, s: str):
        s = s.strip()
        m = self.LINE_RE.match(s)
        if m:
            line = self.Line(*(int(g or 0) for g in m.groups()))
            if line.dd not in self._dds:
                raise WindowError(f"{line} lies outside the window {self.lo}..{self.hi}")
            return line
        m = self.POINT_RE.match(s)
        if m:
            x, t = m.group(1), positive(s, m.group(2))
            if x not in self.points:
                raise AmbientError(f"unknown {self.POINT_NOUN} {x!r}")
            return self.embed(self.Tor(x, t))
        raise AmbientError(f"cannot parse sheaf descriptor {s!r}")

    def tube_members(self, x: str) -> frozenset:
        return frozenset({self.Tor(x, 1), self.Tor(x, 2)})


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
    """Slope stability data on the carrier, for any weight: each line bundle
    its own phase at its degree dd, then one infinite phase holding every
    torsion sheaf."""
    lines = amb.internal_lines()
    phases = [Phase.integer(ln.dd) for ln in lines] + [Phase.infinity()]
    pieces = {Phase.integer(ln.dd): frozenset({ln}) for ln in lines}
    pieces[Phase.infinity()] = frozenset(d for d in amb.carrier() if not isinstance(d, amb.Line))
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
