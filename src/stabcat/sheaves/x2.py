"""Windowed model of coherent sheaves on the weighted projective line of
weight type (2): P^1's model (stabcat.sheaves.p1) with weight 2 plus one
exceptional point.

Line bundles O(l c + e x1) are indexed by the rank-one string group, totally
ordered by the degree dd = 2l + e.  The torsion part has one rank-two
exceptional tube with simples S[1,0], S[1,1] and rank-one ordinary tubes at
the sample points, whose simples have degree 2.  Everything else is P^1's,
read with that weight and one margin column of line bundles: the line and
ordinary-point rules, the validation scope, the parser and the slope
datum.  This module adds only the exceptional tube and the descriptors
O(lc+ex1) and S[1,j]^(t).  The quotient of O(x) by a line subsheaf splits
into at most one torsion sheaf per point; at the exceptional point its top
parity equals dd(x) mod 2 (the multiplication-by-X1 chain), which is the
only subtlety the exceptional Hom and extension rules carry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .. import tube
from ..ambient import FAMILY_INSTANCES, AmbientError, WindowError, positive
from ..phases import ExplicitOrder, Phase
from ..stability import StabilityData
from ..torsion import TorsionPair
from .p1 import P1Ambient, slope_data_p1

X2_POINTS = ("0", "1", "lam")


@dataclass(frozen=True, order=True)
class X2Line:
    l: int
    e: int
    # the degree 2l + e, kept once: the hot paths read it on every call
    dd: int = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self):
        if self.e not in (0, 1):
            raise AmbientError("line bundle x1-coefficient must be 0 or 1")
        object.__setattr__(self, "dd", 2 * self.l + self.e)

    def __str__(self):
        return f"O({self.l}c+{self.e}x1)"


@dataclass(frozen=True, order=True)
class X2Exc:
    j: int
    t: int

    def __str__(self):
        return f"S[1,{self.j}]^({self.t})"


@dataclass(frozen=True, order=True)
class X2Ord:
    x: str
    t: int

    def __str__(self):
        return f"S[{self.x}]^({self.t})"


def line_of_dd(dd: int) -> X2Line:
    return X2Line(dd // 2, dd % 2)


def _exc_tube(d: X2Exc) -> tube.TubeIndec:
    return tube.TubeIndec(2, d.j, d.t)


def _exc_back(t: tube.TubeIndec) -> X2Exc:
    return X2Exc(t.j, t.t)


_EXC_RE = re.compile(r"^S\[1,([01])\]\^\((\d+)\)$")


def exc_phase(which: str) -> Phase:
    return Phase.parse({"lo": "(inf|0)", "mid": "(inf|1/2)", "hi": "(inf|1)"}[which])


def point_phase(x: str) -> Phase:
    return Phase.parse(f"(inf|pt:{x})")


class X2Ambient(P1Ambient):
    """P^1's model with weight 2 and one margin column, plus the exceptional
    tube: each method answers the exceptional-tube cases and hands every
    other case to P1Ambient, and `parse` adds the descriptors S[1,j]^(t)."""

    KIND, POINTS, WEIGHT, MARGIN = "x2", X2_POINTS, 2, 1
    Line, Tor, line_of = X2Line, X2Ord, staticmethod(line_of_dd)
    # O(l), O(lc) and O(lc+ex1); a point's name holds no comma
    LINE_RE = re.compile(r"^O\((-?\d+)(?:c(?:\+(\d)x1)?)?\)$")
    POINT_RE = re.compile(r"^S\[([^\],]+)\]\^\((\d+)\)$")
    POINT_NOUN, WINDOW_NOUN = "ordinary point", "window"

    def embed(self, d):
        if isinstance(d, X2Exc):
            return X2Exc(d.j, tube.rho(d.t, 2)) if d.t > 4 else d
        return super().embed(d)

    def _instances(self, d) -> list:
        if isinstance(d, X2Exc):
            return [X2Exc(d.j, t) for t in tube.family(d.t, 2, FAMILY_INSTANCES)]
        return super()._instances(d)

    def hom_nonzero(self, a, b) -> bool:
        if isinstance(a, X2Exc) or isinstance(b, X2Exc):
            if isinstance(a, X2Line):
                # image of the torsionization of the line, top parity dd mod 2
                return b.t >= 2 or b.j == a.dd % 2
            return type(a) is type(b) and tube.hom_nonzero(_exc_tube(a), _exc_tube(b))
        return super().hom_nonzero(a, b)

    def _middles_actual(self, a, b):
        if not isinstance(b, X2Exc):
            return super()._middles_actual(a, b)
        if isinstance(a, X2Exc):
            return [tuple(map(_exc_back, ms))
                    for ms in tube.middle_terms(_exc_tube(a), _exc_tube(b))]
        out = []
        if isinstance(a, X2Line):
            for r in range(b.t):
                if (a.dd + b.t - b.j - r) % 2 == 0:
                    line = line_of_dd(a.dd + (b.t - r))
                    out.append((line, X2Exc((b.j - b.t + r) % 2, r)) if r else (line,))
        return out

    def decompositions(self, d) -> tuple:
        if isinstance(d, X2Exc):
            return tuple(((_exc_back(s),), (_exc_back(q),))
                         for s, q in tube.chain_splits(_exc_tube(d)))
        return super().decompositions(d)

    def spread_splits(self, d):
        """P^1's spread of a line bundle's quotient, with weight 2, behind at
        most one exceptional summand of top parity dd mod 2 and length 1, 2,
        odd >= 3 or even >= 4 (embedded S^(1)..S^(4))."""
        splits = super().spread_splits(d)
        if splits is None:
            return None
        slots, pairs = splits
        exc = tuple((X2Exc(d.dd % 2, t), t, 0 if t < 3 else 2) for t in (1, 2, 3, 4))
        return (exc,) + slots, pairs

    def lengthen(self, item, length: int):
        if isinstance(item, X2Exc):
            return X2Exc(item.j, length)
        return super().lengthen(item, length)

    def exc_tube(self, periods: int) -> tuple:
        return tuple(X2Exc(j, t) for j in (0, 1) for t in range(1, 2 * periods + 1))

    def parse(self, s: str):
        s = s.strip()
        m = _EXC_RE.match(s)
        if m:
            return self.embed(X2Exc(int(m.group(1)), positive(s, m.group(2))))
        return super().parse(s)


FAMILIES = ("full", "coset", "lm")


def _exc_pieces(anchor: int):
    """Pieces at the three exceptional phases; `anchor` is the parity whose
    simple takes the lowest phase (anchor = 0 is the normalized choice)."""
    other = 1 - anchor
    return {
        "lo": frozenset({X2Exc(anchor, 1)}),
        "mid": frozenset({X2Exc(other, 2), X2Exc(other, 4)}),
        "hi": frozenset({X2Exc(other, 1)}),
    }


EXC_LO, EXC_MID, EXC_HI = "exc_lo", "exc_mid", "exc_hi"


def _xtilde_tokens(amb, xtilde_order, lo_among_lines: bool):
    """Normalize the ordering tokens of the torsion phase block: the three
    exceptional markers in their forced order, points anywhere.  When the
    low exceptional phase sits among the line-bundle phases it must come
    first and is peeled off."""
    default = [EXC_LO, EXC_MID, EXC_HI] + list(amb.points)
    tokens = list(xtilde_order) if xtilde_order is not None else default
    if sorted(tokens) != sorted(default):
        raise AmbientError("xtilde order must contain each exceptional marker and point once")
    exc_positions = [tokens.index(t) for t in (EXC_LO, EXC_MID, EXC_HI)]
    if exc_positions != sorted(exc_positions):
        raise AmbientError("exceptional phases must stay in the order lo < mid < hi")
    if lo_among_lines:
        if tokens[0] != EXC_LO:
            raise AmbientError("with the low exceptional phase among the line bundles, "
                               "it must come first in the xtilde order")
        tokens = tokens[1:]
    return tokens


def finest_x2(amb: X2Ambient, family: str, m: int | None = None,
              xtilde_order=None, anchor: int = 0) -> StabilityData:
    """The three finest families: all line bundles semistable ("full"), only
    the x1-coset semistable ("coset"), or the coset plus an initial segment
    of the c-coset ("lm", cut parameter m).

    `anchor` picks which exceptional simple carries the lowest torsion phase
    (the degree-shift normalization fixes anchor = 0); `xtilde_order`
    interleaves the point tubes with the exceptional phases.
    """
    if family not in FAMILIES:
        raise AmbientError(f"unknown finest family {family!r}; pick one of {FAMILIES}")
    if anchor not in (0, 1):
        raise AmbientError(f"the anchor must be the parity 0 or 1, got {anchor!r}")
    exc = _exc_pieces(anchor)
    other = 1 - anchor

    def line_semistable(line: X2Line) -> bool:
        if family == "full":
            return True
        if line.dd % 2 == other:
            return True
        if family == "lm":
            return line.dd <= 2 * (m - 1) + anchor
        return False

    if family == "lm":
        if m is None:
            raise AmbientError("the lm family needs its cut parameter m")
        if not (amb.lo <= m <= amb.hi + 1):
            raise WindowError(f"cut parameter {m} outside window {amb.lo}..{amb.hi}")

    tokens = _xtilde_tokens(amb, xtilde_order, lo_among_lines=family in ("coset", "lm"))
    lines = [ln for ln in amb.internal_lines() if line_semistable(ln)]
    lines.sort(key=lambda ln: ln.dd)
    phases = []
    pieces = {}
    lo_phase = exc_phase("lo")
    if family == "coset":
        phases.append(lo_phase)
        pieces[lo_phase] = exc["lo"]
    for ln in lines:
        ph = Phase.integer(ln.dd)
        phases.append(ph)
        pieces[ph] = frozenset({ln})
        if family == "lm" and ln.dd == 2 * (m - 1) + anchor:
            phases.append(lo_phase)
            pieces[lo_phase] = exc["lo"]
    for token in tokens:
        if token == EXC_LO:
            ph, piece = lo_phase, exc["lo"]
        elif token == EXC_MID:
            ph, piece = exc_phase("mid"), exc["mid"]
        elif token == EXC_HI:
            ph, piece = exc_phase("hi"), exc["hi"]
        else:
            ph, piece = point_phase(token), amb.tube_members(token)
        phases.append(ph)
        pieces[ph] = piece
    if lo_phase not in pieces:
        raise AmbientError(f"lm insertion line for m={m} is outside the internal window")
    return StabilityData(ExplicitOrder(phases), pieces)


slope_data_x2 = slope_data_p1


def x2_torsion_family(amb: X2Ambient, row: str, points=None, shift: int = 0) -> TorsionPair:
    """The six torsion-pair families; `points` is P (row I, may contain "inf"
    for the exceptional tube) or Q (rows II, III); `shift` twists rows IV-VI
    by a degree shift within the window."""
    from ..subcat import left_perp, right_perp

    carrier = frozenset(amb.carrier())
    row = row.upper()
    if row == "I":
        pts = frozenset(points if points is not None else ())
        if not pts:
            raise AmbientError("family I needs a nonempty point set")
        if not pts <= set(amb.points) | {"inf"}:
            raise AmbientError(f"unknown points {sorted(pts - set(amb.points) - {'inf'})}")
        t = frozenset()
        for x in pts:
            t |= amb.exc_tube_members() if x == "inf" else amb.tube_members(x)
        return TorsionPair(t, right_perp(amb, t))
    if row in ("II", "III"):
        pts = frozenset(points if points is not None else ())
        if not pts <= set(amb.points):
            raise AmbientError(f"unknown ordinary points {sorted(pts - set(amb.points))}")
        t = frozenset({X2Exc(1, 1)})
        if row == "III":
            t = frozenset(X2Exc(1, rt) for rt in (1, 2, 3, 4))
        for x in pts:
            t |= amb.tube_members(x)
        return TorsionPair(t, right_perp(amb, t))
    if row == "IV":
        t = frozenset(d for d in carrier
                      if not isinstance(d, X2Line) or d.dd >= 2 * shift)
        return TorsionPair(t, right_perp(amb, t))
    if row == "V":
        t = frozenset(d for d in carrier
                      if isinstance(d, X2Ord)
                      or (isinstance(d, X2Exc) and d.j == 1)
                      or (isinstance(d, X2Line) and d.dd % 2 == 1 and d.dd >= 2 * shift + 1))
        return TorsionPair(t, right_perp(amb, t))
    if row == "VI":
        f = frozenset({X2Exc(0, 1)})
        return TorsionPair(left_perp(amb, f), f)
    raise AmbientError(f"no torsion family named {row!r}")
