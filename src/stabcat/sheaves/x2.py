"""Windowed model of coherent sheaves on the weighted projective line of
weight type (2).

Line bundles O(l c + e x1) are indexed by the rank-one string group, totally
ordered by the degree dd = 2l + e.  The torsion part has one rank-two
exceptional tube with simples S[1,0], S[1,1] and rank-one ordinary tubes at
the sample points.  The quotient of O(x) by a line subsheaf splits into at
most one torsion sheaf per point; at the exceptional point its top parity
equals dd(x) mod 2 (the multiplication-by-X1 chain), which is the only
subtlety the Hom and extension rules carry.

The internal carrier keeps one extra line-bundle column below the reported
window so that boundary HN factors exist; validation quantifies over the
reported window only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .. import tube
from ..ambient import (FAMILY_INSTANCES, Ambient, AmbientError, WindowError, degree_pairs,
                       one_phase_quotients, point_tube_slots, positive, sample_points,
                       slotted_spreads)
from ..phases import ExplicitOrder, Phase
from ..stability import StabilityData
from ..torsion import TorsionPair

X2_POINTS = ("0", "1", "lam")
EXC_VALIDATION_LENGTH = 6
ORD_VALIDATION_LENGTH = 3


@dataclass(frozen=True, order=True)
class X2Line:
    l: int
    e: int

    def __post_init__(self):
        if self.e not in (0, 1):
            raise AmbientError("line bundle x1-coefficient must be 0 or 1")

    @property
    def dd(self) -> int:
        return 2 * self.l + self.e

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


_LINE_RE = re.compile(r"^O\((-?\d+)c(?:\+(\d)x1)?\)$")
_LINE_SHORT_RE = re.compile(r"^O\((-?\d+)\)$")
_EXC_RE = re.compile(r"^S\[1,([01])\]\^\((\d+)\)$")
_ORD_RE = re.compile(r"^S\[([^\],]+)\]\^\((\d+)\)$")


def exc_phase(which: str) -> Phase:
    return Phase.parse({"lo": "(inf|0)", "mid": "(inf|1/2)", "hi": "(inf|1)"}[which])


def point_phase(x: str) -> Phase:
    return Phase.parse(f"(inf|pt:{x})")


class X2Ambient(Ambient):
    def __init__(self, lo: int, hi: int, n_points: int = 3):
        if lo > hi:
            raise AmbientError("empty window")
        self.lo, self.hi = lo, hi
        self.inner_lo = lo - 1  # margin column for boundary HN factors
        self.points = sample_points(X2_POINTS, n_points)
        carrier = [X2Line(l, e) for l in range(self.inner_lo, hi + 1) for e in (0, 1)]
        carrier += [X2Exc(j, rt) for j in (0, 1) for rt in (1, 2, 3, 4)]
        carrier += [X2Ord(x, rt) for x in self.points for rt in (1, 2)]
        super().__init__(f"x2:window={lo}..{hi}:points={n_points}", carrier)

    def reported_members(self) -> tuple:
        return tuple(d for d in self._carrier
                     if not (isinstance(d, X2Line) and d.l < self.lo))

    def reported_lines(self) -> tuple:
        return tuple(X2Line(l, e) for l in range(self.lo, self.hi + 1) for e in (0, 1))

    def internal_lines(self) -> tuple:
        return tuple(X2Line(l, e) for l in range(self.inner_lo, self.hi + 1) for e in (0, 1))

    def embed(self, d):
        if isinstance(d, X2Exc) and d.t > 4:
            return X2Exc(d.j, tube.rho(d.t, 2))
        if isinstance(d, X2Ord) and d.t > 2:
            return X2Ord(d.x, 2)
        return d

    def _instances(self, d) -> list:
        if isinstance(d, X2Exc):
            return [X2Exc(d.j, t) for t in tube.family(d.t, 2, FAMILY_INSTANCES)]
        if isinstance(d, X2Ord):
            return [X2Ord(d.x, t) for t in tube.family(d.t, 1, FAMILY_INSTANCES)]
        return [d]

    def hom_nonzero(self, a, b) -> bool:
        if isinstance(a, X2Line):
            if isinstance(b, X2Line):
                return a.dd <= b.dd
            if isinstance(b, X2Exc):
                # image of the torsionization of the line, top parity dd mod 2
                return b.t >= 2 or b.j == a.dd % 2
            return True
        if isinstance(b, X2Line):
            return False
        if isinstance(a, X2Exc) and isinstance(b, X2Exc):
            return tube.hom_nonzero(_exc_tube(a), _exc_tube(b))
        if isinstance(a, X2Ord) and isinstance(b, X2Ord):
            return a.x == b.x
        return False

    def _in_carrier(self, d) -> bool:
        if isinstance(d, X2Line):
            return 2 * self.inner_lo <= d.dd <= 2 * self.hi + 1
        return True

    def _middles_actual(self, a, b):
        out = []
        if isinstance(a, X2Line) and isinstance(b, X2Line):
            # no coprime section pair exists when both degree gaps are odd
            out.extend((line_of_dd(dz), line_of_dd(dw)) for dz, dw in degree_pairs(a.dd, b.dd)
                       if not ((dz - a.dd) % 2 == 1 and (dw - a.dd) % 2 == 1))
        elif isinstance(a, X2Line) and isinstance(b, X2Exc):
            for r in range(b.t):
                if (a.dd + b.t - b.j - r) % 2 != 0:
                    continue
                line = line_of_dd(a.dd + (b.t - r))
                if r == 0:
                    out.append((line,))
                else:
                    out.append((line, X2Exc((b.j - b.t + r) % 2, r)))
        elif isinstance(a, X2Line) and isinstance(b, X2Ord):
            for r in range(b.t):
                line = line_of_dd(a.dd + 2 * (b.t - r))
                if r == 0:
                    out.append((line,))
                else:
                    out.append((line, X2Ord(b.x, r)))
        elif isinstance(a, X2Exc) and isinstance(b, X2Exc):
            for ms in tube.middle_terms(_exc_tube(a), _exc_tube(b)):
                out.append(tuple(_exc_back(c) for c in ms))
        elif isinstance(a, X2Ord) and isinstance(b, X2Ord) and a.x == b.x:
            out.extend(tuple(X2Ord(a.x, t) for t in lens)
                       for lens in tube.homogeneous_middle_lengths(a.t, b.t))
        return out

    def decompositions(self, d) -> tuple:
        if isinstance(d, X2Exc):
            return tuple(((_exc_back(s),), (_exc_back(q),))
                         for s, q in tube.chain_splits(_exc_tube(d)))
        if isinstance(d, X2Ord):
            return tuple(((X2Ord(d.x, r),), (X2Ord(d.x, q),))
                         for r, q in tube.homogeneous_chain_splits(d.t))
        return one_phase_quotients(self, d)

    def phase_quotients(self, d, owner, top_of):
        """For a line bundle, only the torsion spreads one phase below the
        sub's top owns.  The exceptional summand keeps the top parity
        dd mod 2 and takes the lengths whose embedding the phase owns; the
        ordinary points take their length slots (`point_tube_slots`)."""
        if not isinstance(d, X2Line):
            yield from super().phase_quotients(d, owner, top_of)
            return
        parity = d.dd % 2
        ords = point_tube_slots({x: (owner.get(X2Ord(x, 1), -1), owner.get(X2Ord(x, 2), -1))
                                 for x in self.points})
        exc = {}
        for t in range(1, d.dd - 2 * self.inner_lo + 1):
            p = owner.get(self.embed(X2Exc(parity, t)), -1)
            if p >= 0:
                exc.setdefault(p, []).append(t)
        phases = sorted(set(ords) | set(exc))
        for sub in self.internal_lines():
            if sub.dd >= d.dd:
                break
            gap, top = d.dd - sub.dd, top_of((sub,))
            for p in phases:
                if p >= top:
                    break
                for quot in self._spreads(gap, parity, exc.get(p, ()), ords.get(p, ())):
                    yield (sub,), quot, p

    def _spreads(self, gap: int, exc_parity: int, exc_lengths, ord_slots) -> list:
        """Quotients of a degree-`gap` embedding: at most one exceptional
        summand, of top parity `exc_parity` and a length in the ascending
        `exc_lengths`, plus ordinary torsion spread over `ord_slots`; each
        ordinary length counts twice towards the degree."""
        spreads = []
        for m_exc in [0, *exc_lengths]:
            rest = gap - m_exc
            if rest < 0:
                break
            if rest % 2:
                continue
            head = (X2Exc(exc_parity, m_exc),) if m_exc else ()
            for spread in slotted_spreads(rest // 2, ord_slots):
                if head or spread:
                    spreads.append(head + tuple(X2Ord(x, k) for x, k in spread))
        return spreads

    def hn_scope(self) -> tuple:
        out = list(self.reported_lines())
        out += [X2Exc(j, t) for j in (0, 1) for t in range(1, EXC_VALIDATION_LENGTH + 1)]
        out += [X2Ord(x, t) for x in self.points for t in range(1, ORD_VALIDATION_LENGTH + 1)]
        return tuple(out)

    def parse(self, s: str):
        s = s.strip()
        m = _LINE_RE.match(s)
        if m:
            line = X2Line(int(m.group(1)), int(m.group(2) or 0))
        else:
            m = _LINE_SHORT_RE.match(s)
            line = X2Line(int(m.group(1)), 0) if m else None
        if line is not None:
            if not self.inner_lo <= line.l <= self.hi:
                raise WindowError(f"{line} lies outside the window {self.lo}..{self.hi}")
            return line
        m = _EXC_RE.match(s)
        if m:
            return self.embed(X2Exc(int(m.group(1)), positive(s, m.group(2))))
        m = _ORD_RE.match(s)
        if m:
            x, t = m.group(1), positive(s, m.group(2))
            if x not in self.points:
                raise AmbientError(f"unknown ordinary point {x!r}")
            return self.embed(X2Ord(x, t))
        raise AmbientError(f"cannot parse sheaf descriptor {s!r}")

    def ord_tube_members(self, x: str) -> frozenset:
        return frozenset({X2Ord(x, 1), X2Ord(x, 2)})

    def exc_tube_members(self) -> frozenset:
        return frozenset(X2Exc(j, rt) for j in (0, 1) for rt in (1, 2, 3, 4))


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
    exc_positions = [tokens.index(t) for t in (EXC_LO, EXC_MID, EXC_HI)]
    if sorted(tokens) != sorted(default):
        raise AmbientError("xtilde order must contain each exceptional marker and point once")
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
            ph, piece = point_phase(token), amb.ord_tube_members(token)
        phases.append(ph)
        pieces[ph] = piece
    if lo_phase not in pieces:
        raise AmbientError(f"lm insertion line for m={m} is outside the internal window")
    return StabilityData(ExplicitOrder(phases), pieces)


def slope_data_x2(amb: X2Ambient) -> StabilityData:
    phases = [Phase.integer(ln.dd) for ln in amb.internal_lines()]
    phases.sort(key=lambda p: p.value)
    pieces = {Phase.integer(ln.dd): frozenset({ln}) for ln in amb.internal_lines()}
    inf = Phase.infinity()
    phases.append(inf)
    pieces[inf] = frozenset(d for d in amb.carrier() if not isinstance(d, X2Line))
    return StabilityData(ExplicitOrder(phases), pieces)


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
            t |= amb.exc_tube_members() if x == "inf" else amb.ord_tube_members(x)
        return TorsionPair(t, right_perp(amb, t))
    if row in ("II", "III"):
        pts = frozenset(points if points is not None else ())
        if not pts <= set(amb.points):
            raise AmbientError(f"unknown ordinary points {sorted(pts - set(amb.points))}")
        t = frozenset({X2Exc(1, 1)})
        if row == "III":
            t = frozenset(X2Exc(1, rt) for rt in (1, 2, 3, 4))
        for x in pts:
            t |= amb.ord_tube_members(x)
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
