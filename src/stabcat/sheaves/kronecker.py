"""Windowed model of the Kronecker module category (two arrows 1 => 2).

Preprojectives P_k (dimension vector (k-1, k)), preinjectives I_k
((k, k-1)) and regular tubes R_x^(d) ((d, d)) at the sample points
{0, 1, inf}.  Hom rules are the standard component ones and are validated
against the matrix oracle; the subobject catalog is the canonical socle
sequence 0 -> S_2^b -> X -> S_1^a -> 0 plus the regular tube chains.
Extension middle terms are modeled inside the preprojective family, the
preinjective family, the tubes and the absorb chains P->R and R->I; mixed
preprojective-to-preinjective extensions are not modeled, so closure-based
enumeration is disabled for this ambient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .. import tube
from ..ambient import Ambient, AmbientError, WindowError, degree_pairs, positive, sample_points
from ..phases import ExplicitOrder, Phase
from ..stability import StabilityData
from ..torsion import TorsionPair

KRON_POINTS = ("0", "1", "inf")


@dataclass(frozen=True, order=True)
class KronP:
    k: int

    def __str__(self):
        return f"P_{self.k}"


@dataclass(frozen=True, order=True)
class KronI:
    k: int

    def __str__(self):
        return f"I_{self.k}"


@dataclass(frozen=True, order=True)
class KronR:
    x: str
    d: int

    def __str__(self):
        return f"R[{self.x}]^({self.d})"


def dim_vector(d):
    if isinstance(d, KronP):
        return (d.k - 1, d.k)
    if isinstance(d, KronI):
        return (d.k, d.k - 1)
    return (d.d, d.d)


def oracle_descriptor(d):
    if isinstance(d, KronP):
        return ("P", d.k)
    if isinstance(d, KronI):
        return ("I", d.k)
    return ("R", d.x, d.d)


_P_RE = re.compile(r"^P_(\d+)$")
_I_RE = re.compile(r"^I_(\d+)$")
_R_RE = re.compile(r"^R\[([^\]]+)\]\^\((\d+)\)$")


class KroneckerAmbient(Ambient):
    supports_enumeration = False

    def __init__(self, window: int = 6, n_points: int = 3):
        if window < 2:
            raise AmbientError("kronecker window must be >= 2")
        self.window = window
        self.points = sample_points(KRON_POINTS, n_points)
        self._tube_family = {x: 2 + i for i, x in enumerate(self.points)}
        carrier = [KronP(k) for k in range(1, window + 1)]
        carrier += [KronI(k) for k in range(1, window + 1)]
        carrier += [KronR(x, d) for x in self.points for d in range(1, window + 1)]
        super().__init__(f"kronecker:window={window}:points={n_points}", carrier)

    def hom_nonzero(self, a, b) -> bool:
        if isinstance(a, KronP):
            if isinstance(b, KronP):
                return a.k <= b.k
            if isinstance(b, KronR):
                return True
            return a.k + b.k >= 3
        if isinstance(a, KronR):
            if isinstance(b, KronP):
                return False
            if isinstance(b, KronR):
                return a.x == b.x
            return True
        if isinstance(b, KronI):
            return a.k >= b.k
        return False

    def _in_carrier(self, d) -> bool:
        if isinstance(d, KronR):
            return d.d <= self.window
        return d.k <= self.window

    def families(self) -> tuple:
        w = range(1, self.window + 1)
        return ((tuple(KronP(k) for k in w), tuple(KronI(k) for k in w))
                + tuple(tuple(KronR(x, d) for d in w) for x in self.points))

    def middle_ranges(self, a, b):
        """Every pair in closed form, on the families P (0), I (1) and R[x]
        (2 + the index of x), each by index or length: P_k, P_l give
        P_{k+1..l-1}; I_k, I_l give I_{l+1..k-1}; R[x]^(a), R[x]^(b) the
        lengths s and a+b-s (1 <= s < min(a, b)) and a+b inside the window;
        the absorb chains give `_absorbed`; every other pair gives nothing."""
        ta, tb = type(a), type(b)
        if ta is tb is KronP:
            return ((0, a.k + 1, b.k - 1, 1),)
        if ta is tb is KronI:
            return ((1, b.k + 1, a.k - 1, 1),)
        if ta is tb is KronR:
            if a.x != b.x:
                return ()
            f, lo, hi, w = self._tube_family[a.x], min(a.d, b.d), max(a.d, b.d), self.window
            return ((f, max(1, lo + hi - w), lo - 1, 1), (f, hi + 1, min(lo + hi, w), 1))
        if ta is KronP and tb is KronR:
            return self._absorbed(0, a.k, b)
        if ta is KronR and tb is KronI:
            return self._absorbed(1, b.k, a)
        return ()

    def _absorbed(self, f: int, k: int, r: KronR) -> tuple:
        """P_k, R[x]^(d) (f = 0) or R[x]^(d), I_k (f = 1): the P or I indices
        k+1..k+d and the regular lengths d-s with k+s in the window."""
        d, w = r.d, self.window
        return ((f, k + 1, min(k + d, w), 1),
                (self._tube_family[r.x], max(1, d - w + k), d - 1, 1))

    def _middles_actual(self, a, b):
        out = []
        if isinstance(a, KronP) and isinstance(b, KronP):
            out.extend((KronP(c), KronP(d)) for c, d in degree_pairs(a.k, b.k))
        elif isinstance(a, KronI) and isinstance(b, KronI):
            out.extend((KronI(c), KronI(d)) for c, d in degree_pairs(b.k, a.k))
        elif isinstance(a, KronP) and isinstance(b, KronR):
            for s in range(1, b.d + 1):
                p = KronP(a.k + s)
                out.append((p,) if s == b.d else (p, KronR(b.x, b.d - s)))
        elif isinstance(a, KronR) and isinstance(b, KronI):
            for s in range(1, a.d + 1):
                i = KronI(b.k + s)
                out.append((i,) if s == a.d else (i, KronR(a.x, a.d - s)))
        elif isinstance(a, KronR) and isinstance(b, KronR) and a.x == b.x:
            out.extend(tuple(KronR(a.x, d) for d in lens)
                       for lens in tube.homogeneous_middle_lengths(a.d, b.d))
        return out

    def decompositions(self, d) -> tuple:
        out = []
        m, n = dim_vector(d)
        if m >= 1 and n >= 1:
            out.append((tuple([KronP(1)] * n), tuple([KronI(1)] * m)))
        if isinstance(d, KronR):
            out.extend(((KronR(d.x, r),), (KronR(d.x, q),))
                       for r, q in tube.homogeneous_chain_splits(d.d))
        return tuple(out)

    def parse(self, s: str):
        s = s.strip()
        for regex, cls in ((_P_RE, KronP), (_I_RE, KronI)):
            m = regex.match(s)
            if m:
                return cls(self._in_window(s, positive(s, m.group(1))))
        m = _R_RE.match(s)
        if m:
            x, dd = m.group(1), positive(s, m.group(2))
            if x not in self.points:
                raise AmbientError(f"unknown kronecker point {x!r}")
            return KronR(x, self._in_window(s, dd))
        # accept the simple-module aliases from the A_2-style notation
        if s in ("S_1", "S1"):
            return KronI(1)
        if s in ("S_2", "S2"):
            return KronP(1)
        raise AmbientError(f"cannot parse kronecker descriptor {s!r}")

    def _in_window(self, s: str, k: int) -> int:
        """The index or length k read from `s`; WindowError above the window."""
        if k > self.window:
            raise WindowError(f"{s} lies outside the window 1..{self.window}")
        return k

    def tube_members(self, x: str) -> frozenset:
        return frozenset(KronR(x, d) for d in range(1, self.window + 1))


def preprojective_phase(k: int) -> Phase:
    return Phase.parse(f"(0|{k})")


def preinjective_phase(k: int) -> Phase:
    return Phase.parse(f"(1|{k})")


def point_phase(x: str) -> Phase:
    return Phase.parse(f"(inf|{x})")


def finest_kron_directing(amb: KroneckerAmbient) -> StabilityData:
    """Finest class with every indecomposable semistable:
    (0,1) < (0,2) < ... < points ... < (1,2) < (1,1)."""
    phases = [preprojective_phase(k) for k in range(1, amb.window + 1)]
    phases += [point_phase(x) for x in amb.points]
    phases += [preinjective_phase(k) for k in range(amb.window, 0, -1)]
    pieces = {preprojective_phase(k): frozenset({KronP(k)}) for k in range(1, amb.window + 1)}
    pieces.update({preinjective_phase(k): frozenset({KronI(k)}) for k in range(1, amb.window + 1)})
    pieces.update({point_phase(x): amb.tube_members(x) for x in amb.points})
    return StabilityData(ExplicitOrder(phases), pieces)


def finest_kron_two_phase(amb: KroneckerAmbient) -> StabilityData:
    """Finest class <S_1> < <S_2>: only the simples are semistable and the
    HN filtration of X with dimension vector (m, n) is S_2^n -> X -> S_1^m."""
    p1, p2 = Phase.integer(1), Phase.integer(2)
    return StabilityData(ExplicitOrder([p1, p2]),
                         {p1: frozenset({KronI(1)}), p2: frozenset({KronP(1)})})


def kron_torsion_family(amb: KroneckerAmbient, row: int, points=None, n: int = 1) -> TorsionPair:
    """The four torsion-pair families of the Kronecker classification."""
    carrier = frozenset(amb.carrier())
    if row == 1:
        pts = frozenset(points if points is not None else ())
        if not pts <= set(amb.points):
            raise AmbientError(f"unknown points {sorted(pts - set(amb.points))}")
        t = frozenset(d for d in carrier if isinstance(d, KronI))
        for x in pts:
            t |= amb.tube_members(x)
        return TorsionPair(t, carrier - t)
    if row == 2:
        if not 1 <= n < amb.window:
            raise WindowError(f"preinjective cutoff {n} outside window")
        t = frozenset(d for d in carrier if isinstance(d, KronI) and d.k <= n)
        return TorsionPair(t, carrier - t)
    if row == 3:
        if not 1 <= n < amb.window:
            raise WindowError(f"preprojective cutoff {n} outside window")
        f = frozenset(d for d in carrier if isinstance(d, KronP) and d.k <= n)
        return TorsionPair(carrier - f, f)
    if row == 4:
        return TorsionPair(frozenset({KronP(1)}), frozenset({KronI(1)}))
    raise AmbientError(f"no kronecker torsion family numbered {row}")
