"""Combinatorics of the rank-n tube.

Indecomposables are cyclic segments S_j^(t): top simple index j in Z/nZ and
length t, with composition factor sequence (S_{j-t+1}, ..., S_j) read bottom
up.  Hom-nonvanishing and the fundamental non-split extensions are expressed on
these segments; the matrix oracle pins their correctness on small instances.
A carrier member of length above n stands for its periodic family
{S_j^(t + kn) : k >= 0}: `rho` picks the representative length in 1..2n and
`family` lists lengths of the family a member stands for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class TubeError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class TubeIndec:
    """The segment S_j^(t) in the rank-n tube (0 <= j < n, t >= 1)."""

    n: int
    j: int
    t: int

    def __post_init__(self):
        if self.n < 1 or not (0 <= self.j < self.n) or self.t < 1:
            raise TubeError(f"bad tube descriptor (n={self.n}, j={self.j}, t={self.t})")

    def __str__(self) -> str:
        return f"S{self.j}^({self.t})@{self.n}"


_TUBE_RE = re.compile(r"^S(\d+)\^\((\d+)\)(?:@(\d+))?$")


def parse_tube(s: str, n: int | None = None) -> TubeIndec:
    m = _TUBE_RE.match(s.strip())
    if not m:
        raise TubeError(f"cannot parse tube descriptor {s!r}")
    j, t, nn = int(m.group(1)), int(m.group(2)), m.group(3)
    if nn is None and n is None:
        raise TubeError(f"descriptor {s!r} carries no rank and none was supplied")
    rank = int(nn) if nn is not None else n
    if n is not None and rank != n:
        raise TubeError(f"descriptor {s!r} has rank {rank}, expected {n}")
    return TubeIndec(rank, j, t)


def _check_same_rank(x: TubeIndec, y: TubeIndec):
    if x.n != y.n:
        raise TubeError(f"rank mismatch: {x} vs {y}")


def soc(x: TubeIndec) -> int:
    return (x.j - x.t + 1) % x.n


def top(x: TubeIndec) -> int:
    return x.j


def comp_factor_set(x: TubeIndec) -> frozenset:
    if x.t >= x.n:
        return frozenset(range(x.n))
    return frozenset((x.j - k) % x.n for k in range(x.t))


def tau(x: TubeIndec, k: int = 1) -> TubeIndec:
    return TubeIndec(x.n, (x.j - k) % x.n, x.t)


def chain_splits(x: TubeIndec) -> list:
    """Proper (subobject, quotient) pairs along the subobject chain."""
    out = []
    for r in range(1, x.t):
        sub = TubeIndec(x.n, (x.j - x.t + r) % x.n, r)
        quot = TubeIndec(x.n, x.j, x.t - r)
        out.append((sub, quot))
    return out


def hom_nonzero(x: TubeIndec, y: TubeIndec) -> bool:
    """Hom(X, Y) != 0 iff top(X) is a factor of Y and soc(Y) a factor of X."""
    _check_same_rank(x, y)
    return top(x) in comp_factor_set(y) and soc(y) in comp_factor_set(x)


def middle_terms(a: TubeIndec, b: TubeIndec) -> frozenset:
    """Isomorphism types of middle terms of non-split 0 -> A -> E -> B -> 0.

    Lift A to the integer segment [0, tA-1]; admissible positions for B are
    p ≡ (socpos(B) - socpos(A)) mod n.  p = tA stacks B on top of A, giving
    one indecomposable; 1 <= p <= tA-1 with B reaching above A's top gives
    the union/intersection pair.  Completeness is pinned by the matrix
    oracle, not argued here.
    """
    _check_same_rank(a, b)
    n = a.n
    delta = ((b.j - b.t) - (a.j - a.t)) % n
    out = set()
    if (a.t - delta) % n == 0:
        out.add((TubeIndec(n, b.j, a.t + b.t),))
    p = delta if delta != 0 else n
    while p <= a.t - 1:
        if p + b.t - 1 > a.t - 1:
            s = a.t - p
            pair = (TubeIndec(n, b.j, a.t + b.t - s), TubeIndec(n, a.j, s))
            out.add(tuple(sorted(pair, key=str)))
        p += n
    return frozenset(out)


def homogeneous_middle_lengths(a: int, b: int) -> list:
    """`middle_terms` in a rank-one tube, on lengths: the stacked a + b and
    the pairs (a + b - s, s) for 1 <= s < min(a, b)."""
    return [(a + b,)] + [(a + b - s, s) for s in range(1, min(a, b))]


def homogeneous_chain_splits(t: int) -> list:
    """`chain_splits` in a rank-one tube, on lengths: (r, t - r), 1 <= r < t."""
    return [(r, t - r) for r in range(1, t)]


def rho(t: int, n: int) -> int:
    """Representative length: identity below n, n + ((t-1) mod n) + 1 above."""
    if t <= n:
        return t
    return n + ((t - 1) % n) + 1


def family(t: int, n: int, count: int) -> list:
    """The lengths a member of length t (at most 2n) stands for: t alone
    when t <= n, else `count` lengths of its periodic family, stepping by n."""
    if t <= n:
        return [t]
    return [t + k * n for k in range(count)]


def truncate_rep(x: TubeIndec) -> TubeIndec:
    """The representative S_j^(rho(t)) of x's periodic family; x itself
    when its length is at most 2n."""
    rt = rho(x.t, x.n)
    return x if rt == x.t else TubeIndec(x.n, x.j, rt)
