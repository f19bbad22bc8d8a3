"""Interval modules over the linearly oriented A_n quiver 1 -> 2 -> ... -> n.

M[a, b] has top S_a and socle S_b (1 <= a <= b <= n); its subobjects are the
M[y, b] and its quotients the M[a, x].  Projectives are the M[a, n],
injectives the M[1, b].
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class IntervalError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class IntervalModule:
    n: int
    a: int
    b: int

    def __post_init__(self):
        if not (1 <= self.a <= self.b <= self.n):
            raise IntervalError(f"bad interval [{self.a},{self.b}] for A_{self.n}")

    def __str__(self) -> str:
        return f"M[{self.a},{self.b}]@A{self.n}"

    @property
    def length(self) -> int:
        return self.b - self.a + 1


_INTERVAL_RE = re.compile(r"^M\[(\d+),(\d+)\](?:@A(\d+))?$")
_ALIAS_RE = re.compile(r"^([SPI])_?(\d+)(?:@A(\d+))?$")


def parse_interval(s: str, n: int | None = None) -> IntervalModule:
    s = s.strip()
    m = _INTERVAL_RE.match(s)
    if m:
        a, b, nn = int(m.group(1)), int(m.group(2)), m.group(3)
        rank = int(nn) if nn is not None else n
        if rank is None:
            raise IntervalError(f"descriptor {s!r} carries no quiver size and none was supplied")
        return IntervalModule(rank, a, b)
    m = _ALIAS_RE.match(s)
    if m:
        kind, i, nn = m.group(1), int(m.group(2)), m.group(3)
        rank = int(nn) if nn is not None else n
        if rank is None:
            raise IntervalError(f"alias {s!r} needs a quiver size")
        if kind == "S":
            return IntervalModule(rank, i, i)
        if kind == "P":
            return IntervalModule(rank, i, rank)
        return IntervalModule(rank, 1, i)
    raise IntervalError(f"cannot parse interval descriptor {s!r}")


def all_intervals(n: int) -> list:
    return [IntervalModule(n, a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def _check(x: IntervalModule, y: IntervalModule):
    if x.n != y.n:
        raise IntervalError(f"quiver size mismatch: {x} vs {y}")


def hom_nonzero_interval(x: IntervalModule, y: IntervalModule) -> bool:
    """Hom(M[a,b], M[c,d]) != 0 iff c <= a <= d <= b (image = M[a, d])."""
    _check(x, y)
    return y.a <= x.a <= y.b <= x.b


def middle_terms_interval(a: IntervalModule, b: IntervalModule) -> frozenset:
    """Non-split extensions 0 -> A -> E -> B -> 0 between intervals."""
    _check(a, b)
    if b.b + 1 == a.a:
        return frozenset({(IntervalModule(a.n, b.a, a.b),)})
    if b.a < a.a <= b.b < a.b:
        pair = (IntervalModule(a.n, b.a, a.b), IntervalModule(a.n, a.a, b.b))
        return frozenset({tuple(sorted(pair, key=str))})
    return frozenset()


def chain_splits_interval(x: IntervalModule) -> list:
    """Proper (subobject, quotient) pairs M[y,b] ⊂ M[a,b] with quotient M[a,y-1]."""
    out = []
    for y in range(x.a + 1, x.b + 1):
        out.append((IntervalModule(x.n, y, x.b), IntervalModule(x.n, x.a, y - 1)))
    return out


def embed_in_tube(x: IntervalModule):
    """Identify mod-A_{n-1} with the tube subcategory <S_1, ..., S_{n-1}> of
    the rank-(n+1)... rank-(x.n+1) tube: M[a,b] -> S_{n+1-a}^(b-a+1).

    With n = x.n the target tube has rank n+1 and the image avoids the
    simple S_0; Hom and middle terms are preserved (checked exhaustively).
    """
    from .tube import TubeIndec

    rank = x.n + 1
    return TubeIndec(rank, (rank - x.a) % rank, x.length)
