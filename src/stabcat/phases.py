"""Phases and the explicit phase order.

Phases are structural values (labels, integers, exact fractions, infinity,
or nested pairs), never floats.  A stability datum orders its phases by an
explicit list: position decides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class OrderError(ValueError):
    pass


class DuplicateElementError(OrderError):
    pass


EXPLICIT_CARRIER_CAP = 10_000

_INT_RE = re.compile(r"^-?\d+$")
_FRAC_RE = re.compile(r"^(-?\d+)/(\d+)$")


@dataclass(frozen=True)
class Phase:
    """A single phase value; `kind` is one of label/int/frac/inf/pair."""

    kind: str
    value: object = None

    @staticmethod
    def label(s: str) -> "Phase":
        if not s or any(c in s for c in "|()") or not s.isprintable():
            raise OrderError(f"invalid phase label {s!r}")
        return Phase("label", s)

    @staticmethod
    def integer(n: int) -> "Phase":
        return Phase("int", int(n))

    @staticmethod
    def rational(num: int, den: int = 1) -> "Phase":
        return Phase("frac", Fraction(num, den))

    @staticmethod
    def infinity() -> "Phase":
        return Phase("inf")

    @staticmethod
    def pair(a: "Phase", b: "Phase") -> "Phase":
        return Phase("pair", (a, b))

    def encode(self) -> str:
        if self.kind == "label":
            return self.value
        if self.kind == "int":
            return str(self.value)
        if self.kind == "frac":
            f: Fraction = self.value
            return f"{f.numerator}/{f.denominator}"
        if self.kind == "inf":
            return "inf"
        a, b = self.value
        return f"({a.encode()}|{b.encode()})"

    def __str__(self) -> str:
        return self.encode()

    @staticmethod
    def parse(s: str) -> "Phase":
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            inner = s[1:-1]
            depth = 0
            for i, c in enumerate(inner):
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif c == "|" and depth == 0:
                    return Phase.pair(Phase.parse(inner[:i]), Phase.parse(inner[i + 1:]))
            raise OrderError(f"malformed pair phase {s!r}")
        if s == "inf":
            return Phase.infinity()
        if _INT_RE.match(s):
            return Phase.integer(int(s))
        m = _FRAC_RE.match(s)
        if m:
            if not int(m.group(2)):
                raise OrderError(f"phase {s!r} has denominator 0")
            return Phase.rational(int(m.group(1)), int(m.group(2)))
        return Phase.label(s)


class ExplicitOrder:
    """Phases ordered by their position in a list."""

    def __init__(self, elements):
        elements = tuple(elements)
        if len(elements) > EXPLICIT_CARRIER_CAP:
            raise OrderError(f"explicit carrier of size {len(elements)} exceeds cap "
                             f"{EXPLICIT_CARRIER_CAP}")
        members = set()
        for e in elements:
            if e in members:
                raise DuplicateElementError(f"duplicate element {e}")
            members.add(e)
        self._elements = elements
        self._members = members

    def contains(self, x) -> bool:
        return x in self._members

    def elements(self) -> tuple:
        return self._elements
