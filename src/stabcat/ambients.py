"""Ambient registry: parse category spec strings into ambient models.

Formats: tube:3, an:3, p1:window=-5..5:points=3, x2:window=-4..4:points=3,
kronecker:window=6:points=3.  The sheaf kinds take the options `window` and
`points` only.  A spec asking for more than SPEC_SIZE_LIMIT carrier members
is refused from its parameters, before any member is built.
"""

from __future__ import annotations

import re

from .ambient import Ambient, AmbientError, IntervalAmbient, SizeLimitError, TubeAmbient
from .sheaves import KroneckerAmbient, P1Ambient, X2Ambient

_WINDOW_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_OPTIONS = ("points", "window")
SPEC_SIZE_LIMIT = 300  # carrier members a spec string may ask for


def _parse_options(spec, parts):
    opts = {}
    for part in parts:
        if "=" not in part:
            raise AmbientError(f"malformed ambient option {part!r}")
        key, val = part.split("=", 1)
        if key not in _OPTIONS:
            raise AmbientError(f"unknown ambient option {key!r} in {spec!r} "
                               f"(known: {', '.join(_OPTIONS)})")
        if key in opts:
            raise AmbientError(f"ambient option {key!r} given twice in {spec!r}")
        opts[key] = val
    return opts


def _window(spec, opts, default):
    m = _WINDOW_RE.match(opts.get("window", default))
    if not m:
        raise AmbientError(f"malformed window in {spec!r}")
    return int(m.group(1)), int(m.group(2))


def _check_size(spec, members: int) -> None:
    if members > SPEC_SIZE_LIMIT:
        raise SizeLimitError(f"{spec.strip()} asks for {members} carrier members, "
                             f"more than the limit {SPEC_SIZE_LIMIT}")


def parse_ambient(spec: str) -> Ambient:
    parts = spec.strip().split(":")
    kind = parts[0]
    if kind == "tube":
        if len(parts) != 2:
            raise AmbientError(f"tube ambient needs a rank: {spec!r}")
        n = int(parts[1])
        _check_size(spec, 2 * n * n if n > 0 else 0)
        return TubeAmbient(n)
    if kind == "an":
        if len(parts) != 2:
            raise AmbientError(f"an ambient needs a quiver size: {spec!r}")
        n = int(parts[1])
        _check_size(spec, n * (n + 1) // 2 if n > 0 else 0)
        return IntervalAmbient(n)
    if kind not in ("p1", "x2", "kronecker"):
        raise AmbientError(f"unknown ambient kind {kind!r} in {spec!r}")
    opts = _parse_options(spec, parts[1:])
    points = int(opts.get("points", 3))
    if kind == "p1":
        lo, hi = _window(spec, opts, "-5..5")
        _check_size(spec, hi - lo + 1 + 2 * points)
        return P1Ambient(lo, hi, points)
    if kind == "x2":
        lo, hi = _window(spec, opts, "-4..4")
        _check_size(spec, 2 * (hi - lo + 2) + 8 + 2 * points)
        return X2Ambient(lo, hi, points)
    window = int(opts.get("window", 6))
    _check_size(spec, window * (2 + points))
    return KroneckerAmbient(window, points)
