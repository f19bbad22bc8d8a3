"""Named classification tables and their frozen golden files.

Each builder recomputes a table from scratch; verify_table diffs the result
against the committed golden JSON.  Tables quotiented by the tube
translation compare orbit-canonical forms on both sides, so the goldens can
stay verbatim transcriptions of the published rows.
"""

from __future__ import annotations

import json
from importlib import resources

from .ambients import parse_ambient
from .stability import StabilityData, enumerate_finest, is_finest, tau_canonical, validate
from .torsion import (TorsionPair, enumerate_torsion_pairs, tau_pair_canonical,
                      validate_torsion_pair)

TABLE_AMBIENTS = {
    "a2-torsion": "an:2",
    "a3-torsion": "an:3",
    "a3-finest": "an:3",
    "t3-finest": "tube:3",
    "t3-torsion": "tube:3",
    "kron-torsion": "kronecker:window=6:points=3",
    "p1-torsion": "p1:window=-5..5:points=3",
    "x2-finest": "x2:window=-4..4:points=3",
    "x2-torsion": "x2:window=-4..4:points=3",
}


class FamilyCheckError(ValueError):
    """A family row of a table fails its own validation."""


def _checked_row(amb, row, what: str, **extra) -> dict:
    """`row`'s JSON document plus `extra`, once the torsion pair is valid or
    the datum is valid and finest; otherwise FamilyCheckError naming `what`."""
    if isinstance(row, TorsionPair):
        ok = validate_torsion_pair(amb, row.t, row.f).valid
    else:
        ok = validate(amb, row).valid and is_finest(amb, row)[0]
    if not ok:
        raise FamilyCheckError(f"{what} failed validation")
    return {**row.to_json(), **extra}


def compute_table(name: str, amb):
    """The rows of table `name`, computed over `amb`, its parsed ambient."""
    upto_tau = name.startswith("t3-")  # the tube tables are stated up to τ
    if name in ("a2-torsion", "a3-torsion", "t3-torsion"):
        return [p.to_json() for p in enumerate_torsion_pairs(amb, upto_tau=upto_tau)]
    if name in ("a3-finest", "t3-finest"):
        return [sd.to_json() for sd in enumerate_finest(amb, upto_tau=upto_tau)]
    if name == "kron-torsion":
        from .sheaves.kronecker import kron_torsion_family

        return [_checked_row(amb, kron_torsion_family(amb, row, **kwargs),
                             f"kronecker family {row} {kwargs}")
                for row, kwargs in [(1, dict(points=())), (1, dict(points=("0",))),
                                    (1, dict(points=("0", "1", "inf"))),
                                    (2, dict(n=1)), (2, dict(n=2)),
                                    (3, dict(n=1)), (3, dict(n=2)),
                                    (4, dict())]]
    if name == "p1-torsion":
        from .sheaves.p1 import torsion_family_degree, torsion_family_points

        return ([_checked_row(amb, torsion_family_points(amb, pts), f"p1 point family {pts}")
                 for pts in [("0",), ("0", "1"), ("0", "1", "lam")]]
                + [_checked_row(amb, torsion_family_degree(amb, n), f"p1 degree family {n}")
                   for n in (-1, 0, 1)])
    if name == "x2-finest":
        from .sheaves.x2 import finest_x2

        return [_checked_row(amb, finest_x2(amb, family, **kwargs),
                             f"x2 finest family {family} {kwargs}",
                             family=family if family != "lm" else f"lm(m={kwargs['m']})")
                for family, kwargs in [("full", {}), ("coset", {}), ("lm", dict(m=-1)),
                                       ("lm", dict(m=0)), ("lm", dict(m=1))]]
    if name == "x2-torsion":
        from .sheaves.x2 import x2_torsion_family

        return [_checked_row(amb, x2_torsion_family(amb, row, **kwargs),
                             f"x2 family {row} {kwargs}", family=row)
                for row, kwargs in [("I", dict(points=("0",))), ("I", dict(points=("inf",))),
                                    ("I", dict(points=("0", "1", "lam", "inf"))),
                                    ("II", dict(points=())), ("II", dict(points=("0",))),
                                    ("III", dict(points=())), ("III", dict(points=("0", "1"))),
                                    ("IV", dict()), ("V", dict()), ("VI", dict())]]
    raise KeyError(f"unknown table {name!r}; known: {sorted(TABLE_AMBIENTS)}")


def _canonical_rows(name: str, amb, rows):
    """Comparison form: tables stated up to the tube translation are mapped
    to orbit-canonical representatives; row order does not matter."""
    if name == "t3-torsion":
        rows = [tau_pair_canonical(amb, TorsionPair.from_json(row, amb)).to_json()
                for row in rows]
    elif name == "t3-finest":
        rows = [tau_canonical(amb, StabilityData.from_json(row, amb)).to_json() for row in rows]
    return rows


def golden_text(name: str) -> str:
    return resources.files("stabcat.goldens").joinpath(f"{name}.json").read_text("utf-8")


def verify_table(name: str):
    """Recompute a table and diff against its golden; returns (ok, diff lines)."""
    amb = parse_ambient(TABLE_AMBIENTS[name])
    computed = _canonical_rows(name, amb, compute_table(name, amb))
    golden = _canonical_rows(name, amb, json.loads(golden_text(name))["rows"])
    comp_set = {json.dumps(r, sort_keys=True) for r in computed}
    gold_set = {json.dumps(r, sort_keys=True) for r in golden}
    diffs = ([f"missing from computation: {m}" for m in sorted(gold_set - comp_set)]
             + [f"not in golden: {e}" for e in sorted(comp_set - gold_set)])
    if len(computed) != len(golden):
        diffs.append(f"row count {len(computed)} != golden {len(golden)}")
    return (not diffs), diffs
