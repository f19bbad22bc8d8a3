"""Helpers shared by several test modules."""

import os
from pathlib import Path

import pytest

from stabcat import oracle
from stabcat.phases import ExplicitOrder
from stabcat.stability import StabilityData
from stabcat.subcat import closure

# fresh interpreters started by the tests (`python -m stabcat.cli`) import the
# package from this checkout even when it is not installed
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def _merge_adjacent(ambient, sd, i):
    """Fuse phases i and i+1 of sd into one piece (the closure of their union)."""
    phases = sd.phases()
    lo, hi = phases[i], phases[i + 1]
    new_phases = [ph for ph in phases if ph != hi]
    pieces = {ph: sd.pieces[ph] for ph in new_phases}
    pieces[lo] = closure(ambient, sd.pieces[lo] | sd.pieces[hi])
    return StabilityData(ExplicitOrder(new_phases), pieces)


@pytest.fixture
def merge_adjacent():
    return _merge_adjacent


@pytest.fixture
def empty_oracle(monkeypatch):
    """An empty oracle memo for one test; the process-wide memo, and all it
    has learned, is restored afterwards."""
    monkeypatch.setattr(oracle, "_MEMO", {})
