"""Every name the benchmark tracer wraps exists in the package.

`perfbench/tracing.py` looks up each function of its FUNCTIONS table in its
stabcat module, and each method of AMBIENT_METHODS on the Ambient classes,
with `getattr`; a name deleted from the package would crash every traced
benchmark run.  The tables are read from the file's syntax tree, so the
tracer is not imported."""

import ast
import importlib
from pathlib import Path

from stabcat import ambients  # noqa: F401  (loads every Ambient subclass)
from stabcat.ambient import Ambient

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_tables():
    tables = {}
    for node in ast.parse(TRACING.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("FUNCTIONS", "AMBIENT_METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["AMBIENT_METHODS"]


def _ambient_classes():
    classes = [Ambient]
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    return classes


def test_traced_functions_exist():
    functions, _ = _tracer_tables()
    assert "oracle" in functions and "gf" in functions
    missing = [f"{mod}.{fn}" for mod, fns in functions.items()
               for fn in fns if not callable(getattr(importlib.import_module(f"stabcat.{mod}"),
                                                     fn, None))]
    assert missing == []


def test_traced_ambient_methods_exist():
    _, methods = _tracer_tables()
    assert methods
    classes = _ambient_classes()
    assert len(classes) > 3
    missing = [m for m in methods if not any(callable(vars(cls).get(m)) for cls in classes)]
    assert missing == []
