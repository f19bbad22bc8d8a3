"""The package holds no test-only reference path: those live in
`tests/reference.py`, which no module of the package imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stabcat"


def is_reference_name(name: str) -> bool:
    # `_bruteforce` (the oracle's production sweeps) is not `_brute`
    return ("reference" in name or name.endswith("_brute")
            or name == "enumerate_ext_closed_by_filter")


def imports_reference(node) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""] + [alias.name for alias in node.names]
    else:
        return False
    return any(m.split(".")[-1] == "reference" for m in modules)


def offences(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and is_reference_name(node.name):
            found.append(f"function {node.name}")
        elif imports_reference(node):
            found.append(f"import at line {node.lineno}")
    return found


def test_package_has_no_reference_path():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    found = {str(f.relative_to(PACKAGE)): offences(f.read_text("utf-8")) for f in files}
    assert {name: o for name, o in found.items() if o} == {}


def test_guard_catches_reference_paths():
    assert offences("def _hn_chains_reference(x):\n    pass\n") == [
        "function _hn_chains_reference"]
    assert offences("def _enumerate_torsion_pairs_brute(a):\n    pass\n")
    assert offences("class C:\n    def enumerate_ext_closed_by_filter(self):\n        pass\n")
    assert offences("import reference\n")
    assert offences("from tests.reference import validate_torsion_pair\n")
    assert offences("from . import reference\n")
    assert offences("def closure_fixpoint_bruteforce(x):\n    pass\n") == []
