"""The package's public namespace, and the boundary of the ring layout."""

import ast
import pathlib

import fstirling

SRC = pathlib.Path(fstirling.__file__).parent
LAYOUT = {"num", "den", "lo"}


def test_every_exported_name_resolves():
    assert [name for name in fstirling.__all__ if not hasattr(fstirling, name)] == []


def _layout_uses(tree):
    """Each private name imported from ``laurent`` and each read of an
    attribute named like a field of the ``(var, lo, num, den)`` layout."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "laurent":
            yield from (f"imports {a.name}" for a in node.names if a.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            yield f"line {node.lineno} reads .{node.attr}"


def test_only_laurent_knows_the_ring_layout():
    uses = {path.name: list(_layout_uses(ast.parse(path.read_text())))
            for path in sorted(SRC.glob("*.py")) if path.name != "laurent.py"}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_layout_scan_sees_imports_and_reads():
    tree = ast.parse("from .laurent import LaurentPoly, _make\n"
                     "from fstirling.laurent import _pack\n"
                     "x = p.num[0] + p.den + p.lo + p.var + p.numerator\n")
    assert sorted(_layout_uses(tree)) == [
        "imports _make", "imports _pack", "line 3 reads .den", "line 3 reads .lo",
        "line 3 reads .num"]
