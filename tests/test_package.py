"""The package's public namespace, the boundary of the ring layout, the
modules' private names, the one place where t is checked, and the one
module that keeps the store."""

import ast
import pathlib

import fstirling

SRC = pathlib.Path(fstirling.__file__).parent
LAYOUT = {"num", "den", "lo"}


def test_every_exported_name_resolves():
    assert [name for name in fstirling.__all__ if not hasattr(fstirling, name)] == []


def _layout_uses(tree):
    """Each read of an attribute named like a field of the ``(var, lo, num,
    den)`` layout.  ``_private_imports`` finds the private names of ``laurent``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
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
        "line 3 reads .den", "line 3 reads .lo", "line 3 reads .num"]


def _private_imports(tree):
    """Each private name imported from a module of this package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fstirling"):
            yield from (f"line {node.lineno} imports {a.name}"
                        for a in node.names if a.name.startswith("_"))


def test_no_module_imports_another_modules_private_names():
    uses = {path.name: list(_private_imports(ast.parse(path.read_text())))
            for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_private_import_scan_sees_both_forms():
    tree = ast.parse("from .fspec import FSpec, _int_coeffs\n"
                     "from fstirling.laurent import _make\n"
                     "from os import _exit\n"
                     "from . import cli\n")
    assert sorted(_private_imports(tree)) == ["line 1 imports _int_coeffs", "line 2 imports _make"]


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _t_uses(tree):
    """Each call of ``check_config``, and each import or other mention of
    ``TParam``, the type of an unchecked t."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "check_config":
            yield f"line {node.lineno} calls check_config"
        elif isinstance(node, ast.ImportFrom) and any(a.name == "TParam" for a in node.names):
            yield f"line {node.lineno} imports TParam"
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "TParam":
            yield f"line {node.lineno} names TParam"


def test_t_is_checked_only_at_the_command_boundary():
    uses = {path.name: list(_t_uses(ast.parse(path.read_text())))
            for path in sorted(SRC.glob("*.py"))}
    assert [name for name, found in uses.items()
            if any(u.endswith("calls check_config") for u in found)] == ["cli.py"]
    assert [name for name, found in uses.items()
            if any(u.endswith("TParam") for u in found)] == ["fspec.py"]


def test_the_t_scan_sees_calls_and_imports():
    tree = ast.parse("from .fspec import TParam, check_config\n"
                     "def f(spec, t: TParam):\n"
                     "    return check_config(spec, t), fspec.check_config(spec, 1)\n")
    assert sorted(_t_uses(tree)) == [
        "line 1 imports TParam", "line 2 names TParam", "line 3 calls check_config",
        "line 3 calls check_config"]


def _memo_uses(tree):
    """Each import of ``MEMO``, each ``MEMO.clear()`` call, and each other
    mention of ``MEMO``, which reads or writes the store."""
    clears = {id(node.func.value) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr == "clear"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "MEMO" for a in node.names):
            yield f"line {node.lineno} imports MEMO"
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "MEMO":
            yield f"line {node.lineno} {'clears' if id(node) in clears else 'uses'} MEMO"


def test_only_fspec_keeps_the_store():
    uses = {path.name: list(_memo_uses(ast.parse(path.read_text())))
            for path in sorted(SRC.glob("*.py")) if path.name != "fspec.py"}
    found = {name: found for name, found in uses.items() if found}
    assert list(found) == ["cli.py"]
    assert {use.split(" ", 2)[2] for use in found["cli.py"]} == {"imports MEMO", "clears MEMO"}


def test_the_store_scan_sees_imports_clears_and_other_uses():
    tree = ast.parse("from .fspec import MEMO, stored\n"
                     "MEMO.clear(); fspec.MEMO.clear()\n"
                     "rows = MEMO.get(key) or fspec.MEMO.setdefault(key, [])\n"
                     "MEMO[key] = []\n")
    assert sorted(_memo_uses(tree)) == [
        "line 1 imports MEMO", "line 2 clears MEMO", "line 2 clears MEMO",
        "line 3 uses MEMO", "line 3 uses MEMO", "line 4 uses MEMO"]
