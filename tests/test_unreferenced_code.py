"""No code that nothing calls: every import of a module in ``src/nselab``
is used by that module, every private function or class (module or
class level) is referenced somewhere in the package, and every public
module-level function or class is re-exported by ``__init__`` or read by
the package, ``perfbench/*.py`` or ``benchmarks/*.py``.  Tests do not
count as readers.  The package's ``__init__`` imports to re-export, so
its imports are exempt."""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nselab"
MODULES = {path.name: ast.parse(path.read_text("utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
READERS = [ast.parse(path.read_text("utf-8"), str(path))
           for folder in ("perfbench", "benchmarks")
           for path in sorted((ROOT / folder).glob("*.py"))]


def _references(tree):
    """Every name a tree reads or imports by name, with its count."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


_KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_definitions(tree):
    """The module- and class-level functions and classes named _name."""
    scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, _KINDS) and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                yield node


def _public_definitions(tree):
    """The module-level functions and classes not named _name."""
    for node in tree.body:
        if isinstance(node, _KINDS) and not node.name.startswith("_"):
            yield node


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    assert _unused_imports(MODULES[module]) == []


def _stranded(modules, definitions, readers=()):
    """The ``definitions`` of each module that only their own bodies
    reference: no module (an ``__init__`` re-export is a reference) and no
    tree of ``readers``."""
    total = sum((_references(tree) for tree in [*modules.values(), *readers]),
                collections.Counter())
    return [f"{module}: {node.name}" for module, tree in modules.items()
            for node in definitions(tree)
            if total[node.name] == _references(node)[node.name]]


def test_every_private_definition_is_referenced():
    assert _stranded(MODULES, _private_definitions) == []


def test_every_public_definition_is_read():
    assert _stranded(MODULES, _public_definitions, READERS) == []


def test_the_scan_finds_stranded_code():
    tree = ast.parse("import os\n"
                     "from math import pi, tau\n"
                     "def _helper(n):\n"
                     "    return _helper(n - 1)\n"
                     "class _Kept:\n"
                     "    def _method(self):\n"
                     "        return pi\n"
                     "    def _used(self):\n"
                     "        return 0\n"
                     "_Kept()._used()\n")
    assert _unused_imports(tree) == ["os (line 1)", "tau (line 2)"]
    assert _stranded({"m.py": tree}, _private_definitions) == [
        "m.py: _helper", "m.py: _method"]
    public = ast.parse("def lone(n):\n"
                       "    return lone(n - 1)\n"
                       "def exported():\n"
                       "    return 0\n"
                       "class Read:\n"
                       "    pass\n"
                       "def inner():\n"
                       "    return 1\n"
                       "X = inner()\n"
                       "def _private():\n"
                       "    return 2\n")
    init = ast.parse("from .m import exported\n")
    reader = ast.parse("import nselab.m\nnselab.m.Read()\n")
    assert _stranded({"__init__.py": init, "m.py": public},
                     _public_definitions, [reader]) == ["m.py: lone"]
    assert _stranded({"m.py": public}, _public_definitions) == [
        "m.py: lone", "m.py: exported", "m.py: Read"]
