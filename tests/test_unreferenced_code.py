"""No code that nothing calls: every import of a module in ``src/nselab``
is used by that module, and every private function or class (module or
class level) is referenced somewhere in the package.  The package's
``__init__`` imports to re-export, so its imports are exempt."""

import ast
import collections
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nselab"
MODULES = {path.name: ast.parse(path.read_text("utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


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


def _private_definitions(tree):
    """The module- and class-level functions and classes named _name."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, kinds) and node.name.startswith("_") \
                    and not node.name.endswith("__"):
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


def _stranded(modules):
    """The private definitions that only their own bodies reference."""
    total = sum((_references(tree) for tree in modules.values()),
                collections.Counter())
    return [f"{module}: {node.name}" for module, tree in modules.items()
            for node in _private_definitions(tree)
            if total[node.name] == _references(node)[node.name]]


def test_every_private_definition_is_referenced():
    assert _stranded(MODULES) == []


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
    assert _stranded({"m.py": tree}) == ["m.py: _helper", "m.py: _method"]
