"""Source hygiene: no module of the package imports a name it never uses,
and no private function or method of the package goes unreferenced."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import normplane

PACKAGE_DIR = Path(normplane.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _references(tree):
    # every name a tree loads, reads as an attribute or imports from a module
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _private_defs(tree):
    # module-level private functions and private methods, dunders excepted
    defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    methods = [m for c in defs if isinstance(c, ast.ClassDef) for m in c.body]
    return [n for n in defs + methods if isinstance(n, ast.FunctionDef)
            and n.name.startswith("_") and not n.name.endswith("__")]


def _orphans(sources):
    """Private functions and methods no source references outside their own body."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = sum((_references(t) for t in trees.values()), Counter())
    return sorted((name, d.name) for name, tree in trees.items()
                  for d in _private_defs(tree)
                  if refs[d.name] == _references(d)[d.name])


def test_scanner_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom a import b, c as d\n"
           "print(os.path, b)\n")
    assert _unused_imports(src) == [(2, "math"), (4, "d")]


def test_scanner_flags_orphan_private_functions():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _shared():\n    return 2\n"
                 "def _orphan(n):\n    return _orphan(n - 1)\n"
                 "class K:\n"
                 "    def __init__(self):\n        self._called()\n"
                 "    def _called(self):\n        pass\n"
                 "    def _dead(self):\n        pass\n"
                 "def public():\n    return _used()\n"),
        "b.py": "from .a import _shared\n",
    }
    assert _orphans(sources) == [("a.py", "_dead"), ("a.py", "_orphan")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_no_orphan_private_functions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _orphans(sources) == []
