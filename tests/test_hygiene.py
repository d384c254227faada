"""Source hygiene: no module of the package imports a name it never uses,
no private function or method of the package goes unreferenced, and no
defaulted parameter or dataclass field goes unset by every caller."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import normplane

PACKAGE_DIR = Path(normplane.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
# where callers live: the library itself, its tests and the benchmark
CALLER_DIRS = [PACKAGE_DIR, Path(__file__).resolve().parent,
               Path(__file__).resolve().parents[1] / "perfbench"]


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


def _defaults(tree):
    """(callable name, parameter, position or None) per defaulted parameter or field.

    Methods are called without self, constructors by their class name;
    position is None for keyword-only parameters.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                name = node.name if item.name == "__init__" else item.name
                out.extend(_function_defaults(item, name, skip=0 if static else 1))
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            out.extend((node.name, f.target.id, i) for i, f in enumerate(fields)
                       if f.value is not None)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and id(node) not in methods:
            out.extend(_function_defaults(node, node.name, skip=0))
    return out


def _function_defaults(fn, name, skip):
    args = fn.args
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    out = [(name, a.arg, first + i) for i, a in enumerate(positional[first:])]
    out.extend((name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)
    return out


def _calls(trees):
    """Per called name: (positional count, keywords set) for each call; None sets all."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                calls.setdefault(name, []).append(None)
            else:
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}))
    return calls


def _unset_defaults(sources, callers):
    """Defaulted parameters and fields of sources that no call in callers sets."""
    calls = _calls(ast.parse(src) for src in callers)
    unset = []
    for module, src in sorted(sources.items()):
        for name, arg, pos in _defaults(ast.parse(src)):
            if not any(c is None or arg in c[1] or (pos is not None and c[0] > pos)
                       for c in calls.get(name, [])):
                unset.append((module, name, arg))
    return sorted(unset)


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


def test_scanner_flags_unset_defaults():
    sources = {"a.py": ("from dataclasses import dataclass\n"
                        "def f(x, by_pos=1, by_kw=2, unset=3, *, kw_only=4, kw_set=5):\n"
                        "    pass\n"
                        "def g(a=1):\n    pass\n"
                        "def h(a=1):\n    pass\n"
                        "class K:\n"
                        "    def __init__(self, n=0):\n        pass\n"
                        "    def m(self, r=1.0):\n        pass\n"
                        "@dataclass\n"
                        "class D:\n    a: int\n    b: int = 0\n    c: int = 1\n")}
    callers = ["f(0, 1, by_kw=2)\nf(0, kw_set=5)\ng(**opts)\nh(*args)\nK(n=2)\nk.m(3.0)\nD(1, 2)\n"]
    assert _unset_defaults(sources, callers + list(sources.values())) == [
        ("a.py", "D", "c"), ("a.py", "f", "kw_only"), ("a.py", "f", "unset")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_no_orphan_private_functions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _orphans(sources) == []


def test_every_default_is_set():
    # an option no caller sets is a configuration nothing runs: make it a constant
    sources = {p.name: p.read_text() for p in MODULES}
    callers = [p.read_text() for d in CALLER_DIRS for p in sorted(d.glob("*.py"))]
    assert _unset_defaults(sources, callers) == []
