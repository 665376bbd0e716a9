"""Every name a module of qgal imports is used in that module."""

import ast
from pathlib import Path

import pytest

import qgal

MODULES = sorted(Path(qgal.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that the module never reads.
    `from __future__ import ...` is exempt; a name counts as read when it
    appears as a Name node, in a string annotation or in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [(line, name) for line, name in imported if name not in used]


def test_checker_finds_unused_imports():
    src = ("from __future__ import annotations\n"
           "import os, sys as system\n"
           "from .a import b, c as d, e, f, g\n"
           "__all__ = ['e']\n"
           "def h(x: 'f') -> None:\n"
           "    return os.sep, b\n")
    assert unused_imports(src) == [(2, "system"), (3, "d"), (3, "g")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
