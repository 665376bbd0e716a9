"""Every name a module of qgal imports is used in that module, the
runtime imports nothing outside the standard library, and each command
loads only the layers it runs."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qgal
from conftest import subprocess_env

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


def foreign_imports(source, package="qgal"):
    """(line, module) of each absolute import that names neither a
    standard-library module nor `package`; relative imports are the
    package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {package}]
    return found


def test_checker_finds_foreign_imports():
    src = ("from __future__ import annotations\n"
           "import os.path, numpy as np\n"
           "from scipy.linalg import eigh\n"
           "from . import linalg\n"
           "from .scalars import Q\n"
           "from qgal.cli import main\n"
           "def f():\n"
           "    import sympy\n")
    assert foreign_imports(src) == [(2, "numpy"), (3, "scipy.linalg"), (8, "sympy")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_runtime_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def test_haar_commands_load_no_numpy():
    """The positivity evidence runs without numpy in the process."""
    code = ("import sys\n"
            "from qgal.cli import main\n"
            "codes = [main(['haar', 'Uq2m2', '--degree', '1']),\n"
            "         main(['verify', 'Uq2m2', '--suite', 'haar'])]\n"
            "print(codes, 'numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.splitlines()[-1] == "[0, 0] False"


# the modules that `import qgal.cli` leaves to the commands that run them
LAYERS = ("characters", "comodules", "cotensor", "galois", "haar", "linalg")


def layers_loaded(argv):
    """The LAYERS in sys.modules of a fresh process that imports qgal.cli
    and, when argv is not empty, runs main(argv) with stdout discarded."""
    code = ("import contextlib, io, json, sys\n"
            "from qgal.cli import main\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "print(json.dumps(sorted(m[5:] for m in sys.modules\n"
            "                        if m.startswith('qgal.'))))\n")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return set(json.loads(out.splitlines()[-1])) & set(LAYERS)


@pytest.mark.parametrize("argv,layers", [
    ([], set()),
    (["parse", "GLq2", "x11*(x12 + x21)"], set()),
    (["normalize", "GLq2", "x12*x11"], set()),
    (["verify", "Uq2m2", "--suite", "star"], set()),
    (["haar", "Uq2m2", "--degree", "1"], {"haar", "linalg"}),
], ids=["import", "parse", "normalize", "verify-star", "haar"])
def test_commands_load_only_their_layers(argv, layers):
    assert layers_loaded(argv) == layers
