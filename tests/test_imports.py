"""Every name a module of qgal imports is used in that module, every
top-level name, every method and every `__slots__` entry it defines is
read somewhere, the runtime imports nothing
outside the standard library, every sparse accumulate goes through
`scalars.add_term`, only the command line imports `re`, only linalg
builds a RowReducer, only rewrite builds a RewriteSystem and only
`complete` states its completion degree, only presentations calls
`ensure_degree` (and it and rewrite `word_basis`), each command loads
only the layers it runs, and none loads `dataclasses` or `inspect`."""

import ast
import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qgal
from conftest import subprocess_env

MODULES = sorted(Path(qgal.__file__).parent.glob("*.py"))
TESTS = Path(__file__).resolve().parent


@functools.cache
def parse(source):
    """The syntax tree of a source, parsed once: the checks below read the
    same sources again and again, and never change a tree."""
    return ast.parse(source)


def unused_imports(source):
    """(line, name) of each imported name that the module never reads.
    `from __future__ import ...` is exempt; a name counts as read when it
    appears as a Name node, in a string annotation or in __all__."""
    tree = parse(source)
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


TEST_MODULES = sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.name for p in MODULES]
                         + [f"tests/{p.name}" for p in TEST_MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def importers(sources, module):
    """The labels of the sources that import `module`, by `import` or
    `from ... import`; sources maps a label to its source text."""
    def imports(source):
        for node in ast.walk(parse(source)):
            if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == module for a in node.names):
                return True
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == module:
                return True
        return False

    return sorted(label for label, source in sources.items() if imports(source))


def test_checker_finds_importers():
    sources = {"a": "import os, re\n", "b": "from re import fullmatch\n",
               "c": "import regex\nfrom .re import x\n",
               "d": "def f():\n    import re as r\n",
               "e": "s = 're'\n"}
    assert importers(sources, "re") == ["a", "b", "d"]


def test_only_the_cli_parses_text_with_re():
    """`re` stays in qgal.cli, which parses the one text spec
    `--comodule tensor<k>`: no other module reads structure out of
    strings such as generator names."""
    assert importers({p.name: p.read_text() for p in MODULES}, "re") == ["cli.py"]


def top_level_names(source):
    """(line, name) of each name a module binds at top level: functions,
    classes and assignment targets.  Dunders are exempt."""
    found = []
    for node in parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def attributes_read(source):
    """Every attribute a source reads, and every part of a string that is
    a dotted name (the bench tracer names functions and methods so)."""
    read = set()
    for node in ast.walk(parse(source)):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", node.value):
            read.update(node.value.split("."))
    return read


def names_read(source):
    """Every name a source reads: a Name that is not assigned, a name
    imported from a module, a string that is a name (getattr names
    functions so), or one of its attributes_read."""
    read = attributes_read(source)
    for node in ast.walk(parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            read.add(node.value)
    return read


def unread_names(defining, reading):
    """(module, line, name) of each top-level name that a source of
    `defining` binds and no source of `reading` reads; both map a module
    label to its source text."""
    read = set().union(*map(names_read, reading.values()))
    return [(label, line, name) for label, source in defining.items()
            for line, name in top_level_names(source) if name not in read]


def test_checker_finds_unread_names():
    module = ("import os\n"
              "A = 1\n"
              "B, _c = A, 3\n"
              "__all__ = []\n"
              "def f():\n"
              "    return os.sep\n"
              "class K:\n"
              "    pass\n"
              "def g(): pass\n"
              "h: int = 0\n")
    user = "from m import K\nx = m.g\ny = getattr(m, 'h')\n"
    assert unread_names({"m": module}, {"m": module, "t": user}) == [
        ("m", 3, "B"), ("m", 3, "_c"), ("m", 5, "f")]


def _package_tests_and_bench():
    """(defining, reading): the package's sources, and those of the
    package, its tests and its benchmark."""
    paths = [*MODULES, *sorted(TESTS.glob("*.py")),
             *sorted((TESTS.parent / "perfbench").glob("*.py"))]
    return ({p.name: p.read_text() for p in MODULES},
            {str(p): p.read_text() for p in paths})


def test_every_top_level_name_is_read():
    """A name that nothing in the package, its tests or its benchmark
    reads is dead code."""
    assert unread_names(*_package_tests_and_bench()) == []


def unread_methods(defining, reading):
    """(module, line, Class.method) of each method that a class of a
    `defining` source binds and no source of `reading` reads as an
    attribute or names in a dotted string.  Dunders are exempt."""
    read = set().union(*map(attributes_read, reading.values()))
    return [(label, f.lineno, f"{node.name}.{f.name}")
            for label, source in defining.items()
            for node in ast.walk(parse(source)) if isinstance(node, ast.ClassDef)
            for f in node.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))
            and f.name not in read]


def test_checker_finds_unread_methods():
    module = ("class K:\n"
              "    def __init__(self):\n"
              "        self.x = self.called()\n"
              "    def called(self): pass\n"
              "    def traced(self): pass\n"
              "    def shadowed(self): pass\n"
              "    @property\n"
              "    def unread(self): pass\n"
              "def free(): pass\n"
              "class L:\n"
              "    def free(self): pass\n")
    # a bare name, a string that is not dotted or a call of a function
    # does not read a method
    user = "shadowed = free()\ngetattr(K, 'unread')\nspans = ['K.traced']\n"
    assert unread_methods({"m": module}, {"m": module, "t": user}) == [
        ("m", 6, "K.shadowed"), ("m", 8, "K.unread"), ("m", 11, "L.free")]


def test_every_method_is_read():
    """A method that nothing in the package, its tests or its benchmark
    reads is dead code."""
    assert unread_methods(*_package_tests_and_bench()) == []


def slot_entries(source):
    """(line, Class.entry) of each entry of the `__slots__` of a class."""
    return [(stmt.lineno, f"{node.name}.{entry}")
            for node in ast.walk(parse(source)) if isinstance(node, ast.ClassDef)
            for stmt in node.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            for entry in ast.literal_eval(stmt.value)]


def unread_slots(defining, reading):
    """(module, line, Class.entry) of each `__slots__` entry of a class of
    a `defining` source that no source of `reading` reads as an
    attribute: an attribute that is only assigned is not read."""
    read = {node.attr for source in reading.values()
            for node in ast.walk(parse(source))
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    return [(label, line, entry) for label, source in defining.items()
            for line, entry in slot_entries(source)
            if entry.split(".")[1] not in read]


def test_checker_finds_unread_slots():
    module = ("class K:\n"
              "    __slots__ = ('kept', 'stored', 'named')\n"
              "    def __init__(self):\n"
              "        self.kept = self.stored = 1\n"
              "        object.__setattr__(self, 'named', 2)\n"
              "class L:\n"
              "    __slots__ = ('deleted',)\n")
    user = "print(k.kept)\ndel l.deleted\n"
    assert unread_slots({"m": module}, {"m": module, "t": user}) == [
        ("m", 2, "K.stored"), ("m", 2, "K.named")]


def test_every_slot_is_read():
    """A `__slots__` entry that nothing in the package, its tests or its
    benchmark reads is state kept for no one."""
    assert unread_slots(*_package_tests_and_bench()) == []


def defaulted_params(source):
    """(line, callee, parameter, position) of each parameter of a `def`
    that has a default.  The callee is the name a call uses: the
    function's, or for `__init__` its class's.  The position counts the
    arguments a call passes before it, with no self; None for a
    keyword-only parameter."""
    tree = parse(source)
    owner = {f: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for f in node.body}
    found = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = f.args
        params = args.posonlyargs + args.args
        skip = int(f in owner and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list))
        callee = owner[f] if f.name == "__init__" and f in owner else f.name
        first = len(params) - len(args.defaults)
        found += [(f.lineno, callee, a.arg, i - skip)
                  for i, a in enumerate(params) if i >= first]
        found += [(f.lineno, callee, a.arg, None)
                  for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def calls_by_name(source):
    """(callee name, call) of each call in a source, by name or as an
    attribute, except a call into another library: of a name that an
    absolute import binds from outside qgal, or of an attribute of one."""
    tree = parse(source)
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] != "qgal")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] != "qgal":
            foreign.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if not (isinstance(func.value, ast.Name) and func.value.id in foreign):
                yield func.attr, node
        elif isinstance(func, ast.Name) and func.id not in foreign:
            yield func.id, node


def unset_defaults(defining, calling, exempt=()):
    """(module, line, callee.parameter) of each defaulted parameter of a
    function of `defining` that a source of `defining` calls, which no
    call in `calling` sets, by position or by keyword, and which is not
    in `exempt`.  Calls are matched by the callee's name; one that
    unpacks *args or **kwargs may set anything."""
    called = {name for source in defining.values() for name, _ in calls_by_name(source)}
    sets = {}
    for source in calling.values():
        for name, call in calls_by_name(source):
            sets.setdefault(name, []).append(call)

    def set_by(call, param, position):
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg in (None, param) for k in call.keywords):
            return True
        return position is not None and len(call.args) > position

    return sorted((label, line, f"{callee}.{param}")
                  for label, source in defining.items()
                  for line, callee, param, position in defaulted_params(source)
                  if callee in called and f"{callee}.{param}" not in exempt
                  and not any(set_by(c, param, position) for c in sets.get(callee, ())))


def test_checker_finds_unset_defaults():
    module = ("import numpy\n"
              "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "class K:\n"
              "    def __init__(self, x=0, y=0): pass\n"
              "    def m(self, z=1): pass\n"
              "    @staticmethod\n"
              "    def s(t=1): pass\n"
              "def g(u=1): pass\n"
              "def h(v=1): pass\n"
              "def uncalled(w=1): pass\n"
              "def run():\n"
              "    f(0, 1, d=2)\n"
              "    K(5)\n"
              "    K().m()\n"
              "    K.s(2)\n"
              "    g(*[])\n"
              "    h()\n"
              "    numpy.h(v=2)\n")
    assert unset_defaults({"m": module}, {"m": module}) == [
        ("m", 2, "f.c"), ("m", 2, "f.e"), ("m", 4, "K.y"), ("m", 5, "m.z"),
        ("m", 9, "h.v")]
    bench = "from m import K\nK().m(z=2)\n"
    assert unset_defaults({"m": module}, {"m": module, "b": bench}, {"f.c", "f.e"}) \
        == [("m", 4, "K.y"), ("m", 9, "h.v")]


def test_every_default_is_set_by_a_caller():
    """A defaulted parameter that no call in the package or its benchmark
    sets is a knob that nothing turns: it is a constant, or the function
    reads what its callers already pass.  Exempt are the functions that
    no module of the package calls (the comodules API that no command
    reaches yet) and the parameters below."""
    exempt = {
        # criterion 4 of the acceptance tests compares two choices of f
        "haar_on_extension.f",
        # the benchmark's selftest builds a system as type(rs)(..., degree)
        "RewriteSystem.completion_degree",
    }
    bench = sorted((TESTS.parent / "perfbench").glob("*.py"))
    defining = {p.name: p.read_text() for p in MODULES}
    assert unset_defaults(defining, {**defining, **{str(p): p.read_text() for p in bench}},
                          exempt) == []


def foreign_imports(source, package="qgal"):
    """(line, module) of each absolute import that names neither a
    standard-library module nor `package`; relative imports are the
    package's own."""
    found = []
    for node in ast.walk(parse(source)):
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


def _calls(node, attr, none_second_arg=False):
    """Whether node contains a call of a method named attr; with
    none_second_arg, only a call whose second argument is None counts."""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == attr
               and (not none_second_arg or (
                   len(n.args) == 2 and isinstance(n.args[1], ast.Constant)
                   and n.args[1].value is None))
               for n in ast.walk(node))


def hand_written_accumulates(source):
    """(line, enclosing function) of each `if` whose test calls
    `.is_zero()` and whose branches call `.pop(..., None)`: "add to an
    entry and drop it when the sum is 0", written out by hand."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.If) and _calls(child.test, "is_zero") \
                    and any(_calls(b, "pop", True)
                            for b in child.body + child.orelse):
                found.append((child.lineno, func))
            visit(child, func)

    visit(parse(source), None)
    return found


def test_checker_finds_hand_written_accumulates():
    src = ("def f(out, k, c):\n"
           "    s = out.get(k) + c\n"
           "    if s.is_zero():\n"
           "        out.pop(k, None)\n"
           "    else:\n"
           "        out[k] = s\n"
           "    def bump(v):\n"
           "        if not v.is_zero():\n"
           "            out[k] = v\n"
           "        else:\n"
           "            out.pop(k, None)\n"
           "    if s.is_zero():\n"
           "        out.pop(k)\n"
           "    if s:\n"
           "        out.pop(k, None)\n"
           "    if s.is_zero():\n"
           "        stack.pop()\n"
           "if x.is_zero():\n"
           "    d.pop(1, None)\n")
    assert hand_written_accumulates(src) == [(3, "f"), (8, "bump"), (18, None)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_sparse_accumulate_goes_through_add_term(path):
    found = hand_written_accumulates(path.read_text())
    if path.name == "scalars.py":
        found = [(line, func) for line, func in found if func != "add_term"]
    assert found == []


# the modules that `import qgal.cli` leaves to the commands that run them
LAYERS = ("characters", "comodules", "cotensor", "galois", "haar", "linalg")


def modules_loaded(argv):
    """sys.modules of a fresh process that imports qgal.cli and, when argv
    is not empty, runs main(argv) with stdout discarded; with argv None,
    of one that imports no qgal, in the same environment."""
    code = ("import contextlib, io, json, sys\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    from qgal.cli import main\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return set(json.loads(out.splitlines()[-1]))


def layers_loaded(argv):
    """The LAYERS that modules_loaded(argv) holds."""
    return {m[5:] for m in modules_loaded(argv) if m.startswith("qgal.")} & set(LAYERS)


@pytest.mark.parametrize("argv,layers", [
    ([], set()),
    (["parse", "GLq2", "x11*(x12 + x21)"], set()),
    (["normalize", "GLq2", "x12*x11"], set()),
    (["verify", "Uq2m2", "--suite", "star"], set()),
    (["haar", "Uq2m2", "--degree", "1"], {"haar", "linalg"}),
    (["verify", "GLq2m2", "--suite", "galois", "--degree", "1"],
     {"galois", "haar", "linalg"}),
], ids=["import", "parse", "normalize", "verify-star", "haar", "verify-galois"])
def test_commands_load_only_their_layers(argv, layers):
    assert layers_loaded(argv) == layers


@pytest.mark.parametrize("argv", [
    [], ["verify", "Uq2m2", "--suite", "all", "--json"],
], ids=["import", "verify-all-json"])
def test_commands_load_no_dataclasses_or_inspect(argv):
    """Neither is needed at start-up or by any layer; `dataclasses` would
    bring `inspect`, `ast`, `dis` and `tokenize` with it."""
    added = modules_loaded(argv) - modules_loaded(None)
    assert added & {"dataclasses", "inspect"} == set()


def test_only_linalg_reads_reducer_rows():
    """RowReducer is read through `solution` and `kernel`: no other module
    reads its `rows`, so the elimination can change inside linalg alone."""
    assert [p.name for p in MODULES
            if p.name != "linalg.py" and "rows" in attributes_read(p.read_text())] == []


def test_only_scalars_reads_laurent_storage():
    """LaurentPoly is read through `coeffs` and its methods: no other
    module of the package or of the benchmark reads its numerators `_n`
    or its common denominator `_m`, so the stored form can change inside
    scalars alone."""
    bench = sorted((TESTS.parent / "perfbench").glob("*.py"))
    assert [p.name for p in [*MODULES, *bench] if p.name != "scalars.py"
            and {"_n", "_m"} & attributes_read(p.read_text())] == []


def calls(source, name):
    """The line of each call of `name`, by name or as an attribute."""
    return [node.lineno for node in ast.walk(parse(source))
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_checker_finds_reducer_builds():
    src = ("r = RowReducer()\nlinalg.RowReducer(key)\n"
           "RowReducer.solution(r, [])\nsolve_blocks({}, f)\n")
    assert calls(src, "RowReducer") == [1, 2]


def test_only_linalg_builds_a_reducer():
    """Every other module solves through `linalg.solve_blocks`, so the
    elimination and its block budget live in linalg alone."""
    assert [p.name for p in MODULES
            if p.name != "linalg.py" and calls(p.read_text(), "RowReducer")] == []


def test_only_rewrite_builds_a_rewrite_system():
    """Every other module gets its systems from `build_system` and
    `complete`, so only `complete` ever states a certified degree."""
    assert [p.name for p in MODULES
            if p.name != "rewrite.py" and calls(p.read_text(), "RewriteSystem")] == []


def attribute_stores(source):
    """{function: the attributes it assigns} for each top-level function
    and each method, named Class.method."""
    stores = {}
    for node in parse(source).body:
        funcs = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for f in funcs:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stores[prefix + f.name] = {
                    n.attr for n in ast.walk(f)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
    return stores


def test_checker_finds_attribute_stores():
    src = ("def f(x):\n    x.a = x.b\n    x.c += 1\n"
           "class K:\n    def g(self):\n        self.d, y = 1, self.e\n"
           "    def h(self):\n        pass\n")
    assert attribute_stores(src) == {"f": {"a", "c"}, "K.g": {"d"}, "K.h": set()}


def test_only_complete_states_a_certified_degree():
    """The constructor takes a completion degree and `complete` records
    one on a system it built; the readers `word_basis` and
    `check_overlaps` assign nothing."""
    stores = {p.name: attribute_stores(p.read_text()) for p in MODULES}
    assert sorted((name, f) for name, funcs in stores.items()
                  for f, attrs in funcs.items() if "completion_degree" in attrs) == [
        ("rewrite.py", "RewriteSystem.__init__"), ("rewrite.py", "complete")]
    rewrite = stores["rewrite.py"]
    assert rewrite["word_basis"] == rewrite["RewriteSystem.check_overlaps"] == set()


def test_checker_finds_certifying_calls():
    src = ("p = p.ensure_degree(6)\nrs = word_basis(p.rewrite, 2)\n"
           "rewrite.word_basis(rs, 3)\nensure_degree = 4\n"
           "def ensure_degree(self, d): pass\nq.basis(2)\n")
    assert calls(src, "ensure_degree") == [1]
    assert calls(src, "word_basis") == [2, 3]


@pytest.mark.parametrize("name, owners", [
    ("ensure_degree", {"presentations.py"}),
    ("word_basis", {"presentations.py", "rewrite.py"}),
])
def test_only_presentations_certifies(name, owners):
    """A reader in presentations certifies what it reduces or lists (nf,
    basis, reduce_legs, extend_reduced), so no other module completes a
    system or works out how deep it must go."""
    assert [p.name for p in MODULES
            if p.name not in owners and calls(p.read_text(), name)] == []


def modules_imported_from(source):
    """The package modules a source imports by relative import, at any
    depth: `from .m import x` and `from . import m` both name m."""
    found = set()
    for node in ast.walk(parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_presentations_imports_nothing_from_characters():
    """presentations is the core every command loads; characters, which
    needs it, is loaded only by the spectrum suite."""
    source = (MODULES[0].parent / "presentations.py").read_text()
    assert "characters" not in modules_imported_from(source)
    assert modules_imported_from("from .a import b\ndef f():\n    from . import c\n"
                                 "import d\nfrom e import f\n") == {"a", "c"}
