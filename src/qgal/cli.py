"""Command line entry point.

    qgal verify <target> --suite <name> [--degree D] [--q LIST] [--json]
    qgal haar <target> [--degree D] [--q LIST] [--json]
    qgal cotensor <target> [--comodule SPEC] [--degree D] [--q LIST] [--json]
    qgal normalize <target> <expr> [--json]
    qgal parse <target> <expr>

Targets are catalog names (GLq2, Uq2, GLq2m2, Uq2m2, GLqm22, Onp, AuFG,
AuF) or presentation/coaction files in the text DSL.  Every normal form a
command reports or computes with is certified unique: the rewrite system
is completed as deep as the words it reduces reach (see presentations),
so `normalize` completes it to the degree of the expression.  --q takes
a nonempty comma list of finite, nonzero reals.  --comodule takes
trivial, fundamental (the default), conjugate, or tensor<k>: the k-fold
tensor power of the fundamental comodule, for k >= 1 in digits (tensor
alone is tensor2).
Exit codes:

    0  pass
    1  fail
    2  undecided: an item of the report, or a computation that stopped
       short (a non-unique linear solution, a block of a linear system
       over the block budget, a completion budget); the reason goes to
       stderr
    3  usage, parse or algebra error (unknown target, unknown flag or a
       flag value that does not parse, a QGAL_DEGREE_CAP that is no
       integer >= 0, a suite that needs a star structure the target
       lacks, ...)
    4  internal error, with its traceback on stderr; out of memory
       prints a fixed message and no traceback
    141  standard output was closed by its reader (`qgal ... | head`),
       128 + SIGPIPE as a shell reports it; no traceback

At start-up this module imports only the core: presentations, and the
ncpoly, rewrite, scalars and report modules it uses.  Each command
imports the layers it runs, where it runs them:

    parse, normalize, verify --suite star|hopf|coaction   the core only
    verify --suite spectrum             characters
    verify --suite galois               galois, haar, linalg
    haar, verify --suite haar           haar, linalg
    cotensor, verify --suite cotensor|biunitarity
                                        comodules, cotensor, haar, linalg
    verify --suite all                  the layers of its suites

Building AuF or AuFG also loads linalg, for the inverses of F and G.
`python3 -X importtime -c "import qgal.cli"` shows what start-up costs.
No module of qgal imports the standard dataclass module, which would
bring `inspect`, `ast`, `dis` and `tokenize` with it and so slow
start-up: the records are plain classes with __slots__.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time

from . import __version__, presentations
from .ncpoly import AlgebraError, ParseError, parse_expr
from .presentations import CoactionData
from .report import FAIL, PASS, Report, ReportItem, UNDECIDED, Undecided, timed
from .scalars import Q_SAMPLES

SUITES = ("hopf", "star", "coaction", "galois", "haar", "biunitarity",
          "cotensor", "spectrum", "all")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections are usage errors, exit 3, like
    every other usage error; argparse itself exits 2, which qgal reserves
    for undecided.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: {message}")


def _catalog_params(target, args):
    """The target's parameters that the command line sets (--n, --p);
    CliError for a flag that the target does not take."""
    entry = presentations.CATALOG.get(target)
    params = {k: v for k in ("n", "p") if (v := getattr(args, k, None)) is not None}
    extra = params.keys() - (entry.defaults if entry else {}).keys()
    if extra:
        raise CliError(f"target {target!r} takes no --{min(extra)}")
    return params


# (real path, text, the presentations a coaction file names) -> the file
# parsed, so that a process parses each file once
_FILES = {}


def _load(target, args, chain=()):
    """A catalog target's presentation, or a file target parsed: a
    coaction file to its CoactionData, any other to its Presentation.
    A name in a coaction file that is no catalog entry is a file path
    relative to the coaction file's directory.  `chain` holds the real
    paths of the coaction files being resolved; naming one is a CliError."""
    catalogued = target in presentations.CATALOG
    if not (catalogued or os.path.isfile(target)):
        raise CliError(f"unknown target {target!r} (not a catalog name or file)")
    params = _catalog_params(target, args)
    if catalogued:
        return presentations.catalog(target, **params)
    path = os.path.realpath(target)
    if path in chain:
        raise CliError(f"cycle of coaction files: {' -> '.join(chain + (path,))}")
    with open(path) as fh:
        text = fh.read()
    sections, names = presentations.read_dsl(text)
    legs = tuple(resolve_presentation(name if name in presentations.CATALOG else
                                      os.path.join(os.path.dirname(target), name),
                                      args, chain + (path,))
                 for name in names or ())
    key = (path, text, legs)
    if key not in _FILES:
        _FILES[key] = (presentations.parse_coaction_text(
            text, dict(zip(names, legs)).get, sections) if names
            else presentations.parse_presentation_text(text, sections))
    return _FILES[key]


def resolve_presentation(target, args, chain=()):
    """The target's presentation; that of a coaction file is its total.
    A catalog target's coaction is not built.  `chain` is `_load`'s."""
    data = _load(target, args, chain)
    return data.total if isinstance(data, CoactionData) else data


def resolve_coaction(target, args) -> CoactionData:
    """The target's coaction; a Hopf algebra without one coacts on itself
    by its coproduct."""
    entry = presentations.CATALOG.get(target)
    if entry is not None and entry.coaction is not None:
        return presentations.coaction(target, **_catalog_params(target, args))
    data = _load(target, args)
    if isinstance(data, CoactionData):
        return data
    if data.hopf is not None:
        return CoactionData(data, data, dict(data.hopf.delta))
    raise CliError(f"no coaction data for target {target!r}")


def _by_coproduct(c: CoactionData) -> bool:
    """Whether c is a Hopf algebra coacting on itself by its coproduct.
    A coaction file may name one presentation as both legs, and then its
    base is its total, but its alpha is its own."""
    return (c.base is c.total and c.base.hopf is not None
            and c.alpha == c.base.hopf.delta)


def comodule_for(spec, base):
    """The comodule that a --comodule spec names (see the module
    docstring); CliError for any other spec."""
    from . import comodules

    spec = spec.lower()
    if spec == "trivial":
        return comodules.trivial(base)
    if spec == "fundamental":
        return comodules.fundamental(base)
    if spec == "conjugate":
        return comodules.conjugate(comodules.fundamental(base))
    m = re.fullmatch(r"tensor([0-9]*)", spec)
    k = int(m.group(1) or "2") if m else 0
    if k < 1:
        raise CliError(f"unknown comodule spec {spec!r} (trivial, fundamental, "
                       "conjugate or tensor<k> with k >= 1)")
    v = comodules.fundamental(base)
    out = v
    for _ in range(k - 1):
        out = comodules.tensor(out, v)
    return out


def _haar_pair(c: CoactionData, degree):
    """J on the base and mu on the extension, deep enough for degree-d
    Gram matrices (star doubles word degree, products triple it)."""
    from . import haar

    depth = 3 * degree
    J = haar.haar_on_hopf(c.base, d=depth)
    if _by_coproduct(c):
        return J, J
    return J, haar.haar_on_extension(c, J, depth)


def _haar_params(J, mu):
    """A Haar report's provenance: how J, and mu when it is not J, were
    solved (see LinearFunctional.provenance)."""
    return {"J": J.provenance} if mu is J else \
        {"J": J.provenance, "mu": mu.provenance}


# -- suites -----------------------------------------------------------------


def run_suite(target, suite, args):
    degree = args.degree
    q_samples = args.q
    if suite == "star":
        return presentations.verify_star(resolve_presentation(target, args))
    if suite == "hopf":
        return presentations.verify_hopf(resolve_presentation(target, args))
    if suite == "coaction":
        return presentations.verify_coaction(resolve_coaction(target, args))
    if suite == "spectrum":
        from . import characters

        # a coaction's base may lend the target its counit as a character;
        # the entry says whether their generator names can match at all
        entry = presentations.CATALOG.get(target)
        base = None
        if entry is not None and entry.base_names:
            base = resolve_coaction(target, args).base
        return characters.spectrum_report(resolve_presentation(target, args),
                                          base=base)
    if suite == "galois":
        from . import galois

        return galois.verify_galois(resolve_coaction(target, args), degree)
    if suite == "biunitarity":
        from . import cotensor

        c = resolve_coaction(target, args)
        if c.total.block is None:
            raise CliError(f"{c.total.name} declares no generator block")
        return cotensor.verify_biunitarity(c, c.total.block)
    if suite == "haar":
        from . import haar

        t0 = time.perf_counter()
        c = resolve_coaction(target, args)
        J, mu = _haar_pair(c, degree)
        report = haar.verify_invariance(c, mu, degree)
        pos = haar.gram_positivity(c.total, mu, degree, q_samples)
        report.items.extend(pos.items)
        report.check_name = f"haar({c.total.name}, degree {degree})"
        report.params = {**pos.params, **_haar_params(J, mu)}
        report.timing_ms = (time.perf_counter() - t0) * 1000.0
        return report
    if suite == "cotensor":
        return _cotensor_report(target, args, "fundamental", degree)
    raise CliError(f"unknown suite {suite!r}")


def _cotensor_report(target, args, spec, degree):
    """Dimension of V wedge Z at `degree` and its stability from degree - 1,
    then the Gram matrix of the kernel basis under the Haar measure.  For
    the fundamental comodule that Gram is the identity; for any other V
    the basis is only echelon, not orthonormal, so its Gram gets exact
    conjugate symmetry and positivity evidence at the --q samples."""
    from . import cotensor, haar

    c = resolve_coaction(target, args)
    v = comodule_for(spec, c.base)
    report = Report(f"cotensor({c.total.name}, {spec}, degree {degree})")
    report.params = {"degree": degree, "comodule": spec}
    with timed(report):
        dims = {}
        elements = None
        for d in ([degree - 1, degree] if degree >= 1 else [degree]):
            elements = cotensor.compute_cotensor(v, c, max(d, 0))
            dims[d] = len(elements)
        ds = sorted(dims)
        stable = len(ds) < 2 or dims[ds[0]] == dims[ds[1]]
        report.add(
            f"dim(V wedge Z) = {dims[ds[-1]]} at degree {ds[-1]}", True,
            witness="; ".join(e.pretty() for e in elements))
        if len(ds) == 2:
            desc = f"dimension stable from degree {ds[0]} to {ds[1]}"
            witness = f"dims {dims[ds[0]]} -> {dims[ds[1]]}"
            # a kernel vector pairs V's coefficients with elements of Z of
            # at least their degree, so below it equal dimensions prove
            # nothing
            coeff_degree = max(e.degree() for row in v.matrix for e in row)
            if ds[0] < coeff_degree:
                report.add_undecided(desc, witness=(
                    f"{witness}; degree {ds[0]} is below the comodule's "
                    f"coefficient degree {coeff_degree}"))
            else:
                report.add(desc, stable, witness=witness)
        if c.total.star is not None and c.base.hopf is not None and elements:
            _, mu = _haar_pair(c, max(e.degree() for e in elements))
            gram = [[cotensor.cotensor_inner(x, y, mu) for y in elements]
                    for x in elements]
            pretty = "; ".join(" ".join(repr(g) for g in row) for row in gram)
            if spec == "fundamental":
                ident = all(
                    (gram[i][j] == (1 if i == j else 0))
                    for i in range(len(gram)) for j in range(len(gram)))
                report.add("Gram matrix under the Haar measure is the identity",
                           ident, witness=pretty)
            else:
                haar.check_gram(report, gram, args.q, witness=pretty)
                report.params["q_samples"] = list(args.q)
    return report


def suites_for(target, args):
    """Each suite whose data the resolved target has.  A Hopf algebra
    coacting on itself by its coproduct gets haar and galois, but no
    suite of a coaction of its own."""
    p = resolve_presentation(target, args)
    try:
        c = resolve_coaction(target, args)
    except CliError:
        c = None
    own = c is not None and not _by_coproduct(c)
    has = {
        "hopf": p.hopf is not None,
        "star": p.star is not None,
        "spectrum": True,
        "coaction": own,
        "biunitarity": own and p.star is not None and p.block is not None,
        "haar": c is not None and p.star is not None and c.base.hopf is not None,
        "cotensor": own and c.base.block is not None,
        "galois": c is not None,
    }
    return [suite for suite, ok in has.items() if ok]


def run_all(target, args):
    """Every suite that applies to the target, as one combined report."""
    master = Report(f"all({target})")
    total_ms = 0.0
    for suite in suites_for(target, args):
        sub = run_suite(target, suite, args)
        total_ms += sub.timing_ms
        n_fail = sum(1 for i in sub.items if i.status == FAIL)
        master.items.append(ReportItem(
            f"suite {suite}: {sub.check_name}", sub.status,
            f"{len(sub.items)} checks, {n_fail} failures"))
        if not args.json:
            print(sub.render())
    master.timing_ms = total_ms
    master.params = {"degree": args.degree, "q_samples": list(args.q)}
    return master


# -- argument handling ------------------------------------------------------


def _q_list(text):
    """--q: a nonempty comma list of finite, nonzero reals.  A list that
    does not parse is an argparse error; a value outside the domain
    raises CliError.  main reports both with exit 3."""
    try:
        qs = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad q list {text!r}")
    if not qs:
        raise CliError(f"empty q list {text!r}")
    if any(q0 == 0.0 for q0 in qs):
        raise CliError("q = 0 is outside the valid parameter domain")
    if not all(math.isfinite(q0) for q0 in qs):
        raise CliError(f"q samples must be finite, got {text!r}")
    return qs


def _degree(text):
    """--degree: an integer >= 0; main reports any other value with exit 3."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"degree must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser():
    ap = _Parser(
        prog="qgal",
        description="Exact workbench for q-deformed Hopf algebras, their "
                    "Galois extensions, Haar functionals and cotensor data.")
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {"--degree": {"type": _degree, "default": 2},
             "--q": {"type": _q_list, "default": list(Q_SAMPLES)},
             "--json": {"action": "store_true"}}

    def common(sp, *names):
        """The target, --n, --p and, of the flags, those that sp reads."""
        sp.add_argument("target")
        for name in names:
            sp.add_argument(name, **flags[name])
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--p", type=int, default=None)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, "--degree", "--q", "--json")
    sp.add_argument("--suite", choices=SUITES, default="all")

    sp = sub.add_parser("haar", help="Haar functional table and positivity")
    common(sp, "--degree", "--q", "--json")

    sp = sub.add_parser("cotensor", help="cotensor dimension and Gram data")
    common(sp, "--degree", "--q", "--json")
    sp.add_argument("--comodule", default="fundamental")

    sp = sub.add_parser("normalize", help="normal form of an expression")
    common(sp, "--json")
    sp.add_argument("expr")

    sp = sub.add_parser("parse", help="parse and echo an expression")
    common(sp)
    sp.add_argument("expr")
    return ap


def _target_params(target, args):
    """A catalog target's parameters in effect, its entry's defaults
    updated by --n and --p, a matrix as rows of scalar reprs; None for a
    file target."""
    entry = presentations.CATALOG.get(target)
    return None if entry is None else {
        k: [list(map(repr, row)) for row in v] if isinstance(v, list) else v
        for k, v in {**entry.defaults, **_catalog_params(target, args)}.items()}


def _emit(report: Report, args) -> int:
    """Print a verify, haar, cotensor or normalize report.  Its params
    gain the provenance of the run: the qgal version, the target and its
    parameters in effect (`target_params`), and the completion degree and
    rule count of the longest completion of the target's rewrite system
    in this process, which is the one the command used, since each
    command runs in its own process.  A report's own params win; galois
    names the completion degrees its legs were read at apart
    (`leg_completion_degrees`), so `completion_degree` is always this
    int."""
    rs = resolve_presentation(args.target, args).deepest().rewrite
    report.params = {"qgal_version": __version__, "target": args.target,
                     "target_params": _target_params(args.target, args),
                     "completion_degree": rs.completion_degree,
                     "rules": len(rs.rules), **report.params}
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        print(f"  ({report.timing_ms:.0f} ms)")
    return {PASS: 0, FAIL: 1, UNDECIDED: 2}[report.status]


def cmd_verify(args) -> int:
    if args.suite == "all":
        report = run_all(args.target, args)
    else:
        report = run_suite(args.target, args.suite, args)
        report.params.setdefault("degree", args.degree)
        report.params.setdefault("q_samples", list(args.q))
    return _emit(report, args)


def cmd_haar(args) -> int:
    from . import haar

    c = resolve_coaction(args.target, args)
    J, mu = _haar_pair(c, args.degree)
    report = Report(f"haar({c.total.name}, degree {args.degree})")
    with timed(report):
        shown = [w for w in mu.basis if len(w) <= args.degree]
        table = "; ".join(
            f"{c.total.alphabet.word_str(w)} -> {mu.values[w]!r}" for w in shown)
        report.add(f"functional solved on {len(shown)} basis words", True,
                   witness=table)
        inv = haar.verify_invariance(c, mu, args.degree)
        report.add("invariance (1 (x) mu) alpha = mu(.) 1", inv.ok,
                   witness=f"{len(inv.items)} words checked")
        pos = haar.gram_positivity(c.total, mu, args.degree, args.q) \
            if c.total.star is not None else None
        if pos is not None:
            report.items.extend(pos.items)
            report.params = dict(pos.params)
        report.params.update(_haar_params(J, mu))
    if not args.json:
        for w in shown:
            print(f"  {c.total.alphabet.word_str(w):24s} {mu.values[w]!r}")
    return _emit(report, args)


def cmd_cotensor(args) -> int:
    report = _cotensor_report(args.target, args, args.comodule, args.degree)
    return _emit(report, args)


def cmd_normalize(args) -> int:
    p = resolve_presentation(args.target, args)
    expr = parse_expr(args.expr, p.alphabet)
    poly = p.nf(expr)
    if not args.json:
        print(poly.pretty())
        return 0
    report = Report(f"normalize({args.target})")
    report.add("normal form", True, witness=poly.pretty())
    return _emit(report, args)


def cmd_parse(args) -> int:
    p = resolve_presentation(args.target, args)
    poly = parse_expr(args.expr, p.alphabet)
    print(poly.pretty())
    return 0


def main(argv=None) -> int:
    handlers = {
        "verify": cmd_verify,
        "haar": cmd_haar,
        "cotensor": cmd_cotensor,
        "normalize": cmd_normalize,
        "parse": cmd_parse,
    }
    try:
        args = build_parser().parse_args(argv)  # may raise CliError
        status = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # as the Python docs advise: stdout goes to devnull, so that the
        # flush at interpreter exit finds no closed pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Undecided as e:
        print(f"undecided: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except (CliError, AlgebraError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        # no traceback, whose module and text would need memory: a constant
        # written straight to the file descriptor
        os.write(2, b"internal error: out of memory\n")
        return 4
    except Exception as e:
        import traceback  # only on this path: it would add to start-up

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
