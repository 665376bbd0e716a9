"""Output checks for the three workloads.

Every expected value comes from a computation made apart from qgal (the
Hilbert function of O(GL_2) from sympy, a character evaluated here in
exact rational arithmetic, a normal form worked out by hand) or from a
property the method must have (idempotence, linearity, irreducibility).
None is a copy of an earlier output.  Each function returns a list of
problems; an empty list means the output passed.

selftest.py feeds every check a deliberately wrong output and requires
it to complain.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

# Q(q) is specialised at this rational point for the character check; no
# denominator qgal produces for the 2x2 family vanishes there.
Q0 = Fraction(3, 2)
Q_SAMPLES = 3       # the README commands use the default --q list
GENERATORS_2X2 = 5  # four matrix entries and one inverse determinant


# ---------------------------------------------------------------------------
# the Hilbert function of the 2x2 family
# ---------------------------------------------------------------------------


def hilbert_2x2(max_degree):
    """dim of the span of monomials of degree <= d in O(GL_2), d = 0..max.

    O(GL_2) = Q[a, b, c, d, t] / (t (ad - bc) - 1).  Its standard
    monomials for a degree-compatible Groebner basis count the filtered
    pieces; the q-deformed 2x2 algebras are flat deformations of it, so
    their normal words of length <= d number the same.
    """
    import sympy

    gens = sympy.symbols("a b c d t")
    a, b, c, d, t = gens
    basis = sympy.groebner([t * (a * d - b * c) - 1], *gens, order="grevlex")
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0]
             for g in basis.exprs]
    counts = []
    for deg in range(max_degree + 1):
        n = 0
        for expo in itertools.product(range(deg + 1), repeat=len(gens)):
            if sum(expo) > deg:
                continue
            if not any(all(e >= l for e, l in zip(expo, lead))
                       for lead in leads):
                n += 1
        counts.append(n)
    return counts


# ---------------------------------------------------------------------------
# cli-readme: the seven README commands
# ---------------------------------------------------------------------------


def _report_items(text):
    """Header status and item lines of a text Report."""
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if re.match(r"\[\w+\] ", line)]
    if not heads:
        return None, []
    head = lines[heads[0]]
    items = [line for line in lines[heads[0] + 1:]
             if re.match(r"  (ok  |FAIL|\?\? ) ", line)]
    return head, items


def _text_report_problems(text):
    head, items = _report_items(text)
    if head is None:
        return ["no report header in the output"]
    problems = []
    if not head.startswith("[PASS] "):
        problems.append(f"report status is not PASS: {head!r}")
    if not items:
        problems.append("report has no items")
    bad = [i for i in items if not i.startswith("  ok")]
    if bad:
        problems.append(f"{len(bad)} items did not pass, e.g. {bad[0]!r}")
    return problems


def cli_problems(argv, out, hilbert):
    """Problems with the standard output of one README command that
    exited 0.  argv is the qgal argument list; hilbert the Hilbert
    function above."""
    problems = []
    command = argv[0]
    if command == "normalize":
        # x12*x11 = q*x11*x12 is the first defining relation of GLq2
        if out.strip() != "q*x11*x12":
            problems.append(f"normal form {out.strip()!r} != 'q*x11*x12'")
    elif command == "parse":
        if out.strip() != "x11*x12 + x11*x21":
            problems.append(f"parsed {out.strip()!r} != 'x11*x12 + x11*x21'")
    elif command == "verify" and "--json" in argv:
        problems += _verify_all_problems(out, hilbert)
    elif command == "verify":
        problems += _text_report_problems(out)
        if "galois" in argv:
            degree = int(argv[argv.index("--degree") + 1])
            _, items = _report_items(out)
            want = galois_items(hilbert, degree)
            if len(items) != want:
                problems.append(f"galois report has {len(items)} items, "
                                f"expected {want}")
    elif command == "haar":
        problems += _text_report_problems(out)
        problems += _haar_table_problems(out, hilbert)
    elif command == "cotensor":
        problems += _text_report_problems(out)
        m = re.search(r"dim\(V wedge Z\) = (\d+)", out)
        # the fibre functor of a Galois extension preserves dimension, and
        # the fundamental comodule has dimension 2
        if not m or int(m.group(1)) != 2:
            problems.append(
                f"cotensor dimension {m.group(1) if m else None}, expected 2")
    else:
        problems.append(f"no check for command {command!r}")
    return problems


def galois_items(hilbert, degree):
    """Items of a Galois report: the witness, beta beta' on A (x) 1 and
    beta' beta on each slot of Z, over the basis of degree <= d."""
    return 1 + hilbert[degree] + 2 * hilbert[degree]


def _verify_all_problems(out, hilbert, degree=2):
    try:
        report = json.loads(out)
    except ValueError:
        return ["verify --json printed no JSON"]
    problems = []
    if report.get("status") != "pass":
        problems.append(f"status {report.get('status')!r}")
    items = report.get("items", [])
    if not items:
        problems.append("no suites in the report")
    bad = [i["desc"] for i in items if i.get("status") != "pass"]
    if bad:
        problems.append(f"suites not passing: {bad}")
    checks = {}
    for item in items:
        m = re.match(r"suite (\w+):", item["desc"])
        n = re.match(r"(\d+) checks", item.get("witness", ""))
        if m and n:
            checks[m.group(1)] = int(n.group(1))
    want = {
        "galois": galois_items(hilbert, degree),
        # invariance on each basis word, exact conjugate symmetry of the
        # Gram matrix, and positivity evidence at each q sample
        "haar": hilbert[degree] + 1 + Q_SAMPLES,
    }
    for suite, n in want.items():
        if checks.get(suite) != n:
            problems.append(
                f"suite {suite} ran {checks.get(suite)} checks, expected {n}")
    return problems


def _haar_table_problems(out, hilbert):
    rows = {}
    for line in out.splitlines():
        m = re.match(r"  (\S+)\s+\((.*)\)$", line)
        if m:
            rows[m.group(1)] = m.group(2)
    problems = []
    if len(rows) != hilbert[1]:
        problems.append(f"haar table has {len(rows)} words, "
                        f"expected {hilbert[1]}")
    if rows.get("1") != "1":
        problems.append(f"mu(1) = {rows.get('1')!r}, expected 1")
    # a Haar state vanishes on the coefficients of every nontrivial
    # irreducible corepresentation, so on every generator
    gens = [w for w in rows if w != "1"]
    if len(gens) != GENERATORS_2X2:
        problems.append(f"{len(gens)} generators in the table, "
                        f"expected {GENERATORS_2X2}")
    nonzero = [w for w in gens if rows[w] != "0"]
    if nonzero:
        problems.append(f"mu nonzero on generators {nonzero}")
    return problems


# ---------------------------------------------------------------------------
# build-catalog: facts gathered from each built presentation
# ---------------------------------------------------------------------------


def build_problems(facts, hilbert):
    """facts: relations_nonzero, overlaps and, after ensure_degree(6),
    word_counts (normal words of each length 0..6)."""
    problems = []
    if facts["relations"] == 0:
        problems.append("no defining relations to check")
    if facts["relations_nonzero"]:
        problems.append(
            f"{facts['relations_nonzero']} defining relations do not "
            f"normalise to 0")
    if facts["overlaps"]:
        problems.append(f"{facts['overlaps']} unresolved overlaps at the "
                        f"completion degree")
    counts = facts.get("word_counts")
    if counts is not None:
        cumulative = list(itertools.accumulate(counts))
        if cumulative != hilbert:
            problems.append(f"normal words of degree <= d: {cumulative}, "
                            f"expected {hilbert}")
    return problems


def presentation_facts(p, degree=None):
    """Facts about a built presentation, for build_problems; with a
    degree, also the count of normal words of each length up to it."""
    rs = p.rewrite
    facts = {
        "relations": len(p.relations),
        "relations_nonzero": sum(1 for rel in p.relations
                                 if not p.nf(rel).is_zero()),
        "overlaps": len(rs.check_overlaps(rs.completion_degree)),
    }
    if degree is not None:
        from qgal.rewrite import word_basis

        counts = [0] * (degree + 1)
        for w in word_basis(rs, degree):
            counts[len(w)] += 1
        facts["word_counts"] = counts
    return facts


# ---------------------------------------------------------------------------
# nf-random: properties of normal forms
# ---------------------------------------------------------------------------


def _contains(word, sub):
    m = len(sub)
    return any(word[i:i + m] == sub for i in range(len(word) - m + 1))


def idempotence_problems(p, out):
    return [] if p.nf(out) == out else ["nf is not idempotent"]


def product_problems(p, x, y, out):
    """out = nf(x*y) must equal nf(nf(x) * nf(y))."""
    if p.nf(p.nf(x) * p.nf(y)) != out:
        return ["nf(x*y) != nf(nf(x)*nf(y))"]
    return []


def irreducible_problems(p, out):
    lhss = [rule.lhs for rule in p.rewrite.rules]
    reducible = [w for w in out.terms if any(_contains(w, l) for l in lhss)]
    if reducible:
        return [f"{len(reducible)} output words contain a rule's "
                f"left-hand side"]
    return []


def nf_problems(p, x, y, out):
    """out is qgal's normal form of x*y in presentation p."""
    return (idempotence_problems(p, out) + product_problems(p, x, y, out)
            + irreducible_problems(p, out))


def linearity_problems(p, z, out, a):
    """out = nf(z) must split over any split of z's terms, and scale with
    the scalar a."""
    from qgal.ncpoly import NCPoly

    half = NCPoly(z.alphabet, dict(list(z.terms.items())[::2]))
    problems = []
    if p.nf(half) + p.nf(z - half) != out:
        problems.append("nf is not additive")
    if p.nf(z.scale(a)) != out.scale(a):
        problems.append("nf does not commute with scaling")
    return problems


def _laurent_at(coeffs, q0):
    return sum((c * q0 ** k for k, c in coeffs.items()), Fraction(0))


def scalar_at(c, q0=Q0):
    """A Q(q) scalar at the rational point q0, exactly."""
    return _laurent_at(c.num.coeffs, q0) / _laurent_at(c.den.coeffs, q0)


def character_at(poly, values, q0=Q0):
    """The character sending generator i to values[i], applied to poly."""
    total = Fraction(0)
    for word, c in poly.terms.items():
        v = scalar_at(c, q0)
        for g in word:
            v *= values[g]
        total += v
    return total


def uq2_characters(a, d):
    """Values on (x11, x12, x21, x22, t) of the counit and of the diagonal
    character x11 -> a, x22 -> d, t -> 1/(ad) of Uq2."""
    return [(Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
            (a, Fraction(0), Fraction(0), d, 1 / (a * d))]


def character_problems(z, out, characters):
    problems = []
    for values in characters:
        before, after = character_at(z, values), character_at(out, values)
        if before != after:
            shown = ", ".join(str(v) for v in values)
            problems.append(f"character ({shown}) moved by nf: "
                            f"{before} -> {after}")
    return problems
