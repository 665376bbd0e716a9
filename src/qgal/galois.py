"""The Galois map beta(x (x) y) = alpha(x) * (1 (x) y): Z (x) Z -> A (x) Z
and its inverse, derived from the translation map.  When Z is A-Galois,
tau(a) = beta^-1(a (x) 1) is an algebra map A -> Z (x) Z^op (Schneider,
Israel J. Math. 72, 1990; Schauenburg, Comm. Algebra 24, 1996).  Word
reversal rev: Z^op -> Z is an algebra anti-isomorphism, so the witness
is tau stored through it, (id (x) rev) tau on generators (index ->
TensorPoly over Z and Z): multiplicative on its left leg,
antimultiplicative on its right, and read in Z alone.  So beta and
beta^-1 are one map, `galois_map`, of the extension it reads: alpha_ext
or tau_ext.  Every function takes the extension it reads, or builds it
once for all its reads.  `translation_witness` solves tau from beta, and
`verify_galois` checks it exactly, so nothing about the solve is
assumed.  No function here works out a completion depth: the maps of
`presentations` certify the legs they reduce as deep as the words they
are given reach, and `verify_galois` reports the degrees its extensions
ended on.
"""

from __future__ import annotations

from .haar import extension_grading
from .linalg import BlockBudgetError, solve_blocks
from .ncpoly import AlgebraError, NCPoly, TensorPoly, apply_map
from .presentations import CoactionData, _short, alpha_ext, extend_reduced, reduce_legs
from .report import Report, Undecided, timed
from .scalars import S_ONE, S_ZERO

# translation_witness solves beta up to this degree
WITNESS_DEGREE_CAP = 4


class NotGaloisError(AlgebraError):
    """beta has a nonzero kernel vector: Z is not A-Galois."""


class WitnessUndecided(AlgebraError, Undecided):
    """The solve for tau stopped short of a value on every generator."""


def galois_map(ext, x: NCPoly, y: NCPoly) -> TensorPoly:
    """ext(x) * (1 (x) y), legs normal-formed through ext.legs: beta(x (x)
    y) for ext = alpha_ext(c), and beta^-1(x (x) y) for ext = tau_ext(tau,
    c), whose right legs are already in Z, since tau is stored through rev."""
    out = apply_map(x, ext, TensorPoly(tuple(p.alphabet for p in ext.legs)))
    return reduce_legs(out.mul_leg(1, y), ext.legs)


def tau_ext(tau, c: CoactionData):
    """tau, stored through rev, extended to the words of A:
    multiplicatively on the left leg and antimultiplicatively on the
    right, so a word x1...xn has right legs v_n...v_1.  Both legs are
    reduced over Z."""
    return extend_reduced(tau, (c.total, c.total), left=(1,))


def validate_witness(c: CoactionData, text) -> Report:
    """tau is an algebra map A -> Z (x) Z^op: it kills every defining
    relation of A, and so the ideal they generate.  text is
    tau_ext(tau, c)."""
    report = Report(f"witness({c.base.name} -> {c.total.name} (x) {c.total.name}^op)")
    with timed(report):
        for rel in c.base.relations:
            report.add_zero("tau kills relation " + _short(rel), apply_map(
                rel, text, TensorPoly((c.total.alphabet, c.total.alphabet))))
    return report


def verify_galois(c: CoactionData, d: int) -> Report:
    """beta beta^-1 = id on basis words of A tensor 1, and beta^-1 beta =
    id on basis words of Z in either slot, exactly, with beta^-1 from
    the witness tau that translation_witness solves.  A kernel vector of
    beta fails the report; a solve that stops short leaves it undecided,
    naming the generators of A it did not reach."""
    report = Report(f"galois({c.total.name} over {c.base.name}, degree {d})")
    with timed(report):
        try:
            tau, solve = translation_witness(c)
        except NotGaloisError as e:
            report.add(f"beta(k) = 0, so {c.total.name} is not Galois", False,
                       witness=str(e)[:120])
            return report
        except WitnessUndecided as e:
            report.add_undecided("translation map solved from beta", witness=str(e))
            return report
        # one extension of each map for every check, so they share memos
        aext, text = alpha_ext(c), tau_ext(tau, c)
        val = validate_witness(c, text)
        report.add("witness validated", val.ok)
        for item in val.items:
            if item.status != "pass":
                report.add(item.desc, False, witness=item.witness)
        A, Z = c.base.alphabet, c.total.alphabet
        one_Z = NCPoly.one(Z)
        if val.ok:
            for wd in c.base.basis(d):
                t = galois_map(text, NCPoly(A, {wd: S_ONE}), one_Z)
                back = apply_map(t, lambda k: galois_map(
                    aext, NCPoly(Z, {k[0]: S_ONE}), NCPoly(Z, {k[1]: S_ONE})),
                    TensorPoly((A, Z)))
                want = TensorPoly((A, Z), {(wd, ()): S_ONE})
                report.add_zero(f"beta beta' fixes {A.word_str(wd)} (x) 1", back - want)
            for wd in c.total.basis(d):
                x = NCPoly(Z, {wd: S_ONE})
                t = galois_map(aext, x, one_Z)
                back = apply_map(t, lambda k: galois_map(
                    text, NCPoly(A, {k[0]: S_ONE}), NCPoly(Z, {k[1]: S_ONE})),
                    TensorPoly((Z, Z)))
                want = TensorPoly((Z, Z), {(wd, ()): S_ONE})
                report.add_zero(f"beta' beta fixes {Z.word_str(wd)} (x) 1", back - want)
                t2 = galois_map(text, NCPoly.one(A), x)
                want2 = TensorPoly((Z, Z), {((), wd): S_ONE})
                report.add_zero(f"beta' beta fixes 1 (x) {Z.word_str(wd)}", t2 - want2)
        # every reduction of the checks went through these legs
        report.params = {
            "degree": d, "relations_checked": len(c.base.relations),
            "leg_completion_degrees": {
                "base": aext.legs[0].rewrite.completion_degree,
                "total": max(p.rewrite.completion_degree
                             for p in (aext.legs[1], *text.legs))},
            **solve}
    return report


def translation_witness(c: CoactionData):
    """(tau, solve): tau on the generators of A, stored through rev, solved
    from beta(t) = a (x) 1 over the pairs u (x) v of normal words of Z
    with |u| + |v| <= e, for e = 1, 2, ... up to WITNESS_DEGREE_CAP, and
    how: the e at which it reached every generator (witness_degree), the
    blocks eliminated and the unknowns of the largest.  One elimination
    serves every generator a, as mat_inv reduces [A | I]: its rows say
    beta(t) = sum_a r_a (a (x) 1).  beta(u (x) v) has left legs of the row
    grade of u (see haar.extension_grading), so the blocks of one grade
    each are solved apart, those of generators not yet reached.  Passing
    the cap or linalg.BLOCK_BUDGET first is WitnessUndecided, naming the
    generators still missing."""
    A = c.base.alphabet
    zleft, aleft, _ = extension_grading(c)
    aext = alpha_ext(c)   # one extension for every round, sharing its memo
    solved, cols = {}, {}   # generator -> tau of it; (u, v) -> beta(u (x) v)
    sizes = []
    for e in range(1, WITNESS_DEGREE_CAP + 1):
        words = c.total.basis(e)
        blocks = {}
        for g in range(len(A)):
            if g not in solved:
                blocks.setdefault(aleft((g,)), []).append(g)
        blocks = {grade: [*((u, v) for u in words if zleft(u) == grade
                            for v in words if len(u) + len(v) <= e), *gens]
                  for grade, gens in blocks.items()}
        try:
            solved.update(_solve_tau(c, aext, blocks, cols))
        except BlockBudgetError as err:
            grade, size, budget = err.args
            raise WitnessUndecided(
                f"{_missing(A, solved)}: the block of row grade {grade} has {size} "
                f"unknowns at degree {e}, over the budget of {budget}") from None
        sizes.extend(map(len, blocks.values()))
        if len(solved) == len(A):
            return solved, {"witness_degree": e, "blocks": len(sizes),
                            "largest_block": max(sizes, default=0)}
    raise WitnessUndecided(
        f"{_missing(A, solved)}: no solution up to degree {WITNESS_DEGREE_CAP}, the cap")


def _solve_tau(c: CoactionData, aext, blocks, cols):
    """Yield (g, tau(g)), from t with beta(t) = g (x) 1, for each g of
    `blocks` (grade -> the pairs (u, v), then the generators g) that the
    pairs of its block reach, with beta(u (x) v) read through aext =
    alpha_ext(c) and memoised in cols.  A free pair is an exact kernel
    vector of beta: NotGaloisError shows it.  The variable r_g is the int
    g, pivoted on last, so tau(g) is the kernel vector of a free r_g that
    holds no other r_g'."""
    A, Z = c.base.alphabet, c.total.alphabet

    def equations(grade):
        rows = {}
        for var in blocks[grade]:
            if type(var) is int:
                terms = c.base.nf(NCPoly(A, {(var,): S_ONE})).terms
                for wd, s in terms.items():
                    rows.setdefault((wd, ()), {})[var] = -s
                continue
            if var not in cols:
                cols[var] = galois_map(aext, NCPoly(Z, {var[0]: S_ONE}),
                                       NCPoly(Z, {var[1]: S_ONE}))
            for key, s in cols[var].terms.items():
                rows.setdefault(key, {})[var] = s
        return ((row, S_ZERO) for row in rows.values())

    for unknowns, reducer in solve_blocks(
            blocks, equations, lambda x: (1, x) if type(x) is int else (0, x[1], x[0])):
        for var, k in reducer.kernel(unknowns).items():
            if type(var) is not int:
                raise NotGaloisError(f"k = {TensorPoly((Z, Z), k).pretty()}")
            # g is reached when its kernel vector holds no other r_g'
            del k[var]
            if all(type(x) is not int for x in k):
                yield var, TensorPoly((Z, Z), k)


def _missing(A, solved):
    """The generators of A without a value, as an error message names them."""
    return "no value for " + ", ".join(
        name for g, name in enumerate(A.names) if g not in solved)
