"""The Galois map beta(x (x) y) = alpha(x) * (1 (x) y): Z (x) Z -> A (x) Z
and its inverse, derived from the translation map.  When Z is A-Galois,
tau(a) = beta^-1(a (x) 1) is an algebra map A -> Z (x) Z^op (Schneider,
Israel J. Math. 72, 1990; Schauenburg, Comm. Algebra 24, 1996).  The
witness is tau on generators (index -> TensorPoly over Z and Z^op, which
share an alphabet): `translation_witness` solves it from beta, and
`verify_galois` checks it exactly, so nothing about the solve is assumed.
"""

from __future__ import annotations

from .haar import extension_grading
from .linalg import RowReducer
from .ncpoly import AlgebraError, NCPoly, TensorPoly, apply_map
from .presentations import (
    CoactionData,
    MonomialOrder,
    Presentation,
    _finish,
    _short,
    alpha_ext,
    extend_reduced,
    reduce_legs,
)
from .report import Report, Undecided, timed
from .rewrite import word_basis
from .scalars import S_ONE, S_ZERO

# translation_witness solves beta up to this degree, in graded blocks of
# at most this many unknowns
WITNESS_DEGREE_CAP = 4
WITNESS_BLOCK_BUDGET = 4000


class NotGaloisError(AlgebraError):
    """beta has a nonzero kernel vector: Z is not A-Galois."""


class WitnessUndecided(AlgebraError, Undecided):
    """The solve for tau stopped short of a value on every generator."""


def galois_map(x: NCPoly, y: NCPoly, c: CoactionData, aext=None) -> TensorPoly:
    """beta(x (x) y) = alpha(x) * (1 (x) y), legs normal-formed.  aext is
    alpha_ext(c), built here unless the caller shares one across calls."""
    aext = aext or alpha_ext(c)
    out = apply_map(x, aext, TensorPoly((c.base.alphabet, c.total.alphabet)))
    return reduce_legs(out.mul_leg(1, y), (c.base.rewrite, c.total.rewrite))


def _width(images, leg):
    """The largest word degree in one leg of the tensor images."""
    return max((len(k[leg]) for t in images.values() for k in t.terms), default=0)


def tau_ext(tau, c: CoactionData, k: int):
    """tau extended to the words of A of length <= k, legs reduced over
    Z and over Z^op certified as deep as those words reach."""
    return extend_reduced(tau, (c.total, opposite(c.total, k * _width(tau, 1))))


def galois_inverse(a: NCPoly, y: NCPoly, tau, c: CoactionData, text=None) -> TensorPoly:
    """beta^-1(a (x) y) = tau(a) (1 (x) y), the right leg of tau(a) read
    from Z^op into Z by reversing its words; legs normal-formed over Z.
    text is tau_ext(tau, c, k) for some k >= a.degree(), built here
    unless the caller shares it."""
    text = text or tau_ext(tau, c, a.degree())
    Z = c.total.alphabet
    t = apply_map(a, text, TensorPoly((Z, Z)))
    out = TensorPoly((Z, Z), {(u, v[::-1]): s for (u, v), s in t.terms.items()})
    return reduce_legs(out.mul_leg(1, y), (c.total.rewrite, c.total.rewrite))


def validate_witness(c: CoactionData, tau, text=None) -> Report:
    """tau is an algebra map A -> Z (x) Z^op: it kills every relation of
    A.  text as in galois_inverse, for k the largest relation degree."""
    report = Report(f"witness({c.base.name} -> {c.total.name} (x) {c.total.name}^op)")
    with timed(report):
        text = text or tau_ext(tau, c, max(r.degree() for r in c.base.relations))
        for rel in c.base.relations:
            report.add_zero("tau kills relation " + _short(rel), apply_map(
                rel, text, TensorPoly((c.total.alphabet, c.total.alphabet))))
    return report


def verify_galois(c: CoactionData, d: int, tau=None) -> Report:
    """beta beta^-1 = id on basis words of A tensor 1, and beta^-1 beta =
    id on basis words of Z in either slot, exactly, with beta^-1 from
    the witness tau, solved by translation_witness when None.  A kernel
    vector of beta fails the report; a solve that stops short leaves it
    undecided, naming the generators of A it did not reach."""
    report = Report(f"galois({c.total.name} over {c.base.name}, degree {d})")
    with timed(report):
        try:
            tau = tau or translation_witness(c)
        except NotGaloisError as e:
            report.add(f"beta(k) = 0, so {c.total.name} is not Galois", False,
                       witness=str(e)[:120])
            return report
        except WitnessUndecided as e:
            report.add_undecided("translation map solved from beta", witness=str(e))
            return report
        # certify what the checks reach: tau on relations of A and on alpha's
        # left legs, whose right legs multiply the reversed right legs of tau
        wA, wZ, wR = _width(c.alpha, 0), _width(c.alpha, 1), _width(tau, 1)
        reach = max(max(r.degree() for r in c.base.relations), d * wA)
        c = c.ensure_degree(max(d, 2, d * wA),
                            max(3 * d, reach * _width(tau, 0), d * wA * wR + d * wZ))
        # one extension of each map for every check, so they share memos
        aext = alpha_ext(c)
        text = tau_ext(tau, c, reach)
        val = validate_witness(c, tau, text)
        report.add("witness validated", val.ok)
        if not val.ok:
            for item in val.items:
                if item.status != "pass":
                    report.add(item.desc, False, witness=item.witness)
            return report
        A, Z = c.base.alphabet, c.total.alphabet
        one_Z = NCPoly.one(Z)
        for wd in word_basis(c.base.rewrite, d):
            a = NCPoly(A, {wd: S_ONE})
            t = galois_inverse(a, one_Z, tau, c, text)
            back = apply_map(t, lambda k: galois_map(
                NCPoly(Z, {k[0]: S_ONE}), NCPoly(Z, {k[1]: S_ONE}), c, aext),
                TensorPoly((A, Z)))
            back = reduce_legs(back, (c.base.rewrite, c.total.rewrite))
            want = TensorPoly((A, Z), {(wd, ()): S_ONE})
            report.add_zero(f"beta beta' fixes {A.word_str(wd)} (x) 1", back - want)
        for wd in word_basis(c.total.rewrite, d):
            x = NCPoly(Z, {wd: S_ONE})
            t = galois_map(x, one_Z, c, aext)
            back = apply_map(t, lambda k: galois_inverse(
                NCPoly(A, {k[0]: S_ONE}), NCPoly(Z, {k[1]: S_ONE}), tau, c, text),
                TensorPoly((Z, Z)))
            back = reduce_legs(back, (c.total.rewrite, c.total.rewrite))
            want = TensorPoly((Z, Z), {(wd, ()): S_ONE})
            report.add_zero(f"beta' beta fixes {Z.word_str(wd)} (x) 1", back - want)
            t2 = galois_inverse(NCPoly.one(A), x, tau, c, text)
            want2 = TensorPoly((Z, Z), {((), wd): S_ONE})
            report.add_zero(f"beta' beta fixes 1 (x) {Z.word_str(wd)}", t2 - want2)
    return report


def translation_witness(c: CoactionData) -> dict:
    """tau on the generators of A, solved from beta(t) = a (x) 1 over the
    pairs u (x) v of normal words of Z with |u| + |v| <= e, for e = 1, 2,
    ... up to WITNESS_DEGREE_CAP.  One elimination serves every generator
    a, as mat_inv reduces [A | I]: its rows say beta(t) = sum_a r_a (a (x)
    1).  beta(u (x) v) has left legs of the row grade of u (see
    haar.extension_grading), so the blocks of one grade each are solved
    apart, those of generators not yet reached.  A free unknown is an
    exact kernel vector of beta: NotGaloisError shows it.  Passing the cap
    or WITNESS_BLOCK_BUDGET first is WitnessUndecided, naming the
    generators still missing."""
    A, Z = c.base.alphabet, c.total.alphabet
    wA, wZ = _width(c.alpha, 0), _width(c.alpha, 1)
    solved, cols = {}, {}   # generator -> tau of it; (u, v) -> beta(u (x) v)
    for e in range(1, WITNESS_DEGREE_CAP + 1):
        ce = c.ensure_degree(e * wA, e * max(wZ, 1))
        zleft, aleft, _ = extension_grading(ce)
        aext = alpha_ext(ce)
        words = word_basis(ce.total.rewrite, e)
        blocks = {}
        for g in range(len(A)):
            if g not in solved:
                blocks.setdefault(aleft((g,)), []).append(g)
        for grade, gens in blocks.items():
            pairs = [(u, v) for u in words if zleft(u) == grade
                     for v in words if len(u) + len(v) <= e]
            if len(pairs) > WITNESS_BLOCK_BUDGET:
                raise WitnessUndecided(f"{_missing(A, solved)}: the block of row grade "
                                       f"{grade} has {len(pairs)} unknowns at degree "
                                       f"{e}, over the budget of {WITNESS_BLOCK_BUDGET}")
            for u, v in pairs:
                if (u, v) not in cols:
                    cols[u, v] = galois_map(NCPoly(Z, {u: S_ONE}),
                                            NCPoly(Z, {v: S_ONE}), ce, aext)
            solved.update(_solve_block(ce, pairs, cols, gens))
        if len(solved) == len(A):
            return solved
    raise WitnessUndecided(
        f"{_missing(A, solved)}: no solution up to degree {WITNESS_DEGREE_CAP}, the cap")


def _solve_block(c: CoactionData, pairs, cols, gens):
    """generator g -> tau(g), from t with beta(t) = g (x) 1 over the
    unknowns `pairs`, for each g in gens that they reach; NotGaloisError
    on a free unknown.  The variable r_g is the int g, pivoted on last."""
    A, Z = c.base.alphabet, c.total.alphabet
    rows = {}
    for pair in pairs:
        for key, s in cols[pair].terms.items():
            rows.setdefault(key, {})[pair] = s
    for g in gens:
        for wd, s in c.base.nf(NCPoly(A, {(g,): S_ONE})).terms.items():
            rows.setdefault((wd, ()), {})[g] = -s
    reducer = RowReducer(lambda x: (1, x) if type(x) is int else (0, x[1], x[0]))
    for row in rows.values():
        reducer.add_equation(row, S_ZERO)
    pivots = reducer.rows
    for free in pairs:
        if free not in pivots:
            k = {free: S_ONE, **{p: -row[free] for p, (row, _) in pivots.items()
                                 if free in row}}
            raise NotGaloisError(f"k = {TensorPoly((Z, Z), k).pretty()}")
    # g is reached when no row pivoted on a generator holds r_g
    held = {x for p, (row, _) in pivots.items() if type(p) is int for x in row}
    return {g: TensorPoly((Z, Z), {(p[0], p[1][::-1]): -row[g]
                                   for p, (row, _) in pivots.items() if g in row})
            for g in gens if g not in held}


def _missing(A, solved):
    """The generators of A without a value, as an error message names them."""
    return "no value for " + ", ".join(
        name for g, name in enumerate(A.names) if g not in solved)


_OPPOSITE_CACHE = {}


def opposite(p: Presentation, d: int) -> Presentation:
    """Opposite presentation: every relation word reversed, completed to
    degree d."""
    # keyed by content and certified degree, since two file presentations
    # may share a name, and by name, since GLq2m2 and Uq2m2 share content
    key = (p.name, p.alphabet, tuple(p.relations), d)
    if key not in _OPPOSITE_CACHE:
        rels = [NCPoly(p.alphabet, {wd[::-1]: s for wd, s in rel.terms.items()})
                for rel in p.relations]
        _OPPOSITE_CACHE[key] = _finish(p.name + "^op", p.alphabet, rels,
                                       MonomialOrder(p.alphabet), completion_degree=d)
    return _OPPOSITE_CACHE[key]
