"""Finite-dimensional corepresentations of a Hopf presentation.

A comodule is carried purely by its corepresentation matrix: an n x n
array of algebra elements v_ij with Delta(v_ij) = sum_k v_ik (x) v_kj
and epsilon(v_ij) = delta_ij modulo relations.  Conjugates, tensor
products, unitarity data and exact duality (snake) maps live here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .linalg import LinearSolveError, eigvalsh, mat_inv
from .ncpoly import AlgebraError, NCPoly, TensorPoly
from .presentations import (
    Presentation,
    apply_map,
    apply_scalar_map,
    coproduct_matrix,
    counit_of_word,
    delta_ext,
    reduce_legs,
    sandwich,
    to_scalar,
    unitarity_defects,
)
from .report import Report, timed
from .scalars import S_ONE, S_ZERO, ScalarQ


class ComoduleError(AlgebraError):
    pass


class NonPositiveGramError(ComoduleError):
    pass


@dataclass
class Corep:
    pres: Presentation
    matrix: list  # n x n nested list of NCPoly, kept in normal form

    def __post_init__(self):
        self.matrix = [[self.pres.nf(e) for e in row] for row in self.matrix]

    @property
    def dim(self):
        return len(self.matrix)


def trivial(p: Presentation) -> Corep:
    return Corep(p, [[NCPoly.one(p.alphabet)]])


def one_dim(p: Presentation, poly: NCPoly) -> Corep:
    return Corep(p, [[poly]])


def fundamental(p: Presentation) -> Corep:
    """The generator block v_ij read off the naming scheme: the largest
    family of generators named <prefix><i><j> forming a square matrix."""
    groups = {}
    for name in p.alphabet.names:
        m = re.fullmatch(r"([a-z]+)([1-9])([1-9])", name)
        if m:
            groups.setdefault(m.group(1), {})[
                (int(m.group(2)), int(m.group(3)))
            ] = name
    best = None
    for prefix, cells in groups.items():
        n = max(i for i, _ in cells)
        if all((i, j) in cells for i in range(1, n + 1) for j in range(1, n + 1)):
            if best is None or n > best[0]:
                best = (n, prefix, cells)
    if best is None:
        raise ComoduleError(f"{p.name}: no square generator block found")
    n, _, cells = best
    return Corep(p, [[p.gen(cells[(i, j)]) for j in range(1, n + 1)]
                     for i in range(1, n + 1)])


def conjugate(v: Corep) -> Corep:
    if v.pres.star is None:
        raise ComoduleError(f"{v.pres.name} carries no star structure")
    star = v.pres.star
    return Corep(v.pres, [[star.apply(e) for e in row] for row in v.matrix])


def tensor(v: Corep, w: Corep) -> Corep:
    if v.pres is not w.pres and v.pres.name != w.pres.name:
        raise ComoduleError("tensor factors live over different presentations")
    n, m = v.dim, w.dim
    out = []
    for i in range(n):
        for j in range(m):
            row = []
            for k in range(n):
                for l in range(m):
                    row.append(v.matrix[i][k] * w.matrix[j][l])
            out.append(row)
    return Corep(v.pres, out)


def verify_corep(v: Corep) -> Report:
    """The two matrix comodule axioms modulo relations."""
    p = v.pres
    if p.hopf is None:
        raise ComoduleError(f"{p.name} carries no Hopf data")
    report = Report(f"corep({p.name}, dim {v.dim})")
    with timed(report):
        dext = delta_ext(p)
        eps = counit_of_word(p.hopf)
        delta_v = coproduct_matrix(v.matrix, v.matrix)
        n = v.dim
        for i in range(n):
            for j in range(n):
                lhs = apply_map(v.matrix[i][j], dext, TensorPoly((p.alphabet, p.alphabet)))
                rhs = reduce_legs(delta_v[i][j], (p.rewrite, p.rewrite))
                report.add(f"coassociativity entry ({i + 1},{j + 1})",
                           lhs == rhs,
                           witness=(lhs - rhs).pretty()[:120] if lhs != rhs else "")
                val = apply_scalar_map(v.matrix[i][j], eps)
                want = S_ONE if i == j else S_ZERO
                report.add(f"counit entry ({i + 1},{j + 1})", val == want)
    return report


def unitarity_conjugator(v: Corep, F) -> Report:
    """Whether w = F vbar F^-1 is unitary modulo relations."""
    p = v.pres
    if p.star is None:
        raise ComoduleError(f"{p.name} carries no star structure")
    F = [[to_scalar(x) for x in row] for row in F]
    Finv = mat_inv(F)  # raises LinearSolveError when F is singular
    vbar = conjugate(v).matrix
    n = v.dim
    w = sandwich(F, vbar, Finv)
    wst = [[p.nf(p.star.apply(w[j][i])) for j in range(n)] for i in range(n)]
    report = Report(f"unitarity-conjugator({p.name}, dim {n})")
    with timed(report):
        ww_st, w_st_w = unitarity_defects(w, wst)
        for (i, j), d1, d2 in zip(product(range(n), repeat=2), ww_st, w_st_w):
            for label, s in (("w w*", d1), ("w* w", d2)):
                s = p.nf(s)
                report.add(f"({label})_{i + 1}{j + 1} = delta", s.is_zero(),
                           witness=s.pretty()[:120] if not s.is_zero() else "")
    return report


@dataclass
class UnitaryStructure:
    corep: Corep
    gram: list  # n x n scalar matrix, conjugate-symmetric and invertible


def verify_unitary_structure(u: UnitaryStructure,
                             q_samples=(0.5, 0.9, 2.0)) -> Report:
    """Conjugate symmetry, invertibility, comodule invariance of the
    scalar product, and numerical positivity at sample q."""
    v, g = u.corep, u.gram
    p = v.pres
    n = v.dim
    report = Report(f"unitary-structure({p.name}, dim {n})")
    with timed(report):
        sym = all(g[i][j] == g[j][i].conj() for i in range(n) for j in range(n))
        report.add("gram is conjugate-symmetric", sym)
        try:
            mat_inv([list(r) for r in g])
            report.add("gram is invertible", True)
        except LinearSolveError:
            report.add("gram is invertible", False)
        if p.star is None:
            report.add_undecided("invariance (no star structure)")
        else:
            vst = [[p.nf(p.star.apply(v.matrix[k][i])) for k in range(n)]
                   for i in range(n)]  # vst[i][k] = (v_ki)*
            ok_all = True
            for i in range(n):
                for j in range(n):
                    s = NCPoly.zero(p.alphabet)
                    for k in range(n):
                        for l in range(n):
                            s = s + (vst[i][k] * v.matrix[l][j]).scale(g[k][l])
                    s = p.nf(s - NCPoly.scalar(p.alphabet, g[i][j]))
                    if not s.is_zero():
                        ok_all = False
                        report.add(f"invariance entry ({i + 1},{j + 1})", False,
                                   witness=s.pretty()[:120])
            report.add("invariance sum_kl v*_ki g_kl v_lj = g_ij", ok_all)
        for q0 in q_samples:
            try:
                evs = _gram_eigs(g, q0)
            except LinearSolveError as e:
                report.add_undecided(f"gram positive at q = {q0}", witness=str(e))
                continue
            report.add(f"gram positive at q = {q0}", min(evs) > 0.0,
                       witness=f"min eigenvalue {min(evs):.6g}")
    return report


def _gram_eigs(g, q0):
    """Ascending eigenvalues of the gram evaluated at q0; raises
    LinearSolveError when they do not converge."""
    return eigvalsh([[x.eval(q0) for x in row] for row in g])


def search_diagonal_gram(v: Corep, exp_range=4) -> UnitaryStructure:
    """Search diagonal grams diag(q^{e_i}) (e_1 = 0) for one satisfying
    the comodule-invariance identity."""
    p = v.pres
    if p.star is None:
        raise ComoduleError(f"{p.name} carries no star structure")
    n = v.dim
    vst = [[p.nf(p.star.apply(v.matrix[k][i])) for k in range(n)]
           for i in range(n)]

    def works(exps):
        g = [[ScalarQ.q_power(exps[i]) if i == j else S_ZERO
              for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                s = NCPoly.zero(p.alphabet)
                for k in range(n):
                    s = s + (vst[i][k] * v.matrix[k][j]).scale(g[k][k])
                s = p.nf(s - NCPoly.scalar(p.alphabet, g[i][j]))
                if not s.is_zero():
                    return None
        return g

    def enumerate_exps(pos):
        if pos == n:
            yield []
            return
        for rest in enumerate_exps(pos + 1):
            for e in range(-2 * exp_range, 2 * exp_range + 1, 2):
                yield [e] + rest

    for exps in enumerate_exps(1):
        g = works([0] + exps)
        if g is not None:
            return UnitaryStructure(v, g)
    raise ComoduleError(
        f"{p.name}: no diagonal gram q^(2k) found in range {exp_range}")


def duality_maps(u: UnitaryStructure, q_samples=(0.5, 0.9, 2.0)):
    """Evaluation and coevaluation matrices of the duality pair.

    eval acts by (e-bar_i, e_j) -> gram_ij; coeval inserts
    sum_kl c_kl e_k (x) e-bar_l with c = gram^{-1}, which is exactly what
    the snake identities force.  Raises NonPositiveGramError when the gram
    is not positive at a sample q, and LinearSolveError when its
    eigenvalues there do not converge.
    """
    g = u.gram
    for q0 in q_samples:
        evs = _gram_eigs(g, q0)
        if min(evs) <= 0.0:
            raise NonPositiveGramError(
                f"gram not positive at q = {q0} (min eigenvalue {min(evs):.3g})")
    c = mat_inv([list(r) for r in g])
    return g, c


def snake_check(ev, coev) -> Report:
    """Exact snake identities for a duality pair given as matrices."""
    n = len(ev)
    report = Report(f"snake(dim {n})")
    with timed(report):
        ok1 = ok2 = True
        for i in range(n):
            for j in range(n):
                s1 = s2 = S_ZERO
                for k in range(n):
                    s1 = s1 + coev[i][k] * ev[k][j]
                    s2 = s2 + ev[i][k] * coev[k][j]
                want = S_ONE if i == j else S_ZERO
                if not (s1 == want):
                    ok1 = False
                if not (s2 == want):
                    ok2 = False
        report.add("(1 (x) eval)(coeval (x) 1) = 1", ok1)
        report.add("(eval (x) 1)(1 (x) coeval) = 1", ok2)
    return report
