"""Finite-dimensional corepresentations of a Hopf presentation.

A comodule is carried purely by its corepresentation matrix: an n x n
array of algebra elements v_ij with Delta(v_ij) = sum_k v_ik (x) v_kj
and epsilon(v_ij) = delta_ij modulo relations.  Conjugates, tensor
products, unitarity data and exact duality (snake) maps live here.
Every matrix product among them, save the Kronecker product of
`tensor`, is presentations.mat_mul: the coproduct of v, the twisted
conjugate F vbar F^-1, v v* and v* g v, and the snake composites.

The fundamental comodule is the generator block that the presentation's
catalog builder declares (Presentation.block), never one guessed from
generator names; a presentation read from a file declares none.

The commands reach the comodules of `--comodule` and `add_unitarity`
(`verify --suite biunitarity`).  verify_corep, unitarity_conjugator,
verify_unitary_structure, search_diagonal_gram, duality_maps and
snake_check are Python API with no command yet.
"""

from __future__ import annotations

from itertools import product

from .haar import add_gram_sample
from .linalg import LinearSolveError, mat_inv
from .ncpoly import AlgebraError, NCPoly, TensorPoly, apply_map, extend_anti
from .presentations import (
    Presentation,
    delta_ext,
    mat_mul,
    reduce_legs,
    scalar_matrix,
    star_entries,
    star_transpose,
    unitarity_defects,
)
from .report import FAIL, PASS, Report, Undecided, timed
from .scalars import Q_SAMPLES, S_ONE, S_ZERO, ScalarQ


class ComoduleError(AlgebraError):
    pass


class NonPositiveGramError(ComoduleError):
    pass


class Corep:
    """A corepresentation of `pres`: its n x n matrix of NCPoly, kept in
    normal form."""

    __slots__ = ("pres", "matrix")

    def __init__(self, pres: Presentation, matrix: list):
        self.pres = pres
        self.matrix = [[pres.nf(e) for e in row] for row in matrix]

    @property
    def dim(self):
        return len(self.matrix)


def trivial(p: Presentation) -> Corep:
    return Corep(p, [[NCPoly.one(p.alphabet)]])


def fundamental(p: Presentation) -> Corep:
    """The generator block v_ij that p's builder declared (p.block),
    which must be square."""
    if p.block is None or len(p.block) != len(p.block[0]):
        raise ComoduleError(f"{p.name}: declares no square generator block")
    return Corep(p, p.block)


def conjugate(v: Corep) -> Corep:
    if v.pres.star is None:
        raise ComoduleError(f"{v.pres.name} carries no star structure")
    return Corep(v.pres, star_entries(v.pres.star, v.matrix))


def tensor(v: Corep, w: Corep) -> Corep:
    """v (x) w over v's presentation; w's must have the same alphabet
    and relations, as the copies ensure_degree returns do."""
    p, r = v.pres, w.pres
    if p is not r and (p.alphabet != r.alphabet or p.relations != r.relations):
        raise ComoduleError("tensor factors live over different presentations")
    # entry ((i, j), (k, l)) is v_ik w_jl
    return Corep(v.pres, [[vik * wjl for vik in vi for wjl in wj]
                          for vi in v.matrix for wj in w.matrix])


def verify_corep(v: Corep) -> Report:
    """The two matrix comodule axioms modulo relations."""
    p = v.pres
    if p.hopf is None:
        raise ComoduleError(f"{p.name} carries no Hopf data")
    report = Report(f"corep({p.name}, dim {v.dim})")
    with timed(report):
        dext = delta_ext(p)
        eps = extend_anti(p.hopf.counit, S_ONE)
        delta_v = mat_mul(v.matrix, v.matrix, TensorPoly.of)
        for i, j in product(range(v.dim), repeat=2):
            lhs = apply_map(v.matrix[i][j], dext, TensorPoly((p.alphabet, p.alphabet)))
            rhs = reduce_legs(delta_v[i][j], [p, p])
            report.add_zero(f"coassociativity entry ({i + 1},{j + 1})", lhs - rhs)
            val = apply_map(v.matrix[i][j], eps, S_ZERO)
            want = S_ONE if i == j else S_ZERO
            report.add(f"counit entry ({i + 1},{j + 1})", val == want)
    return report


def unitarity_conjugator(v: Corep, F) -> Report:
    """Whether w = F vbar F^-1 is unitary modulo relations, with the
    items of add_unitarity."""
    F = scalar_matrix(F)
    # mat_inv raises LinearSolveError when F is singular
    w = mat_mul(mat_mul(F, conjugate(v).matrix), mat_inv(F))
    report = Report(f"unitarity-conjugator({v.pres.name}, dim {v.dim})")
    with timed(report):
        add_unitarity(report, v.pres, w)
    return report


def add_unitarity(report: Report, p: Presentation, M):
    """Add to `report` one item per entry of M* M - I, then one per entry
    of M M* - I, each in normal form over p, for an n x m block M of
    elements of p, named z in the items.  M is unitary modulo relations
    when every item passes."""
    Mst = [[p.nf(e) for e in row] for row in star_transpose(p.star, M)]
    MMst, MstM = unitarity_defects(M, Mst)
    items = [(f"sum_i z*_i{j + 1} z_i{k + 1} = delta", s)
             for (j, k), s in zip(product(range(len(M[0])), repeat=2), MstM)]
    items += [(f"sum_j z_{i + 1}j z*_{k + 1}j = delta", s)
              for (i, k), s in zip(product(range(len(M)), repeat=2), MMst)]
    for desc, s in items:
        report.add_zero(desc, p.nf(s))


class UnitaryStructure:
    """A corepresentation with an invariant scalar product on it."""

    __slots__ = ("corep", "gram")

    def __init__(self, corep: Corep, gram: list):
        self.corep = corep
        self.gram = gram    # n x n scalar matrix, conjugate-symmetric and invertible


def invariance_defects(v: Corep, g):
    """The entries of v* g v - g in row-major order, in normal form: the
    scalar product g is invariant for v when all of them vanish.  A
    generator that normalises each entry only when asked, so a search
    can stop at the first that does not vanish."""
    p = v.pres
    vst = [[p.nf(e) for e in row] for row in star_transpose(p.star, v.matrix)]
    for row, g_row in zip(mat_mul(mat_mul(vst, g), v.matrix), g):
        for s, g_ij in zip(row, g_row):
            yield p.nf(s - NCPoly.scalar(p.alphabet, g_ij))


def verify_unitary_structure(u: UnitaryStructure,
                             q_samples=Q_SAMPLES) -> Report:
    """Conjugate symmetry (symmetry, as conjugation on Q(q) is the
    identity), invertibility, comodule invariance of the scalar product,
    and numerical positivity at sample q."""
    v, g = u.corep, u.gram
    p = v.pres
    n = v.dim
    report = Report(f"unitary-structure({p.name}, dim {n})")
    with timed(report):
        sym = all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
        report.add("gram is conjugate-symmetric", sym)
        try:
            mat_inv([list(r) for r in g])
            report.add("gram is invertible", True)
        except LinearSolveError:
            report.add("gram is invertible", False)
        if p.star is None:
            report.add_undecided("invariance (no star structure)")
        else:
            for (i, j), s in zip(product(range(n), repeat=2), invariance_defects(v, g)):
                report.add_zero(f"invariance entry ({i + 1},{j + 1}): "
                                "sum_kl v*_ki g_kl v_lj = g_ij", s)
        _add_positivity(report, g, q_samples)
    return report


def _add_positivity(report, g, q_samples):
    """Items "gram positive at q = q0": at each sample q the least
    eigenvalue of g is > 0 (see haar.add_gram_sample)."""
    for q0 in q_samples:
        add_gram_sample(report, g, q0, f"gram positive at q = {q0}",
                        lambda evs: (evs[0] > 0.0, f"min eigenvalue {evs[0]:.6g}"))


def search_diagonal_gram(v: Corep, exp_range=4) -> UnitaryStructure:
    """Search diagonal grams diag(q^{e_i}) (e_1 = 0) for one satisfying
    the comodule-invariance identity."""
    p = v.pres
    if p.star is None:
        raise ComoduleError(f"{p.name} carries no star structure")
    n = v.dim
    steps = range(-2 * exp_range, 2 * exp_range + 1, 2)
    for exps in product(steps, repeat=n - 1):
        # e_2 varies fastest
        g = [[ScalarQ.q_power(e) if i == j else S_ZERO for j in range(n)]
             for i, e in enumerate((0, *reversed(exps)))]
        if all(s.is_zero() for s in invariance_defects(v, g)):
            return UnitaryStructure(v, g)
    raise ComoduleError(
        f"{p.name}: no diagonal gram q^(2k) found in range {exp_range}")


def duality_maps(u: UnitaryStructure, q_samples=Q_SAMPLES):
    """Evaluation and coevaluation matrices of the duality pair.

    eval acts by (e-bar_i, e_j) -> gram_ij; coeval inserts
    sum_kl c_kl e_k (x) e-bar_l with c = gram^{-1}, which is exactly what
    the snake identities force.  Raises NonPositiveGramError when the gram
    is not positive at a sample q (a pole there included), and
    report.Undecided when a float overflow or eigenvalues that do not
    converge leave that open.
    """
    report = Report("duality")
    _add_positivity(report, u.gram, q_samples)
    for item in report.items:
        if item.status != PASS:
            error = NonPositiveGramError if item.status == FAIL else Undecided
            raise error(f"{item.desc}: {item.status} ({item.witness})")
    return u.gram, mat_inv([list(r) for r in u.gram])


def snake_check(ev, coev) -> Report:
    """Exact snake identities for a duality pair given as matrices.

    For an invertible gram they cannot fail: duality_maps sets
    coev = gram^-1, so both hold by construction, and a pass certifies
    that inverse, not that coev is a comodule map."""
    n = len(ev)
    ident = [[S_ONE if i == j else S_ZERO for j in range(n)] for i in range(n)]
    report = Report(f"snake(dim {n})")
    with timed(report):
        report.add("(1 (x) eval)(coeval (x) 1) = 1", mat_mul(coev, ev) == ident)
        report.add("(eval (x) 1)(1 (x) coeval) = 1", mat_mul(ev, coev) == ident)
    return report
