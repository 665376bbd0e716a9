"""Finite-dimensional corepresentations of a Hopf presentation.

A comodule is carried purely by its corepresentation matrix: an n x n
array of algebra elements v_ij with Delta(v_ij) = sum_k v_ik (x) v_kj
and epsilon(v_ij) = delta_ij modulo relations.  Conjugates, tensor
products, the comodule axioms, block unitarity and exact duality (snake)
maps live here.  Every matrix product among them, save the Kronecker
product of `tensor`, is presentations.mat_mul: the coproduct of v, M M*
and M* M (through presentations.unitarity_defects), and the snake
composites.

The fundamental comodule is the generator block that the presentation's
catalog builder declares (Presentation.block), never one guessed from
generator names; a presentation read from a file declares none.

The commands reach the comodules of `--comodule` and `add_unitarity`
(`verify --suite biunitarity`).  verify_corep, UnitaryStructure,
duality_maps and snake_check are Python API with no command yet.
"""

from __future__ import annotations

from itertools import product

from .haar import add_gram_sample
from .linalg import mat_inv
from .ncpoly import AlgebraError, NCPoly, TensorPoly, apply_map, extend_anti
from .presentations import (
    Presentation,
    delta_ext,
    mat_mul,
    reduce_legs,
    star_entries,
    star_transpose,
    unitarity_defects,
)
from .report import FAIL, PASS, Report, Undecided, timed
from .scalars import Q_SAMPLES, S_ONE, S_ZERO


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


def duality_maps(u: UnitaryStructure):
    """Evaluation and coevaluation matrices of the duality pair.

    eval acts by (e-bar_i, e_j) -> gram_ij; coeval inserts
    sum_kl c_kl e_k (x) e-bar_l with c = gram^{-1}, which is exactly what
    the snake identities force.  Raises NonPositiveGramError when the
    least eigenvalue of the gram is not > 0 at a sample q (a pole there
    included, see haar.add_gram_sample), and report.Undecided when a
    float overflow or eigenvalues that do not converge leave that open.
    """
    report = Report("duality")
    for q0 in Q_SAMPLES:
        add_gram_sample(report, u.gram, q0, f"gram positive at q = {q0}",
                        lambda evs: (evs[0] > 0.0, f"min eigenvalue {evs[0]:.6g}"))
    for item in report.items:
        if item.status != PASS:
            error = NonPositiveGramError if item.status == FAIL else Undecided
            raise error(f"{u.corep.pres.name}: {item.desc}: {item.status} "
                        f"({item.witness})")
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
