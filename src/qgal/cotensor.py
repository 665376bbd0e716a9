"""Cotensor products V wedge Z on degree truncations: the fibre functor
at desk scale.

An element is sum_i v_i (x) z_i with the z_i in Z; membership means
alpha_V (x) 1 and 1 (x) alpha_Z agree on it.  The kernel is computed by
exact linear algebra over the normal-word basis, the scalar product is
induced by the Haar measure, and the monoidal constraint multiplies
coefficient legs.

monoidal_constraint and conjugation_map are Python API with no command
yet.
"""

from __future__ import annotations

from .comodules import Corep, add_unitarity, conjugate, tensor, trivial
from .haar import LinearFunctional
from .linalg import nullspace
from .ncpoly import AlgebraError, NCPoly, TensorPoly, apply_map
from .presentations import CoactionData, alpha_ext, mat_mul, reduce_legs
from .report import Report, timed
from .scalars import add_term


class CotensorError(AlgebraError):
    pass


class CotensorElement:
    """sum_i e_i (x) coeffs[i] in V (x) Z, for the basis e_i of V."""

    __slots__ = ("comodule", "coaction", "coeffs")

    def __init__(self, comodule: Corep, coaction: CoactionData, coeffs: list):
        self.comodule = comodule
        self.coaction = coaction
        self.coeffs = coeffs    # NCPoly over Z, one per comodule basis vector

    def degree(self):
        return max((z.degree() for z in self.coeffs), default=0)

    def pretty(self):
        parts = []
        for i, z in enumerate(self.coeffs):
            if not z.is_zero():
                parts.append(f"e{i + 1} (x) ({z.pretty()})")
        return " + ".join(parts) if parts else "0"


def kernel_member(x: CotensorElement) -> bool:
    """Exact membership: for each k, sum_i v_ki (x) z_i = alpha_Z(z_k)."""
    c = x.coaction
    aext = alpha_ext(c)
    coacted = mat_mul(x.comodule.matrix, [[z] for z in x.coeffs], TensorPoly.of)
    zero = TensorPoly((c.base.alphabet, c.total.alphabet))
    return all(reduce_legs(row[0], [c.base, c.total])
               == apply_map(z, aext, zero) for row, z in zip(coacted, x.coeffs))


def compute_cotensor(v: Corep, c: CoactionData, d: int):
    """Basis of the kernel of alpha_V (x) 1 - 1 (x) alpha_Z on
    V (x) Z_{<= d}, by exact elimination over the normal-word basis.
    The elements keep the caller's `c` as their coaction."""
    zbasis = c.total.basis(d)
    aext = alpha_ext(c)
    n = v.dim
    rows = {}
    for k in range(n):
        for i in range(n):
            for wa, ca in v.matrix[k][i].terms.items():
                for b in zbasis:
                    add_term(rows.setdefault((k, wa, b), {}), (i, b), ca)
        for b in zbasis:
            for (wa, wz), coeff in aext(b).terms.items():
                add_term(rows.setdefault((k, wa, wz), {}), (k, b), -coeff)
    variables = [(i, b) for i in range(n) for b in zbasis]
    order_key = c.total.rewrite.order.key
    vecs = nullspace(rows.values(), variables,
                     var_key=lambda v_: (v_[0], order_key(v_[1])))
    out = []
    for vec in vecs:
        coeffs = [NCPoly.zero(c.total.alphabet) for _ in range(n)]
        for (i, b), val in vec.items():
            coeffs[i] = coeffs[i] + NCPoly(c.total.alphabet, {b: val})
        elem = CotensorElement(v, c, coeffs)
        if not kernel_member(elem):
            raise CotensorError("computed kernel vector fails exact membership")
        out.append(elem)
    return out


def cotensor_inner(x: CotensorElement, y: CotensorElement,
                   mu: LinearFunctional):
    """mu(sum_i star(z_i) z'_i), the induced scalar product."""
    c = x.coaction
    star = c.total.star
    if star is None:
        raise CotensorError(f"{c.total.name} carries no star structure")
    if x.comodule.dim != y.comodule.dim:
        raise CotensorError("inner product needs elements of one comodule")
    total = NCPoly.zero(c.total.alphabet)
    for zi, wi in zip(x.coeffs, y.coeffs):
        total = total + star.apply(zi) * wi
    return mu(c.total.nf(total))


def monoidal_constraint(x: CotensorElement, y: CotensorElement) -> CotensorElement:
    """v (x) z1 (x) w (x) z2 -> (v (x) w) (x) z1 z2, membership re-verified."""
    if x.coaction is not y.coaction:
        raise CotensorError("elements live over different extensions")
    vw = tensor(x.comodule, y.comodule)
    coeffs = [x.coaction.total.nf(zi * wj) for zi in x.coeffs for wj in y.coeffs]
    out = CotensorElement(vw, x.coaction, coeffs)
    if not kernel_member(out):
        raise CotensorError("monoidal image fails exact kernel membership")
    return out


def conjugation_map(x: CotensorElement) -> CotensorElement:
    """sum v_i (x) z_i -> sum vbar_i (x) z*_i, landing in Vbar wedge Z."""
    c = x.coaction
    star = c.total.star
    if star is None or c.base.star is None:
        raise CotensorError("conjugation needs star structures on both sides")
    vbar = conjugate(x.comodule)
    coeffs = [c.total.nf(star.apply(z)) for z in x.coeffs]
    out = CotensorElement(vbar, c, coeffs)
    if not kernel_member(out):
        raise CotensorError("conjugated element fails exact kernel membership")
    return out


def trivial_element(c: CoactionData) -> CotensorElement:
    return CotensorElement(trivial(c.base), c,
                           [NCPoly.one(c.total.alphabet)])


def verify_biunitarity(c: CoactionData, zblock) -> Report:
    """Both orthonormality families for a block of Z elements:
    sum_i star(z_ij) z_ik = delta_jk and sum_j z_ij star(z_kj) = delta_ik."""
    if c.total.star is None:
        raise CotensorError(f"{c.total.name} carries no star structure")
    report = Report(
        f"biunitarity({c.total.name}, {len(zblock)}x{len(zblock[0])} block)")
    with timed(report):
        add_unitarity(report, c.total, zblock)
    return report
