"""The Galois map of a comodule-algebra extension and its explicit
inverse data.

beta(x (x) y) = alpha(x) * (1 (x) y) maps Z (x) Z into A (x) Z.  A
witness consists of a companion presentation T, an algebra map
delta: A -> Z (x) T, and an anti-morphism phi: T -> Z; the candidate
inverse is beta' = (1 (x) m) (1 (x) phi (x) 1) (delta (x) 1).  All
witness properties are verified by rewriting before use, never assumed.
"""

from __future__ import annotations

from .ncpoly import AlgebraError, NCPoly, TensorPoly, apply_map, extend_anti
from .presentations import (
    CoactionData,
    MonomialOrder,
    Presentation,
    _finish,
    _short,
    alpha_ext,
    catalog,
    extend_reduced,
    mat_mul,
    on_block,
    reduce_legs,
    scalar_matrix,
    star_entries,
    transpose,
    twisted_block,
)
from .report import Report, timed
from .rewrite import word_basis
from .scalars import S_ONE


class GaloisError(AlgebraError):
    pass


class GaloisWitness:
    """The inverse data of a Galois map: a companion presentation T, an
    algebra map delta: A -> Z (x) T and an anti-morphism phi: T -> Z."""

    __slots__ = ("companion", "delta", "phi")

    def __init__(self, companion: Presentation, delta: dict, phi: dict):
        self.companion = companion
        self.delta = delta      # generator index of A -> TensorPoly (Z, T)
        self.phi = phi          # generator index of T -> NCPoly over Z


def galois_map(x: NCPoly, y: NCPoly, c: CoactionData, aext=None) -> TensorPoly:
    """beta(x (x) y) = alpha(x) * (1 (x) y), legs normal-formed.  aext is
    alpha_ext(c), built here unless the caller shares one across calls."""
    aext = aext or alpha_ext(c)
    out = apply_map(x, aext, TensorPoly((c.base.alphabet, c.total.alphabet)))
    out = out.mul_leg(1, y)
    return reduce_legs(out, (c.base.rewrite, c.total.rewrite))


def witness_exts(w: GaloisWitness, c: CoactionData):
    """(delta extended to words of A, its legs reduced over Z and T;
    phi extended antimultiplicatively to words of T)."""
    return (extend_reduced(w.delta, (c.total, w.companion)),
            extend_anti(w.phi, c.total.alphabet))


def galois_inverse(a: NCPoly, y: NCPoly, w: GaloisWitness,
                   c: CoactionData, exts=None) -> TensorPoly:
    """beta'(a (x) y), legs normal-formed over Z.  exts is
    witness_exts(w, c), built here unless the caller shares it."""
    dext, phi_ext = exts or witness_exts(w, c)
    Z = c.total.alphabet
    out = apply_map(a, lambda word: dext(word).map_leg(1, phi_ext), TensorPoly((Z, Z)))
    out = out.mul_leg(1, y)
    return reduce_legs(out, (c.total.rewrite, c.total.rewrite))


def validate_witness(c: CoactionData, w: GaloisWitness, exts=None) -> Report:
    """delta is an algebra map A -> Z (x) T and phi an anti-morphism
    T -> Z; both checked relation by relation.  exts as in
    galois_inverse."""
    report = Report(
        f"witness({c.base.name} -> {c.total.name} (x) {w.companion.name})")
    with timed(report):
        dext, phi_ext = exts or witness_exts(w, c)
        for rel in c.base.relations:
            report.add_zero("delta kills relation " + _short(rel), apply_map(
                rel, dext, TensorPoly((c.total.alphabet, w.companion.alphabet))))
        for rel in w.companion.relations:
            report.add_zero("phi kills relation " + _short(rel), c.total.nf(
                apply_map(rel, phi_ext, NCPoly.zero(c.total.alphabet))))
    return report


def verify_galois(c: CoactionData, w: GaloisWitness, d: int) -> Report:
    """beta beta' = id on basis words of A tensor 1, and beta' beta = id
    on basis words of Z in either slot, exactly."""
    report = Report(f"galois({c.total.name} over {c.base.name}, degree {d})")
    with timed(report):
        # the composites produce words up to triple the basis degree
        c = c.ensure_degree(max(d, 2), 3 * d)
        w = GaloisWitness(w.companion.ensure_degree(max(d, 2)), w.delta, w.phi)
        # one extension of each map for every check, so they share memos
        aext = alpha_ext(c)
        exts = witness_exts(w, c)
        val = validate_witness(c, w, exts)
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
            t = galois_inverse(a, one_Z, w, c, exts)
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
                NCPoly(A, {k[0]: S_ONE}), NCPoly(Z, {k[1]: S_ONE}), w, c, exts),
                TensorPoly((Z, Z)))
            back = reduce_legs(back, (c.total.rewrite, c.total.rewrite))
            want = TensorPoly((Z, Z), {(wd, ()): S_ONE})
            report.add_zero(f"beta' beta fixes {Z.word_str(wd)} (x) 1", back - want)
            t2 = galois_inverse(NCPoly.one(A), x, w, c, exts)
            want2 = TensorPoly((Z, Z), {((), wd): S_ONE})
            report.add_zero(f"beta' beta fixes 1 (x) {Z.word_str(wd)}", t2 - want2)
    return report


# ---------------------------------------------------------------------------
# witness constructors for the catalog extensions
# ---------------------------------------------------------------------------


def glq_witness(c: CoactionData) -> GaloisWitness:
    """Companion is the mirror deformation; delta(x_ij) = sum z_ik (x) t_kj,
    delta(t) = tau (x) xi; phi sends the companion generators to the
    entries of the inverse of the generator matrix z."""
    T = catalog("GLqm22")
    A, Z, Ti = c.base.alphabet, c.total.alphabet, T.alphabet
    delta = on_block(c.base.block, mat_mul(c.total.block, T.block, TensorPoly.of))
    delta[A.index["t"]] = TensorPoly.of(Z.gen("tau"), Ti.gen("xi"))
    PZ = c.total.parse
    phi = on_block(T.block, [[PZ("z22*tau"), PZ("q*tau*z12")],
                             [PZ("q^-1*z21*tau"), PZ("tau*z11")]])
    phi[Ti.index["xi"]] = PZ("z11*z22 + q^-1*z12*z21")
    return GaloisWitness(T, delta, phi)


def hopf_witness(p: Presentation) -> GaloisWitness:
    """A Hopf presentation over itself: delta = Delta, phi = antipode."""
    if p.hopf is None:
        raise GaloisError(f"{p.name} carries no Hopf data")
    delta = {gi: t for gi, t in p.hopf.delta.items()}
    return GaloisWitness(p, delta, dict(p.hopf.antipode))


_OPPOSITE_CACHE = {}


def opposite(p: Presentation) -> Presentation:
    """Opposite presentation: every relation word reversed."""
    # keyed by content and certified degree: two file presentations may
    # share a name
    key = (p.alphabet, tuple(p.relations), p.rewrite.completion_degree)
    if key in _OPPOSITE_CACHE:
        return _OPPOSITE_CACHE[key]
    rels = [
        NCPoly(p.alphabet, {tuple(reversed(wd)): coeff
                            for wd, coeff in rel.terms.items()})
        for rel in p.relations
    ]
    out = _finish(p.name + "^op", p.alphabet, rels, MonomialOrder(p.alphabet),
                  completion_degree=p.rewrite.completion_degree)
    _OPPOSITE_CACHE[key] = out
    return out


def aufg_witness(c: CoactionData, F, G) -> GaloisWitness:
    """Translation-map witness for the universal unitary extensions:
    companion is the opposite algebra of Z, delta(a_ij) = sum z_ik (x) z*_kj
    (second leg multiplied in reverse), phi the identity on generators.
    F and G are the twist matrices Z was built from; validate_witness
    catches a pair that does not match Z.

    Only defined for a square generator block.
    """
    from .linalg import mat_inv

    z, Z = c.total.block, c.total
    if len(z) != len(z[0]):
        raise GaloisError("translation witness needs a square generator block")
    # T shares the alphabet of Z; its second leg carries the adjoint
    # entry (z*)_kj = star(z_jk)
    T = opposite(Z)
    zbar = star_entries(Z.star, z)
    delta = on_block(c.base.block, mat_mul(z, transpose(zbar), TensorPoly.of))
    # the starred generators need the inverse of the conjugate block: with
    # B = F zbar G^-1 unitary (B^-1 = B* by the defining relations),
    # zbar^-1 = G^-1 B* F, entrywise over Z
    F, Ginv = scalar_matrix(F), mat_inv(scalar_matrix(G))
    _, Bst = twisted_block(F, zbar, Ginv, Z.star)
    zbar_inv = [[Z.nf(e) for e in row] for row in mat_mul(mat_mul(Ginv, Bst), F)]
    delta.update(on_block(star_entries(c.base.star, c.base.block),
                          mat_mul(zbar, zbar_inv, TensorPoly.of)))
    phi = {gi: Z.alphabet.gen(name) for gi, name in enumerate(T.alphabet.names)}
    return GaloisWitness(T, delta, phi)
