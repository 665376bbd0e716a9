import pytest

from qgal import galois
from qgal.galois import (
    GaloisWitness,
    aufg_witness,
    galois_inverse,
    galois_map,
    glq_witness,
    hopf_witness,
    opposite,
    validate_witness,
    verify_galois,
)
from qgal.ncpoly import NCPoly, TensorPoly, apply_map, extend_anti
from qgal.presentations import (
    CATALOG,
    CoactionData,
    catalog,
    coaction,
    extend_reduced,
    parse_presentation_text,
)
from qgal.scalars import S_ONE


@pytest.fixture(scope="module")
def witness(c_glq):
    return glq_witness(c_glq)


def T2(c, pairs):
    out = TensorPoly((c.base.alphabet, c.total.alphabet))
    for a, z in pairs:
        out = out + TensorPoly.of(c.base.parse(a), c.total.parse(z))
    return out


def test_galois_map_examples(c_glq):
    Z = c_glq.total
    one = NCPoly.one(Z.alphabet)
    assert galois_map(Z.parse("z11"), one, c_glq) == \
        T2(c_glq, [("x11", "z11"), ("x12", "z21")])
    assert galois_map(Z.parse("tau"), one, c_glq) == T2(c_glq, [("t", "tau")])
    y = Z.parse("z12*z21")
    got = galois_map(one, y, c_glq)
    want = TensorPoly((c_glq.base.alphabet, Z.alphabet))
    for w, coeff in Z.nf(y).terms.items():
        want = want + TensorPoly((c_glq.base.alphabet, Z.alphabet),
                                 {((), w): coeff})
    assert got == want


def test_galois_inverse_examples(c_glq, witness):
    A, Z = c_glq.base, c_glq.total
    one = NCPoly.one(Z.alphabet)
    got = galois_inverse(A.parse("x11"), one, witness, c_glq)
    want = TensorPoly((Z.alphabet, Z.alphabet))
    want = want + TensorPoly.of(Z.parse("z11"), Z.nf(Z.parse("z22*tau")))
    want = want + TensorPoly.of(Z.parse("z12"), Z.nf(Z.parse("q^-1*z21*tau")))
    assert got == want
    got_t = galois_inverse(A.parse("t"), one, witness, c_glq)
    want_t = TensorPoly.of(Z.parse("tau"),
                           Z.nf(Z.parse("z11*z22 + q^-1*z12*z21")))
    assert got_t == want_t


def test_validate_witness(c_glq, witness):
    assert validate_witness(c_glq, witness).ok


def test_corrupted_witness_fails(c_glq, witness):
    T = witness.companion
    phi = dict(witness.phi)
    phi[T.alphabet.index["t11"]] = c_glq.total.parse("z11")
    bad = GaloisWitness(T, dict(witness.delta), phi)
    assert not validate_witness(c_glq, bad).ok
    r = verify_galois(c_glq, bad, 1)
    assert not r.ok


def test_corrupted_witness_shows_its_residual_cut_to_120(c_glq, witness):
    T, Z = witness.companion, c_glq.total
    phi = dict(witness.phi)
    phi[T.alphabet.index["t11"]] = Z.parse("z11")
    r = validate_witness(c_glq, GaloisWitness(T, dict(witness.delta), phi))
    phi_ext = extend_anti(phi, Z.alphabet)
    residuals = [Z.nf(apply_map(rel, phi_ext, NCPoly.zero(Z.alphabet))).pretty()
                 for rel in T.relations]
    failed = [i.witness for i in r.items if i.status == "fail"]
    assert failed == [s[:120] for s in residuals if s != "0"]
    assert any(len(s) > 120 for s in residuals)


def test_verify_galois_glq(c_glq, witness):
    r = verify_galois(c_glq, witness, 1)
    assert r.ok


def test_verify_galois_extends_each_map_once(c_glq, witness, monkeypatch):
    # every check shares one memo per extended map: alpha, and delta of
    # the witness (validate_witness included)
    built = []

    def counting(images, legs):
        built.append(tuple(p.name for p in legs))
        return extend_reduced(images, legs)

    monkeypatch.setattr(galois, "extend_reduced", counting)
    monkeypatch.setattr(galois, "alpha_ext",
                        lambda c: counting(c.alpha, (c.base, c.total)))
    assert verify_galois(c_glq, witness, 2).ok
    assert sorted(built) == [("GLq2", "GLq2m2"), ("GLq2m2", "GLqm22")]


def test_verify_galois_uq(c_uq):
    r = verify_galois(c_uq, glq_witness(c_uq), 1)
    assert r.ok


def test_hopf_self_extension(uq2):
    c = CoactionData(uq2, uq2, dict(uq2.hopf.delta))
    r = verify_galois(c, hopf_witness(uq2), 1)
    assert r.ok


def test_beta_left_linearity_sample(c_glq):
    # beta is left-A-linear: multiplying the second slot commutes with
    # the coaction factor on products
    Z = c_glq.total
    x = Z.parse("z11*z21")
    y = Z.parse("tau")
    lhs = galois_map(x, y, c_glq)
    rhs = galois_map(x, NCPoly.one(Z.alphabet), c_glq).mul_leg(1, y)
    from qgal.presentations import reduce_legs

    assert reduce_legs(rhs, (c_glq.base.rewrite, Z.rewrite)) == lhs


def test_opposite_presentation(glqm22):
    op = opposite(glqm22)
    assert len(op.relations) == len(glqm22.relations)
    for rel in glqm22.relations:
        rev = NCPoly(op.alphabet, {tuple(reversed(w)): c
                                   for w, c in rel.terms.items()})
        assert op.nf(rev).is_zero()


def test_opposite_keyed_by_content():
    src = "algebra qplane\ngenerators x y\nrelation {}\n"
    p1 = parse_presentation_text(src.format("y*x - q*x*y"))
    p2 = parse_presentation_text(src.format("y*x - q^2*x*y"))
    op1, op2 = opposite(p1), opposite(p2)
    assert op2 is not op1
    assert op1.relations == [p1.parse("x*y - q*y*x")]
    assert op2.relations == [p2.parse("x*y - q^2*y*x")]


def test_opposite_keyed_by_completion_degree():
    src = "algebra qplane\ngenerators x y\nrelation y*x - q*x*y\n"
    for d in (2, 3):
        p = parse_presentation_text(src, completion_degree=d)
        assert opposite(p).rewrite.completion_degree == d


def test_aufg_witness_validates():
    c = coaction("AuFG")
    w = aufg_witness(c, **CATALOG["AuFG"].defaults)
    assert validate_witness(c, w).ok
