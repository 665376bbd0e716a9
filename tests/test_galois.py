import itertools

import pytest

from qgal import galois, linalg, presentations
from qgal.galois import (
    galois_map,
    tau_ext,
    translation_witness,
    validate_witness,
    verify_galois,
)
from qgal.ncpoly import NCPoly, TensorPoly, apply_map
from qgal.presentations import (
    CoactionData,
    Presentation,
    _build_aufg,
    _build_glq2,
    _build_glq2m2,
    _coaction_aufg,
    _coaction_glq_family,
    alpha_ext,
    extend_reduced,
    parse_presentation_text,
    reduce_legs,
)
from qgal.scalars import S_ONE, add_term


@pytest.fixture(scope="module")
def witness(c_glq):
    return translation_witness(c_glq)[0]


def with_witness(monkeypatch, tau):
    """verify_galois checks tau in place of the one it would solve."""
    monkeypatch.setattr(galois, "translation_witness",
                        lambda c: (tau, {"witness_degree": None}))


def corrupted(w, A, name):
    """The witness w with the coefficient of one term of tau(name) doubled."""
    tau = dict(w)
    g = A.alphabet.index[name]
    terms = dict(tau[g].terms)
    key = next(iter(terms))
    terms[key] = terms[key] + terms[key]
    tau[g] = TensorPoly(tau[g].alphabets, terms)
    return tau


def T2(c, pairs):
    out = TensorPoly((c.base.alphabet, c.total.alphabet))
    for a, z in pairs:
        out = out + TensorPoly.of(c.base.parse(a), c.total.parse(z))
    return out


def test_galois_map_examples(c_glq):
    Z = c_glq.total
    one = NCPoly.one(Z.alphabet)
    aext = alpha_ext(c_glq)
    assert galois_map(aext, Z.parse("z11"), one) == \
        T2(c_glq, [("x11", "z11"), ("x12", "z21")])
    assert galois_map(aext, Z.parse("tau"), one) == T2(c_glq, [("t", "tau")])
    y = Z.parse("z12*z21")
    got = galois_map(aext, one, y)
    want = TensorPoly((c_glq.base.alphabet, Z.alphabet))
    for w, coeff in Z.nf(y).terms.items():
        want = want + TensorPoly((c_glq.base.alphabet, Z.alphabet),
                                 {((), w): coeff})
    assert got == want


def test_galois_inverse_examples(c_glq, witness):
    A, Z = c_glq.base, c_glq.total
    one = NCPoly.one(Z.alphabet)
    text = tau_ext(witness, c_glq)
    got = galois_map(text, A.parse("x11"), one)
    want = TensorPoly((Z.alphabet, Z.alphabet))
    want = want + TensorPoly.of(Z.parse("z11"), Z.nf(Z.parse("z22*tau")))
    want = want + TensorPoly.of(Z.parse("z12"), Z.nf(Z.parse("q^-1*z21*tau")))
    assert got == want
    got_t = galois_map(text, A.parse("t"), one)
    want_t = TensorPoly.of(Z.parse("tau"),
                           Z.nf(Z.parse("z11*z22 + q^-1*z12*z21")))
    assert got_t == want_t


def test_galois_inverse_certifies_what_it_reduces(c_glq, witness):
    # c_glq's Z is certified to degree 4, but tau(a)(1 (x) y) on basis
    # words a and y of degree <= 2 has right legs of degree up to 6: each
    # result must equal the one reduced over Z completed to 8
    A, Z = c_glq.base, c_glq.total
    Z8 = Z.ensure_degree(8)
    ext8 = extend_reduced(witness, (Z8, Z8), left=(1,))

    def basis(p):
        return [NCPoly(p.alphabet, {w: S_ONE}) for w in p.basis(2)]

    pairs = [(a, y) for a in basis(A) for y in basis(Z)]
    assert len(pairs) == 441
    for a, y in pairs:
        t = apply_map(a, ext8, TensorPoly((Z.alphabet, Z.alphabet)))
        want = reduce_legs(t.mul_leg(1, y), [Z8, Z8])
        assert galois_map(tau_ext(witness, c_glq), a, y) == want, (a, y)


def test_validate_witness(c_glq, witness):
    assert validate_witness(c_glq, tau_ext(witness, c_glq)).ok


def test_translation_map_glq(c_glq, witness):
    # tau(x_ij) = sum_k z_ik (x) M_kj with M the inverse of z written out
    # by hand (criterion 1), both legs read in Z with no reversal
    A, Z = c_glq.base, c_glq.total
    P = Z.parse
    z = [[P("z11"), P("z12")], [P("z21"), P("z22")]]
    M = [[P("z22*tau"), P("q*tau*z12")],
         [P("q^-1*z21*tau"), P("tau*z11")]]
    for i in range(2):
        for j in range(2):
            want = TensorPoly.of(z[i][0], M[0][j]) + TensorPoly.of(z[i][1], M[1][j])
            got = witness[A.alphabet.index[f"x{i + 1}{j + 1}"]]
            assert reduce_legs(got - want, [Z, Z]).is_zero()


def test_tau_ext_is_the_product_term_by_term(c_glq, witness):
    # on a word x1...xn of A, tau stored through rev is the sum, over one
    # term u_i (x) v_i of each tau(x_i), of u1...un (x) vn...v1: left legs
    # in order, right legs in reverse, reduced once at the end over Z
    # completed to the longest word of each leg
    A, Z = c_glq.base.alphabet, c_glq.total
    ext = tau_ext(witness, c_glq)

    def reduced_once(word):
        terms = {((), ()): S_ONE}
        for x in word:
            longer = {}
            for (u, v), s in terms.items():
                for (u2, v2), s2 in witness[x].terms.items():
                    add_term(longer, (u + u2, v2 + v), s * s2)
            terms = longer
        reach = [max(len(k[leg]) for k in terms) for leg in (0, 1)]
        rs = [Z.ensure_degree(d).rewrite for d in reach]
        return apply_map(TensorPoly((Z.alphabet,) * 2, terms), lambda k: TensorPoly.of(
            *(r.normal_form(NCPoly(Z.alphabet, {w: S_ONE})) for r, w in zip(rs, k))),
            TensorPoly((Z.alphabet,) * 2)), reach

    for n in range(4):
        for word in itertools.product(range(len(A)), repeat=n):
            assert ext(word) == reduced_once(word)[0], word
    # tau(x) has left legs of degree 1 and right legs of degree 2: words of
    # length 3 reach degree 6 in the right leg, and Z is built to 4
    assert ext.legs == [Z, Z.ensure_degree(6)]
    # a word of length 4 reaches degree 8, where tau_ext used to refuse it
    word = (0, 1, 2, 3)
    want, reach = reduced_once(word)
    assert reach == [4, 8]
    assert ext(word) == want
    assert ext.legs == [Z, Z.ensure_degree(8)]


def test_corrupted_witness_fails(c_glq, witness, monkeypatch):
    bad = corrupted(witness, c_glq.base, "x11")
    assert not validate_witness(c_glq, tau_ext(bad, c_glq)).ok
    with_witness(monkeypatch, bad)
    r = verify_galois(c_glq, 1)
    assert not r.ok


def test_corrupted_witness_shows_its_residual_cut_to_120(c_glq, witness):
    A, Z = c_glq.base, c_glq.total
    bad = corrupted(witness, A, "x11")
    r = validate_witness(c_glq, tau_ext(bad, c_glq))
    Z6 = Z.ensure_degree(6)
    ext = extend_reduced(bad, (Z6, Z6), left=(1,))
    residuals = [apply_map(rel, ext, TensorPoly((Z.alphabet, Z.alphabet))).pretty()
                 for rel in A.relations]
    failed = [i.witness for i in r.items if i.status == "fail"]
    assert failed == [s[:120] for s in residuals if s != "0"]
    assert any(len(s) > 120 for s in residuals)


def test_verify_galois_glq(c_glq, witness, monkeypatch):
    with_witness(monkeypatch, witness)
    r = verify_galois(c_glq, 1)
    assert r.ok


def test_verify_galois_extends_each_map_once(c_glq, witness, monkeypatch):
    # every check shares one memo per extended map: alpha, and tau
    # (validate_witness included)
    built = []

    def counting(images, legs, left=()):
        built.append(tuple(p.name for p in legs))
        return extend_reduced(images, legs, left)

    with_witness(monkeypatch, witness)
    monkeypatch.setattr(galois, "extend_reduced", counting)
    monkeypatch.setattr(galois, "alpha_ext",
                        lambda c: counting(c.alpha, (c.base, c.total)))
    assert verify_galois(c_glq, 2).ok
    assert sorted(built) == [("GLq2", "GLq2m2"), ("GLq2m2", "GLq2m2")]


def test_verify_galois_completes_only_z_and_only_to_degree_6(monkeypatch):
    # a pair built outside the catalog cache, so that every completion
    # the check needs happens here: Z to degree 6 for the relations of A
    # (degree <= 3) and the checks at degree 2, and no other presentation
    c = _coaction_glq_family(_build_glq2(False), _build_glq2m2(False))
    degrees, built = [], []
    complete, init = presentations.complete, Presentation.__init__

    def counting_complete(rs, d):
        degrees.append(d)
        return complete(rs, d)

    def counting_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(presentations, "complete", counting_complete)
    monkeypatch.setattr(Presentation, "__init__", counting_init)
    assert verify_galois(c, 2).ok
    assert max(degrees, default=0) <= 6
    assert set(built) <= {"GLq2", "GLq2m2"}


def test_verify_galois_uq(c_uq):
    r = verify_galois(c_uq, 1)
    assert r.ok


def test_hopf_self_extension(uq2):
    c = CoactionData(uq2, uq2, dict(uq2.hopf.delta))
    r = verify_galois(c, 1)
    assert r.ok


def test_beta_left_linearity_sample(c_glq):
    # beta is left-A-linear: multiplying the second slot commutes with
    # the coaction factor on products
    Z = c_glq.total
    x = Z.parse("z11*z21")
    y = Z.parse("tau")
    aext = alpha_ext(c_glq)
    lhs = galois_map(aext, x, y)
    rhs = galois_map(aext, x, NCPoly.one(Z.alphabet)).mul_leg(1, y)
    assert reduce_legs(rhs, [c_glq.base, Z]) == lhs


def test_aufg_witness_validates(c_aufg):
    text = tau_ext(translation_witness(c_aufg)[0], c_aufg)
    assert validate_witness(c_aufg, text).ok


def test_rectangular_pair_passes_at_degree_1():
    # a 2 x 3 block, which no square-block construction reaches; built
    # outside the catalog cache, which other tests count
    F, G = [[1, 1], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    c = _coaction_aufg(_build_aufg(F, F), _build_aufg(F, G))
    r = verify_galois(c, 1)
    assert r.ok and len(r.items) == 36


@pytest.mark.parametrize("constant,value,reason", [
    # 12 pairs u (x) v and the variables r_g of the two generators of
    # row grade (1, 0)
    ("BLOCK_BUDGET", 10, "has 14 unknowns at degree 2, over the budget of 10"),
    ("WITNESS_DEGREE_CAP", 2, "no solution up to degree 2, the cap"),
])
def test_witness_solve_stopped_short_is_undecided(c_glq, monkeypatch, constant,
                                                  value, reason):
    monkeypatch.setattr(linalg if constant == "BLOCK_BUDGET" else galois,
                        constant, value)
    r = verify_galois(c_glq, 1)
    assert r.status == "undecided"
    (item,) = r.items
    assert item.witness.startswith("no value for x11, x12, x21, x22, t: ")
    assert reason in item.witness


def test_kernel_vector_fails(uq2):
    line = parse_presentation_text("algebra line\ngenerators x\nstar x -> x\n")
    alpha = {0: TensorPoly.of(NCPoly.one(uq2.alphabet), line.gen("x"))}
    r = verify_galois(CoactionData(uq2, line, alpha), 2)
    assert r.status == "fail"
    (item,) = r.items
    assert item.desc == "beta(k) = 0, so line is not Galois"
    assert item.witness == "k = 1 (x) x - x (x) 1"


def test_a_generator_whose_kernel_vector_holds_another_is_not_reached():
    """b = a in A, and no unknown reaches a (x) 1: the row of the word a
    says r_a + r_b = 0, so r_b is free, but its kernel vector holds r_a,
    and neither generator gets a value."""
    ab = parse_presentation_text("algebra ab\ngenerators a b\nrelation b - a\n")
    c = CoactionData(ab, ab, {})
    assert dict(galois._solve_tau(c, alpha_ext(c), {(): [0, 1]}, {})) == {}
