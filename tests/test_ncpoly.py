import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fractions, random_poly, zero_free
from qgal.ncpoly import (
    MAX_Q_EXPONENT,
    Alphabet,
    NCPoly,
    ParseError,
    StarMap,
    TensorPoly,
    parse_expr,
    parse_tensor,
)
from qgal.scalars import LaurentPoly, Q, S_ONE, ScalarQ


@pytest.fixture(scope="module")
def ab():
    return Alphabet(["x11", "x12", "x21", "x22", "t"])


def test_parse_two_term(ab):
    p = parse_expr("q*x11*x12 - x12*x11", ab)
    assert len(p.terms) == 2
    assert p.terms[(ab.index["x11"], ab.index["x12"])] == Q


def test_parse_three_term():
    Z = Alphabet(["tau", "z11", "z12", "z21", "z22"])
    p = parse_expr("(z11*z22 + q^-1*z12*z21)*tau - 1", Z)
    assert len(p.terms) == 3
    assert p.terms[()] == -S_ONE


def test_parse_errors(ab):
    with pytest.raises(ParseError, match="x99"):
        parse_expr("x99", ab)
    with pytest.raises(ParseError, match="column"):
        parse_expr("x11*(", ab)
    with pytest.raises(ParseError):
        parse_expr("q q", ab)


def test_q_exponents_are_bounded(ab):
    # a Laurent polynomial is stored densely, so q^k beyond the bound is a
    # parse error that names the bound, not a list of k numerators
    k = MAX_Q_EXPONENT
    assert parse_expr(f"q^{k}*x11 + q^-{k}", ab) == \
        parse_expr(f"q^-{k} + x11*q^{k}", ab)
    for text in (f"q^{k + 1}", f"x11*q^-{k + 1}", "x11/(1+q^100000000)"):
        with pytest.raises(ParseError, match=f"limit \\+-{k} "):
            parse_expr(text, ab)


def test_parsed_coefficients_are_bounded(ab):
    """Each sum, product and quotient the parser forms keeps the q
    exponents of every coefficient within the bound, numerator and
    denominator alike; the error names the bound and the operator."""
    k = MAX_Q_EXPONENT
    half = k // 2
    assert parse_expr(f"q^{half}*q^{half}*x11", ab) == parse_expr(f"q^{k}*x11", ab)
    assert parse_expr(f"x11/(1+q^{half}) + x11/(1-q^{half})", ab) == \
        parse_expr(f"2*x11/(1-q^{k})", ab)
    for text, col in ((f"q^{k}*q", 7), (f"x11/(1+q^{half})/(1+q^{half + 1})", 14),
                      (f"x11/(1+q^{k}) + x11/(1+q)", 16), (f"1/q^{k}/q", 9)):
        with pytest.raises(ParseError, match=f"limit \\+-{k} \\(line 1, column {col}\\)"):
            parse_expr(text, ab)
    # a tensor term is the product of its two coefficients
    assert parse_tensor(f"q^{k} (x) q^-{k}*x11", ab, ab) == parse_tensor("1 (x) x11", ab, ab)
    with pytest.raises(ParseError, match=f"limit \\+-{k} \\(line 1, column 8\\)"):
        parse_tensor(f"q^{k} (x) q*x11", ab, ab)


def test_unit_and_distributivity(ab):
    one = NCPoly.one(ab)
    x11, x12, x21 = ab.gen("x11"), ab.gen("x12"), ab.gen("x21")
    assert one * x11 == x11 == x11 * one
    assert (x11 + x12) * x21 == x11 * x21 + x12 * x21


def test_mul_associative_random(ab, rng):
    for _ in range(100):
        a = random_poly(rng, ab)
        b = random_poly(rng, ab)
        c = random_poly(rng, ab)
        assert (a * b) * c == a * (b * c)
        assert zero_free(a * b) and zero_free((a * b) * c)


def test_no_zero_coefficients_stored(ab, rng):
    for _ in range(100):
        a = random_poly(rng, ab)
        b = random_poly(rng, ab)
        d = a - a
        assert d.is_zero() and not d.terms
        for coeff in (a + a).terms.values():
            assert not coeff.is_zero()
        assert all(map(zero_free, (-a, a - b, a * b, a * (b - b))))


def _scalar(num, den):
    return ScalarQ(LaurentPoly(num), LaurentPoly(den))


SIGNS = st.sampled_from([1, -1])
# +-1, +-q^k, and general elements of Q(q) over a few denominators
COEFFS = st.one_of(
    SIGNS.map(ScalarQ.from_fraction),
    st.tuples(SIGNS, st.integers(-4, 4)).map(
        lambda t: ScalarQ.from_fraction(t[0]) * ScalarQ.q_power(t[1])),
    st.tuples(
        st.dictionaries(st.integers(-3, 3),
                        fractions(-9, 9, 9).filter(bool),
                        min_size=1, max_size=3),
        st.sampled_from([{0: 1}, {0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 1: -1, 2: 1},
                         {0: 2, 3: -1}]),
    ).map(lambda t: _scalar(*t)),
)


@functools.cache
def poly_terms(ngens):
    """Terms of up to 5 words of length <= 4 over ngens generators.  One
    strategy per alphabet size, built once: a strategy built inside an
    example is validated again on every draw."""
    words = st.lists(st.integers(0, ngens - 1), max_size=4).map(tuple)
    return st.dictionaries(words, COEFFS, max_size=5)


TENSOR_TERMS = st.dictionaries(
    st.tuples(*(st.lists(st.integers(0, 1), max_size=3).map(tuple) for _ in "LR")),
    COEFFS, min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pretty_parse_round_trip(glq2, data):
    A = glq2.alphabet
    p = NCPoly(A, data.draw(poly_terms(len(A))))
    assert parse_expr(p.pretty(), A) == p
    # a nonzero tensor (0 is written 0 (x) 1), where a generator named x
    # meets the tensor sign (x)
    L, R = Alphabet(["x", "x11"]), Alphabet(["y", "x"])
    t = TensorPoly((L, R), data.draw(TENSOR_TERMS))
    assert parse_tensor(t.pretty(), L, R) == t


def test_pretty_writes_unit_coefficients_as_signs(glq2):
    A = glq2.alphabet
    P = lambda s: parse_expr(s, A)
    assert P("-q^2*x11").pretty() == "-q^2*x11"
    assert P("-x21*x12").pretty() == "-x21*x12"
    assert P("q - x11 + (1 - q^2)*x12 - 1").pretty() == \
        "(-1 + q) - x11 + (1 - q^2)*x12"
    assert P("x11/(1 + q)").pretty() == "((1) / (1 + q))*x11"


def test_pretty_writes_one_pair_of_parentheses_and_minus_signs(glq2):
    A = glq2.alphabet
    P = lambda s: parse_expr(s, A)
    assert P("q - 1").pretty() == "(-1 + q)"
    assert P("(1-q^2)*x11*x22 - q*x12*x21").pretty() == \
        "(1 - q^2)*x11*x22 - q*x12*x21"
    assert P("-2*x11 - 1/2*q*x12 + (1 - q)/(1 + q)*x21").pretty() == \
        "-2*x11 - 1/2*q*x12 + ((1 - q) / (1 + q))*x21"
    t = TensorPoly.of(P("x11"), P("(1 - q^2)*x12")) - \
        TensorPoly.of(P("x12"), P("q*x21"))
    assert t.pretty() == "(1 - q^2)*x11 (x) x12 - q*x12 (x) x21"


def test_star_examples():
    Z = Alphabet(["tau", "z11", "z12", "z21", "z22"])
    P = lambda s: parse_expr(s, Z)
    star = StarMap(Z, {
        Z.index["z11"]: P("z22*tau"),
        Z.index["z12"]: P("q^-1*z21*tau"),
        Z.index["z21"]: P("q*tau*z12"),
        Z.index["z22"]: P("tau*z11"),
        Z.index["tau"]: P("z11*z22 + q^-1*z12*z21"),
    })
    assert star.apply(P("z11")) == P("z22*tau")
    assert star.apply(P("z11*z12")) == P("(q^-1*z21*tau)*(z22*tau)")
    assert star.apply(NCPoly.one(Z)) == NCPoly.one(Z)


def test_star_antimultiplicative_random(rng):
    Z = Alphabet(["tau", "z11", "z12", "z21", "z22"])
    P = lambda s: parse_expr(s, Z)
    star = StarMap(Z, {
        Z.index["z11"]: P("z22*tau"),
        Z.index["z12"]: P("q^-1*z21*tau"),
        Z.index["z21"]: P("q*tau*z12"),
        Z.index["z22"]: P("tau*z11"),
        Z.index["tau"]: P("z11*z22 + q^-1*z12*z21"),
    })
    for _ in range(60):
        a = random_poly(rng, Z, degree=2)
        b = random_poly(rng, Z, degree=2)
        assert star.apply(a * b) == star.apply(b) * star.apply(a)


def test_tensor_collects_summands(ab):
    Z = Alphabet(["tau", "z11", "z12", "z21", "z22"])
    a = ab.gen("x11")
    z = Z.gen("z11")
    w = Z.gen("z12")
    t = TensorPoly.of(a, z) + TensorPoly.of(a, w)
    assert t == TensorPoly.of(a, z + w)
    assert (TensorPoly.of(a - a, z)).is_zero()
    two = TensorPoly.of(a, z) + TensorPoly.of(ab.gen("x12"), z)
    assert len(two.terms) == 2
    assert (t - t).is_zero() and not (t - t).terms
    assert all(map(zero_free, (t, -t, two - t, t * two, t.times(two, (1,)))))


def test_tensor_leg_operations(ab):
    Z = Alphabet(["tau", "z11", "z12", "z21", "z22"])
    t = TensorPoly.of(ab.gen("x11"), Z.gen("z11"))
    t2 = t.mul_leg(1, Z.gen("z12"))
    # (x11 (x) z11 + x11 (x) z11 z11) times z11 z11 - z11 on the right leg:
    # the two products in x11 (x) z11^3 cancel
    z, a = Z.gen("z11"), ab.gen("x11")
    t3 = (TensorPoly.of(a, z) + TensorPoly.of(a, z * z)).mul_leg(1, z * z - z)
    assert t3 == TensorPoly.of(a, z * z * z * z - z * z) and zero_free(t3)
    assert zero_free(t2)
    (key,) = t2.terms
    assert key[1] == (Z.index["z11"], Z.index["z12"])
    scaled = t.scale(Q)
    assert list(scaled.terms.values()) == [Q]
