import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fractions, random_nonzero_scalar, random_scalar
from qgal.scalars import (
    LaurentPoly,
    PoleError,
    Q,
    S_ONE,
    S_ZERO,
    UNIT_DEN,
    ScalarError,
    ScalarQ,
    _exact_quo,
    _poly_exact_div,
    _poly_gcd,
    _pseudo_rem,
    add_term,
)


def test_basic_identities():
    assert Q * Q.inv() == S_ONE
    assert (Q + S_ONE) - Q == S_ONE
    assert ScalarQ.q_power(-3) * ScalarQ.q_power(3) == S_ONE
    assert ScalarQ.from_fraction(Fraction(2, 3)) * ScalarQ.from_int(3) \
        == ScalarQ.from_int(2)


def test_inverse_examples():
    q2m1 = Q * Q - S_ONE
    assert q2m1 * q2m1.inv() == S_ONE
    with pytest.raises(Exception):
        S_ZERO.inv()


def test_monomial_inverse_matches_the_general_path():
    # inv takes a short cut for c*q^k over UNIT_DEN; the general path is
    # the canonicalising constructor ScalarQ(den, num)
    rng = random.Random(11)
    for _ in range(200):
        c = rng.choice([rng.choice([-1, 1]) * rng.randint(1, 12),
                        Fraction(rng.randint(-12, 12) or 1, rng.randint(1, 12))])
        x = ScalarQ(LaurentPoly({rng.randint(-3, 3): c}))
        assert x.den is UNIT_DEN and len(x.num.coeffs) == 1
        fast, slow = x.inv(), ScalarQ(x.den, x.num)
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.den is slow.den is UNIT_DEN
        assert fast.num.coeffs == slow.num.coeffs
        assert [type(v) for v in fast.num.coeffs.values()] == \
            [type(v) for v in slow.num.coeffs.values()]
        assert x * fast == S_ONE


def test_equal_scalars_hash_alike():
    # a constant equals the int or Fraction it is, so it hashes as that
    for v in (0, 1, -7, 2**70, Fraction(1, 2), Fraction(-5, 3)):
        x = ScalarQ.from_fraction(v)
        assert x == v and hash(x) == hash(v)
        assert len({x, v}) == 1
    assert len({S_ONE, 1, Fraction(1)}) == 1 and len({S_ZERO, 0}) == 1
    # a constant built through a quotient, and a nonconstant scalar, which
    # equals no number
    half = (Q + 1) / (2 * Q + 2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    y = (1 + Q) / (2 - Q)
    assert hash(y) == hash(y * 1 + 0) and len({y, y * 1 + 0, 1}) == 2


def test_eval_examples():
    assert (Q + Q.inv()).eval(2.0) == pytest.approx(2.5)
    assert (Q - Q.inv()).eval(1.0) == pytest.approx(0.0)
    with pytest.raises(PoleError):
        (Q - S_ONE).inv().eval(1.0)


def test_integer_coefficients_stay_exact():
    a = ScalarQ(LaurentPoly({0: 1}), LaurentPoly({0: 1, 1: 1}))
    b = ScalarQ(LaurentPoly({0: Fraction(1)}),
                LaurentPoly({0: Fraction(1), 1: Fraction(1)}))
    assert a == b
    c = ScalarQ(LaurentPoly({0: 2, 1: 2}), LaurentPoly({0: 3, 2: 3}))
    # (2 + 2q) / (3 + 3q^2) is (2/3 + 2/3 q) / (1 + q^2) in canonical form
    assert c.num.coeffs == {0: Fraction(2, 3), 1: Fraction(2, 3)}
    assert c.den.coeffs == {0: 1, 2: 1}
    assert_exact_coefficients(c)


def assert_exact_coefficients(x):
    """Every stored coefficient is an int, or a Fraction that is not an
    integer; none is a float."""
    for v in list(x.num.coeffs.values()) + list(x.den.coeffs.values()):
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), v


def test_integral_results_are_stored_as_int():
    half = ScalarQ(LaurentPoly({0: Fraction(1, 2), 2: Fraction(-1, 2)}))
    total = half + half
    assert total.num.coeffs == {0: 1, 2: -1}
    assert all(type(v) is int for v in total.num.coeffs.values())
    assert (half * ScalarQ.from_int(2)).num.coeffs == total.num.coeffs
    assert (half - half).is_zero()
    # the public constructor normalises integral Fractions to int
    p = LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 3), 2: Fraction(0)})
    assert p.coeffs == {0: 2, 1: Fraction(1, 3)} and type(p.coeffs[0]) is int
    assert hash(p) == hash(LaurentPoly({0: Fraction(2), 1: Fraction(1, 3)}))


def test_str_writes_unit_coefficients_as_signs():
    p = LaurentPoly({-1: Fraction(-1, 2), 0: 1, 1: -1, 2: -1, 3: 1})
    assert str(p) == "-1/2*q^-1 + 1 - q - q^2 + q^3"
    assert str(LaurentPoly({2: -1})) == "-q^2"


def test_eval_at_zero_pole():
    with pytest.raises(PoleError):
        Q.inv().eval(0.0)


def test_field_axioms_on_1000_random_triples():
    rng = random.Random(11)
    for _ in range(1000):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + S_ZERO == a
        assert a * S_ONE == a
        assert a - a == S_ZERO
        if not a.is_zero():
            assert a * a.inv() == S_ONE


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        a = random_scalar(rng)
        b = random_nonzero_scalar(rng)
        # dividing and re-multiplying lands on the identical canonical form
        assert (a * b.inv()) * b == a
        assert hash(a + S_ZERO) == hash(a)


@settings(max_examples=200, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), fractions(-5, 5), fractions(-5, 5))
def test_eval_is_ring_homomorphism(e1, e2, c1, c2):
    a = ScalarQ.from_fraction(c1) * ScalarQ.q_power(e1) + S_ONE
    b = ScalarQ.from_fraction(c2) * ScalarQ.q_power(e2) - Q
    for q0 in (0.5, 0.9, 2.0):
        lhs = (a * b).eval(q0)
        rhs = a.eval(q0) * b.eval(q0)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert (a + b).eval(q0) == pytest.approx(
            a.eval(q0) + b.eval(q0), rel=1e-12, abs=1e-12)


# the oracle's denominators are products of up to three of these
# factors, with repetition, so that sums and products of two operands
# often share a factor: 1+q, 1+q^2, 1-q+q^2, q-2
ORACLE_FACTORS = [LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 2: 1}),
                  LaurentPoly({0: 1, 1: -1, 2: 1}), LaurentPoly({0: -2, 1: 1})]

# coefficients of the oracle scalars and of ordinary_polys
SMALL_FRACTIONS = fractions(-4, 4, 6)

# halves and thirds, so that sums and products often cancel to integers
CANCELLING = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
              Fraction(1, 3), Fraction(2, 3), Fraction(-4, 3)]


def _product(factors):
    out = LaurentPoly({0: Fraction(1)})
    for f in factors:
        out = out * ORACLE_FACTORS[f]
    return out


def factor_lists(min_size, max_size):
    return st.lists(st.integers(0, len(ORACLE_FACTORS) - 1),
                    min_size=min_size, max_size=max_size)


# a numerator may carry factors of its own, so that the cross pairs of a
# product can cancel
oracle_scalars = st.builds(
    lambda coeffs, num, den: ScalarQ(
        LaurentPoly({e: Fraction(c) for e, c in coeffs.items()}) * _product(num),
        _product(den)),
    st.dictionaries(st.integers(-3, 3),
                    st.one_of(SMALL_FRACTIONS, st.sampled_from(CANCELLING)),
                    min_size=1, max_size=3),
    factor_lists(0, 1),
    # some draws take the denominator 1
    st.one_of(factor_lists(1, 3), st.just([])),
)


def _sympy_poly(p, sp, q):
    """The ordinary polynomial p as a sympy Poly in the symbol q over QQ."""
    assert p.is_zero() or p.low() >= 0
    return sp.Poly.from_dict({(e,): sp.QQ(c.numerator, c.denominator)
                              for e, c in p.coeffs.items()}, q, domain="QQ")


def _in_field(x, sp, q):
    """x as an element of sympy's field of rational functions Q(q), whose
    generator is q: its arithmetic cancels exactly as it goes."""
    def laurent(p):
        return sum((sp.QQ(c.numerator, c.denominator) * q**e
                    for e, c in p.coeffs.items()), q.field.zero)
    return laurent(x.num) / laurent(x.den)


def _assert_canonical_and_equal(result, expected, sp):
    """`expected` is the value of `result` in sympy's field Q(q)."""
    assert _in_field(result, sp, expected.field.gens[0]) - expected == 0
    assert_exact_coefficients(result)
    den = result.den
    assert den.low() == 0 and den.leading_coeff() == 1
    if not result.is_zero():
        q = sp.Symbol("q")
        num = result.num.shift(-result.num.low())
        g = sp.gcd(_sympy_poly(num, sp, q), _sympy_poly(den, sp, q))
        assert g.degree() == 0
    if den == LaurentPoly({0: Fraction(1)}):
        # the shared unit, and the same value as canonicalisation builds
        assert den is UNIT_DEN
        again = ScalarQ(result.num, LaurentPoly({0: Fraction(1)}))
        assert again == result and hash(again) == hash(result)


HALF_PLUS_HALF_Q = ScalarQ(LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)}))


def _frac(num, *factors):
    """num / (product of ORACLE_FACTORS), num an exponent -> coefficient
    map."""
    return ScalarQ(LaurentPoly(num), _product(factors))


@settings(max_examples=150, deadline=None)
@given(oracle_scalars, oracle_scalars)
@example(HALF_PLUS_HALF_Q, HALF_PLUS_HALF_Q)
@example(HALF_PLUS_HALF_Q,
         ScalarQ(LaurentPoly({0: Fraction(3, 2), 1: Fraction(-1, 2)}),
                 LaurentPoly({0: 1, 1: 1})))
# sums of two non-unit denominators b, d, with g = gcd(b, d) and t the
# numerator over (b/g)(d/g): g = 1; g != 1 with gcd(t, g) = 1;
# gcd(t, g) != 1; t = 0
@example(_frac({-1: 1}, 0), _frac({0: Fraction(2, 3)}, 1, 3))
@example(_frac({0: 1}, 0), _frac({0: 1}, 0, 1))
@example(_frac({0: 1}, 0, 1), _frac({2: 1}, 0, 1))
@example(_frac({0: Fraction(1, 2), 1: 3}, 0, 3),
         -_frac({0: Fraction(1, 2), 1: 3}, 0, 3))
# products that cancel on both cross pairs, to a non-unit denominator and
# to 1 (which must be UNIT_DEN), and a sum whose denominator cancels to 1;
# 1 + q^3 = (1+q)(1-q+q^2)
@example(_frac({0: 1, 3: 1}, 3, 1), _frac({2: 3, 4: 3}, 0, 2))
@example(_frac({-1: 1, 0: 1}, 1), _frac({0: 1, 2: 1}, 0))
@example(_frac({0: 1}, 0), _frac({1: 1}, 0))
# the monomial lane: 1 times a rational, a product of two monomials, two
# monomials that cancel to 0, and (1/2)q * 2, whose coefficient is integral
@example(S_ONE, _frac({0: Fraction(1, 2), 1: 3}, 0, 3))
@example(ScalarQ(LaurentPoly({2: Fraction(2, 3)})), ScalarQ(LaurentPoly({-1: -3})))
@example(ScalarQ(LaurentPoly({1: Fraction(1, 2)})),
         ScalarQ(LaurentPoly({1: Fraction(-1, 2)})))
@example(ScalarQ(LaurentPoly({1: Fraction(1, 2)})), ScalarQ.from_int(2))
def test_arithmetic_against_sympy(a, b):
    sp = pytest.importorskip("sympy")
    _, q = sp.field("q", sp.QQ)
    sa, sb = _in_field(a, sp, q), _in_field(b, sp, q)
    _assert_canonical_and_equal(a + b, sa + sb, sp)
    _assert_canonical_and_equal(a * b, sa * sb, sp)
    if not a.is_zero():
        _assert_canonical_and_equal(a.inv(), 1 / sa, sp)


def ordinary_polys(degree):
    """Ordinary polynomials up to `degree` with Fraction coefficients,
    some of them integral."""
    return st.dictionaries(
        st.integers(0, degree),
        SMALL_FRACTIONS,
        max_size=degree + 1,
    ).map(LaurentPoly)


@settings(max_examples=150, deadline=None)
@given(ordinary_polys(5), ordinary_polys(5), ordinary_polys(3))
@example(LaurentPoly(), LaurentPoly(), LaurentPoly({0: 1}))
@example(LaurentPoly({0: 1, 1: 1}), LaurentPoly(), LaurentPoly({0: 2}))
@example(LaurentPoly(), LaurentPoly({0: Fraction(1, 2), 1: 1}), LaurentPoly({0: 3}))
@example(LaurentPoly({0: Fraction(-2, 3)}), LaurentPoly({1: Fraction(5, 2), 4: -3}),
         LaurentPoly({0: Fraction(1, 6), 1: Fraction(-1, 2), 3: Fraction(5, 4)}))
def test_gcd_and_division_against_sympy(a, b, c):
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    # a common factor of degree up to 3 makes gcds of positive degree
    # frequent; the operands have degree up to 8
    a, b = a * c, b * c

    def poly(x):
        return _sympy_poly(x, sp, q)

    g = _poly_gcd(a, b)
    assert_exact_coefficients(ScalarQ(g))
    assert poly(g) == sp.gcd(poly(a), poly(b))
    if not g.is_zero():
        # the exact division that cancels a gcd, and one by a divisor of
        # any content and sign
        assert poly(_poly_exact_div(a, g)) == sp.quo(poly(a), poly(g))
    if not c.is_zero():
        assert poly(_poly_exact_div(a, c)) == sp.quo(poly(a), poly(c))
    if not b.is_zero():
        # the pseudo-remainder under the gcd, on the integer multiples of a
        # and of b (made to lead positively): rem = s*a mod b
        ia, ib = _integral(a), _integral(b)
        if ib[-1] < 0:
            ib = [-v for v in ib]
        s, rem = _pseudo_rem(ia, ib)
        assert s > 0 and all(type(v) is int for v in rem)
        assert not rem or rem[-1]
        want = sp.div(s * poly(_from_list(ia)), poly(_from_list(ib)))[1]
        assert poly(_from_list(rem)) == want


def _integral(x):
    """The dense coefficient list, constant term first, of x times the
    lcm of its denominators."""
    m = math.lcm(*(Fraction(v).denominator for v in x.coeffs.values()))
    cs = (x * m).coeffs
    return [cs.get(e, 0) for e in range(x.degree() + 1)] if cs else []


def _from_list(cs):
    """The ordinary polynomial with the dense coefficient list cs."""
    return LaurentPoly(dict(enumerate(cs)))


# integer polynomials of degree up to 15, some of whose coefficients
# exceed 2^64; products of two of them reach degree 30
big_polys = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)), max_size=16,
).map(_from_list)

TWO_Q_PLUS_1 = LaurentPoly({0: 1, 1: 2})


@settings(max_examples=40, deadline=None)
@given(big_polys, big_polys, big_polys)
# a gcd 2q + 1 whose leading coefficient is not a unit: each fraction
# must be divided by the monic gcd q + 1/2, or its denominator is not
# monic
@example(LaurentPoly({0: 3, 1: 1}), LaurentPoly({0: 5, 2: -1}), TWO_Q_PLUS_1)
# a zero operand, and coefficients above 2^64
@example(LaurentPoly(), LaurentPoly({0: 2**65 + 1, 3: -(2**66)}), TWO_Q_PLUS_1)
def test_dense_kernels_against_sympy(a, b, c):
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    _, qf = sp.field("q", sp.QQ)
    a, b = a * c, b * c

    def poly(x):
        return _sympy_poly(x, sp, q)

    def values(p):
        return {e: Fraction(int(v.p), int(v.q)) for (e,), v in p.terms() if v}

    g = _poly_gcd(a, b)
    _assert_stored(g, values(sp.gcd(poly(a), poly(b))))
    for x in (a, b):
        if not g.is_zero():
            _assert_stored(_poly_exact_div(x, g),
                           values(sp.quo(poly(x), poly(g))))
        if not c.is_zero() and c.degree():
            # x + 1 leaves the remainder 1 on division by c
            with pytest.raises(ScalarError):
                _poly_exact_div(x + LaurentPoly({0: 1}), c)
    if c.is_zero() or not c.degree():
        return
    # c cancels across a product, and out of a sum of two fractions that
    # share it in their denominators
    u, v = LaurentPoly({0: 3, 1: 1}), LaurentPoly({0: -1, 1: 7})
    x = ScalarQ(LaurentPoly({0: 1}), c * u)
    for y in (ScalarQ(c * v, v * v + u), ScalarQ(a + u, c * v)):
        for got, want in ((x * y, _in_field(x, sp, qf) * _in_field(y, sp, qf)),
                          (x + y, _in_field(x, sp, qf) + _in_field(y, sp, qf))):
            _assert_canonical_and_equal(got, want, sp)
            _assert_stored_scalar(got)


def test_exact_division_over_z_is_checked():
    # (1 + q)/(2 + 2q) = 1/2 is exact over Q but not over Z
    with pytest.raises(ScalarError):
        _exact_quo([1, 1], [2, 2])
    with pytest.raises(ScalarError):
        _exact_quo([1, 0, 1], [1, 1])
    assert _exact_quo([], [2, 2]) == []
    assert _exact_quo([-1, 0, 1], [1, 1]) == [-1, 1]


def _random_fraction(rng):
    """A scalar over a non-unit denominator that divides a product of one
    to three ORACLE_FACTORS; its numerator is drawn with some of them."""
    while True:
        num = LaurentPoly({e: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for e in rng.sample(range(-2, 3), rng.randint(1, 3))})
        for _ in range(rng.randint(0, 2)):
            num = num * rng.choice(ORACLE_FACTORS)
        den = _product(rng.choices(range(len(ORACLE_FACTORS)), k=rng.randint(1, 3)))
        if not num.is_zero():
            x = ScalarQ(num, den)
            if x.den is not UNIT_DEN:
                return x


def _assert_same_scalar(got, expected):
    """Equal by value and hash, with the same coefficient dicts and
    coefficient types, and the shared UNIT_DEN for a denominator 1."""
    assert got == expected and hash(got) == hash(expected)
    for mine, theirs in ((got.num, expected.num), (got.den, expected.den)):
        assert mine.coeffs == theirs.coeffs
        assert {e: type(c) for e, c in mine.coeffs.items()} == \
            {e: type(c) for e, c in theirs.coeffs.items()}
    assert (got.den is UNIT_DEN) == (expected.den is UNIT_DEN)
    if got.den == UNIT_DEN:
        assert got.den is UNIT_DEN


def test_sum_and_product_match_the_constructor():
    # the sum and the product cancel only what can cancel; the
    # constructor takes the gcd of the whole naive numerator and
    # denominator, and must land on the same canonical form
    rng = random.Random(14)
    unit_dens = 0
    for _ in range(400):
        x, y = _random_fraction(rng), _random_fraction(rng)
        assert x.den is not UNIT_DEN and y.den is not UNIT_DEN
        total = ScalarQ(x.num * y.den + y.num * x.den, x.den * y.den)
        product = ScalarQ(x.num * y.num, x.den * y.den)
        _assert_same_scalar(x + y, total)
        _assert_same_scalar(x * y, product)
        _assert_same_scalar(x + (-x), S_ZERO)
        unit_dens += (total.den is UNIT_DEN) + (product.den is UNIT_DEN)
    assert unit_dens > 0


# monomial coefficients: units, small ints, and Fractions whose sums and
# products are often integral or 0
MONOMIAL_COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2),
                   Fraction(3, 2), Fraction(2, 3), Fraction(-4, 3)]


def test_monomial_lane_matches_the_constructor():
    # sums and products of two monomials c*q^k over UNIT_DEN skip the
    # Laurent loops, and a factor 1 gives the other operand; each must
    # land where the public constructor does
    monomials = [(k, c) for k in (-1, 0, 2) for c in MONOMIAL_COEFFS]
    seen = set()
    for k, c in monomials:
        x = ScalarQ(LaurentPoly({k: c}))
        _assert_same_scalar(-x, ScalarQ(LaurentPoly({k: -c})))
        for j, d in monomials:
            y = ScalarQ(LaurentPoly({j: d}))
            for op, e in ((x + y, d), (x - y, -d)):
                want = {k: c + e} if k == j else {k: c, j: e}
                _assert_same_scalar(op, ScalarQ(LaurentPoly(want)))
            _assert_same_scalar(x * y, ScalarQ(LaurentPoly({k + j: c * d})))
            fractional = Fraction in (type(c), type(d))
            if k == j and c + d == 0:
                seen.add("sum 0")
            elif k == j and fractional and (c + d).denominator == 1:
                seen.add("integral sum")
            if fractional and (c * d).denominator == 1:
                seen.add("integral product")
    assert seen == {"sum 0", "integral sum", "integral product"}
    rng = random.Random(29)
    for _ in range(50):
        x = _random_fraction(rng)
        for one in (S_ONE, ScalarQ(LaurentPoly({0: Fraction(1)}))):
            _assert_same_scalar(one * x, x)
            _assert_same_scalar(x * one, x)


def test_reflected_operators_reject_other_types():
    # a float is no scalar of Q(q): the reflected operators give it back
    # to Python, which raises a plain TypeError
    with pytest.raises(TypeError, match="'float' and 'ScalarQ'"):
        1.5 - S_ONE
    with pytest.raises(TypeError, match="'float' and 'ScalarQ'"):
        1.5 / S_ONE
    assert 2 - S_ONE == S_ONE and 1 / Q == Q.inv()


def test_add_term_drops_cancelled_and_zero_terms():
    terms = {"a": Q}
    add_term(terms, "a", -Q)
    assert terms == {}
    add_term(terms, "b", S_ZERO)
    assert terms == {}
    add_term(terms, "c", Q)
    add_term(terms, "c", S_ONE)
    assert terms == {"c": Q + S_ONE}
    # an absent key stores the value itself, not S_ZERO + value
    x = Q.inv() + S_ONE
    add_term(terms, "d", x)
    assert terms["d"] is x


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), oracle_scalars, st.booleans()),
                max_size=12))
@example([(0, Q, True), (1, S_ZERO, False)])
def test_add_term_matches_per_key_sums(pairs):
    # a pair flagged True is added again, negated, at the end, so that
    # some keys cancel to zero
    pairs = [(k, x) for k, x, _ in pairs] + [(k, -x) for k, x, neg in pairs if neg]
    terms = {}
    for k, x in pairs:
        add_term(terms, k, x)
    sums = {}
    for k, x in pairs:
        sums[k] = sums.get(k, S_ZERO) + x
    assert terms == {k: v for k, v in sums.items() if not v.is_zero()}


def _assert_stored(p, values):
    """p is in the one stored form (1/m)·Σ n_e q^e: the flat list
    [e0, n0, e1, n1, ...] with exponents increasing and every n_e a
    nonzero int, over m >= 1 with gcd(m, every n_e) = 1; and `coeffs`
    reads the exponent -> value map `values` (zeros dropped), an int where
    it is integral and a Fraction otherwise."""
    n, m = p._n, p._m
    assert type(n) is list and type(m) is int and m >= 1
    exps, nums = n[::2], n[1::2]
    assert exps == sorted(set(exps)) and len(exps) == len(nums)
    assert all(type(c) is int and c for c in nums)
    assert math.gcd(m, *nums) == 1
    want = {e: v.numerator if v.denominator == 1 else v
            for e, v in ((e, Fraction(v)) for e, v in values.items()) if v}
    got = p.coeffs
    assert got == want
    assert {e: type(c) for e, c in got.items()} == \
        {e: type(c) for e, c in want.items()}


def _assert_stored_scalar(x):
    _assert_stored(x.num, x.num.coeffs)
    _assert_stored(x.den, x.den.coeffs)
    assert (x.den is UNIT_DEN) == (x.den == UNIT_DEN)


# a point at which no polynomial drawn below vanishes: by the rational
# root theorem 97 would have to divide a leading numerator
Q0 = Fraction(101, 97)


def _at(x):
    """The exact value of the scalar x at Q0."""
    def laurent(p):
        return sum((Fraction(c) * Q0**e for e, c in p.coeffs.items()), Fraction(0))
    return laurent(x.num) / laurent(x.den)


fraction_maps = st.dictionaries(
    st.integers(-2, 3), fractions(-6, 6, 6),
    max_size=4)


@settings(max_examples=200, deadline=None)
@given(fraction_maps, fraction_maps, fraction_maps, st.integers(-3, 3))
# results whose common denominator reduces: (1/2)q * 2 to 1, a sum of
# halves to 1, 1/6 + 1/3 to 2, and monomials over 1 and over 3
@example({1: Fraction(1, 2)}, {0: 2}, {}, 0)
@example({0: Fraction(1, 2), 1: Fraction(1, 2)},
         {0: Fraction(1, 2), 1: Fraction(-1, 2)}, {0: 1, 1: 1}, 1)
@example({0: Fraction(1, 6)}, {0: Fraction(1, 3)}, {1: Fraction(2, 3)}, -1)
@example({2: 3}, {-1: Fraction(-2, 3)}, {0: Fraction(3, 2), 2: 1}, 2)
def test_every_result_is_in_the_one_stored_form(da, db, dc, k):
    sp = pytest.importorskip("sympy")
    a, b, c = LaurentPoly(da), LaurentPoly(db), LaurentPoly(dc)
    for p, d in ((a, da), (b, db), (c, dc)):
        _assert_stored(p, d)
    keys = {*da, *db}
    _assert_stored(a + b, {e: da.get(e, 0) + db.get(e, 0) for e in keys})
    _assert_stored(a - b, {e: da.get(e, 0) - db.get(e, 0) for e in keys})
    _assert_stored(-a, {e: -v for e, v in da.items()})
    _assert_stored(a.shift(k), {e + k: v for e, v in da.items()})
    product = {}
    for e, u in da.items():
        for j, v in db.items():
            product[e + j] = product.get(e + j, 0) + u * v
    _assert_stored(a * b, product)
    # equal values built by different routes are equal and hash alike
    for x, y in ((a + b, b + a), (a * b, b * a), ((a + b) - b, a),
                 ((a * b) * c, a * (b * c)), (a * (b + c), a * b + a * c),
                 (LaurentPoly((a * b).coeffs), a * b)):
        assert x == y and hash(x) == hash(y)

    # the gcd and the exact division, on the ordinary parts
    q = sp.Symbol("q")
    a0, b0, c0 = (p.shift(-p.low()) if not p.is_zero() else p for p in (a, b, c))

    def values(poly):
        return {e: Fraction(int(v.p), int(v.q)) for (e,), v in poly.terms()
                if v}

    def poly(p):
        return _sympy_poly(p, sp, q)

    _assert_stored(_poly_gcd(a0, b0), values(sp.gcd(poly(a0), poly(b0))))
    if not c0.is_zero():
        _assert_stored(_poly_exact_div(a0 * c0, c0), a0.coeffs)

    # the ScalarQ operators, over unit, monomial and non-unit denominators
    x = ScalarQ(a)
    ys = [ScalarQ(b)] + ([ScalarQ(b, c)] if not c.is_zero() else [])
    ys += [ScalarQ(LaurentPoly({e: v})) for e, v in list(db.items())[:1] if v]
    for y in ys:
        results = [(x + y, _at(x) + _at(y)), (x - y, _at(x) - _at(y)),
                   (x * y, _at(x) * _at(y)), (-y, -_at(y))]
        if not y.is_zero():
            results += [(y.inv(), 1 / _at(y)), (x / y, _at(x) / _at(y))]
        for r, value in results:
            _assert_stored_scalar(r)
            assert _at(r) == value
        for u, v in ((x + y, y + x), (x * y, y * x), ((x + y) - y, x)):
            assert u == v and hash(u) == hash(v)
    assert UNIT_DEN._m == 1 and UNIT_DEN._n == [0, 1]
