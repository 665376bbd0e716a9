"""Exact arithmetic in Q(q): Laurent polynomials in q over the rationals
and their fraction field, plus numerical specialization at real q.

All values are immutable and hashable; every operation is pure.  q is a
real parameter and the coefficients are rational, so complex conjugation
on Q(q) is the identity: a star structure is linear over Q(q), and a
conjugate-symmetric scalar matrix is a symmetric one.

A scalar is kept as a reduced fraction (see ScalarQ).  Sums and products
of reduced fractions take only the gcds that can be non-trivial
(Henrici's rule), and every gcd runs over Z on primitive
pseudo-remainders; see `_henrici_sum`, `ScalarQ.__mul__` and `_poly_gcd`.
Most scalars that completion meets are monomials c*q^k over the
denominator 1.  A sum or product of two of them takes no gcd either, and
no loop over Laurent terms: the operators form it from the two
coefficients (the monomial lane), and a product with 1 is the other
factor itself.

Every sparse linear combination over Q(q) in qgal (polynomial and tensor
terms, normal forms, linear-system rows, commutative polynomials) is a
dict key -> nonzero scalar, and `add_term` is the one accumulator that
adds into such a dict.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ScalarError(Exception):
    pass


class PoleError(ScalarError):
    """Denominator vanishes at the requested evaluation point."""


def _exact(c):
    """c as a stored coefficient: an int when it is integral, otherwise a
    Fraction (whose denominator is then > 1)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class LaurentPoly:
    """Laurent polynomial in q with exact rational coefficients.

    Stored as a finitely supported map exponent -> coefficient.  Each
    stored coefficient is a nonzero int, or a Fraction whose denominator
    is > 1: never a Fraction equal to an integer, and never a float.  An
    int and a Fraction of equal value compare and hash alike, so the
    choice does not show in equality or hashing.  The public constructor
    normalises its input; the operations build their results through
    _laurent, which takes over a dict that already holds this invariant.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        _set_coeffs(self, {e: _exact(c) for e, c in (coeffs or {}).items()
                           if c})
        _set_lp_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def from_fraction(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(k: int) -> "LaurentPoly":
        return _laurent({k: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def low(self) -> int:
        if not self.coeffs:
            raise ScalarError("zero polynomial has no lowest exponent")
        return min(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise ScalarError("zero polynomial has no degree")
        return max(self.coeffs)

    def leading_coeff(self) -> Fraction:
        # integral coefficients are ints, and 1 / int is a float;
        # converting here keeps every division in canonicalisation exact
        c = self.coeffs[self.degree()]
        return c if type(c) is Fraction else Fraction(c)

    def shift(self, k: int) -> "LaurentPoly":
        if not k:
            return self
        return _laurent({e + k: c for e, c in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in out:
                v = out[e] + c
                if type(v) is not int and v.denominator == 1:
                    v = v.numerator
                if v:
                    out[e] = v
                else:
                    del out[e]
            else:
                out[e] = c
        return _laurent(out)

    def __neg__(self):
        return _laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a = self.coeffs
        if type(other) is LaurentPoly:
            b = other.coeffs
            if len(a) == 1:
                a, b = b, a
        elif isinstance(other, (int, Fraction)):
            b = {0: _exact(other)} if other else {}
        else:
            return NotImplemented
        # each coefficient is stored as it is made; a product or sum of
        # ints is an int, so only one that a Fraction takes part in can be
        # an integral Fraction to store as an int
        out = {}
        if len(b) == 1:
            # a monomial factor: no two products share an exponent
            ((k, f),) = b.items()
            for e, c in a.items():
                c *= f
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                out[e + k] = c
            return _laurent(out)
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                v = c1 * c2
                if e in out:
                    v += out[e]
                    if not v:
                        del out[e]
                        continue
                if type(v) is not int and v.denominator == 1:
                    v = v.numerator
                out[e] = v
        return _laurent(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self.coeffs.items()))
            )
        return self._hash

    def eval(self, q0: float) -> float:
        if q0 == 0 and any(e < 0 for e in self.coeffs):
            raise PoleError("negative q-power evaluated at q = 0")
        # fsum is exactly rounded, so the value does not depend on the
        # order in which the coefficients were stored
        return math.fsum(c * q0**e for e, c in self.coeffs.items())

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            qpart = "q" if e == 1 else f"q^{e}"
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(qpart)
            elif c == -1:
                parts.append(f"-{qpart}")
            else:
                parts.append(f"{c}*{qpart}")
        return " + ".join(parts).replace("+ -", "- ")


_set_coeffs = LaurentPoly.coeffs.__set__
_set_lp_hash = LaurentPoly._hash.__set__


def _laurent(coeffs) -> LaurentPoly:
    """A LaurentPoly that takes over coeffs, which must already hold the
    coefficient invariant (nonzero, integral values as int)."""
    p = object.__new__(LaurentPoly)
    _set_coeffs(p, coeffs)
    _set_lp_hash(p, None)
    return p


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Euclidean division of ordinary (non-negative exponent) polynomials."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    b = b.coeffs
    db = max(b)
    lb = b[db]
    rem = dict(a.coeffs)
    quo = {}
    while rem:
        da = max(rem)
        if da < db:
            break
        # a monic divisor (every gcd) needs no division, so integral
        # quotients stay int
        f = rem[da] if lb == 1 else rem[da] / Fraction(lb)
        quo[da - db] = f
        _sub_multiple(rem, f, da - db, b)
    return LaurentPoly(quo), LaurentPoly(rem)


def _sub_multiple(rem: dict, f, k: int, b: dict) -> None:
    """rem -= f * q^k * b in place, on coefficient maps; a coefficient
    that cancels is dropped."""
    for e, c in b.items():
        e += k
        v = rem.get(e, 0) - f * c
        if v:
            rem[e] = v
        else:
            rem.pop(e, None)


def _primitive(p: dict) -> dict:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of the nonzero coefficient map p."""
    m = math.lcm(*(c.denominator for c in p.values()))
    p = {e: c.numerator * (m // c.denominator) for e, c in p.items()}
    content = math.gcd(*p.values())
    if p[max(p)] < 0:
        content = -content
    return p if content == 1 else {e: c // content for e, c in p.items()}


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of ordinary polynomials over Q, computed over Z."""
    a, b = a.coeffs, b.coeffs
    if not (a or b):
        return LaurentPoly()
    if a and b:
        g = _integer_gcd(_primitive(a), _primitive(b))
    else:
        g = _primitive(a or b)
    lc = g[max(g)]
    if lc == 1:
        return _laurent(g)
    return _laurent({e: _exact(Fraction(c, lc)) for e, c in g.items()})


def _integer_gcd(a: dict, b: dict) -> dict:
    """gcd over Z of two primitive integer polynomials with positive
    leading coefficients, in that form too.

    Euclid on primitive pseudo-remainders (W. S. Brown, J. ACM 18, 1971):
    each step scales the dividend by the least integer that makes the
    next quotient term integral, and each remainder is replaced by its
    primitive part, so no Fraction arises.
    """
    if max(a) < max(b):
        a, b = b, a
    while max(b):
        db = max(b)
        lb = b[db]
        rem = dict(a)
        while rem:
            da = max(rem)
            if da < db:
                break
            h = math.gcd(rem[da], lb)
            s, f = lb // h, rem[da] // h
            if s != 1:
                rem = {e: c * s for e, c in rem.items()}
            _sub_multiple(rem, f, da - db, b)
        if not rem:
            return b
        a, b = b, _primitive(rem)
    return {0: 1}


def _poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, r = _poly_divmod(a, b)
    if not r.is_zero():
        raise ScalarError("inexact polynomial division")
    return q


def _cancel(num: LaurentPoly, den: LaurentPoly):
    """(num/g, den/g) for g the monic gcd of the ordinary den and num's
    ordinary part (q never divides a canonical denominator, so num's own
    q-power is pulled out first and put back after)."""
    t = num.low()
    n0 = num.shift(-t)
    g = _poly_gcd(n0, den)
    if not g.degree():
        return num, den
    return _poly_exact_div(n0, g).shift(t), _poly_exact_div(den, g)


# The one denominator of every ScalarQ whose canonical denominator is 1.
UNIT_DEN = LaurentPoly({0: 1})


class ScalarQ:
    """Element of the fraction field Q(q), kept in canonical reduced form.

    Canonical form: the denominator is an ordinary polynomial (lowest
    q-exponent 0, so its constant term is nonzero), monic, and coprime to
    the numerator.  Equality and hashing go through this form.  A
    denominator equal to 1 is always the shared object UNIT_DEN.  The
    public constructor canonicalises unless the denominator is UNIT_DEN:
    a scalar over UNIT_DEN is canonical whatever its numerator; any other
    pair goes through one gcd of the whole numerator and denominator.

    The operators build their results through _scalar, which takes over
    the pair as it is, and take no gcd when none can be non-trivial: a
    negation, a sum with at most one denominator other than UNIT_DEN, and
    a product of two scalars over UNIT_DEN or with a monomial c*q^k over
    UNIT_DEN.  In the monomial lane, a sum or product of two monomials
    over UNIT_DEN is formed from their coefficients alone, and a product
    with 1 returns the other operand.  A sum a/b + c/d of two other denominators takes gcd(b, d)
    and, when that is not 1, gcd(t, gcd(b, d)) for the new numerator t
    (`_henrici_sum`).  Any other product (a/b)(c/d) takes only the cross
    gcds gcd(a, d) and gcd(c, b), skipping one whose denominator is
    UNIT_DEN.  `inv` swaps numerator and denominator through the
    constructor, except for a monomial over UNIT_DEN.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = UNIT_DEN):
        if den.is_zero():
            raise ZeroDivisionError("ScalarQ with zero denominator")
        if den is not UNIT_DEN:
            num, den = _canonicalize(num, den)
        _set_num(self, num)
        _set_den(self, den)
        _set_sq_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarQ is immutable")

    @staticmethod
    def from_int(n) -> "ScalarQ":
        return ScalarQ(LaurentPoly.from_fraction(n))

    @staticmethod
    def from_fraction(c) -> "ScalarQ":
        return ScalarQ(LaurentPoly.from_fraction(c))

    @staticmethod
    def q_power(k: int) -> "ScalarQ":
        return ScalarQ(LaurentPoly.q_power(k))

    def is_zero(self) -> bool:
        return not self.num.coeffs

    def __add__(self, other):
        if type(other) is not ScalarQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # a/b + c = (a + cb)/b is still coprime: only two non-unit
        # denominators need canonicalisation
        if self.den is UNIT_DEN:
            if other.den is UNIT_DEN:
                a, b = self.num.coeffs, other.num.coeffs
                if len(a) == 1 == len(b):
                    # two monomials c*q^k: one coefficient sum, or two terms
                    ((k, c),), ((j, d),) = a.items(), b.items()
                    if k != j:
                        return _scalar(_laurent({k: c, j: d}), UNIT_DEN)
                    c += d
                    if not c:
                        return S_ZERO
                    if type(c) is not int and c.denominator == 1:
                        c = c.numerator
                    return _scalar(_laurent({k: c}), UNIT_DEN)
                return _scalar(self.num + other.num, UNIT_DEN)
            return _scalar(self.num * other.den + other.num, other.den)
        if other.den is UNIT_DEN:
            return _scalar(self.num + other.num * self.den, self.den)
        return _henrici_sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not ScalarQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # a monomial c*q^k is a unit of Q[q, 1/q], so a product with one
        # keeps the other factor's denominator and coprimality
        if self.den is UNIT_DEN and len(self.num.coeffs) == 1:
            x, y = self, other
        elif other.den is UNIT_DEN and len(other.num.coeffs) == 1:
            x, y = other, self
        else:
            x = None
        if x is not None:
            # x = c*q^k: a factor 1 gives y itself, and a product of two
            # monomials is the one term (cd)*q^(k+j)
            ((k, c),) = x.num.coeffs.items()
            if c == 1 and not k:
                return y
            b = y.num.coeffs
            if y.den is not UNIT_DEN or len(b) != 1:
                return _scalar(x.num * y.num, y.den)
            ((j, d),) = b.items()
            if d == 1 and not j:
                return x
            c *= d
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            return _scalar(_laurent({k + j: c}), UNIT_DEN)
        if self.den is UNIT_DEN is other.den:
            return _scalar(self.num * other.num, UNIT_DEN)
        if not (self.num.coeffs and other.num.coeffs):
            return S_ZERO
        # (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)): each fraction is
        # reduced, so only the cross pairs can share a factor
        a, d = self.num, other.den
        if d is not UNIT_DEN:
            a, d = _cancel(a, d)
        c, b = other.num, self.den
        if b is not UNIT_DEN:
            c, b = _cancel(c, b)
        return _scalar(a * c, _unit_or(b * d))

    __rmul__ = __mul__

    def inv(self) -> "ScalarQ":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(q)")
        if self.den is UNIT_DEN and len(self.num.coeffs) == 1:
            # the inverse of a monomial c*q^k is (1/c)*q^-k, with no gcd
            ((k, c),) = self.num.coeffs.items()
            return _scalar(_laurent({-k: _exact(1 / Fraction(c))}), UNIT_DEN)
        return ScalarQ(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.num, self.den)))
        return self._hash

    def eval(self, q0: float) -> float:
        if q0 == 0:
            raise PoleError("q = 0 is outside the specialization domain")
        d = self.den.eval(q0)
        if abs(d) < 1e-300:
            raise PoleError(f"denominator vanishes at q = {q0}")
        return self.num.eval(q0) / d

    def __repr__(self):
        if self.den is UNIT_DEN:
            return f"({self.num})"
        return f"({self.num}) / ({self.den})"


_set_num = ScalarQ.num.__set__
_set_den = ScalarQ.den.__set__
_set_sq_hash = ScalarQ._hash.__set__


def _scalar(num: LaurentPoly, den: LaurentPoly) -> ScalarQ:
    """A ScalarQ that takes over (num, den), which must already be in
    canonical form."""
    x = object.__new__(ScalarQ)
    _set_num(x, num)
    _set_den(x, den)
    _set_sq_hash(x, None)
    return x


def _coerce(x):
    if isinstance(x, ScalarQ):
        return x
    if isinstance(x, (int, Fraction)):
        return ScalarQ.from_fraction(x)
    return NotImplemented


def _unit_or(den: LaurentPoly) -> LaurentPoly:
    """den, or the shared UNIT_DEN when den is the monic constant 1."""
    return UNIT_DEN if not den.degree() else den


def _henrici_sum(a: LaurentPoly, b: LaurentPoly,
                 c: LaurentPoly, d: LaurentPoly) -> ScalarQ:
    """a/b + c/d for canonical fractions over denominators other than 1
    (P. Henrici, J. ACM 3, 1956): with g = gcd(b, d) and
    t = a (d/g) + c (b/g), the sum is (t/g2) / ((b/g)(d/g2)) for
    g2 = gcd(t, g), and no other factor can cancel."""
    g = _poly_gcd(b, d)
    if not g.degree():
        return _scalar(a * d + c * b, b * d)
    b = _poly_exact_div(b, g)
    d = _poly_exact_div(d, g)
    t = a * d + c * b
    if not t.coeffs:
        return _scalar(t, UNIT_DEN)
    t, g = _cancel(t, g)
    return _scalar(t, _unit_or(b * g * d))


def _canonicalize(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero():
        return num, UNIT_DEN
    # shift the denominator so its lowest exponent is 0
    s = den.low()
    num, den = _cancel(num.shift(-s), den.shift(-s))
    lc = den.leading_coeff()
    if lc != 1:
        den = den * (1 / lc)
        num = num * (1 / lc)
    return num, _unit_or(den)


def add_term(terms: dict, key, value: ScalarQ) -> None:
    """terms[key] += value in place, dropping the key when the sum is 0.

    An absent key takes value itself (not S_ZERO + value), unless value
    is 0, so every stored scalar stays nonzero.
    """
    old = terms.get(key)
    if old is None:
        if not value.is_zero():
            terms[key] = value
        return
    s = old + value
    if s.is_zero():
        del terms[key]
    else:
        terms[key] = s


S_ZERO = ScalarQ.from_int(0)
S_ONE = ScalarQ.from_int(1)
Q = ScalarQ.q_power(1)
# the real q at which numerical evidence (Gram positivity) is taken when
# no --q is given
Q_SAMPLES = (0.5, 0.9, 2.0)
