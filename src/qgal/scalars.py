"""Exact arithmetic in Q(q): Laurent polynomials in q over the rationals
and their fraction field, plus a complexified variant and numerical
specialization at real q.

All values are immutable and hashable; every operation is pure.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(Exception):
    pass


class PoleError(ScalarError):
    """Denominator vanishes at the requested evaluation point."""


def _clean(coeffs):
    return {e: c for e, c in coeffs.items() if c}


class LaurentPoly:
    """Laurent polynomial in q with exact rational coefficients.

    Stored as a finitely supported map exponent -> Fraction; zero
    coefficients are never kept.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        object.__setattr__(self, "coeffs", dict(_clean(coeffs or {})))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def from_fraction(c) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly({0: c} if c else {})

    @staticmethod
    def q_power(k: int) -> "LaurentPoly":
        return LaurentPoly({k: Fraction(1)})

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
        # coefficients may be given as ints, and 1 / int is a float;
        # converting here keeps every division in canonicalisation exact
        c = self.coeffs[self.degree()]
        return c if type(c) is Fraction else Fraction(c)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return LaurentPoly({e: c * f for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return LaurentPoly(out)

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
        return float(sum(c * q0**e for e, c in self.coeffs.items()))

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return " + ".join(parts).replace("+ -", "- ")


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Euclidean division of ordinary (non-negative exponent) polynomials."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a.coeffs)
    quo = {}
    db, lb = b.degree(), b.leading_coeff()
    while rem:
        da = max(rem)
        if da < db:
            break
        f = rem[da] / lb
        quo[da - db] = f
        for e, c in b.coeffs.items():
            k = e + da - db
            v = rem.get(k, 0) - f * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return LaurentPoly(quo), LaurentPoly(rem)


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of ordinary polynomials over Q."""
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    if a.is_zero():
        return a
    return a * (1 / a.leading_coeff())


def _poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, r = _poly_divmod(a, b)
    if not r.is_zero():
        raise ScalarError("inexact polynomial division")
    return q


# The one denominator of every ScalarQ whose canonical denominator is 1.
UNIT_DEN = LaurentPoly({0: Fraction(1)})


class ScalarQ:
    """Element of the fraction field Q(q), kept in canonical reduced form.

    Canonical form: the denominator is an ordinary polynomial (lowest
    q-exponent 0, so its constant term is nonzero), monic, and coprime to
    the numerator.  Equality and hashing go through this form.  A
    denominator equal to 1 is always the shared object UNIT_DEN.  A
    scalar over UNIT_DEN is canonical whatever its numerator, and so are
    sums and products of two of them, so those skip canonicalisation.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = UNIT_DEN,
                 _canonical=False):
        if den.is_zero():
            raise ZeroDivisionError("ScalarQ with zero denominator")
        if not (_canonical or den is UNIT_DEN):
            num, den = _canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

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
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.den is UNIT_DEN and self.num.coeffs == {0: 1}

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is UNIT_DEN and other.den is UNIT_DEN:
            return ScalarQ(self.num + other.num)
        return ScalarQ(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return ScalarQ(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is UNIT_DEN and other.den is UNIT_DEN:
            return ScalarQ(self.num * other.num)
        return ScalarQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "ScalarQ":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return ScalarQ(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inv()

    def conj(self) -> "ScalarQ":
        # q is treated as a real parameter, so conjugation is trivial
        return self

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


def _coerce(x):
    if isinstance(x, ScalarQ):
        return x
    if isinstance(x, (int, Fraction)):
        return ScalarQ.from_fraction(x)
    return NotImplemented


def _canonicalize(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero():
        return num, UNIT_DEN
    # shift the denominator so its lowest exponent is 0
    s = den.low()
    den = den.shift(-s)
    num = num.shift(-s)
    # pull the numerator's own q-power out before taking the gcd
    t = num.low()
    n0 = num.shift(-t)
    g = _poly_gcd(n0, den)
    if not (g.degree() == 0 and g.coeffs.get(0) == 1):
        n0 = _poly_exact_div(n0, g)
        den = _poly_exact_div(den, g)
    lc = den.leading_coeff()
    if lc != 1:
        den = den * (1 / lc)
        n0 = n0 * (1 / lc)
    return n0.shift(t), (UNIT_DEN if den.degree() == 0 else den)


S_ZERO = ScalarQ.from_int(0)
S_ONE = ScalarQ.from_int(1)
Q = ScalarQ.q_power(1)
QINV = ScalarQ.q_power(-1)


class ScalarC:
    """Complexified scalar a + b*i with a, b in Q(q); i^2 = -1.

    Conjugation negates the imaginary part and fixes q.
    """

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re: ScalarQ, im: ScalarQ = S_ZERO):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarC is immutable")

    @staticmethod
    def from_scalar(x) -> "ScalarC":
        if isinstance(x, ScalarC):
            return x
        if isinstance(x, ScalarQ):
            return ScalarC(x)
        return ScalarC(ScalarQ.from_fraction(x))

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def is_one(self):
        return self.re.is_one() and self.im.is_zero()

    def __add__(self, other):
        other = ScalarC.from_scalar(other)
        return ScalarC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ScalarC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-ScalarC.from_scalar(other))

    def __rsub__(self, other):
        return ScalarC.from_scalar(other) - self

    def __mul__(self, other):
        other = ScalarC.from_scalar(other)
        return ScalarC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inv(self) -> "ScalarC":
        n = self.re * self.re + self.im * self.im
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero complexified scalar")
        ninv = n.inv()
        return ScalarC(self.re * ninv, -self.im * ninv)

    def __truediv__(self, other):
        return self * ScalarC.from_scalar(other).inv()

    def conj(self) -> "ScalarC":
        return ScalarC(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (ScalarQ, int, Fraction)):
            other = ScalarC.from_scalar(other)
        if not isinstance(other, ScalarC):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.re, self.im)))
        return self._hash

    def eval(self, q0: float) -> complex:
        return complex(self.re.eval(q0), self.im.eval(q0))

    def __repr__(self):
        if self.im.is_zero():
            return repr(self.re)
        return f"({self.re!r} + {self.im!r}*i)"


C_ZERO = ScalarC(S_ZERO)
C_ONE = ScalarC(S_ONE)
C_I = ScalarC(S_ZERO, S_ONE)
