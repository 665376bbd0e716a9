"""Exact arithmetic in Q(q): Laurent polynomials in q over the rationals
and their fraction field, plus numerical specialization at real q.

All values are immutable and hashable; every operation is pure.  q is a
real parameter and the coefficients are rational, so complex conjugation
on Q(q) is the identity: a star structure is linear over Q(q), and a
conjugate-symmetric scalar matrix is a symmetric one.

A Laurent polynomial is kept over Z, as integer numerators over one
common denominator (see LaurentPoly).  Sums and products run on ints and
bring their result to its one stored form with a single integer gcd,
which they skip when the denominator is 1; no Fraction is made until
`coeffs` is read.

A scalar is kept as a reduced fraction (see ScalarQ).  Sums and products
of reduced fractions take only the polynomial gcds that can be
non-trivial (Henrici's rule).  Every polynomial gcd and exact division
runs over Z on dense int lists of numerators, constant term first: the
gcd is Euclid on primitive pseudo-remainders (`_pseudo_rem`), and an
exact division is one quotient loop that checks it leaves no remainder
(`_exact_quo`); see `_henrici_sum`, `ScalarQ.__mul__` and `_cancel`.
Most scalars that completion meets are monomials c*q^k with c an int,
over the denominator 1.  A sum or product of two of them takes no gcd,
and no loop over Laurent terms: the operators form it from the two
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
from itertools import chain


class ScalarError(Exception):
    pass


class PoleError(ScalarError):
    """Denominator vanishes at the requested evaluation point."""


class LaurentPoly:
    """Laurent polynomial in q with exact rational coefficients.

    Stored over Z, as (1/m)·Σ n_e q^e.  `_n` is the flat list
    [e0, n0, e1, n1, ...] of its terms, exponents increasing, and every
    numerator n_e is a nonzero int; `_m` is the one common denominator
    m >= 1, with gcd(m, every n_e) = 1 (so the zero polynomial is []
    over m = 1).  Each value has exactly one stored form, which equality
    and hashing read.  A flat list takes a third to a half of the memory
    of a dict for the one- to four-term polynomials that normal forms
    hold.  It is never changed once a LaurentPoly holds it, and no other
    module of qgal reads `_n` or `_m`: the read is `coeffs`.

    The public constructor takes a map exponent -> coefficient, of ints
    and Fractions.  A sum merges the two term lists, and a product adds
    up its terms in a dict.  The operations build their results through
    _laurent, which takes over a pair already in the stored form, or
    through _reduced, which first divides out gcd(m, every n_e) for
    m > 1.
    """

    __slots__ = ("_n", "_m")

    def __init__(self, coeffs=None):
        # over the lcm m of the reduced denominators no prime divides m
        # and every numerator, so the pair is already in stored form
        cs = {e: Fraction(c) for e, c in (coeffs or {}).items() if c}
        m = math.lcm(*(c.denominator for c in cs.values()))
        _set_n(self, _flat(sorted((e, c.numerator * (m // c.denominator))
                                  for e, c in cs.items())))
        _set_m(self, m)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def from_fraction(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(k: int) -> "LaurentPoly":
        return _laurent([k, 1], 1)

    @property
    def coeffs(self) -> dict:
        """A new map exponent -> nonzero coefficient: an int where the
        coefficient is integral, otherwise a Fraction (whose denominator
        is then > 1)."""
        m = self._m
        if m == 1:
            return _terms(self)
        return {e: Fraction(c, m) if c % m else c // m
                for e, c in _terms(self).items()}

    def is_zero(self) -> bool:
        return not self._n

    def low(self) -> int:
        if not self._n:
            raise ScalarError("zero polynomial has no lowest exponent")
        return self._n[0]

    def degree(self) -> int:
        if not self._n:
            raise ScalarError("zero polynomial has no degree")
        return self._n[-2]

    def leading_coeff(self) -> Fraction:
        return Fraction(self._n[-1], self._m)

    def shift(self, k: int) -> "LaurentPoly":
        if not k:
            return self
        n = self._n[:]
        n[::2] = [e + k for e in n[::2]]
        return _laurent(n, self._m)

    def __add__(self, other):
        a, m, b, k = self._n, self._m, other._n, other._m
        if m != k:
            # both over the lcm of the two denominators
            g = math.gcd(m, k)
            if k != g:
                a = a[:]
                a[1::2] = [c * (k // g) for c in a[1::2]]
            if m != g:
                b = b[:]
                b[1::2] = [c * (m // g) for c in b[1::2]]
            m = m // g * k
        # merge the two increasing term lists
        n = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            e, f = a[i], b[j]
            if e < f:
                n += (e, a[i + 1])
                i += 2
            elif f < e:
                n += (f, b[j + 1])
                j += 2
            else:
                v = a[i + 1] + b[j + 1]
                if v:
                    n += (e, v)
                i += 2
                j += 2
        n += a[i:]
        n += b[j:]
        return _laurent(n, 1) if m == 1 else _reduced(n, m)

    def __neg__(self):
        n = self._n[:]
        n[1::2] = [-c for c in n[1::2]]
        return _laurent(n, self._m)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.from_fraction(other)
        a, m, b, k = self._n, self._m, other._n, other._m
        if len(a) == 2:
            a, m, b, k = b, k, a, m
        if len(b) == 2:
            # a monomial factor (f/k)*q^j keeps the exponents apart and in
            # order.  f is coprime to k and a's numerators to m, so for
            # k = 1 only gcd(m, f) can cancel, and no other gcd is needed
            j, f = b
            if k == 1 and m != 1:
                g = math.gcd(m, f)
                if g != 1:
                    f //= g
                    m //= g
            n = []
            it = iter(a)
            for e, c in zip(it, it):
                n += (e + j, c * f)
            if k == 1:
                return _laurent(n, m)
        else:
            out = {}
            it = iter(b)
            b = list(zip(it, it))
            it = iter(a)
            for e1, c1 in zip(it, it):
                for e2, c2 in b:
                    e = e1 + e2
                    v = c1 * c2
                    if e in out:
                        v += out[e]
                        if not v:
                            del out[e]
                            continue
                    out[e] = v
            n = _flat(sorted(out.items()))
        m *= k
        return _laurent(n, 1) if m == 1 else _reduced(n, m)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self._n == other._n
                and self._m == other._m)

    def __hash__(self):
        return hash((tuple(self._n), self._m))

    def eval(self, q0: float) -> float:
        n, m = self._n, self._m
        if q0 == 0 and n and n[0] < 0:
            raise PoleError("negative q-power evaluated at q = 0")
        # each coefficient is rounded to a float once, as n/m, and fsum is
        # exactly rounded, so the value does not depend on the stored form
        return math.fsum((c if m == 1 else c / m) * q0**e
                         for e, c in _terms(self).items())

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        parts = []
        for e, c in self.coeffs.items():
            qpart = "q" if e == 1 else f"q^{e}"
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(qpart)
            elif c == -1:
                parts.append(f"-{qpart}")
            else:
                parts.append(f"{c}*{qpart}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


_set_n = LaurentPoly._n.__set__
_set_m = LaurentPoly._m.__set__


def _flat(pairs) -> list:
    """The flat list [e0, n0, e1, n1, ...] of (exponent, numerator)
    pairs."""
    return list(chain.from_iterable(pairs))


def _terms(p: LaurentPoly) -> dict:
    """A new map exponent -> numerator of p."""
    it = iter(p._n)
    return dict(zip(it, it))


def _laurent(n: list, m: int) -> LaurentPoly:
    """A LaurentPoly that takes over (n, m), which must already be in the
    stored form."""
    p = object.__new__(LaurentPoly)
    _set_n(p, n)
    _set_m(p, m)
    return p


def _reduced(n: list, m: int) -> LaurentPoly:
    """The LaurentPoly that takes over the flat list n of nonzero int
    numerators, in increasing exponents, over m > 1, in the stored form:
    one gcd of m and the numerators, divided out."""
    g = math.gcd(m, *n[1::2])
    if g != 1:
        n[1::2] = [c // g for c in n[1::2]]
        m //= g
    return _laurent(n, m)


def _dense(p: LaurentPoly, t: int) -> list:
    """The numerators of p/q^t as a dense list, constant term first, for
    t at most p's lowest exponent ([] for p = 0)."""
    n = p._n
    a = [0] * (n[-2] - t + 1) if n else []
    for i in range(0, len(n), 2):
        a[n[i] - t] = n[i + 1]
    return a


def _from_dense(a: list, k: int, m: int, t: int) -> LaurentPoly:
    """The LaurentPoly (k/m)·q^t·Σ a_e q^e of the dense int list a, for
    an int k and an int m > 0, in the stored form."""
    n = [x for e, c in enumerate(a) if c for x in (e + t, c * k)]
    return _laurent(n, 1) if m == 1 else _reduced(n, m)


def _primitive(a: list) -> list:
    """The nonzero dense integer polynomial a over its content, signed so
    that it has a positive leading coefficient."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [v // c for v in a]


def _pseudo_rem(a: list, b: list):
    """Pseudo-remainder over Z of the dense integer polynomial a by b,
    whose leading coefficient is positive: (s, rem) with
    rem = s*a mod b, deg rem < deg b.

    Each step scales the dividend by the least positive integer that makes
    the next quotient term integral, and s is the product of these
    scales, so no Fraction arises.
    """
    rem = a[:]
    db = len(b) - 1
    lb = b[-1]
    s = 1
    for k in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        if c:
            f, r = divmod(c, lb)
            if r:
                h = math.gcd(c, lb)
                t, f = lb // h, c // h
                rem = [v * t for v in rem]
                s *= t
            for i in range(db):
                rem[k + i] -= f * b[i]
    while rem and not rem[-1]:
        rem.pop()
    return s, rem


def _exact_quo(a: list, b: list) -> list:
    """a / b over Z for dense integer polynomials, b nonzero; ScalarError
    when the quotient is not an integer polynomial."""
    rem = a[:]
    db = len(b) - 1
    lb = b[-1]
    quo = [0] * (len(a) - db)
    for k in range(len(a) - len(b), -1, -1):
        c = rem.pop()
        if c:
            f, r = divmod(c, lb)
            if r:
                raise ScalarError("inexact polynomial division")
            quo[k] = f
            for i in range(db):
                rem[k + i] -= f * b[i]
    if any(rem):
        raise ScalarError("inexact polynomial division")
    return quo


def _dense_gcd(a: list, b: list) -> list:
    """gcd over Z of two nonzero dense integer polynomials, primitive and
    with a positive leading coefficient: Euclid on primitive
    pseudo-remainders (W. S. Brown, J. ACM 18, 1971)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _pseudo_rem(a, b)[1]
        if not rem:
            return b
        a, b = b, _primitive(rem)
    return [1]


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of ordinary polynomials over Q, computed over Z on the
    numerators."""
    a, b = _dense(a, 0), _dense(b, 0)
    if not (a or b):
        return LaurentPoly()
    g = _dense_gcd(a, b) if a and b else _primitive(a or b)
    return _from_dense(g, 1, g[-1], 0)


def _poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b for an ordinary polynomial b that divides a, over Z: with
    b = (c/m_b)·P for P the primitive part of b's numerators, the
    quotient A/P of a's numerators is integral (Gauss's lemma), and
    a / b = (m_b / (c·m_a))·(A/P)."""
    nb = _dense(b, 0)
    p = _primitive(nb)
    k, m = b._m, nb[-1] // p[-1] * a._m
    if m < 0:
        k, m = -k, -m
    return _from_dense(_exact_quo(_dense(a, 0), p), k, m, 0)


def _cancel(num: LaurentPoly, den: LaurentPoly):
    """(num/g, den/g) for g the monic gcd of the ordinary den and num's
    ordinary part (q never divides a canonical denominator, so num's own
    q-power is pulled out first and put back after).  With G the
    primitive gcd of the numerators and l its leading coefficient,
    g = G/l, and num/g = (l/m_num)·(N/G) with N/G integral."""
    t = num.low()
    a, b = _dense(num, t), _dense(den, 0)
    g = _dense_gcd(a, b)
    if len(g) == 1:
        return num, den
    lc = g[-1]
    return (_from_dense(_exact_quo(a, g), lc, num._m, t),
            _from_dense(_exact_quo(b, g), lc, den._m, 0))


# The one denominator of every ScalarQ whose canonical denominator is 1.
UNIT_DEN = LaurentPoly({0: 1})


class ScalarQ:
    """Element of the fraction field Q(q), kept in canonical reduced form.

    Canonical form: the denominator is an ordinary polynomial (lowest
    q-exponent 0, so its constant term is nonzero), monic, and coprime to
    the numerator.  Equality and hashing go through this form, except
    that a constant over UNIT_DEN hashes as the int or Fraction it
    equals.  A denominator equal to 1 is always the shared object
    UNIT_DEN.  The public constructor canonicalises unless the
    denominator is UNIT_DEN: a scalar over UNIT_DEN is canonical whatever
    its numerator; any other pair goes through one gcd of the whole
    numerator and denominator.

    The operators build their results through _scalar, which takes over
    the pair as it is, and take no gcd when none can be non-trivial: a
    negation, a sum with at most one denominator other than UNIT_DEN, and
    a product of two scalars over UNIT_DEN or with a monomial c*q^k over
    UNIT_DEN.  In the monomial lane, a sum or product of two monomials
    with int coefficients over UNIT_DEN is formed from the two
    coefficients alone, and a product with 1 returns the other operand.
    A sum a/b + c/d of two other denominators takes gcd(b, d)
    and, when that is not 1, gcd(t, gcd(b, d)) for the new numerator t
    (`_henrici_sum`).  Any other product (a/b)(c/d) takes only the cross
    gcds gcd(a, d) and gcd(c, b), skipping one whose denominator is
    UNIT_DEN; `_cancel` takes each on dense int lists and divides both
    sides by it made monic, so a canonical denominator stays monic.
    `inv` swaps numerator and denominator through the constructor,
    except for a monomial over UNIT_DEN.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = UNIT_DEN):
        if den.is_zero():
            raise ZeroDivisionError("ScalarQ with zero denominator")
        if den is not UNIT_DEN:
            num, den = _canonicalize(num, den)
        _set_num(self, num)
        _set_den(self, den)

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
        return not self.num._n

    def __add__(self, other):
        if type(other) is not ScalarQ:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # a/b + c = (a + cb)/b is still coprime: only two non-unit
        # denominators need canonicalisation
        if self.den is UNIT_DEN:
            if other.den is UNIT_DEN:
                x, y = self.num, other.num
                a, b = x._n, y._n
                if len(a) == 2 == len(b) and x._m == 1 == y._m:
                    # two integral monomials c*q^k: one coefficient sum, or
                    # two terms
                    k, c = a
                    j, d = b
                    if k != j:
                        n = [k, c, j, d] if k < j else [j, d, k, c]
                        return _scalar(_laurent(n, 1), UNIT_DEN)
                    c += d
                    if not c:
                        return S_ZERO
                    return _scalar(_laurent([k, c], 1), UNIT_DEN)
                return _scalar(x + y, UNIT_DEN)
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
        if self.den is UNIT_DEN and len(self.num._n) == 2:
            x, y = self, other
        elif other.den is UNIT_DEN and len(other.num._n) == 2:
            x, y = other, self
        else:
            x = None
        if x is not None:
            # x = c*q^k: a factor 1 gives y itself, and a product of two
            # integral monomials is the one term (cd)*q^(k+j)
            u, v = x.num, y.num
            k, c = u._n
            if c == 1 == u._m and not k:
                return y
            b = v._n
            if y.den is not UNIT_DEN or len(b) != 2:
                return _scalar(u * v, y.den)
            j, d = b
            if d == 1 == v._m and not j:
                return x
            if u._m == 1 == v._m:
                return _scalar(_laurent([k + j, c * d], 1), UNIT_DEN)
            return _scalar(u * v, UNIT_DEN)
        if self.den is UNIT_DEN is other.den:
            return _scalar(self.num * other.num, UNIT_DEN)
        if not (self.num._n and other.num._n):
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
        if self.den is UNIT_DEN and len(self.num._n) == 2:
            # the inverse of a monomial (c/m)*q^k is (m/c)*q^-k, and c, m
            # are coprime, so it takes no gcd
            k, c = self.num._n
            m = self.num._m
            if c < 0:
                c, m = -c, -m
            return _scalar(_laurent([-k, m], c), UNIT_DEN)
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
        # the _hash slot is left unset until the first hash
        try:
            return self._hash
        except AttributeError:
            n, m = self.num._n, self.num._m
            if self.den is not UNIT_DEN or len(n) > 2 or n and n[0]:
                h = hash((self.num, self.den))
            else:
                # a constant hashes as the int or Fraction it equals
                h = hash(Fraction(n[1], m) if n else 0)
            _set_sq_hash(self, h)
            return h

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
    g2 = gcd(t, g), and no other factor can cancel.  Both gcds are
    monic, and b/g and d/g are exact quotients over Z (`_exact_quo`)."""
    g = _poly_gcd(b, d)
    if not g.degree():
        return _scalar(a * d + c * b, b * d)
    b = _poly_exact_div(b, g)
    d = _poly_exact_div(d, g)
    t = a * d + c * b
    if not t._n:
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
