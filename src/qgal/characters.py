"""Characters (one-dimensional representations) of catalog algebras.

A character factors through the abelianization, so emptiness of the
spectrum is decided by a commutative Groebner basis over the q-rational
scalar field: the spectrum is empty exactly when 1 lies in the
abelianized ideal.  q is transcendental here, so coefficients such as
1 + q are units.

`_spectrum` is the one decision: a counit that is a character, else the
Groebner basis, then a point enumerated from it.  `spectrum_report` and
`spectrum_witness` read it; `spectrum_empty` is the bare Groebner test,
kept apart as an oracle.  QGAL_DEGREE_CAP (`_degree_cap`) is the one cap
on the degree of a Groebner completion.
"""

from __future__ import annotations

import os

from .ncpoly import AlgebraError
from .report import Report, timed
from .scalars import S_ONE, S_ZERO, add_term

DEFAULT_DEGREE_CAP = 12


class GroebnerError(Exception):
    pass


class DegreeCapError(GroebnerError):
    """Completion produced a polynomial above the degree cap."""


def _degree_cap():
    """QGAL_DEGREE_CAP when set, an integer >= 0 (any other value is an
    AlgebraError naming it), else DEFAULT_DEGREE_CAP."""
    env = os.environ.get("QGAL_DEGREE_CAP", "").strip()
    if not env:
        return DEFAULT_DEGREE_CAP
    if not env.isdecimal():
        raise AlgebraError(f"QGAL_DEGREE_CAP must be an integer >= 0, got {env!r}")
    return int(env)


# Polynomials are dicts: exponent tuple -> scalar.  Grevlex throughout.


def grevlex_key(expo):
    return (sum(expo), tuple(-e for e in reversed(expo)))


def leading_monomial(poly):
    return max(poly, key=grevlex_key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def poly_sub_scaled(p, c, mono, g):
    """p - c * x^mono * g, in place on a fresh dict."""
    out = dict(p)
    for e, v in g.items():
        add_term(out, _mono_mul(mono, e), -(c * v))
    return out


def reduce_poly(p, basis):
    """Full remainder of p modulo the basis (every term reduced)."""
    p = dict(p)
    out = {}
    while p:
        lm = leading_monomial(p)
        lc = p[lm]
        hit = None
        for g in basis:
            glm = leading_monomial(g)
            if _divides(glm, lm):
                hit = (g, glm)
                break
        if hit is None:
            out[lm] = lc
            del p[lm]
            continue
        g, glm = hit
        c = lc * g[glm].inv()
        p = poly_sub_scaled(p, c, _mono_div(lm, glm), g)
    return out


def _monic(p):
    lm = leading_monomial(p)
    inv = p[lm].inv()
    return {e: inv * c for e, c in p.items()}


def s_poly(f, g):
    lf, lg = leading_monomial(f), leading_monomial(g)
    l = _mono_lcm(lf, lg)
    a = poly_sub_scaled({}, -S_ONE * f[lf].inv(), _mono_div(l, lf), f)
    return poly_sub_scaled(a, g[lg].inv(), _mono_div(l, lg), g)


class CommutativePresentation:
    """Commutative polynomial presentation: variable names plus ideal
    generators as exponent-vector polynomials."""

    def __init__(self, variables, ideal_generators):
        self.variables = list(variables)
        self.ideal_generators = [dict(g) for g in ideal_generators if g]

    def __repr__(self):
        return (f"CommutativePresentation({self.variables!r}, "
                f"{len(self.ideal_generators)} generators)")


def groebner(cp: CommutativePresentation):
    """Reduced grevlex Groebner basis by Buchberger completion.

    Raises DegreeCapError when an S-polynomial remainder exceeds the
    degree cap, so runaway user inputs fail loudly instead of spinning.
    """
    cap = _degree_cap()
    basis = []
    for g in cp.ideal_generators:
        r = reduce_poly(g, basis)
        if r:
            basis.append(_monic(r))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        lf, lg = leading_monomial(f), leading_monomial(g)
        if _mono_lcm(lf, lg) == _mono_mul(lf, lg):
            continue  # coprime leading monomials reduce to zero
        r = reduce_poly(s_poly(f, g), basis)
        if not r:
            continue
        lm = leading_monomial(r)
        if sum(lm) > cap:
            raise DegreeCapError(
                f"Groebner completion passed degree cap {cap}"
            )
        r = _monic(r)
        # trivial ideal short-circuit
        if lm == tuple(0 for _ in lm):
            return [{lm: S_ONE}]
        basis.append(r)
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _reduce_basis(basis)


def _reduce_basis(basis):
    # drop generators whose leading monomial is divisible by another's
    keep = []
    lms = [leading_monomial(g) for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and _divides(lms[j], lms[i])
               and (lms[j] != lms[i] or j < i) for j in range(len(basis))):
            continue
        keep.append(g)
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = reduce_poly(g, others) if others else g
        if r:
            out.append(_monic(r))
    out.sort(key=lambda g: grevlex_key(leading_monomial(g)))
    return out


def contains_one(basis) -> bool:
    return any(leading_monomial(g) == tuple(0 for _ in leading_monomial(g))
               for g in basis if g)


def abelianization(p):
    """Commutative image of a presentation: same variables, relation words
    become sorted exponent vectors (characters of the algebra factor
    through this)."""
    nvars = len(p.alphabet)
    gens = []
    for rel in p.relations:
        poly = {}
        for word, c in rel.terms.items():
            expo = [0] * nvars
            for letter in word:
                expo[letter] += 1
            add_term(poly, tuple(expo), c)
        if poly:
            gens.append(poly)
    return CommutativePresentation(list(p.alphabet.names), gens)


def spectrum_empty(p) -> bool:
    """True iff the algebra has no characters over the generic-q field."""
    return contains_one(groebner(abelianization(p)))


def _spectrum(p, base=None):
    """(point, empty, owner): a character of p as {generator name:
    scalar}, or None when none is exhibited; whether the spectrum is
    empty; and the presentation whose counit the point is, or None.

    The counit comes first: p's own when p is a Hopf presentation, else
    that of `base` (the Hopf algebra coacting on p) carried over by
    generator name when the two share their generator names, taken when
    it kills the abelianization.  Otherwise the reduced Groebner basis
    decides emptiness, and triangular back-substitution on it or a
    constant probe enumerates a point.  DegreeCapError propagates."""
    cp = abelianization(p)
    owner = p if getattr(p, "hopf", None) is not None else base
    if getattr(owner, "hopf", None) is not None and \
            sorted(owner.alphabet.names) == sorted(p.alphabet.names):
        point = {owner.alphabet.names[i]: c for i, c in owner.hopf.counit.items()}
        if _point_kills(cp, point):
            return point, False, owner
    basis = groebner(cp)
    if contains_one(basis):
        return None, True, None
    return _enumerated_point(cp, basis), False, None


def _enumerated_point(cp, basis):
    """A point that kills cp, by back-substitution on its reduced
    Groebner basis or by a constant probe; None when neither finds one."""
    point = _back_substitute(cp.variables, basis)
    if point is not None and _point_kills(cp, point):
        return point
    # cheap probes for non-zero-dimensional quotients
    for val in (S_ONE, S_ZERO):
        probe = {v: val for v in cp.variables}
        if _point_kills(cp, probe):
            return probe
    return None


def spectrum_witness(p):
    """A character as {generator name: scalar}, when one is exhibited:
    for Hopf presentations the counit, for others one enumerated from the
    reduced basis; None when no point is enumerated."""
    return _spectrum(p)[0]


def _point_kills(cp: CommutativePresentation, point):
    values = dict(enumerate(point[v] for v in cp.variables))
    return not any(_substitute(g, values) for g in cp.ideal_generators)


def _back_substitute(variables, basis):
    """Solve a triangular system by repeated univariate-linear steps."""
    values = {}
    remaining = list(basis)
    progress = True
    while remaining and progress:
        progress = False
        for g in list(remaining):
            subbed = _substitute(g, values)
            if not subbed:
                remaining.remove(g)
                progress = True
                continue
            vars_left = {v for e in subbed for v, k in enumerate(e) if k}
            if len(vars_left) != 1:
                continue
            (v,) = vars_left
            if max(e[v] for e in subbed) != 1:
                continue
            lin = next(c for e, c in subbed.items() if e[v] == 1)
            const = S_ZERO
            for e, c in subbed.items():
                if e[v] == 0:
                    const = const + c
            values[v] = -(const * lin.inv())
            remaining.remove(g)
            progress = True
    if remaining:
        return None
    n = len(variables)
    return {variables[v]: values.get(v, S_ZERO) for v in range(n)}


def _substitute(g, values):
    out = {}
    for expo, c in g.items():
        term = c
        new_expo = list(expo)
        for v, k in enumerate(expo):
            if k and v in values:
                val = values[v]
                for _ in range(k):
                    term = term * val
                new_expo[v] = 0
        add_term(out, tuple(new_expo), term)
    return out


def spectrum_report(p, base=None) -> Report:
    """Whether p has a character.  `base` is the Hopf algebra that
    coacts on p, when there is one: its counit is tried as well."""
    report = Report(f"spectrum({p.name})")
    with timed(report):
        try:
            w, empty, owner = _spectrum(p, base)
        except DegreeCapError as e:
            report.add_undecided("spectrum emptiness", witness=str(e))
            return report
        if empty:
            report.add("spectrum is empty (1 lies in the abelianized "
                       "ideal)", True, witness="empty")
        elif w is None:
            report.add("spectrum is nonempty", True,
                       witness="nonempty, not enumerated")
        else:
            note = "" if owner is None or owner is p else (
                f"; the counit of {owner.name}, carried over by generator name: "
                f"a Galois object with a character is trivial")
            desc = ", ".join(f"{k} -> {v!r}" for k, v in w.items())
            report.add("spectrum is nonempty", True,
                       witness=f"character: {desc}{note}")
    return report
