from types import SimpleNamespace

import pytest

from qgal import characters
from qgal.characters import (
    CommutativePresentation,
    DegreeCapError,
    contains_one,
    groebner,
    reduce_poly,
    spectrum_empty,
    spectrum_report,
    spectrum_witness,
)
from qgal.presentations import catalog, parse_presentation_text
from qgal.scalars import Q, S_ONE, S_ZERO


def P(*monos):
    """Polynomial from (exponent tuple, scalar) pairs."""
    return {e: c for e, c in monos}


def test_groebner_small_oracle():
    # <x^2 - y, x*y - x> completes with y^2 - y; hand-checked
    f = P(((2, 0), S_ONE), ((0, 1), -S_ONE))
    g = P(((1, 1), S_ONE), ((1, 0), -S_ONE))
    basis = groebner(CommutativePresentation(["x", "y"], [f, g]))
    assert len(basis) >= 2
    # y^2 - y must reduce to zero modulo the basis
    h = P(((0, 2), S_ONE), ((0, 1), -S_ONE))
    assert reduce_poly(h, basis) == {}


def _sympy_scalar(c, sp, q):
    def laurent(p):
        return sum((sp.Rational(v) * q**e for e, v in p.coeffs.items()),
                   sp.Integer(0))
    return laurent(c.num) / laurent(c.den)


# <x^2 - y, x*y - x> (the ideal above), the unit ideal <x - 1, x - 2>,
# and <(1+q) x^2 - y, x*y - q*x>, whose basis has a coefficient 1/(1+q)
ORACLE_IDEALS = [
    [P(((2, 0), S_ONE), ((0, 1), -S_ONE)), P(((1, 1), S_ONE), ((1, 0), -S_ONE))],
    [P(((1, 0), S_ONE), ((0, 0), -S_ONE)),
     P(((1, 0), S_ONE), ((0, 0), -(S_ONE + S_ONE)))],
    [P(((2, 0), S_ONE + Q), ((0, 1), -S_ONE)), P(((1, 1), S_ONE), ((1, 0), -Q))],
]


@pytest.mark.parametrize("gens", ORACLE_IDEALS)
def test_groebner_against_sympy(gens):
    sp = pytest.importorskip("sympy")
    q, x, y = sp.symbols("q x y")

    def expr(poly):
        return sum((_sympy_scalar(c, sp, q) * x**e[0] * y**e[1]
                    for e, c in poly.items()), sp.Integer(0))

    basis = groebner(CommutativePresentation(["x", "y"], gens))
    oracle = sp.groebner([expr(g) for g in gens], x, y, order="grevlex",
                         domain="QQ(q)")
    # a reduced monic basis is unique, so the two agree element by element
    assert len(basis) == len(oracle.polys)
    assert {sp.Poly(expr(g), x, y, domain="QQ(q)") for g in basis} \
        == set(oracle.polys)


def test_unit_ideal():
    f = P(((1, 0), S_ONE), ((0, 0), -S_ONE))     # x - 1
    g = P(((1, 0), S_ONE), ((0, 0), -(S_ONE + S_ONE)))  # x - 2
    basis = groebner(CommutativePresentation(["x", "y"], [f, g]))
    assert contains_one(basis)


def test_random_ideal_membership(rng):
    f = P(((2, 0), S_ONE), ((0, 1), -S_ONE))
    g = P(((1, 1), S_ONE), ((1, 0), -S_ONE))
    cp = CommutativePresentation(["x", "y"], [f, g])
    basis = groebner(cp)
    # random combinations u*f + v*g reduce to zero modulo the basis
    for _ in range(50):
        combo = {}
        for gen in (f, g):
            e0 = (rng.randint(0, 2), rng.randint(0, 2))
            for e, c in gen.items():
                key = (e[0] + e0[0], e[1] + e0[1])
                s = combo.get(key, S_ZERO) + c
                if s.is_zero():
                    combo.pop(key, None)
                else:
                    combo[key] = s
        assert reduce_poly(combo, basis) == {}


def test_degree_cap(monkeypatch):
    # S-polynomial of x^2 - y and x*y - 1 has remainder y^2 - x: degree 2
    f = P(((2, 0), S_ONE), ((0, 1), -S_ONE))
    g = P(((1, 1), S_ONE), ((0, 0), -S_ONE))
    monkeypatch.setenv("QGAL_DEGREE_CAP", "1")
    with pytest.raises(DegreeCapError):
        groebner(CommutativePresentation(["x", "y"], [f, g]))
    monkeypatch.setenv("QGAL_DEGREE_CAP", "8")
    assert groebner(CommutativePresentation(["x", "y"], [f, g]))


def test_degree_cap_env(monkeypatch):
    f = P(((2, 0), S_ONE), ((0, 1), -S_ONE))
    g = P(((1, 1), S_ONE), ((0, 0), -S_ONE))
    monkeypatch.setenv("QGAL_DEGREE_CAP", "1")
    with pytest.raises(DegreeCapError):
        groebner(CommutativePresentation(["x", "y"], [f, g]))


def test_spectrum_emptiness(glq2m2, glq2, uq2m2):
    assert spectrum_empty(glq2m2) is True
    assert spectrum_empty(uq2m2) is True
    assert spectrum_empty(glq2) is False
    assert spectrum_empty(catalog("Onp", n=2, p=1)) is True
    assert spectrum_empty(catalog("Onp", n=1, p=1)) is False


def test_spectrum_witness_counit(glq2):
    w = spectrum_witness(glq2)
    assert w is not None
    assert w["x11"] == S_ONE and w["x22"] == S_ONE and w["t"] == S_ONE
    assert w["x12"].is_zero() and w["x21"].is_zero()


def test_spectrum_witness_onp11():
    w = spectrum_witness(catalog("Onp", n=1, p=1))
    assert w is not None
    assert all(v == S_ONE for v in w.values())


def test_spectrum_reports(glq2m2, glq2):
    r = spectrum_report(glq2m2)
    assert r.ok and any("empty" in i.desc for i in r.items)
    r2 = spectrum_report(glq2)
    assert r2.ok and any("character" in i.witness for i in r2.items)


def test_spectrum_report_tries_counit_first(c_aufg, monkeypatch):
    # the counit of AuF is a character; a Groebner basis of its
    # abelianized relations passes the degree cap first
    def no_groebner(*args, **kwargs):
        raise AssertionError("Groebner basis computed")

    monkeypatch.setattr(characters, "groebner", no_groebner)
    r = spectrum_report(c_aufg.base)
    assert r.ok
    assert any("character" in i.witness for i in r.items)


def test_spectrum_report_carries_the_base_counit_by_name(c_aufg, c_uq,
                                                         monkeypatch):
    r = spectrum_report(c_uq.total, base=c_uq.base)
    # Uq2m2 and Uq2 name their generators apart: Groebner decides
    assert r.ok and r.items[0].witness == "empty"
    monkeypatch.setattr(characters, "groebner", lambda *a, **k: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        spectrum_report(c_aufg.total)
    r = spectrum_report(c_aufg.total, base=c_aufg.base)
    assert r.ok and "the counit of AuF" in r.items[0].witness
    # a counit that is not a character of the target is not taken for one
    ones = SimpleNamespace(name="ones", alphabet=c_aufg.total.alphabet,
                           hopf=SimpleNamespace(counit=dict.fromkeys(
                               range(len(c_aufg.total.alphabet)), S_ONE)))
    with pytest.raises(ZeroDivisionError):
        spectrum_report(c_aufg.total, base=ones)



def test_spectrum_report_computes_each_step_once(monkeypatch):
    """A nonempty spectrum with no counit: one abelianization and one
    Groebner basis serve both the emptiness test and the enumeration."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("abelianization", "groebner"):
        monkeypatch.setattr(characters, name, counted(getattr(characters, name)))
    qplane = parse_presentation_text(
        "algebra qplane\ngenerators x y\nrelation y*x - q*x*y\n")
    r = spectrum_report(qplane)
    assert r.ok and r.items[0].desc == "spectrum is nonempty"
    assert r.items[0].witness == "character: x -> (0), y -> (0)"
    assert sorted(calls) == ["abelianization", "groebner"]


def test_spectrum_report_nonempty_not_enumerated():
    """x*y = 2 has a character, x -> c, y -> 2/c for any c != 0, which
    neither back-substitution nor the constant probes find."""
    h = parse_presentation_text("algebra h\ngenerators x y\nrelation x*y - 2\n")
    r = spectrum_report(h)
    assert r.ok and [(i.desc, i.witness) for i in r.items] == [
        ("spectrum is nonempty", "nonempty, not enumerated")]
    assert spectrum_witness(h) is None and spectrum_empty(h) is False
