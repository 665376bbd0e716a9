import pytest

from conftest import auf_old_layout
from qgal.haar import (
    LinearFunctional,
    TruncationOverflowError,
    check_gram,
    gram_matrix,
    gram_positivity,
    haar_on_extension,
    haar_on_hopf,
    verify_invariance,
)
from qgal.ncpoly import NCPoly
from qgal.presentations import catalog, delta_ext
from qgal.report import Report
from qgal.rewrite import word_basis
from qgal.scalars import Q, Q_SAMPLES, S_ONE, S_ZERO


@pytest.fixture(scope="module")
def J3(uq2):
    return haar_on_hopf(uq2, d=3)


@pytest.fixture(scope="module")
def mu3(c_uq, J3):
    return haar_on_extension(c_uq, J3, 3)


def test_haar_degree_1(uq2):
    J = haar_on_hopf(uq2, d=1)
    assert J.values[()] == S_ONE
    for name in uq2.alphabet.names:
        assert J.values[(uq2.alphabet.index[name],)].is_zero()


def test_haar_degree_2_kills_corep_words(uq2):
    J = haar_on_hopf(uq2, d=2)
    assert all(v.is_zero() for w, v in J.values.items() if w != ())


def test_haar_coscalar_value(uq2, J3):
    # the degree-3 word x11 x22 t is a scalar-type combination and picks
    # up the weight q^2/(1+q^2)
    w = uq2.nf(uq2.parse("x11*x22*t"))
    (word,) = w.terms
    expect = (Q * Q) * (S_ONE + Q * Q).inv()
    assert J3.values[word] == expect


def test_unitarity_cross_check(uq2, J3):
    # sum_i J((x_i1)* x_i1) = 1 from unitarity of the fundamental matrix
    s = uq2.star.apply(uq2.parse("x11")) * uq2.parse("x11") \
        + uq2.star.apply(uq2.parse("x21")) * uq2.parse("x21")
    assert J3(uq2.nf(s)) == S_ONE


def test_haar_two_sided_invariance(uq2, J3):
    dext = delta_ext(uq2)
    for b in word_basis(uq2.rewrite, 2):
        right = {}
        left = {}
        for (w1, w2), c in dext(b).terms.items():
            right[w2] = right.get(w2, S_ZERO) + c * J3.of_word(w1)
            left[w1] = left.get(w1, S_ZERO) + c * J3.of_word(w2)
        jb = J3.of_word(b)
        for acc in (right, left):
            poly = NCPoly(uq2.alphabet,
                          {w: v for w, v in acc.items() if not v.is_zero()})
            assert poly == NCPoly.scalar(uq2.alphabet, jb)


def test_normalization_enforced():
    with pytest.raises(Exception):
        LinearFunctional([()], {(): S_ZERO})


def test_truncation_overflow(J3):
    with pytest.raises(TruncationOverflowError):
        J3.of_word((0,) * 9)


def test_mu_kills_generators(c_uq, mu3):
    Z = c_uq.total.alphabet
    for name in Z.names:
        assert mu3.values[(Z.index[name],)].is_zero()


def test_mu_biunitarity_value(c_uq, mu3):
    Z = c_uq.total
    s = Z.star.apply(Z.parse("z11")) * Z.parse("z11") \
        + Z.star.apply(Z.parse("z21")) * Z.parse("z21")
    assert mu3(Z.nf(s)) == S_ONE


def test_uniqueness_under_auxiliary_functional(c_uq, J3):
    mu1 = haar_on_extension(c_uq, J3, 2)
    f2 = lambda word: S_ONE  # any normalized functional gives the same mu
    mu2 = haar_on_extension(c_uq, J3, 2, f=f2)
    assert mu1.values == mu2.values


def test_invariance(c_uq, mu3, uq2, J3):
    assert verify_invariance(c_uq, mu3, 2).ok
    from qgal.presentations import CoactionData

    c_self = CoactionData(uq2, uq2, dict(uq2.hopf.delta))
    assert verify_invariance(c_self, J3, 2).ok


def test_corrupted_mu_fails(c_uq, mu3):
    Z = c_uq.total.alphabet
    values = dict(mu3.values)
    values[(Z.index["z11"],)] = S_ONE
    bad = LinearFunctional(mu3.basis, values)
    r = verify_invariance(c_uq, bad, 1)
    assert not r.ok
    assert any("z11" in i.desc and i.status == "fail" for i in r.items)


def test_gram_positivity_degree_1(c_uq, mu3):
    r = gram_positivity(c_uq.total, mu3, 1)
    assert r.ok
    assert "not a proof" in r.params.get("nature", "")


def test_gram_degree_0(c_uq, mu3):
    basis, gram = gram_matrix(c_uq.total, mu3, 0)
    assert basis == [()]
    assert gram == [[S_ONE]]


def test_uq2_gram_nonsingular(uq2, J3):
    import numpy as np

    basis, gram = gram_matrix(uq2, J3, 1)
    m = np.array([[complex(g.eval(0.5)) for g in row] for row in gram])
    evs = np.linalg.eigvalsh(m)
    assert float(evs.min()) > 1e-8


def test_haar_on_auf_is_the_same_functional_in_both_layouts():
    # J solved at depth 3 on AuF as the catalog builds it and on an
    # independent build in the old layout: on every old normal word w,
    # J_old(w) = J_new(nf_new(w)), with w written in the new alphabet
    new, old = catalog("AuF"), auf_old_layout()
    J_new, J_old = haar_on_hopf(new, d=3), haar_on_hopf(old, d=3)
    to_new = [new.alphabet.index[name] for name in old.alphabet.names]
    assert len(J_old.basis) == len(J_new.basis) == 4953
    for w in J_old.basis:
        word = NCPoly(new.alphabet, {tuple(to_new[g] for g in w): S_ONE})
        assert J_new(new.nf(word)) == J_old.of_word(w), w
    assert sum(not v.is_zero() for v in J_old.values.values()) == 9


def test_check_gram_reports_a_pole():
    """A gram with a pole at a sample q fails there, and raises nothing."""
    g = [[S_ONE, S_ZERO], [S_ZERO, (Q - 2).inv()]]
    report = Report("gram")
    check_gram(report, g, Q_SAMPLES)
    at2 = [i for i in report.items if i.desc == "evaluation at q = 2.0"]
    assert len(at2) == 1 and at2[0].status == "fail"
    assert at2[0].witness == "denominator vanishes at q = 2.0"
    assert not report.ok
