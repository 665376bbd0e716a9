import pytest

from qgal import linalg
from qgal.comodules import fundamental, trivial
from qgal.cotensor import (
    CotensorElement,
    compute_cotensor,
    conjugation_map,
    cotensor_inner,
    kernel_member,
    monoidal_constraint,
    trivial_element,
    verify_biunitarity,
)
from qgal.haar import haar_on_extension, haar_on_hopf
from qgal.linalg import BlockBudgetError
from qgal.ncpoly import NCPoly
from qgal.presentations import CoactionData
from qgal.scalars import S_ONE, S_ZERO


@pytest.fixture(scope="module")
def mu6(c_uq):
    J = haar_on_hopf(c_uq.base, d=6)
    return haar_on_extension(c_uq, J, 6)


@pytest.fixture(scope="module")
def sigma(c_uq):
    return compute_cotensor(fundamental(c_uq.base), c_uq, 1)


def test_trivial_cotensor(c_uq):
    elems = compute_cotensor(trivial(c_uq.base), c_uq, 1)
    assert len(elems) == 1
    triv = trivial_element(c_uq)
    assert kernel_member(triv)


def test_a_system_over_the_budget_is_undecided(c_uq, monkeypatch):
    # one block of unknowns (i, b): i in 1..2, b one of the 6 normal
    # words of Uq2m2 of degree <= 1
    monkeypatch.setattr(linalg, "BLOCK_BUDGET", 11)
    with pytest.raises(BlockBudgetError, match=r"the block of grade \(\) has 12 "
                       "unknowns, over the budget of 11"):
        compute_cotensor(fundamental(c_uq.base), c_uq, 1)


def test_self_extension_dimension(uq2):
    c = CoactionData(uq2, uq2, dict(uq2.hopf.delta))
    elems = compute_cotensor(fundamental(uq2), c, 1)
    assert len(elems) == 2


def test_fundamental_cotensor_basis(c_uq, sigma):
    assert len(sigma) == 2
    Z = c_uq.total.alphabet
    # each basis vector is sigma_j = sum_i e_i (x) z_ij up to scale
    cols = set()
    for e in sigma:
        nonzero = [(i, list(z.terms)) for i, z in enumerate(e.coeffs)
                   if not z.is_zero()]
        words = {w for _, ws in nonzero for w in ws}
        js = {Z.names[w[0]][2] for w in words}
        assert len(js) == 1
        cols.add(js.pop())
    assert cols == {"1", "2"}


def test_dimension_stable(c_uq):
    v = fundamental(c_uq.base)
    assert len(compute_cotensor(v, c_uq, 2)) == 2


def test_inner_products(c_uq, sigma, mu6):
    for i, x in enumerate(sigma):
        for j, y in enumerate(sigma):
            want = S_ONE if i == j else S_ZERO
            assert cotensor_inner(x, y, mu6) == want


def test_monoidal_constraint(c_uq, sigma, mu6):
    prods = [monoidal_constraint(x, y) for x in sigma for y in sigma]
    for p in prods:
        assert p.comodule.dim == 4
    # the constraint transports the orthonormal basis to an orthonormal one
    for a, x in enumerate(prods):
        for b, y in enumerate(prods):
            want = S_ONE if a == b else S_ZERO
            assert cotensor_inner(x, y, mu6) == want


def test_conjugation_map(c_uq, sigma):
    for x in sigma:
        y = conjugation_map(x)
        assert kernel_member(y)
        assert y.comodule.dim == x.comodule.dim


def test_kernel_membership_rejects_junk(c_uq):
    v = fundamental(c_uq.base)
    Z = c_uq.total.alphabet
    junk = CotensorElement(v, c_uq, [Z.gen("z11"), NCPoly.zero(Z)])
    assert not kernel_member(junk)


def test_biunitarity(c_uq, uq2m2):
    v = fundamental(uq2m2)
    assert verify_biunitarity(c_uq, v.matrix).ok
    one = NCPoly.one(uq2m2.alphabet)
    assert verify_biunitarity(c_uq, [[one]]).ok
