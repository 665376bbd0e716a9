"""The Haar solve by graded blocks: the same J and mu as the one-block
solve, gradings that are checked and refused when wrong, the work the
blocks save, and oracles for J that do not go through the solver."""

import pytest

from qgal import haar, linalg, presentations
from qgal.haar import (
    LinearFunctional,
    extension_grading,
    gram_matrix,
    haar_on_extension,
    haar_on_hopf,
    hopf_grading,
)
from qgal.linalg import BlockBudgetError
from qgal.ncpoly import NCPoly, StarMap, TensorPoly
from qgal.presentations import (
    CoactionData,
    HopfData,
    Presentation,
    catalog,
    delta_ext,
    parse_presentation_text,
    unit_vector,
)
from qgal.rewrite import word_basis
from qgal.scalars import S_ONE, S_ZERO


@pytest.fixture(scope="module")
def auf():
    return catalog("AuF")


def with_hopf(p, hopf):
    """p with its Hopf data replaced by `hopf`."""
    return Presentation(p.name, p.alphabet, p.relations, p.rewrite, p.star,
                        hopf, p.block)


def with_grades(p, grades):
    """p with the grades of its Hopf data replaced by `grades`."""
    h = p.hopf
    return with_hopf(p, HopfData(h.delta, h.counit, h.antipode, grades))


def one_block(p):
    """p with no grading declared on its Hopf data."""
    return with_grades(p, None)


def regraded(p, **changes):
    """p with the grades of the named generators replaced."""
    grades = dict(p.hopf.grades)
    for name, grade in changes.items():
        grades[p.alphabet.index[name]] = grade
    return with_grades(p, grades)


def ungraded(c):
    """The coaction c with no grading declared on its left legs."""
    return CoactionData(c.base, c.total, c.alpha)


def assert_one_block(F):
    assert F.provenance["grading"].startswith("none: ")
    assert F.provenance["solved_words"] == F.provenance["basis_words"]


# -- graded equals one block ------------------------------------------------


@pytest.mark.parametrize("target, d", [("Uq2", 3), ("Uq2", 6), ("AuF", 2),
                                       ("AuF", 3)])
def test_graded_J_equals_one_block_J(target, d):
    p = catalog(target)
    graded = haar_on_hopf(p, d=d)
    full = haar_on_hopf(one_block(p), d=d)
    assert graded.provenance["grading"] == "row and column"
    assert graded.provenance["solved_words"] < graded.provenance["basis_words"]
    assert_one_block(full)
    assert graded.basis == full.basis
    assert graded.values == full.values


@pytest.mark.parametrize("f", [None, lambda word: S_ONE], ids=["unit", "ones"])
def test_graded_mu_equals_one_block_mu_on_uq2m2(c_uq, f):
    J = haar_on_hopf(c_uq.base, d=6)
    graded = haar_on_extension(c_uq, J, 6, f=f)
    full = haar_on_extension(ungraded(c_uq), J, 6, f=f)
    assert graded.provenance["grading"] == "row"
    assert_one_block(full)
    assert graded.values == full.values


def test_graded_mu_equals_one_block_mu_on_aufg(c_aufg):
    J = haar_on_hopf(c_aufg.base, d=2)
    graded = haar_on_extension(c_aufg, J, 2)
    full = haar_on_extension(ungraded(c_aufg), J, 2)
    assert graded.provenance["grading"] == "row"
    assert graded.provenance["solved_words"] < graded.provenance["basis_words"]
    assert_one_block(full)
    assert graded.values == full.values


# -- the checks are not vacuous ---------------------------------------------


def test_catalog_gradings_hold(uq2, auf, c_uq, c_aufg):
    # the solve checks them on the presentations as built; they hold on
    # the deeper copies it reads through as well
    assert hopf_grading(uq2)[2] == "row and column"
    assert hopf_grading(uq2.ensure_degree(6))[2] == "row and column"
    assert hopf_grading(auf)[2] == "row and column"
    for c, d in ((c_uq, 6), (c_aufg, 4)):
        assert extension_grading(c)[2] == "row"
        deep = CoactionData(c.base.ensure_degree(d), c.total.ensure_degree(d),
                            c.alpha, c.left_grades)
        assert extension_grading(deep)[2] == "row"


E1, E2 = unit_vector(1, 2), unit_vector(2, 2)


@pytest.mark.parametrize("changes, failed", [
    # x12's right grade swapped: a rule mixes column grades
    ({"x12": (E1, E1)}, "not homogeneous for the column grading"),
    # row and column swapped: every rule stays homogeneous, Delta does not
    ({f"x{i}{j}": (unit_vector(j, 2), unit_vector(i, 2))
      for i in (1, 2) for j in (1, 2)}, "Delta(x11) does not keep the grades"),
    ({"t": ((0, 0), (0, 0))}, "not homogeneous for the row grading"),
    ({"t": ((-1,), (-1,))}, "grades not declared on every generator in one Z^n"),
], ids=["x12-right", "transposed", "t-grade", "short-vector"])
def test_mutated_hopf_grading_falls_back_to_one_block(uq2, changes, failed):
    J = haar_on_hopf(uq2, d=3)
    bad = haar_on_hopf(regraded(uq2, **changes), d=3)
    assert failed in bad.provenance["grading"]
    assert_one_block(bad)
    assert bad.values == J.values


def test_a_block_over_the_budget_is_undecided(uq2, monkeypatch):
    # J on Uq2 at depth 3 solves 10 words in 3 blocks, the first of row
    # grade (0, 0) and 4 words
    monkeypatch.setattr(linalg, "BLOCK_BUDGET", 3)
    with pytest.raises(BlockBudgetError, match=r"the block of grade \(0, 0\) has 4 "
                       "unknowns, over the budget of 3"):
        haar_on_hopf(uq2, d=3)


GROUP = """
algebra {name}
generators g h
relation g*h - 1
relation h*g - 1
{extra}
"""


def group_algebra(name, extra=""):
    """The group algebra of Z, or of a quotient by an extra relation, on
    g and h = g^-1, with g grouplike of bigrade ((1,), (1,))."""
    p = parse_presentation_text(GROUP.format(name=name, extra=extra))
    A = p.alphabet
    g, h = A.index["g"], A.index["h"]
    hopf = HopfData({g: TensorPoly.of(A.gen("g"), A.gen("g")),
                     h: TensorPoly.of(A.gen("h"), A.gen("h"))},
                    {g: S_ONE, h: S_ONE}, {g: A.gen("h"), h: A.gen("g")},
                    {g: ((1,), (1,)), h: ((-1,), (-1,))})
    return with_hopf(p, hopf)


def test_test_built_group_algebra_grading():
    Z = group_algebra("Z")
    J = haar_on_hopf(Z, d=4)
    assert J.provenance["grading"] == "row and column"
    # the Haar state of a group algebra is the unit coefficient
    assert J.values == {w: S_ONE if w == () else S_ZERO for w in J.basis}
    # g^3 = 1 is not homogeneous for g of grade 1
    Z3 = group_algebra("Z3", "relation g*g*g - 1")
    bad = haar_on_hopf(Z3, d=4)
    assert bad.provenance["grading"].endswith(
        "not homogeneous for the row grading")
    assert_one_block(bad)
    assert bad.values == haar_on_hopf(one_block(Z3), d=4).values


def test_non_homogeneous_total_falls_back_to_one_block():
    """k[Z] coacts on k[Z/3] by g -> g (x) g; the legs keep the grades,
    but Z's rule g^3 -> 1 does not."""
    base, total = group_algebra("Z"), group_algebra("Z3", "relation g*g*g - 1")
    A, Zt = base.alphabet, total.alphabet
    alpha = {Zt.index[n]: TensorPoly.of(A.gen(n), Zt.gen(n)) for n in "gh"}
    c = CoactionData(base, total, alpha,
                     {Zt.index["g"]: (1,), Zt.index["h"]: (-1,)})
    J = haar_on_hopf(base, d=3)
    mu = haar_on_extension(c, J, 3)
    assert mu.provenance["grading"].endswith(
        "not homogeneous for the row grading")
    assert_one_block(mu)
    assert mu.values == {w: S_ONE if w == () else S_ZERO for w in mu.basis}


def test_wrong_alpha_grade_falls_back_to_one_block(c_uq):
    J = haar_on_hopf(c_uq.base, d=3)
    mu = haar_on_extension(c_uq, J, 3)
    left = dict(c_uq.left_grades)
    left[c_uq.total.alphabet.index["z11"]] = E2
    bad = haar_on_extension(CoactionData(c_uq.base, c_uq.total, c_uq.alpha, left),
                            J, 3)
    assert bad.provenance["grading"] == "none: alpha(z11) does not keep the grade"
    assert_one_block(bad)
    assert bad.values == mu.values


def test_wide_alpha_leg_falls_back_to_one_block(c_uq):
    """alpha(tau) = t (x) tau written as t det t (x) tau, with det t = 1:
    the same coaction, with left legs of four letters."""
    wide = c_uq.base.parse("t*x11*x22*t - q^-1*t*x12*x21*t")
    alpha = dict(c_uq.alpha)
    tau = c_uq.total.alphabet.index["tau"]
    alpha[tau] = TensorPoly.of(wide, c_uq.total.gen("tau"))
    J = haar_on_hopf(c_uq.base, d=4)
    bad = haar_on_extension(
        CoactionData(c_uq.base, c_uq.total, alpha, c_uq.left_grades), J, 1)
    assert bad.provenance["grading"] == (
        "none: alpha(tau) has a left leg of more than one letter")
    assert_one_block(bad)
    assert bad.values == haar_on_extension(c_uq, J, 1).values


def test_base_without_grading_drops_the_extension_grading(c_uq):
    c = CoactionData(one_block(c_uq.base), c_uq.total, c_uq.alpha, c_uq.left_grades)
    J = haar_on_hopf(c.base, d=3)
    mu = haar_on_extension(c, J, 3)
    assert mu.provenance["grading"] == "none: no grading declared on the base"
    assert_one_block(mu)


# -- the work the blocks save -----------------------------------------------


def test_graded_solve_builds_delta_and_alpha_on_few_words(monkeypatch, c_uq):
    """At depth 6 the Uq2 basis has 406 words; solving every block builds
    Delta on all of them, and alpha on all 406 words of Uq2m2."""
    deltas, built = [], set()

    def spy_delta(p):
        ext = presentations.delta_ext(p)
        deltas.append(ext)
        return ext

    def spy_alpha(c):
        ext = presentations.alpha_ext(c)

        def counted(word):
            built.add(word)
            return ext(word)

        return counted

    monkeypatch.setattr(haar, "delta_ext", spy_delta)
    monkeypatch.setattr(haar, "alpha_ext", spy_alpha)
    J = haar_on_hopf(c_uq.base, d=6)
    haar_on_extension(c_uq, J, 6)
    (dext,) = deltas
    assert len(dext.memo) <= 120
    assert len(built) == 9


def counted_gram(monkeypatch, p, mu, d):
    """(gram_matrix(p, mu, d), the number of products mu was applied to)."""
    calls = []
    original = LinearFunctional.__call__
    monkeypatch.setattr(LinearFunctional, "__call__",
                        lambda self, poly: calls.append(1) or original(self, poly))
    _, gram = gram_matrix(p, mu, d)
    monkeypatch.undo()
    return gram, len(calls)


def ungraded_functional(mu):
    """mu without the grading it was solved under."""
    return LinearFunctional(mu.basis, mu.values, mu.provenance)


@pytest.fixture(scope="module")
def mu9(c_uq):
    """mu on Uq2m2 at depth 9, deep enough for Gram matrices of degree 3."""
    return haar_on_extension(c_uq, haar_on_hopf(c_uq.base, d=9), 9)


@pytest.mark.parametrize("d, products", [(1, 10), (2, 53), (3, 199)])
def test_graded_gram_equals_full_gram_on_uq2m2(monkeypatch, c_uq, mu9, d,
                                               products):
    gram, pruned = counted_gram(monkeypatch, c_uq.total, mu9, d)
    full, every = counted_gram(monkeypatch, c_uq.total, ungraded_functional(mu9), d)
    assert every == len(gram) ** 2
    assert pruned == products
    assert gram == full


def test_graded_gram_equals_full_gram_on_aufg_and_uq2(monkeypatch, c_aufg, uq2):
    J = haar_on_hopf(c_aufg.base, d=3)
    for p, mu in ((c_aufg.total, haar_on_extension(c_aufg, J, 3)),
                  (uq2, haar_on_hopf(uq2, d=3))):
        gram, pruned = counted_gram(monkeypatch, p, mu, 1)
        full, every = counted_gram(monkeypatch, p, ungraded_functional(mu), 1)
        assert pruned < every == len(gram) ** 2
        assert gram == full


def test_star_off_the_grading_computes_every_product(monkeypatch, c_uq, mu9):
    """star(z11) = z22 tau has grade -e1; z22 tau + z11 mixes in e1."""
    p = c_uq.total.ensure_degree(9)
    images = dict(p.star.images)
    images[p.alphabet.index["z11"]] = p.parse("z22*tau + z11")
    bad = Presentation(p.name, p.alphabet, p.relations, p.rewrite,
                       StarMap(p.alphabet, images), p.hopf, p.block)
    gram, products = counted_gram(monkeypatch, bad, mu9, 1)
    full, every = counted_gram(monkeypatch, bad, ungraded_functional(mu9), 1)
    assert products == every == len(gram) ** 2
    assert gram == full


# -- oracles for J that do not go through the solver ------------------------


def left_invariance_defects(p, J, d):
    """Basis words b of degree <= d with (id (x) J) Delta(b) != J(b) * 1,
    Delta built here on every basis word."""
    p = p.ensure_degree(d)
    dext = delta_ext(p)
    bad = []
    for b in word_basis(p.rewrite, d):
        acc = {}
        for (w1, w2), c in dext(b).terms.items():
            acc[w1] = acc.get(w1, S_ZERO) + c * J.of_word(w2)
        lhs = NCPoly(p.alphabet, {w: v for w, v in acc.items() if not v.is_zero()})
        if lhs != NCPoly.scalar(p.alphabet, J.of_word(b)):
            bad.append(b)
    return bad


def bigrade_by_name(name):
    """The (row, column) bigrade of a 2x2 or 3x3 catalog generator, read
    off its name here, apart from the catalog's declaration: x_ij and z_ij
    have (e_i, e_j), z_ij* (written z_ijs) and t their negatives."""
    if name == "t":
        return (-1, -1, 0), (-1, -1, 0)
    sign = -1 if name.endswith("s") else 1
    i, j = int(name[1]), int(name[2])
    return unit_vector(i, 3, sign), unit_vector(j, 3, sign)


def off_bigrade_zero(p, J):
    """Words outside bigrade (0, 0) on which J does not vanish."""
    grades = [bigrade_by_name(n) for n in p.alphabet.names]
    bad = []
    for w, v in J.values.items():
        row = [sum(grades[x][0][k] for x in w) for k in range(3)]
        col = [sum(grades[x][1][k] for x in w) for k in range(3)]
        if (any(row) or any(col)) and not v.is_zero():
            bad.append(w)
    return bad


def mutated(J, word, value):
    values = dict(J.values)
    values[word] = value
    return LinearFunctional(J.basis, values)


@pytest.mark.parametrize("target, d", [("Uq2", 6), ("AuF", 2)])
def test_J_is_left_invariant_and_lives_in_bigrade_zero(target, d):
    p = catalog(target)
    J = haar_on_hopf(p, d=d)
    assert any(not v.is_zero() for w, v in J.values.items() if w)
    assert left_invariance_defects(p, J, d) == []
    assert off_bigrade_zero(p, J) == []
    # one value changed: a word of bigrade (0, 0) breaks invariance, a
    # generator breaks the vanishing
    w0 = next(w for w, v in J.values.items() if w and not v.is_zero())
    assert w0 in left_invariance_defects(p, mutated(J, w0, J.values[w0] + S_ONE), d)
    g = (0,)
    assert off_bigrade_zero(p, mutated(J, g, S_ONE)) == [g]
