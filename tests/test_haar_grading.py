"""The Haar solve by graded blocks: the same J and mu as the one-block
solve, gradings derived from the data that fall back to one block where
the data allow none, the work the blocks save, and oracles for J that do
not go through the solver."""

import json

import pytest

from qgal import haar, linalg, presentations
from qgal.cli import main
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
    coaction,
    delta_ext,
    parse_presentation_text,
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


@pytest.fixture
def one_block(monkeypatch):
    """solve(fn, *args): fn(*args) with every grading the trivial one, so
    that J and mu are solved in one block, the whole system."""
    def trivial(data):
        return haar._trivial, haar._trivial, "none: one block"

    def solve(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(haar, "hopf_grading", trivial)
            m.setattr(haar, "extension_grading", trivial)
            return fn(*args, **kwargs)

    return solve


def assert_one_block(F):
    assert F.provenance["grading"].startswith("none: ")
    assert F.provenance["solved_words"] == F.provenance["basis_words"]


# -- graded equals one block ------------------------------------------------


@pytest.mark.parametrize("target, d", [("Uq2", 3), ("Uq2", 6), ("AuF", 2),
                                       ("AuF", 3)])
def test_graded_J_equals_one_block_J(one_block, target, d):
    p = catalog(target)
    graded = haar_on_hopf(p, d=d)
    full = one_block(haar_on_hopf, p, d=d)
    assert graded.provenance["grading"] == "row and column"
    assert graded.provenance["solved_words"] < graded.provenance["basis_words"]
    assert_one_block(full)
    assert graded.basis == full.basis
    assert graded.values == full.values


@pytest.mark.parametrize("f", [None, lambda word: S_ONE], ids=["unit", "ones"])
def test_graded_mu_equals_one_block_mu_on_uq2m2(one_block, c_uq, f):
    J = haar_on_hopf(c_uq.base, d=6)
    graded = haar_on_extension(c_uq, J, 6, f=f)
    full = one_block(haar_on_extension, c_uq, J, 6, f=f)
    assert graded.provenance["grading"] == "row"
    assert_one_block(full)
    assert graded.values == full.values


def test_graded_mu_equals_one_block_mu_on_aufg(one_block, c_aufg):
    J = haar_on_hopf(c_aufg.base, d=2)
    graded = haar_on_extension(c_aufg, J, 2)
    full = one_block(haar_on_extension, c_aufg, J, 2)
    assert graded.provenance["grading"] == "row"
    assert graded.provenance["solved_words"] < graded.provenance["basis_words"]
    assert_one_block(full)
    assert graded.values == full.values


# -- the derived gradings ---------------------------------------------------


def unit(i, n, sign=1):
    """sign * e_i in Z^n, with i counted from 1."""
    return tuple(sign if k == i else 0 for k in range(1, n + 1))


def bigrade_by_name(name, n=3):
    """The (row, column) bigrade in Z^n of a 2x2 or 3x3 catalog generator,
    as the catalog declared it by hand before the gradings were derived,
    read off its name: x_ij and z_ij have (e_i, e_j), z_ij* (written z_ijs)
    their negatives, and t and tau -(e_1 + e_2) in both."""
    if name in ("t", "tau"):
        return (tuple(map(sum, zip(unit(1, n, -1), unit(2, n, -1)))),) * 2
    sign = -1 if name.endswith("s") else 1
    return unit(int(name[1]), n, sign), unit(int(name[2]), n, sign)


def blocks(words, grade):
    """The partition of words by grade, as a set of frozensets."""
    out = {}
    for w in words:
        out.setdefault(grade(w), set()).add(w)
    return {frozenset(ws) for ws in out.values()}


def declared(p, n, side):
    """The word -> grade map of the declared grading `side` (0 row, 1
    column) on p's generators."""
    vecs = [bigrade_by_name(name, n)[side] for name in p.alphabet.names]
    return lambda w: tuple(map(sum, zip((0,) * n, *(vecs[x] for x in w))))


@pytest.mark.parametrize("target, n, d", [("GLq2", 2, 6), ("Uq2", 2, 6),
                                          ("AuF", 3, 3)])
def test_derived_hopf_blocks_are_the_declared_ones(target, n, d):
    p = catalog(target)
    left, right, held = hopf_grading(p)
    assert held == "row and column"
    words = p.basis(d)
    for side, derived in ((0, left), (1, right)):
        assert blocks(words, derived) == blocks(words, declared(p, n, side))
    # integer grades, so that a word's grade is a sum of ints
    assert all(type(x) is int for g in range(len(p.alphabet))
               for x in left((g,)) + right((g,)))


@pytest.mark.parametrize("target, n, d", [("GLq2m2", 2, 6), ("Uq2m2", 2, 6),
                                          ("AuFG", 3, 3)])
def test_derived_extension_blocks_are_the_declared_ones(target, n, d):
    c = coaction(target)
    zleft, _, held = extension_grading(c)
    assert held == "row"
    words = c.total.basis(d)
    assert blocks(words, zleft) == blocks(words, declared(c.total, n, 0))


def test_catalog_gradings_hold(uq2, auf, c_uq, c_aufg):
    # derived on the presentations as built; they hold on the deeper
    # copies the solve reads through as well
    assert hopf_grading(uq2)[2] == "row and column"
    assert hopf_grading(uq2.ensure_degree(6))[2] == "row and column"
    assert hopf_grading(auf)[2] == "row and column"
    for c, d in ((c_uq, 6), (c_aufg, 4)):
        assert extension_grading(c)[2] == "row"
        deep = CoactionData(c.base.ensure_degree(d), c.total.ensure_degree(d),
                            c.alpha)
        assert extension_grading(deep)[2] == "row"


UQ2M2_FILE = """coaction Uq2m2 over Uq2
alpha z11 -> x11 (x) z11 + x12 (x) z21
alpha z12 -> x11 (x) z12 + x12 (x) z22
alpha z21 -> x21 (x) z11 + x22 (x) z21
alpha z22 -> x21 (x) z12 + x22 (x) z22
alpha tau -> t (x) tau
"""


def test_a_coaction_file_is_graded_as_the_catalog_coaction(tmp_path, capsys):
    """The Uq2m2 coaction written as a file declares no grading and gets
    the catalog's: the same mu, solved on the same 4 words."""
    f = tmp_path / "uq2m2.coa"
    f.write_text(UQ2M2_FILE)
    reports = []
    for target in (str(f), "Uq2m2"):
        assert main(["haar", target, "--degree", "1", "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    from_file, from_catalog = reports
    mu = from_file["params"]["mu"]
    assert mu["grading"] == "row"
    assert mu == from_catalog["params"]["mu"]
    assert mu["solved_words"] == 4
    assert from_file["items"] == from_catalog["items"]


def test_a_block_over_the_budget_is_undecided(uq2, monkeypatch):
    # J on Uq2 at depth 3 solves 10 words in 3 blocks, the first of row
    # grade (0, 0) and 4 words.  The gradings are derived through linalg
    # too, from a system of 5 unknowns, so they are derived first
    grading = hopf_grading(uq2)
    monkeypatch.setattr(haar, "hopf_grading", lambda p: grading)
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
    g and h = g^-1, with g grouplike."""
    p = parse_presentation_text(GROUP.format(name=name, extra=extra))
    A = p.alphabet
    g, h = A.index["g"], A.index["h"]
    hopf = HopfData({g: TensorPoly.of(A.gen("g"), A.gen("g")),
                     h: TensorPoly.of(A.gen("h"), A.gen("h"))},
                    {g: S_ONE, h: S_ONE}, {g: A.gen("h"), h: A.gen("g")})
    return with_hopf(p, hopf)


def test_test_built_group_algebra_grading():
    Z = group_algebra("Z")
    left, right, held = hopf_grading(Z)
    assert held == "row and column"
    assert {left((0,)), left((1,))} == {(1,), (-1,)}
    J = haar_on_hopf(Z, d=4)
    assert J.provenance["grading"] == "row and column"
    # the Haar state of a group algebra is the unit coefficient
    assert J.values == {w: S_ONE if w == () else S_ZERO for w in J.basis}
    # g^3 = 1 leaves only the zero grading: 3 grade(g) = 0
    Z3 = group_algebra("Z3", "relation g*g*g - 1")
    one = haar_on_hopf(Z3, d=4)
    assert one.provenance["grading"] == (
        "none: only the zero grading keeps the rules and Delta")
    assert_one_block(one)


def test_non_homogeneous_total_falls_back_to_one_block():
    """k[Z] coacts on k[Z/3] by g -> g (x) g; the legs give g the grade of
    g in k[Z], but Z's rule g^3 -> 1 does not keep it."""
    base, total = group_algebra("Z"), group_algebra("Z3", "relation g*g*g - 1")
    A, Zt = base.alphabet, total.alphabet
    alpha = {Zt.index[n]: TensorPoly.of(A.gen(n), Zt.gen(n)) for n in "gh"}
    c = CoactionData(base, total, alpha)
    J = haar_on_hopf(base, d=3)
    mu = haar_on_extension(c, J, 3)
    assert mu.provenance["grading"].endswith(
        "not homogeneous for the row grading")
    assert_one_block(mu)
    assert mu.values == {w: S_ONE if w == () else S_ZERO for w in mu.basis}


def test_alpha_legs_of_two_grades_fall_back_to_one_block(c_uq):
    """alpha(z11) with x21 (x) (z12 z11 + q z11 z12) added, which is 0 in
    Uq2m2: the same coaction, with left legs of row grades e1 and e2."""
    J = haar_on_hopf(c_uq.base, d=3)
    mu = haar_on_extension(c_uq, J, 3)
    alpha = dict(c_uq.alpha)
    z11 = c_uq.total.alphabet.index["z11"]
    alpha[z11] = alpha[z11] + TensorPoly.of(
        c_uq.base.gen("x21"), c_uq.total.parse("z12*z11 + q*z11*z12"))
    bad = haar_on_extension(CoactionData(c_uq.base, c_uq.total, alpha), J, 3)
    assert bad.provenance["grading"] == "none: alpha(z11) has left legs of 2 grades"
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
    bad = haar_on_extension(CoactionData(c_uq.base, c_uq.total, alpha), J, 1)
    assert bad.provenance["grading"] == (
        "none: alpha(tau) has a left leg of more than one letter")
    assert_one_block(bad)
    assert bad.values == haar_on_extension(c_uq, J, 1).values


def test_base_without_grading_drops_the_extension_grading():
    """k[Z/3] coacting on itself by g -> g (x) g: its base has only the
    zero grading, so mu is solved in one block."""
    Z3 = group_algebra("Z3", "relation g*g*g - 1")
    A = Z3.alphabet
    c = CoactionData(Z3, Z3, {A.index[n]: TensorPoly.of(A.gen(n), A.gen(n))
                              for n in "gh"})
    mu = haar_on_extension(c, haar_on_hopf(Z3, d=3), 3)
    assert mu.provenance["grading"] == "none: the base has only the zero row grading"
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
