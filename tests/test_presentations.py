import argparse
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import auf_old_layout, random_poly, random_scalar
from qgal import presentations
from qgal.characters import abelianization
from qgal.cli import main, resolve_coaction, resolve_presentation
from qgal.ncpoly import Alphabet, NCPoly, ParseError, StarMap, TensorPoly
from qgal.presentations import (
    CatalogError,
    CoactionData,
    HopfData,
    Presentation,
    _star_alphabet,
    catalog,
    findim_rep_obstruction,
    mat_mul,
    matrix_fq,
    parse_coaction_text,
    parse_presentation_text,
    verify_coaction,
    verify_hopf,
    verify_star,
)
from qgal.rewrite import (
    MonomialOrder,
    RewriteSystem,
    build_system,
    complete,
    word_basis,
)
from qgal.scalars import Q, S_ONE


def test_catalog_shapes(glq2m2):
    assert len(glq2m2.alphabet) == 5
    # the 11 defining relations as written, and the 13 rules of their
    # completion at the build degree
    assert len(glq2m2.relations) == 11
    assert len(glq2m2.rewrite.rules) == 13
    onp = catalog("Onp", n=2, p=1)
    # a a* = I_2 gives four relations, a* a = I_1 one more
    assert len(onp.alphabet) == 4
    assert len(onp.relations) == 5
    with pytest.raises(CatalogError):
        catalog("nope")


def test_catalog_is_cached(uq2m2):
    assert catalog("Uq2m2") is uq2m2
    assert catalog("Onp", n=2, p=1) is catalog("Onp", n=2, p=1)
    # defaults fill in before the cache key is formed
    assert catalog("Onp") is catalog("Onp", n=2, p=1)


def test_presentations_are_immutable(uq2m2):
    with pytest.raises(AttributeError, match="immutable"):
        uq2m2.rewrite = uq2m2.rewrite
    d = uq2m2.rewrite.completion_degree
    assert all(uq2m2.ensure_degree(k) is uq2m2 for k in range(d + 1))
    p6 = uq2m2.ensure_degree(6)
    assert p6 is uq2m2.ensure_degree(6)
    assert p6.rewrite.completion_degree == 6
    assert uq2m2.rewrite.completion_degree == d


def test_verify_all_leaves_the_catalog_unchanged(capsys):
    before = {name: catalog(name).rewrite for name in ("Uq2m2", "Uq2")}
    assert main(["verify", "Uq2m2", "--suite", "all"]) == 0
    capsys.readouterr()
    for name, rs in before.items():
        assert catalog(name).rewrite is rs
        assert rs.completion_degree == 4


def test_aufg_coaction_shares_the_catalog_entries(c_aufg):
    args = argparse.Namespace(n=None, p=None, degree=2)
    total = resolve_presentation("AuFG", args)
    c = resolve_coaction("AuFG", args)
    assert c.total is total is catalog("AuFG") is c_aufg.total
    assert c.base is resolve_presentation("AuF", args) is c_aufg.base
    assert c.base.hopf is not None and c.total.hopf is None
    family = [k for k in presentations._CACHE if k[0] in ("AuF", "AuFG")]
    assert len(family) == 2


def test_verify_star_pass(uq2m2, uq2):
    for p in (uq2m2, uq2):
        r = verify_star(p)
        assert r.ok
    r = verify_star(uq2m2)
    starred = [i for i in r.items if "reduces to 0" in i.desc]
    involutive = [i for i in r.items if "involutive" in i.desc]
    assert len(starred) == 13
    assert len(involutive) == 5


def test_verify_star_corrupted(uq2m2):
    A = uq2m2.alphabet
    images = dict(uq2m2.star.images)
    images[A.index["z11"]] = A.gen("z11")
    bad = Presentation(uq2m2.name, A, uq2m2.relations, uq2m2.rewrite,
                       StarMap(A, images), uq2m2.hopf, uq2m2.block)
    r = verify_star(bad)
    assert not r.ok
    assert any("involutive" in i.desc and i.status == "fail" for i in r.items)


def test_verify_star_fails_on_the_certified_residual(uq2m2):
    # z11* = z11 is no star structure.  Its starred rules reach degree 8
    # on a system built to degree 4: reduced raw, 3 of them leave a
    # residual other than the unique one, and each item must fail on
    # the unique one
    A = uq2m2.alphabet
    images = dict(uq2m2.star.images)
    images[A.index["z11"]] = A.gen("z11")
    bad = Presentation(uq2m2.name, A, uq2m2.relations, uq2m2.rewrite,
                       StarMap(A, images), uq2m2.hopf, uq2m2.block)
    r = verify_star(bad)
    assert r.status == "fail"
    items = [i for i in r.items if "reduces to 0" in i.desc]
    assert len(items) == len(bad.rewrite.rules) == 13
    uncertified = 0
    for item, rule in zip(items, bad.rewrite.rules):
        starred = bad.star.apply(rule.as_poly(A))
        residual = bad.ensure_degree(starred.degree()).rewrite.normal_form(starred)
        assert (item.status, item.witness) == (
            ("pass", "") if residual.is_zero() else ("fail", residual.pretty()[:120]))
        uncertified += bad.rewrite.normal_form(starred) != residual
    assert uncertified == 3


def test_every_reader_certifies_what_it_reduces(monkeypatch, capsys):
    """No word is reduced by a rewrite system completed to less than its
    length, on every command path but verify_star's raw zero test.  The
    reductions inside a completion or an overlap scan are the completion's
    own, and are left out."""
    short = []
    nf_word, obstructions = RewriteSystem._nf_word, RewriteSystem.check_overlaps
    scanning = [0]

    def checked(rs, word):
        if not scanning[0] and len(word) > rs.completion_degree:
            short.append((rs.completion_degree, word))
        return nf_word(rs, word)

    def scan(rs, *args):
        scanning[0] += 1
        try:
            return obstructions(rs, *args)
        finally:
            scanning[0] -= 1

    monkeypatch.setattr(RewriteSystem, "_nf_word", checked)
    monkeypatch.setattr(RewriteSystem, "check_overlaps", scan)
    # the hopf suite runs on the bases, as the totals carry no Hopf data,
    # and the Haar commands on Uq2m2, as GLq2m2 carries no star structure
    runs = [["verify", "Uq2", "--suite", "hopf"], ["verify", "GLq2", "--suite", "hopf"],
            ["haar", "Uq2m2"], ["verify", "Uq2m2", "--suite", "haar"]]
    for target in ("Uq2m2", "GLq2m2"):
        runs += [["cotensor", target]] + [["verify", target, "--suite", suite]
                                          for suite in ("coaction", "galois", "cotensor")]
    for argv in runs:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert short == []


def test_verify_hopf_pass(glq2, uq2):
    assert verify_hopf(glq2).ok
    assert verify_hopf(uq2).ok


def test_verify_hopf_corrupted(uq2):
    A = uq2.alphabet
    delta = dict(uq2.hopf.delta)
    delta[A.index["x11"]] = TensorPoly.of(A.gen("x11"), A.gen("x11"))
    bad = Presentation(uq2.name, A, uq2.relations, uq2.rewrite, uq2.star,
                       HopfData(delta, dict(uq2.hopf.counit),
                                dict(uq2.hopf.antipode)), uq2.block)
    assert not verify_hopf(bad).ok


def star_map_items(report):
    return [i for i in report.items if "is a *-map" in i.desc]


def test_verify_hopf_checks_delta_is_a_star_map(glq2, uq2):
    assert star_map_items(verify_hopf(glq2)) == []
    items = star_map_items(verify_hopf(uq2))
    assert [i.desc for i in items] == [f"Delta is a *-map on {g}"
                                       for g in uq2.alphabet.names]
    assert all(i.status == "pass" for i in items)
    # Delta(x12) and Delta(x21) swapped: no longer a *-map
    A = uq2.alphabet
    delta = dict(uq2.hopf.delta)
    i12, i21 = A.index["x12"], A.index["x21"]
    delta[i12], delta[i21] = delta[i21], delta[i12]
    bad = Presentation(uq2.name, A, uq2.relations, uq2.rewrite, uq2.star,
                       HopfData(delta, dict(uq2.hopf.counit),
                                dict(uq2.hopf.antipode)), uq2.block)
    failed = [i.desc for i in star_map_items(verify_hopf(bad)) if i.status == "fail"]
    assert "Delta is a *-map on x12" in failed
    assert "Delta is a *-map on x21" in failed


def test_verify_coaction(c_uq, c_glq):
    assert verify_coaction(c_uq).ok
    assert verify_coaction(c_glq).ok


def test_coaction_corrupted(c_uq):
    Z = c_uq.total.alphabet
    alpha = dict(c_uq.alpha)
    alpha[Z.index["z11"]] = TensorPoly.of(
        NCPoly.one(c_uq.base.alphabet), Z.gen("z12"))
    bad = CoactionData(c_uq.base, c_uq.total, alpha)
    assert not verify_coaction(bad).ok


def test_matrix_inverse_identity(glq2m2):
    """z * M = M * z = I entrywise for the explicit inverse matrix M."""
    P = glq2m2.parse
    z = [[P("z11"), P("z12")], [P("z21"), P("z22")]]
    M = [[P("z22*tau"), P("q*tau*z12")], [P("q^-1*z21*tau"), P("tau*z11")]]
    one = NCPoly.one(glq2m2.alphabet)
    for A, B in ((z, M), (M, z)):
        for i in range(2):
            for j in range(2):
                s = A[i][0] * B[0][j] + A[i][1] * B[1][j]
                want = one if i == j else NCPoly.zero(glq2m2.alphabet)
                assert glq2m2.nf(s - want).is_zero()


def test_tau_two_sided_inverse(glq2m2):
    P = glq2m2.parse
    D = P("z11*z22 + q^-1*z12*z21")
    tau = P("tau")
    one = NCPoly.one(glq2m2.alphabet)
    assert glq2m2.nf(D * tau - one).is_zero()
    assert glq2m2.nf(tau * D - one).is_zero()


def test_onp_unitarity():
    onp = catalog("Onp", n=2, p=1)
    P = onp.parse
    one = NCPoly.one(onp.alphabet)
    # 2 x 1 block: (a a*)_11 = a11 a11* and a* a is the 1 x 1 identity
    assert onp.nf(P("a11*a11s") - one).is_zero()
    assert onp.nf(P("a11*a21s")).is_zero()
    assert onp.nf(P("a11s*a11 + a21s*a21") - one).is_zero()


def test_aufg_matrices():
    F = matrix_fq(1)
    assert F[1][0] == -Q
    assert F[0][1] == S_ONE
    G = matrix_fq(-1)
    assert G[1][0] == Q


def test_findim_rep_obstruction_table():
    for n in range(1, 5):
        for p in range(1, 5):
            assert findim_rep_obstruction(n, p) == (n == p)


def test_abelianization(glq2m2, glq2):
    cp = abelianization(glq2m2)
    assert cp.variables == list(glq2m2.alphabet.names)
    i1 = cp.variables.index("z11")
    i2 = cp.variables.index("z12")
    target = tuple(1 if k in (i1, i2) else 0 for k in range(5))
    hits = [g for g in cp.ideal_generators
            if set(g) == {target} and g[target] == S_ONE + Q]
    assert hits, "expected the single-term (1+q) z11 z12 image"
    # the plain commutation relation x12 x21 - x21 x12 drops to zero, so
    # strictly fewer ideal generators survive than relations exist
    cp2 = abelianization(glq2)
    assert len(cp2.ideal_generators) < len(glq2.relations)


QPLANE = """
algebra qplane
generators x y
order x < y
relation y*x - q*x*y
"""

QPLANE_STAR_BAD = QPLANE + "star x -> x\nstar y -> y\n"


def test_parse_presentation_text():
    p = parse_presentation_text(QPLANE)
    assert p.name == "qplane"
    assert p.nf(p.parse("y*x")) == p.parse("q*x*y")


def test_parse_presentation_text_star_failure():
    p = parse_presentation_text(QPLANE_STAR_BAD)
    r = verify_star(p)
    assert not r.ok
    # the failing item shows the residual, cut to 120 characters
    rel = p.rewrite.rules[0].as_poly(p.alphabet)
    residual = p.nf(p.star.apply(rel))
    assert not residual.is_zero()
    assert r.items[0].status == "fail"
    assert r.items[0].witness == residual.pretty()[:120]


def test_parse_presentation_text_errors():
    with pytest.raises(Exception):
        parse_presentation_text("algebra t\ngenerators a\nrelation b*a\n")


def test_parse_coaction_text(c_glq):
    text = """
coaction GLq2m2 over GLq2
alpha z11 -> x11 (x) z11 + x12 (x) z21
alpha z12 -> x11 (x) z12 + x12 (x) z22
alpha z21 -> x21 (x) z11 + x22 (x) z21
alpha z22 -> x21 (x) z12 + x22 (x) z22
alpha tau -> t (x) tau
"""
    c = parse_coaction_text(text, catalog)
    assert c.base is c_glq.base and c.total is c_glq.total
    assert c.alpha == c_glq.alpha


LINE = parse_presentation_text("algebra line\ngenerators x\n")


def line_coaction(alpha):
    """The coaction file of `line` over itself whose alpha line reads
    `alpha x -> <alpha>`."""
    return parse_coaction_text(f"coaction line over line\nalpha x -> {alpha}\n",
                               {"line": LINE}.get)


def test_alpha_line_reads_a_signed_right_leg():
    x = LINE.gen("x")
    want = -TensorPoly.of(NCPoly.one(LINE.alphabet), x)
    assert line_coaction("1 (x) -x").alpha[0] == want
    assert line_coaction("-1 (x) x").alpha[0] == want
    assert line_coaction("x (x) 1 - (x - 1) (x) -x").alpha[0] == \
        TensorPoly.of(x, NCPoly.one(LINE.alphabet)) + TensorPoly.of(x - NCPoly.one(LINE.alphabet), x)


@pytest.mark.parametrize("alpha,col", [("1 (x) x +", 21), ("1 (x) x -", 21),
                                       ("", 11), ("1 (x)", 17), ("1 x", 14)])
def test_alpha_line_without_a_whole_tensor_is_a_parse_error(alpha, col):
    with pytest.raises(ParseError, match=rf"\(line 2, column {col}\)"):
        line_coaction(alpha)


@pytest.mark.parametrize("text,line,col", [
    (QPLANE + "relation x*y +* y\n", 6, 15),
    (QPLANE + "star x -> x\n  star y ->  y*/x\n", 7, 16),
    ("\n\tgenerators x y\nalgebra a\nrelation (x\n", 4, 12),
], ids=["relation", "indented-star", "tab"])
def test_parse_errors_give_their_place_in_the_file(text, line, col):
    with pytest.raises(ParseError, match=rf"\(line {line}, column {col}\)$"):
        parse_presentation_text(text)


def test_a_generator_given_twice_names_both_lines():
    with pytest.raises(CatalogError, match=r"line 7: star images for 'x' given "
                                           r"again \(first on line 6\)"):
        parse_presentation_text(QPLANE + "star x -> x\nstar x -> y\nstar y -> y\n")
    with pytest.raises(CatalogError, match=r"line 3: alpha for 'x' given again "
                                           r"\(first on line 2\)"):
        parse_coaction_text("coaction line over line\nalpha x -> 1 (x) x\n"
                            "alpha x -> x (x) 1\n", {"line": LINE}.get)


@pytest.mark.parametrize("text,line,head,first", [
    ("algebra a\nalgebra b\ngenerators x y\ngenerators x\n", 2, "algebra", 1),
    ("algebra a\ngenerators x y\ngenerators x\n", 3, "generators", 2),
    (QPLANE + "order y < x\n", 6, "order", 4),
], ids=["algebra", "generators", "order"])
def test_a_header_given_twice_names_both_lines(text, line, head, first):
    with pytest.raises(CatalogError, match=rf"line {line}: '{head}' given again "
                                           rf"\(first on line {first}\)"):
        parse_presentation_text(text)


def test_a_coaction_line_given_twice_names_both_lines():
    text = "coaction line over line\ncoaction line over GLq2\nalpha x -> 1 (x) x\n"
    with pytest.raises(CatalogError, match=r"line 2: 'coaction' given again "
                                           r"\(first on line 1\)"):
        parse_coaction_text(text, {"line": LINE}.get)


def test_a_directive_ends_at_any_whitespace():
    p = parse_presentation_text("algebra\tqplane\ngenerators x\ty\n"
                                "relation\ty*x - q*x*y\n")
    assert p.name == "qplane"
    assert p.nf(p.parse("y*x")) == p.parse("q*x*y")
    # the argument keeps its place: the tab is one column
    with pytest.raises(ParseError, match=r"\(line 3, column 16\)$"):
        parse_presentation_text("algebra a\ngenerators x y\nrelation\t y*x +\n")


def test_an_alpha_line_cut_short_names_the_end_of_input():
    with pytest.raises(ParseError, match=r"^unexpected end of input "
                                         r"\(line 2, column 11\)$"):
        line_coaction("")


def named_block(p, prefix, n, m):
    """The n x m matrix of the generators of p named <prefix><i><j>."""
    return [[p.gen(f"{prefix}{i}{j}") for j in range(1, m + 1)]
            for i in range(1, n + 1)]


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# (catalog name, parameters, prefix, rows, columns) of each builder's block
BLOCKS = [
    ("GLq2", {}, "x", 2, 2), ("Uq2", {}, "x", 2, 2),
    ("GLq2m2", {}, "z", 2, 2), ("Uq2m2", {}, "z", 2, 2),
    ("GLqm22", {}, "t", 2, 2),
    ("Onp", {}, "a", 2, 1), ("Onp", {"n": 2, "p": 2}, "a", 2, 2),
    ("AuF", {}, "z", 3, 3), ("AuFG", {}, "z", 3, 3),
    ("AuFG", {"F": [[1, 1], [0, 1]], "G": I3}, "z", 2, 3),
]


@pytest.mark.parametrize("name,params,prefix,n,m", BLOCKS)
def test_catalog_block(monkeypatch, name, params, prefix, n, m):
    # builds at other parameters stay out of the shared catalog cache
    monkeypatch.setattr(presentations, "_CACHE", dict(presentations._CACHE))
    p = catalog(name, **params)
    assert p.block == named_block(p, prefix, n, m)


def test_certified_copies_carry_the_block(uq2m2):
    assert uq2m2.ensure_degree(6).block is uq2m2.block


def test_file_presentation_declares_no_block():
    p = parse_presentation_text("algebra line\ngenerators x\n")
    assert p.block is None


def test_star_alphabet_names_large_blocks_apart():
    A, _, z, zbar = _star_alphabet("z", 11, 11)
    assert len(A) == len(set(A.names)) == 242
    # both indices padded to two digits: z_{1,11} and z_{11,1} differ
    assert A.names[10] == "z0111" and A.names[110] == "z1101"
    assert z[0][10] == A.gen("z0111") and zbar[10][0] == A.gen("z1101s")
    # the starred block in reverse: z_{11,11}* first, z_{1,1}* last
    assert A.names[121] == "z1111s" and A.names[241] == "z0101s"
    A, _, _, _ = _star_alphabet("z", 2, 3)
    names = ["z11", "z12", "z13", "z21", "z22", "z23"]
    assert A.names == tuple(names + [f"{g}s" for g in reversed(names)])


@pytest.mark.parametrize("name,params,rules", [
    ("AuF", {}, 34), ("AuFG", {}, 34),
    ("AuF", {"F": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, 34),
    ("AuF", {"F": [[1, 0], [0, 2]]}, 14)])
def test_universal_objects_build_complete(name, params, rules):
    # the relations inter-reduce to rules with quadratic lhs whose
    # ambiguities, all of degree 3, resolve: completion adds no rule, and
    # no ambiguity of any degree is an obstruction
    p = catalog(name, **params)
    rs = p.rewrite
    assert len(rs.rules) == rules
    assert {len(r.lhs) for r in rs.rules} == {2}
    built = build_system(p.alphabet, p.relations, rs.order)
    assert [(r.lhs, r.rhs) for r in complete(built, 3).rules] == \
        [(r.lhs, r.rhs) for r in built.rules] == [(r.lhs, r.rhs) for r in rs.rules]
    assert rs.check_overlaps(6) == []


@pytest.mark.parametrize("n,p,rules", [(2, 1, 5), (2, 2, 8), (3, 1, 10),
                                       (3, 2, 13), (3, 3, 18)])
def test_onp_rule_counts(n, p, rules):
    rs = catalog("Onp", n=n, p=p).rewrite
    assert len(rs.rules) == rules
    assert {len(r.lhs) for r in rs.rules} == {2}
    assert rs.check_overlaps(6) == []


def _counts(words, d):
    """The number of words of each length 0..d."""
    by_length = Counter(map(len, words))
    return [by_length[k] for k in range(d + 1)]


def test_auf_hilbert_function_is_the_old_layouts():
    # an independent build in the old layout: the same algebra, so the
    # same number of normal words in each degree
    for p in (catalog("AuF"), auf_old_layout()):
        assert _counts(p.basis(4), 4) == [1, 18, 290, 4644, 74344], p.alphabet.names


@settings(max_examples=5, deadline=None)
@given(st.permutations(range(18)))
def test_auf_hilbert_function_under_any_generator_order(perm):
    p = catalog("AuF")
    order = MonomialOrder(p.alphabet, perm)
    rs = complete(build_system(p.alphabet, p.relations, order), 3)
    assert _counts(word_basis(rs, 3), 3) == [1, 18, 290, 4644]


def _sympy_of(c, sp, q):
    def laurent(p):
        return sum((sp.Rational(v) * q**e for e, v in p.coeffs.items()),
                   sp.Integer(0))
    return laurent(c.num) / laurent(c.den)


@pytest.mark.parametrize("n,m,p", [(2, 2, 2), (3, 2, 4)])
def test_mat_mul_scalars_against_sympy(rng, n, m, p):
    sp = pytest.importorskip("sympy")
    q = sp.Symbol("q")
    A = [[random_scalar(rng) for _ in range(m)] for _ in range(n)]
    B = [[random_scalar(rng) for _ in range(p)] for _ in range(m)]
    want = sp.Matrix([[_sympy_of(c, sp, q) for c in row] for row in A]) * \
        sp.Matrix([[_sympy_of(c, sp, q) for c in row] for row in B])
    got = mat_mul(A, B)
    assert [len(row) for row in got] == [p] * n
    for i in range(n):
        for j in range(p):
            assert sp.cancel(_sympy_of(got[i][j], sp, q) - want[i, j]) == 0


def test_mat_mul_polynomials_against_a_triple_loop(rng):
    X = Alphabet(["a", "b", "c"])
    A = [[random_poly(rng, X) for _ in range(3)] for _ in range(2)]
    B = [[random_poly(rng, X) for _ in range(4)] for _ in range(3)]
    F = [[random_scalar(rng) for _ in range(2)] for _ in range(2)]
    G = [[random_scalar(rng) for _ in range(2)] for _ in range(3)]
    AB = [[NCPoly.zero(X) for _ in range(4)] for _ in range(2)]
    FA = [[NCPoly.zero(X) for _ in range(3)] for _ in range(2)]
    AG = [[NCPoly.zero(X) for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for k in range(3):
            for j in range(4):
                AB[i][j] = AB[i][j] + A[i][k] * B[k][j]
            for j in range(2):
                AG[i][j] = AG[i][j] + A[i][k].scale(G[k][j])
        for k in range(2):
            for j in range(3):
                FA[i][j] = FA[i][j] + A[k][j].scale(F[i][k])
    assert mat_mul(A, B) == AB
    # a scalar matrix on either side of a block of NCPoly
    assert mat_mul(F, A) == FA
    assert mat_mul(A, G) == AG
    with pytest.raises(ValueError):
        mat_mul(A, A)  # 2 x 3 times 2 x 3


def test_mat_mul_tensor_shape(rng):
    X, Y = Alphabet(["a", "b"]), Alphabet(["u", "v", "w"])
    A = [[random_poly(rng, X) for _ in range(3)] for _ in range(2)]
    B = [[random_poly(rng, Y)] for _ in range(3)]
    got = mat_mul(A, B, TensorPoly.of)
    assert [len(row) for row in got] == [1, 1]
    for i in range(2):
        want = TensorPoly((X, Y))
        for k in range(3):
            want = want + TensorPoly.of(A[i][k], B[k][0])
        assert got[i][0] == want
