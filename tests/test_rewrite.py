import pytest

from conftest import random_poly
from qgal import rewrite
from qgal.ncpoly import Alphabet, NCPoly, parse_expr
from qgal.presentations import CATALOG, catalog, parse_presentation_text
from qgal.rewrite import (
    CompletionBudgetError,
    ConfluenceError,
    MonomialOrder,
    RewriteSystem,
    build_system,
    complete,
    find_first_match,
    orient,
    word_basis,
)
from qgal.scalars import S_ONE


def test_normal_form_examples(glq2, glq2m2):
    P = glq2.parse
    assert glq2.nf(P("x12*x11")) == P("q*x11*x12")
    assert glq2.nf(NCPoly.one(glq2.alphabet)) == NCPoly.one(glq2.alphabet)
    Z = glq2m2.parse
    assert glq2m2.nf(Z("z22*z11")) == Z("-z11*z22 + (q - q^-1)*z12*z21")


def test_find_first_match_basics():
    buckets = {1: [((1, 0), 0)]}
    assert find_first_match((0, 1, 0, 2), buckets) == (1, 0, 2)
    assert find_first_match((0, 2), buckets) is None


def test_word_basis_counts(glq2):
    rs = glq2.rewrite
    assert word_basis(rs, 0) == [()]
    assert len(word_basis(rs, 1)) == 6
    assert len(word_basis(rs, 2)) == 21


def test_word_basis_refuses_degree_above_completion(glq2):
    rs = glq2.rewrite
    with pytest.raises(ConfluenceError):
        word_basis(rs, rs.completion_degree + 1)


def test_basis_words_are_normal(glq2, glq2m2, uq2m2):
    for p in (glq2, glq2m2, uq2m2):
        for w in word_basis(p.rewrite, 2):
            mono = NCPoly(p.alphabet, {w: S_ONE})
            assert p.nf(mono) == mono


def test_check_overlaps_empty_for_catalog(glq2, uq2, glq2m2, uq2m2, glqm22):
    for p in (glq2, uq2, glq2m2, uq2m2, glqm22, catalog("Onp", n=2, p=1)):
        assert p.rewrite.check_overlaps(3) == []


def test_overlaps_detect_inconsistency():
    ab = Alphabet(["a", "b"])
    order = MonomialOrder(ab)
    r1 = orient(parse_expr("b*a - a*b", ab), order)
    r2 = orient(parse_expr("b*a - 2*a*b", ab), order)
    rs = RewriteSystem(ab, [r1, r2], order, 3)
    assert rs.check_overlaps(2) != []


def test_empty_system():
    ab = Alphabet(["a", "b"])
    order = MonomialOrder(ab)
    rs = RewriteSystem(ab, [], order, 3)
    assert rs.check_overlaps(3) == []
    assert len(complete(rs, 3).rules) == 0
    assert len(word_basis(rs, 2)) == 7


def test_hand_resolved_overlap():
    # b*a -> a*b, c*b -> b*c, c*a -> a*c: the word c*b*a reduces to a*b*c
    # along both reduction orders
    ab = Alphabet(["a", "b", "c"])
    order = MonomialOrder(ab)
    rels = [parse_expr(s, ab) for s in ("b*a - a*b", "c*b - b*c", "c*a - a*c")]
    rs = build_system(ab, rels, order)
    assert rs.check_overlaps(3) == []
    cba = parse_expr("c*b*a", ab)
    # path 1: rewrite the prefix c*b first, path 2: the suffix b*a first
    path1 = rs.normal_form(parse_expr("b*c*a", ab))
    path2 = rs.normal_form(parse_expr("c*a*b", ab))
    assert path1 == path2 == rs.normal_form(cba) == parse_expr("a*b*c", ab)


def test_completion_idempotent_and_certified(glq2):
    rs = glq2.rewrite
    d = rs.completion_degree
    assert rs.check_overlaps(min(d, 4)) == []
    again = complete(rs, min(d, 4))
    assert len(again.rules) == len(rs.rules)


def test_completion_grows_for_determinant_relation(glq2m2):
    # the inverse relation keeps producing new overlaps: the degree-4
    # completion is strictly larger than the 11 input relations
    assert len(glq2m2.rewrite.rules) >= 13


def test_completion_budget(glq2m2):
    # the inverse relation generates rules without end; a tight cap trips
    order = glq2m2.rewrite.order
    rels = glq2m2.relations
    with pytest.raises(CompletionBudgetError):
        rs = build_system(glq2m2.alphabet, rels, order, rule_cap=14)
        complete(rs, 6)


def test_nf_properties_random(glq2, uq2m2, rng):
    for p in (glq2, uq2m2):
        # products of degree-3 elements reach degree 6; certify that range
        p = p.ensure_degree(6)
        for _ in range(30):
            x = random_poly(rng, p.alphabet, degree=3)
            y = random_poly(rng, p.alphabet, degree=3)
            nx = p.nf(x)
            assert p.nf(nx) == nx
            assert p.nf(x + y) == p.nf(nx + p.nf(y))
            assert p.nf(x * y) == p.nf(nx * p.nf(y))


def test_relations_reduce_to_zero(glq2, uq2, glq2m2, uq2m2, glqm22):
    for p in (glq2, uq2, glq2m2, uq2m2, glqm22):
        for rel in p.relations:
            assert p.nf(rel).is_zero()


def test_clean_completion_records_its_degree(monkeypatch):
    p = parse_presentation_text("algebra qplane\ngenerators x y\n"
                                "relation y*x - q*x*y\n")
    assert p.rewrite.completion_degree == 3
    rules = p.rewrite.rules
    p5 = p.ensure_degree(5)
    assert p.rewrite.completion_degree == 3
    assert p5.rewrite.completion_degree == 5
    assert p5.rewrite.rules == rules
    assert p5.rewrite.check_overlaps(5) == []
    scans = []
    original = RewriteSystem._obstructions
    monkeypatch.setattr(RewriteSystem, "_obstructions",
                        lambda rs, d: scans.append(d) or original(rs, d))
    assert p.ensure_degree(5) is p5 and p5.ensure_degree(5) is p5
    assert scans == []


def _assert_interreduced(rules):
    """No word of any rule contains the lhs of another rule."""
    for i, rule in enumerate(rules):
        others = {}
        for j, other in enumerate(rules):
            if j != i:
                others.setdefault(other.lhs[0], []).append((other.lhs, j))
        for word in (rule.lhs, *rule.rhs.terms):
            assert find_first_match(word, others) is None, (rule.lhs, word)


def test_catalog_rules_are_interreduced(c_aufg):
    for name in CATALOG:
        _assert_interreduced(catalog(name).rewrite.rules)
    _assert_interreduced(c_aufg.total.rewrite.rules)


def test_aufg_build_orients_each_rule_once(monkeypatch):
    calls = []
    monkeypatch.setattr(rewrite, "orient",
                        lambda *a: calls.append(1) or orient(*a))
    entry = CATALOG["AuFG"]
    entry.build(**entry.defaults)
    assert 0 < len(calls) < 2000
