import hashlib
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import random_poly
from qgal import presentations, rewrite
from qgal.ncpoly import Alphabet, NCPoly, parse_expr
from qgal.presentations import CATALOG, catalog, parse_presentation_text
from qgal.rewrite import (
    CompletionBudgetError,
    ConfluenceError,
    LhsIndex,
    MonomialOrder,
    Obstruction,
    RewriteError,
    RewriteRule,
    RewriteSystem,
    TrivialIdealError,
    build_system,
    complete,
    orient,
    word_basis,
)
from qgal.scalars import Q, S_ONE, ScalarQ, add_term


def test_normal_form_examples(glq2, glq2m2):
    P = glq2.parse
    assert glq2.nf(P("x12*x11")) == P("q*x11*x12")
    assert glq2.nf(NCPoly.one(glq2.alphabet)) == NCPoly.one(glq2.alphabet)
    Z = glq2m2.parse
    assert glq2m2.nf(Z("z22*z11")) == Z("-z11*z22 + (q - q^-1)*z12*z21")


def _contains(word, sub):
    """Whether `sub` is a subword of `word`, by a plain scan."""
    m = len(sub)
    return any(word[i:i + m] == sub for i in range(len(word) - m + 1))


def _first_match(rules, word, skip=None):
    """`LhsIndex.match` by a scan of every position and every rule."""
    found = [(pos, -len(r.lhs), j) for j, r in enumerate(rules)
             if r is not None and j != skip
             for pos in range(len(word)) if word[pos:pos + len(r.lhs)] == r.lhs]
    if not found:
        return None
    pos, minus_len, j = min(found)
    return pos, j, -minus_len


def _lhs_only(lhs):
    return SimpleNamespace(lhs=lhs)


def test_lhs_index_match_basics():
    rules = [_lhs_only((1, 0)), None, _lhs_only((1, 0, 2)), _lhs_only((1, 0))]
    index = LhsIndex(rules)
    assert index.lhs_map == {(1, 0): [0, 3], (1, 0, 2): [2]}
    assert index.lengths == {1: [3, 2]}
    # the leftmost position, then the longest lhs, then the smallest index
    assert index.match((0, 1, 0, 2)) == (1, 2, 3)
    assert index.match((0, 1, 0, 1, 0, 2)) == (1, 0, 2)
    assert index.match((0, 1, 0, 2), skip=2) == (1, 0, 2)
    assert index.match((0, 1, 0), skip=0) == (1, 3, 2)
    assert index.match((0, 2)) is None and index.match(()) is None


_lhs3 = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)
_rule_or_none = st.one_of(st.none(), _lhs3.map(_lhs_only))


@settings(max_examples=200, deadline=None)
@given(st.lists(_rule_or_none, max_size=8),
       st.lists(st.lists(st.integers(0, 2), max_size=8).map(tuple),
                min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(0, 7), _rule_or_none), max_size=4))
# a duplicated lhs, and one inside a longer lhs at the same position
@example([_lhs_only((0, 1)), None, _lhs_only((0, 1)), _lhs_only((0, 1, 2))],
         [(2, 0, 1, 2), (0, 1)], [(3, None), (0, _lhs_only((1,)))])
def test_lhs_index_match_is_the_leftmost_longest_occurrence(rules, words, moves):
    # after each move, match agrees with the scan over the moved rules, and
    # the index is the one a fresh build gives
    rules = list(rules)
    index = LhsIndex(rules)
    for step in range(len(moves) + 1):
        for word in words:
            for skip in (None, *range(len(rules))):
                assert index.match(word, skip) == _first_match(rules, word, skip)
        fresh = LhsIndex(rules)
        assert (index.lhs_map, index.lengths) == (fresh.lhs_map, fresh.lengths)
        if step < len(moves):
            live = [i for i, r in enumerate(rules) if r is not None]
            if not live:
                break
            i, new = moves[step]
            i = live[i % len(live)]
            index.move(i, rules[i], new)
            rules[i] = new


def test_word_basis_counts(glq2):
    rs = glq2.rewrite
    assert word_basis(rs, 0) == [()]
    assert len(word_basis(rs, 1)) == 6
    assert len(word_basis(rs, 2)) == 21


def test_word_basis_refuses_degree_above_completion(glq2):
    rs = glq2.rewrite
    with pytest.raises(ConfluenceError):
        word_basis(rs, rs.completion_degree + 1)


def test_word_basis_refuses_negative_degree(glq2):
    with pytest.raises(RewriteError, match="must be >= 0"):
        word_basis(glq2.rewrite, -1)


def _scanned_basis(rs, d):
    """Every word of length <= d with no lhs as a subword, from a scan of
    all words over the alphabet, sorted by the monomial order."""
    lhss = {r.lhs for r in rs.rules}
    words = [w for n in range(d + 1)
             for w in product(range(len(rs.alphabet)), repeat=n)
             if lhss.isdisjoint(w[i:j] for i in range(n)
                                for j in range(i + 1, n + 1))]
    return sorted(words, key=rs.order.key)


def test_word_basis_is_every_word_without_an_lhs(uq2):
    # AuF and AuFG: 18 letters, 5,832 words of length 3
    for name in CATALOG:
        rs = catalog(name).rewrite
        assert word_basis(rs, 3) == _scanned_basis(rs, 3), name
    rs = uq2.ensure_degree(6).rewrite
    assert word_basis(rs, 6) == _scanned_basis(rs, 6)


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
    rs = RewriteSystem(ab, [r1, r2], order)
    assert rs.check_overlaps(2) != []


def test_empty_system():
    ab = Alphabet(["a", "b"])
    order = MonomialOrder(ab)
    rs = RewriteSystem(ab, [], order)
    assert rs.check_overlaps(3) == []
    done = complete(rs, 3)
    assert len(done.rules) == 0 and done.completion_degree == 3
    assert len(word_basis(done, 2)) == 7


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


def test_completion_budget(glq2m2, monkeypatch):
    # the inverse relation generates rules without end; a tight cap trips
    order = glq2m2.rewrite.order
    rels = glq2m2.relations
    monkeypatch.setattr(rewrite, "RULE_CAP", 14)
    with pytest.raises(CompletionBudgetError, match="rule cap 14"):
        rs = build_system(glq2m2.alphabet, rels, order)
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
    original = RewriteSystem.check_overlaps
    monkeypatch.setattr(RewriteSystem, "check_overlaps",
                        lambda rs, d: scans.append(d) or original(rs, d))
    assert p.ensure_degree(5) is p5 and p5.ensure_degree(5) is p5
    assert scans == []


def test_word_basis_on_a_completed_system_makes_no_scan(monkeypatch, glq2):
    p = parse_presentation_text("algebra qplane\ngenerators x y\n"
                                "relation y*x - q*x*y\n")
    scans = []
    original = RewriteSystem._ambiguities
    monkeypatch.setattr(RewriteSystem, "_ambiguities",
                        lambda rs, d: scans.append(d) or original(rs, d))
    # the completion degree certifies every basis below it
    rs = p.rewrite
    assert [len(word_basis(rs, d)) for d in (3, 2, 3, 0)] == [10, 6, 10, 1]
    assert [len(word_basis(glq2.rewrite, d)) for d in (4, 1)] == [120, 6]
    assert scans == []


def test_bare_build_lists_no_basis():
    # a*a -> b and b*a -> a: a*a*a reduces to a and to a*b, and b*a*a
    # to b and to b*b
    ab = Alphabet(["a", "b"])
    order = MonomialOrder(ab)
    rs = build_system(ab, [parse_expr(s, ab) for s in ("a*a - b", "b*a - a")],
                      order)
    assert rs.completion_degree == -1
    with pytest.raises(ConfluenceError, match="exceeds completion bound -1"):
        word_basis(rs, 0)
    assert [ob.word for ob in rs.check_overlaps(3)] == [(0, 0, 0), (1, 0, 0)]
    # completing it certifies a basis, on a system of its own
    done = complete(rs, 3)
    assert done is not rs and rs.completion_degree == -1
    assert done.check_overlaps(3) == []
    assert word_basis(done, 3) == [(), (0,), (1,)]


def test_complete_returns_a_system_certified_deep_enough(monkeypatch, glq2):
    # a system completed to 4 is returned as it is for every degree up to
    # 4, with no ambiguity enumerated
    scans = []
    original = RewriteSystem._ambiguities
    monkeypatch.setattr(RewriteSystem, "_ambiguities",
                        lambda rs, d: scans.append(d) or original(rs, d))
    rs = glq2.rewrite
    assert rs.completion_degree == 4
    assert all(complete(rs, d) is rs for d in range(-1, 5))
    assert scans == []


def _assert_interreduced(rules):
    """No word of any rule contains the lhs of another rule."""
    for i, rule in enumerate(rules):
        for word in (rule.lhs, *rule.rhs.terms):
            for j, other in enumerate(rules):
                assert j == i or not _contains(word, other.lhs), \
                    (rule.lhs, word, other.lhs)


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


# -- reference write path -------------------------------------------------
#
# The straightforward forms of the rewrite write path: every pair of rules
# scanned for ambiguities, every rule reduced by a fresh system of all the
# others on every pass, every rule oriented again each round.  The indexed
# implementations must give the same obstructions and the same rules, in
# the same order.  A completion that scans every ambiguity in every round
# can meet again one that `complete` resolved in an earlier round, and add
# its difference as a rule: it ends with the same rules, but the rhs terms
# of a rule may be stored in another order.


def _reference_overlaps(rs, d, resolved=None):
    """With a set `resolved` of keys (lhs_i, lhs_j, kind, position), the
    ambiguities whose key is in it are skipped, and the keys of the others
    join it after the scan."""
    out, examined = [], []

    def skipped(key):
        if resolved is None:
            return False
        if key in resolved:
            return True
        examined.append(key)
        return False

    rules = rs.rules
    A = rs.alphabet
    for i, r1 in enumerate(rules):
        l1 = r1.lhs
        for j, r2 in enumerate(rules):
            l2 = r2.lhs
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] != l2[:k] or len(l1) + len(l2) - k > d \
                        or skipped((l1, l2, 0, k)):
                    continue
                left = rs.normal_form(r1.rhs * NCPoly(A, {l2[k:]: S_ONE}))
                right = rs.normal_form(
                    NCPoly(A, {l1[: len(l1) - k]: S_ONE}) * r2.rhs)
                if left != right:
                    out.append(Obstruction(l1 + l2[k:], i, j, left - right))
            if i != j and len(l2) <= len(l1) <= d:
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos : pos + len(l2)] != l2 \
                            or skipped((l1, l2, 1, pos)):
                        continue
                    inner = (NCPoly(A, {l1[:pos]: S_ONE}) * r2.rhs
                             * NCPoly(A, {l1[pos + len(l2) :]: S_ONE}))
                    diff = rs.normal_form(r1.rhs) - rs.normal_form(inner)
                    if not diff.is_zero():
                        out.append(Obstruction(l1, i, j, diff))
    if resolved is not None:
        resolved.update(examined)
    return out


def _reference_interreduce(alphabet, rules, order):
    polys = [r.as_poly(alphabet) for r in rules]
    oriented = [orient(p, order) for p in polys]
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            if polys[i] is None:
                continue
            others = [r for j, r in enumerate(oriented)
                      if j != i and r is not None]
            rs = RewriteSystem(alphabet, others, order)
            reduced = rs.normal_form(polys[i])
            if reduced != polys[i]:
                changed = True
                polys[i] = None if reduced.is_zero() else reduced
                oriented[i] = orient(reduced, order)
    return [r for r in oriented if r is not None]


def _reference_build_system(alphabet, relations, order):
    rules = [r for r in (orient(rel, order) for rel in relations)
             if r is not None]
    return RewriteSystem(alphabet, _reference_interreduce(alphabet, rules, order),
                         order)


def _reference_complete(rs, d, incremental=False):
    """Every round scans every ambiguity, or with `incremental` only those
    whose key no earlier round met, as `complete` does."""
    current = rs
    resolved = set() if incremental else None
    while True:
        obstructions = _reference_overlaps(current, d, resolved)
        if not obstructions:
            return RewriteSystem(current.alphabet, current.rules, current.order,
                                 d)
        polys = [r.as_poly(current.alphabet) for r in current.rules]
        polys += [ob.diff for ob in obstructions]
        assert len(polys) <= rewrite.RULE_CAP
        rules = [orient(p, current.order) for p in polys]
        rules = _reference_interreduce(
            current.alphabet, [r for r in rules if r is not None],
            current.order)
        current = RewriteSystem(current.alphabet, rules, current.order)


def _obstruction_keys(obstructions):
    return [(ob.word, ob.rule_i, ob.rule_j, ob.diff) for ob in obstructions]


def _rule_keys(rules):
    """Each rule with its rhs terms in their stored order."""
    return [(r.lhs, list(r.rhs.terms.items())) for r in rules]


def _rule_polys(keys):
    """`_rule_keys` with each rhs as a map word -> scalar, whatever the
    order of its terms; an error type as it is."""
    if isinstance(keys, type):
        return keys
    return [(lhs, dict(terms)) for lhs, terms in keys]


def test_overlaps_match_all_pairs_scan_on_catalog(monkeypatch):
    # every scan of a fresh catalog build (its completion rounds, which
    # meet systems that are not clean and skip the ambiguities that earlier
    # rounds resolved) and one full scan degree past its completion
    found = {}
    original = RewriteSystem.check_overlaps

    def checked(rs, d, resolved=None):
        before = None if resolved is None else set(resolved)
        out = original(rs, d, resolved)
        assert _obstruction_keys(out) == \
            _obstruction_keys(_reference_overlaps(rs, d, before))
        assert resolved == before
        found[name] += len(out)
        return out

    monkeypatch.setattr(RewriteSystem, "check_overlaps", checked)
    for name, entry in CATALOG.items():
        found[name] = 0
        rs = entry.build(**entry.defaults).rewrite
        assert rs.check_overlaps(rs.completion_degree) == []
        rs.check_overlaps(rs.completion_degree + 1)
    # the rules of Onp(2,1) have no ambiguity at all; every other
    # build resolves some
    assert [n for n, k in found.items() if not k] == ["Onp"], found


AB = Alphabet(["a", "b"])
AB_ORDER = MonomialOrder(AB)
_words_over = lambda n, lo, hi: st.lists(st.integers(0, n - 1), min_size=lo,
                                         max_size=hi).map(tuple)
_words = lambda lo, hi: _words_over(2, lo, hi)


# the lhs of a rule and its rhs terms by the length of the lhs, built
# once: a strategy built inside a draw is validated again on every draw
_lhs = _words(1, 3)
_rhs_terms = {n: st.dictionaries(_words(0, n - 1), st.integers(-2, 2).filter(bool),
                                 max_size=3) for n in (1, 2, 3)}


@st.composite
def _rule(draw):
    """A rule over {a, b}: lhs of length 1..3, rhs of shorter words, so
    that reduction terminates under the degree-lexicographic order."""
    lhs = draw(_lhs)
    terms = draw(_rhs_terms[len(lhs)])
    rhs = NCPoly(AB, {w: ScalarQ.from_int(c) * ScalarQ.q_power(len(w))
                      for w, c in terms.items()})
    return RewriteRule(lhs, rhs)


_aa = RewriteRule((0, 0), NCPoly(AB, {(1,): S_ONE}))
_aa2 = RewriteRule((0, 0), NCPoly(AB, {(): S_ONE}))
_bab = RewriteRule((1, 0, 1), NCPoly(AB, {(0,): S_ONE}))
_bb = NCPoly(AB, {(1, 1): S_ONE})
_baab = NCPoly(AB, {(1, 0, 0, 1): S_ONE})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_rule(), max_size=6), st.integers(2, 5))
# a self-overlap, a duplicated lhs, an inclusion of a in bab
@example([_aa], 3)
@example([_aa, _aa2, _bab], 4)
@example([_bab, RewriteRule((0,), NCPoly(AB, {(): S_ONE}))], 5)
def test_overlaps_match_all_pairs_scan_random(rules, d):
    rs = RewriteSystem(AB, rules, AB_ORDER)
    assert _obstruction_keys(rs.check_overlaps(d)) == \
        _obstruction_keys(_reference_overlaps(rs, d))


def _outcome(fn, *args):
    """The rule keys fn returns, or the type of the error it raises."""
    try:
        return _rule_keys(fn(*args))
    except rewrite.RewriteError as e:
        return type(e)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_rule(), max_size=6))
# a*a -> 1 turns a*a*a -> 0 into a -> 0, whose lhs then occurs in a*a:
# the lhs index must follow a rule that changes
@example([RewriteRule((0, 0, 0), NCPoly.zero(AB)), _aa2])
# a*a*b -> b*b becomes a*a*b -> a mid-pass, through b*b -> a.  The rhs
# b*a*a*b of the first rule reduces to a*b before that change, the same
# rhs of the last rule to b*a after it: a normal form kept from before a
# change is stale
@example([RewriteRule((0, 0, 0, 0, 0), _baab), RewriteRule((0, 0, 1), _bb),
          RewriteRule((1, 1), NCPoly(AB, {(0,): S_ONE})),
          RewriteRule((0, 1, 0, 1, 0), _baab)])
# the lhs b*a is reducible by a -> 2, so b*a -> 0 becomes b -> 0.  The
# one rewrite of b*a (to 2b) is its normal form by the others only: a*b*a
# -> 0 reduces through b*a by the new b -> 0
@example([RewriteRule((1, 0), NCPoly.zero(AB)),
          RewriteRule((0,), NCPoly(AB, {(): ScalarQ.from_int(2)})),
          RewriteRule((0, 1, 0), NCPoly.zero(AB))])
# the lhs a*a*a*a of the first rule is reducible by a*a -> -q*a, and the
# lead word of the result is not the first of its words.  When that rule
# is reduced again, its words are summed in that order, not lead first
@example([RewriteRule((0, 0, 0, 0), NCPoly(AB, {
              (0, 1, 1): -2 * Q * Q * Q, (0,): -2 * Q,
              (1, 0, 1): 2 * Q * Q * Q, (): ScalarQ.from_int(2)})),
          RewriteRule((1, 0, 0), NCPoly(AB, {(0,): -2 * Q, (1,): 2 * Q})),
          RewriteRule((0, 0), NCPoly(AB, {(0,): -Q}))])
def test_interreduce_matches_reference_random(rules):
    assert _outcome(rewrite._interreduce, AB, rules, AB_ORDER) == \
        _outcome(_reference_interreduce, AB, rules, AB_ORDER)


def test_write_path_matches_reference(monkeypatch):
    built = {name: catalog(name) for name in CATALOG}
    family = ("GLq2", "Uq2", "GLq2m2", "Uq2m2", "GLqm22")
    degree6 = {name: built[name].ensure_degree(6) for name in family}
    monkeypatch.setattr(presentations, "build_system", _reference_build_system)
    monkeypatch.setattr(presentations, "complete", _reference_complete)
    for name, entry in CATALOG.items():
        ref = entry.build(**entry.defaults)
        assert _rule_keys(ref.rewrite.rules) == \
            _rule_keys(built[name].rewrite.rules), name
    for name in family:
        ref = _reference_complete(built[name].rewrite, 6)
        assert _rule_keys(ref.rules) == \
            _rule_keys(degree6[name].rewrite.rules), name


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# degrees up to 4: at degree 5 a few random systems take over 10 s each,
# their Q(q) coefficients growing through the completion rounds
@given(st.lists(_rule(), max_size=6),
       st.sampled_from([(2, 3), (2, 4), (3, 4)]))
# a*b*b -> 0 and b*a -> 1 - 2q*a are clean at degree 3.  At degree 4 they
# give rules for a*b, b*b and a*a, whose ambiguities of degree 3 are new
# and must be examined: they rewrite b to a polynomial in a
@example([RewriteRule((0, 1, 1), NCPoly.zero(AB)),
          RewriteRule((1, 0), NCPoly(AB, {(): S_ONE, (0,): -2 * Q}))], (3, 4))
# b*b*b -> 0 and a*b*b -> 1 + q^2*a*a + q^2*b*a, completed to 2 then 4.  In
# its fourth round the full scan meets again the ambiguity of b*b*b and
# b*b*a, resolved the round before, and adds its difference as a rule; the
# rules of a*a*a end with their rhs terms stored in different orders
@example([RewriteRule((1, 1, 1), NCPoly.zero(AB)),
          RewriteRule((0, 1, 1), NCPoly(AB, {(): S_ONE, (0, 0): Q * Q,
                                             (1, 0): Q * Q}))], (2, 4))
def test_complete_matches_reference_random(rules, degrees):
    # a completion to d1, then one to d2 > d1 over the rules it returned
    d1, d2 = degrees

    def twice(complete_to, rs):
        return complete_to(complete_to(rs, d1), d2).rules

    def incremental(rs, d):
        return _reference_complete(rs, d, incremental=True)

    rs = RewriteSystem(AB, rules, AB_ORDER)
    got = _outcome(twice, complete, rs)
    assert got == _outcome(twice, incremental, rs)
    assert _rule_polys(got) == \
        _rule_polys(_outcome(twice, _reference_complete, rs))


def _catalog_completions():
    """(name, rewrite system) of every catalog build, each coaction's base
    and total, and each 2x2 algebra completed to degree 6."""
    for name in CATALOG:
        yield name, catalog(name).rewrite
        if CATALOG[name].coaction is not None:
            c = presentations.coaction(name)
            yield f"{name} base", c.base.rewrite
            yield f"{name} total", c.total.rewrite
    for name in ("GLq2", "Uq2", "GLq2m2", "Uq2m2", "GLqm22"):
        yield f"{name} at 6", catalog(name).ensure_degree(6).rewrite


def test_catalog_completions_are_clean_under_all_pairs_scan():
    for name, rs in _catalog_completions():
        assert _reference_overlaps(rs, rs.completion_degree) == [], name


def _scalar_key(c):
    """A scalar as the (exponent, coefficient) pairs of its numerator and
    of its denominator, by exponent."""
    return sorted(c.num.coeffs.items()), sorted(c.den.coeffs.items())


def test_completed_rules_are_pinned():
    """One sha256 over the systems of `_catalog_completions` and AuF
    completed to degree 4 (822 rules): for each system its name, then
    each rule as the repr of (lhs, [(word, `_scalar_key`) for each rhs
    term in stored order]), then the repr of its word basis at its
    completion degree.  A change to a rule, to the order of the terms of
    an rhs, or to a word basis changes the digest; recompute it only for
    a change meant to alter the rules."""
    systems = list(_catalog_completions())
    systems.append(("AuF at 4", catalog("AuF").ensure_degree(4).rewrite))
    digest = hashlib.sha256()
    for name, rs in systems:
        digest.update(name.encode())
        for rule in rs.rules:
            terms = [(w, _scalar_key(c)) for w, c in rule.rhs.terms.items()]
            digest.update(repr((rule.lhs, terms)).encode())
        digest.update(repr(word_basis(rs, rs.completion_degree)).encode())
    assert sum(len(rs.rules) for _, rs in systems) == 822
    assert digest.hexdigest() == \
        "ea35789b205f4ebc5991d65ec94443860e8a20da3245395229160bcff3ba720f"


@pytest.mark.slow
def test_coefficient_growth_case_is_pinned():
    """a*a*b -> 2 - q*a - q^2*b*b and b*b*b -> -2q^2*a*b + q^2*b*a - q^2*b*b,
    completed to degree 4 and then 5: the Q(q) coefficients grow through
    the rounds, and the polynomial gcds under them take over 10 s.  One
    sha256 over each completed rule as the repr of (lhs, rhs.pretty())."""
    q2 = Q * Q
    rules = [RewriteRule((0, 0, 1), NCPoly(AB, {(): 2 * S_ONE, (0,): -Q,
                                                (1, 1): -q2})),
             RewriteRule((1, 1, 1), NCPoly(AB, {(0, 1): -2 * q2, (1, 0): q2,
                                                (1, 1): -q2}))]
    done = complete(complete(RewriteSystem(AB, rules, AB_ORDER), 4), 5)
    digest = hashlib.sha256()
    for rule in done.rules:
        digest.update(repr((rule.lhs, rule.rhs.pretty())).encode())
    assert len(done.rules) == 5
    assert digest.hexdigest() == \
        "ce8b2246e90f0d6485cb23d908aaf9c52512666539bcf87200b923ec1a7cfbf7"


ABC = Alphabet(["a", "b", "c"])
# 1 and -1, monomials, and two quotients with a denominator
_COEFFS = [S_ONE, -S_ONE, 2 * Q, ScalarQ.from_fraction(Fraction(-1, 3)) / (Q * Q),
           (1 + Q) / (2 - Q), Q / (1 - Q * Q)]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_words_over(3, 0, 3), st.sampled_from(_COEFFS),
                       max_size=6),
       st.permutations(range(3)))
def test_orient_rewrites_the_leading_word_to_smaller_words(terms, perm):
    # an independent deglex under the generator order perm, smallest first
    rank = {g: pos for pos, g in enumerate(perm)}
    below = lambda u, v: (len(u), [rank[g] for g in u]) < \
        (len(v), [rank[g] for g in v])
    p = NCPoly(ABC, terms)
    order = MonomialOrder(ABC, perm)
    if p.is_zero():
        assert orient(p, order) is None
        return
    (lead,) = [w for w in p.terms
               if all(below(u, w) for u in p.terms if u != w)]
    if lead == ():
        with pytest.raises(TrivialIdealError):
            orient(p, order)
        return
    rule = orient(p, order)
    assert rule.lhs == lead
    assert all(below(w, rule.lhs) for w in rule.rhs.terms)
    assert rule.as_poly(ABC) == p.scale(p.terms[lead].inv())


def _term_by_term_normal_form(rs, poly):
    """nf(poly) as the sum of c * v over each term c*w of poly and each
    term v*u of nf(w), in that order."""
    acc = {}
    for word, c in poly.terms.items():
        for w, v in rs._nf_word(word).items():
            add_term(acc, w, c * v)
    return NCPoly(rs.alphabet, acc)


def test_normal_form_matches_term_by_term_sum(glq2, uq2m2, rng):
    for p in (glq2, uq2m2):
        for _ in range(100):
            x = random_poly(rng, p.alphabet, degree=4, terms=8)
            got = p.rewrite.normal_form(x)
            want = _term_by_term_normal_form(p.rewrite, x)
            assert list(got.terms.items()) == list(want.terms.items())


def test_completion_examines_each_ambiguity_once(monkeypatch):
    # count the overlap sides summed in each completion round, two per
    # ambiguity; a round that only meets ambiguities of earlier rounds
    # sums none
    calls, rounds = [], []
    add_nf, scan = rewrite._add_nf, RewriteSystem.check_overlaps
    monkeypatch.setattr(rewrite, "_add_nf",
                        lambda *a: calls.append(1) or add_nf(*a))

    def counted(rs, *args):
        start = len(calls)
        out = scan(rs, *args)
        rounds.append(len(calls) - start)
        return out

    monkeypatch.setattr(RewriteSystem, "check_overlaps", counted)
    counts = {}
    for name, entry in CATALOG.items():
        rounds.clear()
        p = entry.build(**entry.defaults)
        counts[name] = list(rounds)
        if name in ("GLq2", "Uq2", "GLq2m2", "Uq2m2", "GLqm22"):
            rounds.clear()
            p.ensure_degree(6)
            counts[f"{name} at 6"] = list(rounds)
    # Onp(2,1) is clean in one round; every other completion adds rules,
    # and its last round meets only ambiguities resolved before
    assert counts.pop("Onp") == [8]
    for name, per_round in counts.items():
        assert len(per_round) > 1 and per_round[-1] == 0, (name, per_round)
        assert min(per_round[:-1]) > 0, (name, per_round)


def test_interreduce_moves_one_index_entry_per_changed_rule(monkeypatch):
    # after each move the lhs index is the one LhsIndex builds for the
    # rules it holds, and it holds the changed rule under its new lhs only
    moves = []
    move = LhsIndex.move

    def checked(index, idx, old, new):
        move(index, idx, old, new)
        lhs_of = {i: lhs for lhs, idxs in index.lhs_map.items() for i in idxs}
        assert len(lhs_of) == sum(map(len, index.lhs_map.values()))
        assert lhs_of.get(idx) == (None if new is None else new.lhs)
        fresh = LhsIndex([_lhs_only(lhs_of[i]) if i in lhs_of else None
                          for i in range(max(lhs_of) + 1)])
        assert (index.lhs_map, index.lengths) == (fresh.lhs_map, fresh.lengths)
        moves.append(idx)

    monkeypatch.setattr(LhsIndex, "move", checked)
    entry = CATALOG["AuFG"]
    entry.build(**entry.defaults)
    assert moves


def test_aufg_build_skips_rebuilds(monkeypatch):
    # reducing each rule by a fresh system of the others builds 332
    # systems for one AuFG build, and reducing only the rules that an lhs
    # index finds reducible builds 40.  Inter-reduction on one memo builds
    # none: one system for build_system and one for the completion round
    # that adds rules
    builds = []
    init = RewriteSystem.__init__
    monkeypatch.setattr(RewriteSystem, "__init__",
                        lambda self, *a, **k: builds.append(1) or init(self, *a, **k))
    entry = CATALOG["AuFG"]
    entry.build(**entry.defaults)
    assert 0 < len(builds) <= 2
