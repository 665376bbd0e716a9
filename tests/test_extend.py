"""extend_reduced: maps extended from generators to words, reduced as they
are extended."""

import pytest

from conftest import zero_free

from qgal.ncpoly import NCPoly, TensorPoly, apply_map
from qgal.presentations import catalog, coaction, delta_ext, extend_reduced
from qgal.rewrite import RewriteSystem, word_basis
from qgal.scalars import S_ONE


def _reduced_once(images, legs, word):
    """The product of the generator images of `word`, taken unreduced and
    then reduced leg by leg through normal_form."""
    t = TensorPoly.one([p.alphabet for p in legs])
    for x in word:
        t = t * images[x]
    return apply_map(t, lambda key: TensorPoly.of(*(
        p.nf(NCPoly(p.alphabet, {w: S_ONE})) for p, w in zip(legs, key))),
        TensorPoly(t.alphabets))


def _case(kind, name):
    if kind == "alpha":
        c = coaction(name)
        return c.alpha, (c.base, c.total), c.total
    p = catalog(name)
    return p.hopf.delta, (p, p), p


@pytest.mark.parametrize("kind, name, d",
                         [("delta", "Uq2", 4), ("alpha", "Uq2m2", 4), ("delta", "AuF", 2)])
def test_extend_reduced_equals_reducing_once(kind, name, d):
    images, legs, source = _case(kind, name)
    ext = extend_reduced(images, legs)
    basis = word_basis(source.rewrite, d)
    for word in basis:
        assert ext(word) == _reduced_once(images, legs, word), word
    # the memo holds reduced tensors only: each leg word is normal, and no
    # coefficient that reduce_legs summed is zero
    normal = [set(word_basis(p.rewrite, d)) for p in legs]
    assert len(ext.memo) >= len(basis)
    for t in ext.memo.values():
        assert zero_free(t)
        for key in t.terms:
            assert all(w in n for w, n in zip(key, normal)), key


def test_delta_ext_work_on_uq2_degree_6(monkeypatch):
    # the bound separates reducing as one extends (11,255 leg normal forms
    # here) from reducing each product once at the end (21,730)
    p = catalog("Uq2").ensure_degree(6)
    basis = word_basis(p.rewrite, 6)
    assert len(basis) == 406
    calls = [0]
    nf_word = RewriteSystem._nf_word

    def counting(self, word):
        calls[0] += 1
        return nf_word(self, word)

    monkeypatch.setattr(RewriteSystem, "_nf_word", counting)
    ext = delta_ext(p)
    for b in basis:
        ext(b)
    assert calls[0] < 16_000


def reduced_over_reach(images, legs, word, left=()):
    """(t, reach): t the product of the generator images of `word`, taken
    unreduced and then reduced once, each leg by its presentation
    completed to reach, the length of the longest word in that leg."""
    t = TensorPoly.one([p.alphabet for p in legs])
    for x in word:
        t = t.times(images[x], left)
    reach = [max(map(len, words)) for words in zip(*t.terms)]
    systems = [p.ensure_degree(d).rewrite for p, d in zip(legs, reach)]
    return apply_map(t, lambda key: TensorPoly.of(*(
        rs.normal_form(NCPoly(rs.alphabet, {w: S_ONE})) for rs, w in zip(systems, key))),
        TensorPoly(t.alphabets)), reach


def test_extension_deepens_its_legs_as_words_grow(uq2, c_uq):
    # Uq2, and both legs of Uq2m2's coaction, are built to degree 4; a
    # word that reaches past it deepens the legs it reaches, where the
    # extension used to refuse it.  With x -> x*x (x) x a word of degree
    # 3 reaches degree 6 in the first leg and 3 in the second.
    squares = {g: TensorPoly.of(uq2.alphabet.gen(n) * uq2.alphabet.gen(n),
                                uq2.alphabet.gen(n))
               for g, n in enumerate(uq2.alphabet.names)}
    cases = [(uq2.hopf.delta, (uq2, uq2), (0,) * 5, [5, 5]),
             (squares, (uq2, uq2), (0, 1, 2), [6, 3]),
             (c_uq.alpha, (c_uq.base, c_uq.total), (0,) * 5, [5, 5])]
    for images, legs, word, reached in cases:
        assert [p.rewrite.completion_degree for p in legs] == [4, 4]
        ext = extend_reduced(images, legs)
        short = ext(word[:2])
        assert ext.legs == list(legs)
        want, reach = reduced_over_reach(images, legs, word)
        assert reach == reached
        assert ext(word) == want, word
        assert ext.legs == [p.ensure_degree(d) for p, d in zip(legs, reach)]
        # a memo entry made before the legs deepened stays as it was
        assert ext(word[:2]) is short
        assert short == reduced_over_reach(images, legs, word[:2])[0]
