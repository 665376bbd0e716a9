"""extend_reduced: maps extended from generators to words, reduced as they
are extended."""

import pytest

from qgal.ncpoly import NCPoly, TensorPoly, apply_map
from qgal.presentations import alpha_ext, catalog, coaction, delta_ext, extend_reduced
from qgal.rewrite import ConfluenceError, RewriteSystem, word_basis
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
    # the memo holds reduced tensors only: each leg word is normal
    normal = [set(word_basis(p.rewrite, d)) for p in legs]
    assert len(ext.memo) >= len(basis)
    for t in ext.memo.values():
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


def test_extension_refuses_words_above_the_completion_degree(uq2, c_uq):
    assert uq2.rewrite.completion_degree == 4
    word = (0,) * 5
    with pytest.raises(ConfluenceError, match="Uq2: degree 5"):
        delta_ext(uq2)(word)
    assert delta_ext(uq2.ensure_degree(5))(word) == \
        _reduced_once(uq2.hopf.delta, (uq2, uq2), word)
    # the bound counts the degree of the images: with x -> x*x (x) x a
    # word of degree 3 reaches degree 6 in the first leg
    squares = {g: TensorPoly.of(uq2.alphabet.gen(n) * uq2.alphabet.gen(n),
                                uq2.alphabet.gen(n))
               for g, n in enumerate(uq2.alphabet.names)}
    ext = extend_reduced(squares, (uq2, uq2))
    assert ext((0, 1)) == _reduced_once(squares, (uq2, uq2), (0, 1))
    with pytest.raises(ConfluenceError, match="degree 6"):
        ext((0, 1, 2))
    # alpha's legs: the total of Uq2m2 is certified to 4 as built
    with pytest.raises(ConfluenceError):
        alpha_ext(c_uq)((0,) * 5)
