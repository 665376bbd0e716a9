"""Catalog of the q-deformed algebras with their Hopf structure, star
structure and coaction data, plus the structural verification operations
(star well-definedness, Hopf axioms with Delta a *-map on a *-algebra,
comodule-algebra axioms).

The registry CATALOG holds one entry per catalog name: GLq2, Uq2, GLq2m2,
Uq2m2, GLqm22, Onp, AuFG and AuF.  Each builder writes its structure as
matrix identities over a block of generators, all products by mat_mul.

The readers here certify what they read, unique by Bergman's diamond
lemma (Adv. Math. 29, 1978), so no caller works out a completion depth:
`Presentation.nf` completes the rewrite system to the degree of its
argument, `Presentation.basis(d)` to d, and `reduce_legs`, which
`extend_reduced` extends through, each slot of a tensor to its longest
word, writing the certified copies back into its list of legs.  The
completions are copies from `ensure_degree`, and a certified normal
form is the same in every copy.  A file target is built to degree 3.
`verify_star` alone reduces uncertified, for a zero test that needs no
certificate (see there).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import reduce
from operator import add, mul

from .ncpoly import (
    AlgebraError,
    Alphabet,
    NCPoly,
    StarMap,
    TensorPoly,
    _tensor,
    apply_map,
    extend_anti,
    parse_expr,
    parse_tensor,
)
from .report import Report, timed
from .rewrite import MonomialOrder, RewriteSystem, build_system, complete, word_basis
from .scalars import Q, S_ONE, S_ZERO, ScalarQ, add_term


class CatalogError(AlgebraError):
    pass


class Presentation:
    """A named finite presentation: generators, the defining relations as
    written, the rewrite system that is their completion (its rules
    generate the same ideal), optional star and Hopf data, and the block
    of generators its builder wrote the relations in (None for a file).
    Immutable once built; ensure_degree gives a copy over a longer
    completion, which nf and basis read."""

    __slots__ = ("name", "alphabet", "relations", "rewrite", "star", "hopf",
                 "block", "_certified")

    def __init__(self, name: str, alphabet: Alphabet, relations: list,
                 rewrite: RewriteSystem, star: StarMap | None = None,
                 hopf: "HopfData | None" = None, block: list | None = None):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "alphabet", alphabet)
        init(self, "relations", relations)
        init(self, "rewrite", rewrite)
        init(self, "star", star)
        init(self, "hopf", hopf)
        init(self, "block", block)
        # completion degree -> the presentation as built and each copy that
        # ensure_degree made of it: one dict, which they all share
        init(self, "_certified", {rewrite.completion_degree: self})

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def nf(self, poly):
        """The normal form of poly, certified unique."""
        return self.ensure_degree(poly.degree()).rewrite.normal_form(poly)

    def basis(self, d: int):
        """The normal words of length <= d, sorted by the monomial order: a
        basis of the degree-d truncation."""
        return word_basis(self.ensure_degree(d).rewrite, d)

    def ensure_degree(self, d: int) -> "Presentation":
        """This presentation with normal forms certified unique for all
        words of degree <= d: self when its completion degree reaches d,
        otherwise the shallowest copy that reaches d, or, when there is
        none, a copy over the system as built, completed to d.  The
        copies are memoised and shared by the presentation as built and
        every copy of it, so one d always gives back the same object.
        Certified normal forms do not depend on the copy that gives them."""
        if d <= self.rewrite.completion_degree:
            return self
        copies = self._certified
        reach = [k for k in copies if k >= d]
        if reach:
            return copies[min(reach)]
        out = Presentation(self.name, self.alphabet, self.relations,
                           complete(copies[min(copies)].rewrite, d), self.star,
                           self.hopf, self.block)
        object.__setattr__(out, "_certified", copies)
        copies[d] = out
        return out

    def deepest(self) -> "Presentation":
        """The copy over the longest completion that ensure_degree has
        made of this presentation, or the presentation as built."""
        return self._certified[max(self._certified)]

    def parse(self, src) -> NCPoly:
        return parse_expr(src, self.alphabet)

    def gen(self, name) -> NCPoly:
        return self.alphabet.gen(name)


class HopfData:
    """Coproduct, counit and antipode on generators.  No grading: the Haar
    layer derives the finest row and column gradings from Delta and the
    rules (haar.hopf_grading), so none can disagree with the data."""

    __slots__ = ("delta", "counit", "antipode")

    def __init__(self, delta: dict, counit: dict, antipode: dict):
        self.delta = delta          # generator index -> TensorPoly (A, A)
        self.counit = counit        # generator index -> scalar
        self.antipode = antipode    # generator index -> NCPoly


class CoactionData:
    """A coaction alpha: Z -> A (x) Z of the base A on the total Z;
    immutable.  Its readers certify the legs they reduce.  It carries no
    grading: the Haar layer reads Z's off alpha (haar.extension_grading)."""

    __slots__ = ("base", "total", "alpha")

    def __init__(self, base: Presentation, total: Presentation, alpha: dict):
        init = object.__setattr__
        init(self, "base", base)
        init(self, "total", total)
        init(self, "alpha", alpha)    # generator index of Z -> TensorPoly (A, Z)

    def __setattr__(self, name, value):
        raise AttributeError("CoactionData is immutable")


# ---------------------------------------------------------------------------
# extension helpers
# ---------------------------------------------------------------------------


def extend_reduced(images, legs, left=()):
    """The map given on generators by `images` (generator -> TensorPoly)
    extended to words, antimultiplicatively on the legs in `left` and
    multiplicatively on the others, each leg reduced by the presentation
    of its slot.  It reduces as it extends, memoised on prefixes: ext(w x)
    = reduce_legs(ext(w).times(images[x], left), ext.legs), so `ext.memo`
    holds reduced tensors only.  That equals reducing the whole product
    once, since reduce_legs certifies each slot as deep as its words
    reach.  `ext.legs` holds the presentations of the slots as deep as
    they have been certified; a memo entry stays valid as they deepen,
    since certified normal forms do not change."""
    legs = list(legs)
    memo = {(): TensorPoly.one(tuple(p.alphabet for p in legs))}

    def ext(word):
        out = memo.get(word)
        if out is None:
            out = memo[word] = reduce_legs(
                ext(word[:-1]).times(images[word[-1]], left), legs)
        return out

    ext.legs = legs
    ext.memo = memo
    return ext


def delta_ext(p: Presentation):
    """Delta extended to words of A, both legs reduced."""
    return extend_reduced(p.hopf.delta, (p, p))


def alpha_ext(c: CoactionData):
    """Coaction extended to words of Z, both legs reduced."""
    return extend_reduced(c.alpha, (c.base, c.total))


def reduce_legs(t: TensorPoly, legs: list) -> TensorPoly:
    """t with each leg reduced by the presentation of its slot, certified
    to the longest word that slot holds, in one pass over the terms of t.
    The list of legs, such as an `ext.legs`, takes the certified copies in
    place, so that it holds its slots as deep as any reduction through it
    certified them."""
    reach = [max(map(len, words)) for words in zip(*t.terms)]
    legs[:len(reach)] = [p.ensure_degree(d) for p, d in zip(legs, reach)]
    systems = [p.rewrite for p in legs]
    out = {}
    for key, c in t.terms.items():
        terms = [((), c)]
        for rs, word in zip(systems, key):
            terms = [(k + (w,), v if cw is S_ONE else v * cw)
                     for k, v in terms for w, cw in rs._nf_word(word).items()]
        for k, v in terms:
            add_term(out, k, v)
    return _tensor(t.alphabets, out)


def expand_leg(t: TensorPoly, leg, fn, inner_alphabets) -> TensorPoly:
    """Replace one leg by the multi-leg image of each of its words."""
    alphabets = t.alphabets[:leg] + tuple(inner_alphabets) + t.alphabets[leg + 1 :]
    out = {}
    for k, c in t.terms.items():
        img = fn(k[leg])
        for ik, ic in img.terms.items():
            add_term(out, k[:leg] + ik + k[leg + 1 :], c * ic)
    return TensorPoly(alphabets, out)


# ---------------------------------------------------------------------------
# matrices over the generators
# ---------------------------------------------------------------------------


def block_names(prefix, n, p, suffix=""):
    """The n x p matrix of names <prefix><i><j><suffix>, each index padded
    with zeros to the width of max(n, p): (1, 11) and (11, 1) differ."""
    w = len(str(max(n, p)))
    return [[f"{prefix}{i:0{w}}{j:0{w}}{suffix}" for j in range(1, p + 1)]
            for i in range(1, n + 1)]


def generator_block(alphabet, prefix, n, p, suffix=""):
    """The n x p matrix of the generators named by block_names."""
    return [[alphabet.gen(name) for name in row]
            for row in block_names(prefix, n, p, suffix)]


def on_block(block, mat):
    """A map on generators given by a matrix: the index of the generator
    block[i][j] -> mat[i][j]."""
    return {next(iter(g.terms))[0]: e
            for gens, row in zip(block, mat) for g, e in zip(gens, row)}


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def star_entries(star, M):
    """M with the star map applied entrywise."""
    return [[star.apply(e) for e in row] for row in M]


def star_transpose(star, M):
    """M*, the transpose of star_entries(star, M)."""
    return transpose(star_entries(star, M))


def mat_mul(A, B, times=mul):
    """The matrix product A B: entry (i, j) is the sum over k, in
    increasing order, of times(A_ik, B_kj), and unequal inner dimensions
    raise ValueError.  The default multiplies scalars, NCPolys, or a
    scalar and an NCPoly; times=TensorPoly.of gives sum_k A_ik (x) B_kj,
    the shape of a matrix coproduct, coaction or translation map."""
    return [[reduce(add, [times(a, b[j]) for a, b in zip(row, B, strict=True)])
             for j in range(len(B[0]))] for row in A]


def unitarity_defects(M, Mst):
    """The entries of M M* - I and of M* M - I, as two lists in row-major
    order, for an n x p matrix M of NCPoly and its star-transpose Mst.
    M is unitary when all of them vanish."""
    one = NCPoly.one(M[0][0].alphabet)

    def defects(L, R):
        return [s - one if i == j else s
                for i, row in enumerate(mat_mul(L, R)) for j, s in enumerate(row)]

    return defects(M, Mst), defects(Mst, M)


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------

_CACHE = {}


def catalog(name, **params):
    """Build (and cache) a catalog presentation by name.

    Parameters left out take the entry's defaults before the cache key is
    formed, so a call with the defaults spelled out shares the entry of
    the call without them.  Returns the Presentation; Hopf data rides on
    presentation.hopf and the associated coaction, when one exists, is
    available through `coaction(name, **params)`.
    """
    entry = _catalog_entry(name)
    params = {**entry.defaults, **params}
    key = (name, _freeze(params))
    if key not in _CACHE:
        _CACHE[key] = entry.build(**params)
    return _CACHE[key]


def coaction(name, **params) -> CoactionData:
    """Coaction data for the extensions in the catalog."""
    entry = _catalog_entry(name)
    if entry.coaction is None:
        raise CatalogError(f"no coaction data for {name!r}")
    return entry.coaction(**{**entry.defaults, **params})


def _catalog_entry(name) -> "CatalogEntry":
    try:
        return CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown catalog name {name!r}") from None


def _freeze(params):
    out = []
    for k in sorted(params):
        v = params[k]
        if isinstance(v, list):
            v = tuple(tuple(to_scalar(x) for x in row) for row in v)
        out.append((k, v))
    return tuple(out)


def to_scalar(x):
    """x as an element of Q(q): a ScalarQ as it is, else Fraction(x)."""
    if isinstance(x, ScalarQ):
        return x
    return ScalarQ.from_fraction(Fraction(x))


def scalar_matrix(M):
    """M with every entry taken to Q(q) by to_scalar."""
    return [[to_scalar(x) for x in row] for row in M]


def matrix_fq(sign=1):
    """The 3x3 twist matrix with q replaced by sign*q."""
    qq = Q if sign > 0 else -Q
    z, o = S_ZERO, S_ONE
    return [[z, o, z], [-qq, z, z], [z, z, o]]


def _finish(name, alphabet, relations, order, star=None, hopf=None,
            completion_degree=4, block=None):
    rs = complete(build_system(alphabet, relations, order), completion_degree)
    for rel in relations:
        if not rs.normal_form(rel).is_zero():
            raise CatalogError(f"{name}: defining relation does not reduce to 0")
    return Presentation(name, alphabet, list(relations), rs, star=star,
                        hopf=hopf, block=block)


def _build_glq2(star: bool):
    A = Alphabet(["x11", "x12", "x21", "x22", "t"])
    P = lambda s: parse_expr(s, A)
    relations = [
        P("x12*x11 - q*x11*x12"),
        P("x21*x11 - q*x11*x21"),
        P("x22*x12 - q*x12*x22"),
        P("x22*x21 - q*x21*x22"),
        P("x12*x21 - x21*x12"),
        P("x11*x22 - x22*x11 - (q^-1 - q)*x12*x21"),
        P("x11*t - t*x11"),
        P("x22*t - t*x22"),
        P("x12*t - t*x12"),
        P("x21*t - t*x21"),
        P("(x11*x22 - q^-1*x12*x21)*t - 1"),
    ]
    idx = A.index
    x = generator_block(A, "x", 2, 2)
    det = P("x11*x22 - q^-1*x12*x21")
    smap = None
    if star:
        smap = StarMap(A, {**on_block(x, [[P("x22*t"), P("-q^-1*x21*t")],
                                          [P("-q*x12*t"), P("x11*t")]]),
                           idx["t"]: det})
    delta = on_block(x, mat_mul(x, x, TensorPoly.of))
    delta[idx["t"]] = TensorPoly.of(A.gen("t"), A.gen("t"))
    counit = on_block(x, [[S_ONE, S_ZERO], [S_ZERO, S_ONE]])
    counit[idx["t"]] = S_ONE
    antipode = on_block(x, [[P("x22*t"), P("-q*x12*t")],
                            [P("-q^-1*x21*t"), P("x11*t")]])
    antipode[idx["t"]] = det
    hopf = HopfData(delta, counit, antipode)
    return _finish("Uq2" if star else "GLq2", A, relations, MonomialOrder(A),
                   star=smap, hopf=hopf, block=x)


def _build_glq2m2(star: bool):
    # tau first so tau is smallest: z_ij * tau rewrites toward tau-left words
    A = Alphabet(["tau", "z11", "z12", "z21", "z22"])
    P = lambda s: parse_expr(s, A)
    relations = [
        P("z12*z11 + q*z11*z12"),
        P("z21*z11 - q*z11*z21"),
        P("z22*z12 - q*z12*z22"),
        P("z22*z21 + q*z21*z22"),
        P("z12*z21 + z21*z12"),
        P("z11*z22 + z22*z11 - (q - q^-1)*z12*z21"),
        P("z11*tau + tau*z11"),
        P("z22*tau + tau*z22"),
        P("z12*tau + tau*z12"),
        P("z21*tau + tau*z21"),
        P("(z11*z22 + q^-1*z12*z21)*tau - 1"),
    ]
    z = generator_block(A, "z", 2, 2)
    smap = None
    if star:
        smap = StarMap(A, {**on_block(z, [[P("z22*tau"), P("q^-1*z21*tau")],
                                          [P("q*tau*z12"), P("tau*z11")]]),
                           A.index["tau"]: P("z11*z22 + q^-1*z12*z21")})
    return _finish("Uq2m2" if star else "GLq2m2", A, relations,
                   MonomialOrder(A), star=smap, block=z)


def _build_glqm22():
    A = Alphabet(["xi", "t11", "t12", "t21", "t22"])
    P = lambda s: parse_expr(s, A)
    relations = [
        P("t12*t11 - q*t11*t12"),
        P("t21*t11 + q*t11*t21"),
        P("t22*t12 + q*t12*t22"),
        P("t22*t21 - q*t21*t22"),
        P("t12*t21 + t21*t12"),
        P("t11*t22 + t22*t11 - (q^-1 - q)*t12*t21"),
        P("t11*xi + xi*t11"),
        P("t12*xi + xi*t12"),
        P("t21*xi + xi*t21"),
        P("t22*xi + xi*t22"),
        P("(t11*t22 - q^-1*t12*t21)*xi - 1"),
    ]
    t = generator_block(A, "t", 2, 2)
    return _finish("GLqm22", A, relations, MonomialOrder(A), block=t)


def _coaction_glq_family(base: Presentation, total: Presentation) -> CoactionData:
    Ai, Zi, z = base.alphabet, total.alphabet, total.block
    alpha = on_block(z, mat_mul(base.block, z, TensorPoly.of))
    alpha[Zi.index["tau"]] = TensorPoly.of(Ai.gen("t"), Zi.gen("tau"))
    return CoactionData(base, total, alpha)


def _star_alphabet(prefix, n, p):
    """(A, star, z, zbar): the alphabet of an n x p block z of generators
    named by block_names and of their entrywise stars zbar, the same
    names with an "s" appended, with the star map that swaps the two
    blocks.  The starred names come in reverse, z_np* first and z_11*
    last, so that the identity deglex order makes the relations of a
    unitary block, and those of AuF and AuFG, inter-reduce to rules with
    quadratic lhs whose ambiguities all resolve: by the diamond lemma, a
    system complete in every degree as built."""
    names = sum(block_names(prefix, n, p), [])
    A = Alphabet(names + [f"{name}s" for name in reversed(names)])
    z, zbar = generator_block(A, prefix, n, p), generator_block(A, prefix, n, p, "s")
    star = StarMap(A, {**on_block(z, zbar), **on_block(zbar, z)})
    return A, star, z, zbar


def _build_onp(n, p):
    if n < 1 or p < 1:
        raise CatalogError("Onp requires n, p >= 1")
    A, smap, a, abar = _star_alphabet("a", n, p)
    relations = sum(unitarity_defects(a, transpose(abar)), [])
    return _finish(f"Onp({n},{p})", A, relations, MonomialOrder(A), star=smap,
                   completion_degree=3, block=a)


def _build_aufg(F, G):
    from .linalg import mat_inv

    F, G = scalar_matrix(F), scalar_matrix(G)
    Finv = mat_inv(F)   # also validates invertibility
    Ginv = mat_inv(G)
    A, smap, z, zbar = _star_alphabet("z", len(F), len(G))
    B = mat_mul(mat_mul(F, zbar), Ginv)
    Bst = star_transpose(smap, B)
    # z unitary, then B unitary; each as M M* - I, then M* M - I
    relations = sum(unitarity_defects(z, transpose(zbar))
                    + unitarity_defects(B, Bst), [])
    hopf = None
    if F == G:
        hopf = _auf_hopf(z, zbar, F, Finv, Bst)
    name = "AuF" if F == G else "AuFG"
    return _finish(name, A, relations, MonomialOrder(A), star=smap, hopf=hopf,
                   completion_degree=3, block=z)


def _auf_hopf(z, zbar, F, Finv, Bst):
    """Hopf data of AuF on the square block z and its entrywise star
    zbar; Bst is the star-transpose of B = F zbar F^-1."""
    n = len(z)
    delta = on_block(z, mat_mul(z, z, TensorPoly.of))
    delta.update(on_block(zbar, mat_mul(zbar, zbar, TensorPoly.of)))
    # z_ij and z_ij* in turn, the order a counit character lists them in
    pairs = [[g, gs] for row, srow in zip(z, zbar) for g, gs in zip(row, srow)]
    counit = on_block(pairs, [[S_ONE if i == j else S_ZERO] * 2
                              for i in range(n) for j in range(n)])
    antipode = on_block(z, transpose(zbar))
    # S(zbar) = F^-1 B* F, the inverse of the conjugate matrix
    antipode.update(on_block(zbar, mat_mul(mat_mul(Finv, Bst), F)))
    return HopfData(delta, counit, antipode)


def _coaction_aufg(base: Presentation, total: Presentation) -> CoactionData:
    alpha = {}
    for x, z in ((base.block, total.block),  # z and zbar coact alike
                 (star_entries(base.star, base.block),
                  star_entries(total.star, total.block))):
        alpha.update(on_block(z, mat_mul(x, z, TensorPoly.of)))
    return CoactionData(base, total, alpha)


# ---------------------------------------------------------------------------
# the catalog registry
# ---------------------------------------------------------------------------


class CatalogEntry:
    """How to build one catalog target, and the data that comes with it."""

    __slots__ = ("build", "defaults", "coaction", "base_names")

    def __init__(self, build: Callable, defaults: dict | None = None,
                 coaction: Callable | None = None, base_names: bool = False):
        init = object.__setattr__
        init(self, "build", build)                # (**params) -> Presentation
        init(self, "defaults", {} if defaults is None else defaults)
        init(self, "coaction", coaction)          # (**params) -> CoactionData
        # whether the coaction's base may share the target's generator
        # names, so that its counit can carry over as a character
        init(self, "base_names", base_names)

    def __setattr__(self, name, value):
        raise AttributeError("CatalogEntry is immutable")


CATALOG = {
    "GLq2": CatalogEntry(lambda: _build_glq2(star=False)),
    "Uq2": CatalogEntry(lambda: _build_glq2(star=True)),
    "GLq2m2": CatalogEntry(
        lambda: _build_glq2m2(star=False),
        coaction=lambda: _coaction_glq_family(catalog("GLq2"),
                                              catalog("GLq2m2"))),
    "Uq2m2": CatalogEntry(
        lambda: _build_glq2m2(star=True),
        coaction=lambda: _coaction_glq_family(catalog("Uq2"),
                                              catalog("Uq2m2"))),
    "GLqm22": CatalogEntry(_build_glqm22),
    "Onp": CatalogEntry(_build_onp, defaults={"n": 2, "p": 1}),
    "AuFG": CatalogEntry(
        _build_aufg, defaults={"F": matrix_fq(1), "G": matrix_fq(-1)},
        coaction=lambda F, G: _coaction_aufg(catalog("AuF", F=F),
                                             catalog("AuFG", F=F, G=G)),
        base_names=True),
    "AuF": CatalogEntry(lambda F: _build_aufg(F, F),
                        defaults={"F": matrix_fq(1)}),
}


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------


def verify_star(p: Presentation) -> Report:
    """Star well-definedness: starred relations vanish modulo the ideal,
    and star is involutive on every generator.

    The checked relation set is the completed rule list, which generates
    the same ideal as the input relations and reduces each of them to 0.
    A starred rule is reduced by the system as built, uncertified: a
    zero residual proves it lies in the ideal at any completion degree,
    and certifying star(rule) to its degree would deepen the system
    (to 8 on Uq2m2) for nothing.  Only a nonzero residual is recomputed
    certified, and the item fails on that.
    """
    if p.star is None:
        raise CatalogError(f"{p.name} carries no star structure")
    report = Report(f"star({p.name})")
    with timed(report):
        checked = [rule.as_poly(p.alphabet) for rule in p.rewrite.rules]
        for k, rel in enumerate(checked):
            starred = p.star.apply(rel)
            residual = p.rewrite.normal_form(starred)
            if not residual.is_zero():
                residual = p.nf(starred)
            report.add_zero(f"star(relation {k + 1}) reduces to 0", residual)
        for name in p.alphabet.names:
            g = p.alphabet.gen(name)
            report.add_zero(f"star involutive on {name}",
                            p.nf(p.star.apply(p.star.apply(g)) - g))
    return report


def verify_hopf(p: Presentation) -> Report:
    h = p.hopf
    if h is None:
        raise CatalogError(f"{p.name} carries no Hopf data")
    report = Report(f"hopf({p.name})")
    A = p.alphabet
    with timed(report):
        dext = extend_reduced(h.delta, (p, p))
        eps = extend_anti(h.counit, S_ONE)
        sext = extend_anti(h.antipode, NCPoly.one(A))
        for rel in p.relations:
            report.add_zero("Delta kills relation " + _short(rel),
                            apply_map(rel, dext, TensorPoly((A, A))))
            report.add("epsilon kills relation " + _short(rel),
                       apply_map(rel, eps, S_ZERO).is_zero())
        for gi, name in enumerate(A.names):
            d = h.delta[gi]
            left, right = (reduce_legs(expand_leg(d, leg, dext, (A, A)), [p, p, p])
                           for leg in (0, 1))
            report.add(f"coassociativity on {name}", left == right)
            lhs = apply_map(d, lambda k: NCPoly(A, {k[1]: eps(k[0])}), NCPoly.zero(A))
            rhs = apply_map(d, lambda k: NCPoly(A, {k[0]: eps(k[1])}), NCPoly.zero(A))
            g_nf = p.nf(A.gen(name))
            report.add(f"counit law on {name}", p.nf(lhs) == g_nf and p.nf(rhs) == g_nf)
            m_s1 = apply_map(d, lambda k: sext(k[0]) * NCPoly(A, {k[1]: S_ONE}),
                             NCPoly.zero(A))
            m_1s = apply_map(d, lambda k: NCPoly(A, {k[0]: S_ONE}) * sext(k[1]),
                             NCPoly.zero(A))
            target = NCPoly.scalar(A, h.counit[gi])
            ok = p.nf(m_s1 - target).is_zero() and p.nf(m_1s - target).is_zero()
            report.add(f"antipode law on {name}", ok)
        if p.star is not None:
            add_star_map(report, "Delta", h.delta, dext, p, p)
    return report


def verify_coaction(c: CoactionData) -> Report:
    report = Report(f"coaction({c.total.name} over {c.base.name})")
    A, Z = c.base.alphabet, c.total.alphabet
    legs = [c.base, c.base, c.total]
    with timed(report):
        aext = alpha_ext(c)
        for rel in c.total.relations:
            report.add_zero("alpha kills relation " + _short(rel),
                            apply_map(rel, aext, TensorPoly((A, Z))))
        if c.base.hopf is None:
            report.add_undecided("coassociativity (base has no Hopf data)")
        else:
            dext = delta_ext(c.base)
            eps = extend_anti(c.base.hopf.counit, S_ONE)
            for gi, name in enumerate(Z.names):
                a = c.alpha[gi]
                left = reduce_legs(expand_leg(a, 0, dext, (A, A)), legs)
                right = reduce_legs(expand_leg(a, 1, aext, (A, Z)), legs)
                report.add(f"coassociativity on {name}", left == right)
                lhs = apply_map(a, lambda k: NCPoly(Z, {k[1]: eps(k[0])}),
                                NCPoly.zero(Z))
                report.add(f"counit law on {name}",
                           c.total.nf(lhs) == c.total.nf(Z.gen(name)))
        if c.base.star is not None and c.total.star is not None:
            add_star_map(report, "alpha", c.alpha, aext, c.base, c.total)
    return report


def add_star_map(report: Report, label, images, ext, base, source):
    """Add one item "<label> is a *-map on g" per generator g of source,
    for a map source -> base (x) source given on generators by `images`
    and extended to words by `ext`, legs reduced: the image of g* must
    equal (* (x) *) of the image of g."""
    A, Z = base.alphabet, source.alphabet
    for gi, name in enumerate(Z.names):
        lhs = apply_map(source.star.apply(Z.gen(name)), ext, TensorPoly((A, Z)))
        rhs = apply_map(images[gi], lambda k: TensorPoly.of(
            base.star.of_word(k[0]), source.star.of_word(k[1])), TensorPoly((A, Z)))
        rhs = reduce_legs(rhs, [base, source])
        report.add(f"{label} is a *-map on {name}", lhs == rhs)


def _short(poly: NCPoly) -> str:
    s = poly.pretty()
    return s if len(s) <= 40 else s[:37] + "..."


def findim_rep_obstruction(n: int, p: int) -> bool:
    """Whether a finite-dimensional *-representation of the universal
    unitary (n,p)-matrix algebra can exist.

    On a d-dimensional space, tr(aa*) = tr(a*a) forces n*d = p*d, so the
    answer is simply n == p.
    """
    if n < 1 or p < 1:
        raise CatalogError("n, p must be >= 1")
    return n == p


# ---------------------------------------------------------------------------
# presentation / coaction file DSL
# ---------------------------------------------------------------------------


def _sections(text: str):
    """directive -> [(line number, rest of the line, column of the rest)]
    for the lines of a DSL text that hold more than a comment, in one
    pass; `_checked` says which directives a file may give."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, col = _stripped(raw.split("#", 1)[0], 1)
        if line:
            head = line.split(maxsplit=1)[0]
            out.setdefault(head, []).append(
                (lineno, *_stripped(line[len(head):], col + len(head))))
    return out


def _checked(sections, heads, once):
    """The sections of a DSL text with a list for each directive of
    heads.  The first line in the text whose directive is not in heads,
    or that gives one of once again, is a CatalogError naming it."""
    errors = [(lines[0][0], f"unknown directive {head!r}") if head not in heads
              else (lines[1][0], f"{head!r} given again (first on line {lines[0][0]})")
              for head, lines in sections.items()
              if head not in heads or head in once and len(lines) > 1]
    if errors:
        raise CatalogError("line {}: {}".format(*min(errors)))
    return {head: sections.get(head, []) for head in heads}


def _stripped(s, col):
    """(s without surrounding whitespace, the column where that begins),
    for s beginning at column col."""
    t = s.lstrip()
    return t.rstrip(), col + len(s) - len(t)


def _images(lines, alphabet, parse, what):
    """generator index -> parse(expr, place) for the `g -> expr` lines,
    given as (line number, text, column), where place is the (line,
    column) of expr in the file.  Each generator of alphabet is given
    once; `what` names the images in the errors."""
    images, first = {}, {}
    for lineno, rest, col in lines:
        gname, _, expr = rest.partition("->")
        expr, ecol = _stripped(expr, col + len(gname) + 2)
        gname = gname.strip()
        g = alphabet.index.get(gname)
        if g is None:
            raise CatalogError(f"line {lineno}: unknown generator {gname!r}")
        if g in first:
            raise CatalogError(f"line {lineno}: {what} for {gname!r} given again "
                               f"(first on line {first[g]})")
        first[g] = lineno
        images[g] = parse(expr, (lineno, ecol))
    missing = [n for n in alphabet.names if alphabet.index[n] not in images]
    if missing:
        raise CatalogError(f"{what} missing for generators: {missing}")
    return images


def read_dsl(text: str):
    """(sections, names): the lines of a DSL text by directive, read once
    (see _sections), and the (Z, A) names of its 'coaction Z over A' line,
    or None for a text without one; a CatalogError when there are
    several.  The parsers below take the sections as they are."""
    sections = _sections(text)
    lines = sections.get("coaction")
    if lines:
        _checked({"coaction": lines}, ("coaction",), ("coaction",))
    return sections, lines and _over(lines[0][1])


def parse_presentation_text(text: str, sections=None) -> Presentation:
    """Parse the presentation DSL, completed to degree 3:

        algebra NAME
        generators g1 g2 ...
        order g1 < g2 < ...           (optional; defaults to listed order)
        star g -> expr                (optional, one per generator)
        relation expr                 (one per line; expr = 0)

    `sections` is the text as read_dsl read it, when it has been read.
    """
    headers = ("algebra", "generators", "order")
    lines = _checked(_sections(text) if sections is None else sections,
                     (*headers, "star", "relation"), headers)
    name, gen_names, order_names = (lines[h][0][1] if lines[h] else None
                                    for h in headers)
    gen_names = gen_names and gen_names.split()
    if not name or not gen_names:
        raise CatalogError("presentation file needs 'algebra' and 'generators'")
    # an identifier as the expression tokenizer reads one
    bad = [g for g in gen_names if not (g[:1].isalpha() and g.isalnum())]
    if bad:
        raise CatalogError(f"generator names must be identifiers: {bad}")
    try:
        A = Alphabet(gen_names)
    except AlgebraError as e:
        raise CatalogError(str(e)) from None
    if order_names is not None:
        order_names = [t.strip() for t in order_names.split("<")]
        if sorted(order_names) != sorted(gen_names):
            raise CatalogError("order line must list every generator once")
        order = MonomialOrder(A, [A.index[n] for n in order_names])
    else:
        order = MonomialOrder(A)
    relations = [parse_expr(src, A, (lineno, col))
                 for lineno, src, col in lines["relation"]]
    smap = None
    if lines["star"]:
        smap = StarMap(A, _images(lines["star"], A, lambda src, at: parse_expr(src, A, at),
                                  "star images"))
    return _finish(name, A, relations, order, star=smap, completion_degree=3)


def _over(rest):
    """(Z, A) of the rest "Z over A" of a coaction line."""
    zname, _, aname = rest.partition(" over ")
    return zname.strip(), aname.strip()


def parse_coaction_text(text: str, resolve, sections=None) -> CoactionData:
    """Parse the coaction DSL:

        coaction ZNAME over ANAME
        alpha g -> tensor             (one per generator of Z)

    where tensor is a signed sum of terms exprA (x) exprZ, each expr a
    product (see ncpoly's grammar).  `resolve` maps a name to a
    Presentation (catalog or parsed file); `sections` is as in
    parse_presentation_text.
    """
    lines = _checked(_sections(text) if sections is None else sections,
                     ("coaction", "alpha"), ("coaction",))
    if not lines["coaction"]:
        raise CatalogError("coaction file needs a 'coaction Z over A' line")
    total, base = map(resolve, _over(lines["coaction"][0][1]))
    alpha = _images(lines["alpha"], total.alphabet, lambda src, at: parse_tensor(
        src, base.alphabet, total.alphabet, at), "alpha")
    return CoactionData(base, total, alpha)
