"""Normal forms in finitely presented algebras via oriented rewriting.

Rules rewrite a leading word to a strictly smaller polynomial under a
degree-lexicographic order, so reduction terminates and never raises
degree.  One `LhsIndex` of the lhs words finds where a rule applies.
Bounded completion adds oriented differences of divergent reductions
until every ambiguity up to a degree resolves.

The criterion is Bergman's diamond lemma (G. M. Bergman, The diamond
lemma for ring theory, Adv. Math. 29 (1978), Thm 1.2): when every
ambiguity of degree <= d is resolvable relative to the order, the words
of degree <= d have unique normal forms.  Completion resolves each
ambiguity relative to the order, and examines each one once per
completion (see `complete`).  A system's `completion_degree` is the one
certificate: every ambiguity of degree <= it resolves (-1 for none).
Only `complete` states it; `word_basis` reads it, and `check_overlaps`
is a plain scan that certifies nothing.

The write path builds no throwaway systems or polynomial products.  The
two sides of an ambiguity are summed from the system's normal-form memo.
Inter-reduction keeps one memo of normal forms by every live rule, and
clears it whenever a rule changes.  That memo serves rule i, to be
reduced by the others, because under deglex a word below lhs_i never
contains lhs_i, nor does any of its reducts (see `_interreduce`).
"""

from __future__ import annotations

from bisect import insort

from .ncpoly import AlgebraError, Alphabet, NCPoly, _ncpoly
from .report import Undecided
from .scalars import S_ONE, add_term


class RewriteError(AlgebraError):
    pass


class TrivialIdealError(RewriteError):
    """A reduction produced a nonzero scalar: the ideal contains 1."""


class CompletionBudgetError(RewriteError, Undecided):
    pass


class ConfluenceError(RewriteError, Undecided):
    pass


RULE_CAP = 500  # the most rules a completion round may hold


class MonomialOrder:
    """Degree-lexicographic order on words, given a generator permutation.

    `generators` lists generator indices from smallest to largest.
    """

    __slots__ = ("rank", "key")

    def __init__(self, alphabet: Alphabet, generators=None):
        if generators is None:
            generators = list(range(len(alphabet)))
        if sorted(generators) != list(range(len(alphabet))):
            raise RewriteError("the generator order must be a permutation of the alphabet")
        rank = [0] * len(alphabet)
        for pos, gen in enumerate(generators):
            rank[gen] = pos
        self.rank = tuple(rank)
        # under the identity order a word is its own rank tuple
        self.key = _deglex if rank == sorted(rank) else self._ranked

    def _ranked(self, word):
        return (len(word), tuple(self.rank[i] for i in word))


def _deglex(word):
    return (len(word), word)


class RewriteRule:
    """lhs -> rhs: a word rewritten to a polynomial of smaller words."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: tuple, rhs: NCPoly):
        init = object.__setattr__
        init(self, "lhs", lhs)
        init(self, "rhs", rhs)

    def __setattr__(self, name, value):
        raise AttributeError("RewriteRule is immutable")

    def __eq__(self, other):
        if not isinstance(other, RewriteRule):
            return NotImplemented
        return self.lhs == other.lhs and self.rhs == other.rhs

    def as_poly(self, alphabet) -> NCPoly:
        return NCPoly(alphabet, {self.lhs: S_ONE}) - self.rhs


def orient(poly: NCPoly, order: MonomialOrder) -> RewriteRule | None:
    """Turn a relation (poly = 0) into a rule rewriting its leading word."""
    if poly.is_zero():
        return None
    # the order is a permutation of the generators, so no two words share
    # a key: every other word of poly lies below the leading one
    lead = max(poly.terms, key=order.key)
    if not lead:
        raise TrivialIdealError("relation reduces to a nonzero scalar")
    c = poly.terms[lead]
    if c == S_ONE:
        rhs = {w: -v for w, v in poly.terms.items() if w != lead}
    else:
        f = -c.inv()
        rhs = {w: f * v for w, v in poly.terms.items() if w != lead}
    return RewriteRule(lead, _ncpoly(poly.alphabet, rhs))


class LhsIndex:
    """The lhs words of a list of rules, read by normal forms,
    inter-reduction, word bases and inclusion ambiguities.  `lhs_map` maps
    each lhs to the indices of its rules in increasing order; `lengths`
    maps each first letter of an lhs to the lengths of the lhs that start
    with it, longest first.  A rule that is None (reduced away) is left out
    but keeps its index."""

    __slots__ = ("lhs_map", "lengths")

    def __init__(self, rules):
        self.lhs_map = {}
        for idx, rule in enumerate(rules):
            if rule is not None:
                self.lhs_map.setdefault(rule.lhs, []).append(idx)
        lengths = {}
        for lhs in self.lhs_map:
            lengths.setdefault(lhs[0], set()).add(len(lhs))
        self.lengths = {g: sorted(ms, reverse=True) for g, ms in lengths.items()}

    def match(self, word, skip=None):
        """Leftmost occurrence in `word` of the lhs of a rule whose index
        is not `skip`, as (position, rule index, lhs length), or None.  At
        one position the longest lhs wins, then the smallest index."""
        get, lengths = self.lhs_map.get, self.lengths
        n = len(word)
        for pos in range(n):
            for m in lengths.get(word[pos], ()):
                if pos + m <= n:
                    for idx in get(word[pos : pos + m], ()):
                        if idx != skip:
                            return pos, idx, m
        return None

    def move(self, idx, old, new):
        """Rule idx changed from `old` to `new` (None when reduced away).
        Only the lengths under the first letters of the two lhs change."""
        lhs_map, lengths = self.lhs_map, self.lengths
        idxs = lhs_map[old.lhs]
        idxs.remove(idx)
        if not idxs:
            del lhs_map[old.lhs]
            g, m = old.lhs[0], len(old.lhs)
            if not any(len(w) == m and w[0] == g for w in lhs_map):
                lengths[g].remove(m)
                if not lengths[g]:
                    del lengths[g]
        if new is not None:
            insort(lhs_map.setdefault(new.lhs, []), idx)
            ms = lengths.setdefault(new.lhs[0], [])
            if len(new.lhs) not in ms:
                ms.append(len(new.lhs))
                ms.sort(reverse=True)


def _reduce_word(word, rules, match, cache):
    """Normal form of `word` by `rules`, whose lhs `match` (an
    `LhsIndex.match`) finds, as a map word -> scalar.  The normal form of
    every word met on the way is stored in `cache`.

    Each word is matched once: a reducible word goes back on the stack
    under the list of its children (the words of its one rewrite, with
    their coefficients), and above them the children not yet reduced.
    When the list comes back to the top, every child is reduced, and the
    word below it is their sum."""
    stack = [word]
    while stack:
        cur = stack.pop()
        if cur.__class__ is list:
            acc = {}
            for child, c in cur:
                for w, v in cache[child].items():
                    add_term(acc, w, c if v is S_ONE else c * v)
            cache[stack.pop()] = acc
            continue
        if cur in cache:
            continue
        m = match(cur)
        if m is None:
            cache[cur] = {cur: S_ONE}
            continue
        pos, idx, llen = m
        prefix, suffix = cur[:pos], cur[pos + llen :]
        children = []
        stack.append(cur)
        stack.append(children)
        for w, c in rules[idx].rhs.terms.items():
            child = prefix + w + suffix
            children.append((child, c))
            if child not in cache:
                stack.append(child)
    return cache[word]


def _add_nf(acc, terms, nf, prefix=(), suffix=()):
    """Add c * nf(prefix + w + suffix) to the map `acc` for each (w, c) of
    `terms`, in order, and return it.  nf(word) is a map word -> scalar."""
    for w, c in terms:
        for u, v in nf(prefix + w + suffix).items():
            add_term(acc, u, c if v is S_ONE else c * v)
    return acc


class RewriteSystem:
    """Immutable oriented rewriting system with a memoized normal form.
    Its `completion_degree` certifies that every ambiguity of degree <= it
    resolves, -1 for none; `complete` states it."""

    def __init__(self, alphabet: Alphabet, rules, order: MonomialOrder,
                 completion_degree: int = -1):
        self.alphabet = alphabet
        self.order = order
        self.rules = tuple(rules)
        self.completion_degree = completion_degree
        self.index = LhsIndex(self.rules)
        self._nf_cache = {(): {(): S_ONE}}

    # -- normal form -------------------------------------------------------

    def _nf_word(self, word):
        """Normal form of a single word as a map word -> scalar."""
        hit = self._nf_cache.get(word)
        if hit is not None:
            return hit
        return _reduce_word(word, self.rules, self.index.match, self._nf_cache)

    def normal_form(self, poly: NCPoly) -> NCPoly:
        if poly.alphabet != self.alphabet:
            raise RewriteError("polynomial is over a different alphabet")
        return _ncpoly(self.alphabet,
                       _add_nf({}, poly.terms.items(), self._nf_word))

    # -- overlaps and completion ------------------------------------------

    def _ambiguities(self, d: int):
        """Every ambiguity of degree <= d as (i, j, key), in the order of
        the all-pairs scan: for each rule i, for each rule j, the overlaps
        of a suffix of lhs_i with a prefix of lhs_j by increasing length
        k, then the inclusions of lhs_j (j != i) in lhs_i by increasing
        position.  key is (lhs_i, lhs_j, 0, k) for an overlap and
        (lhs_i, lhs_j, 1, position) for an inclusion.

        The candidate pairs come from two indexes instead of a scan of all
        pairs: rules by each proper prefix of their lhs (an overlap of
        length k is lhs_j with the prefix lhs_i[-k:]) and the system's lhs
        index (an inclusion is lhs_j equal to a subword of lhs_i).
        """
        rules = self.rules
        by_lhs = self.index.lhs_map
        by_prefix = {}
        for j, rule in enumerate(rules):
            for k in range(1, len(rule.lhs)):
                by_prefix.setdefault(rule.lhs[:k], []).append(j)
        for i, r1 in enumerate(rules):
            l1 = r1.lhs
            n1 = len(l1)
            # (j, 0, k) for an overlap of length k, (j, 1, pos) for an
            # inclusion at pos; sorted, they are in the all-pairs order
            found = []
            for k in range(1, n1):
                for j in by_prefix.get(l1[-k:], ()):
                    if n1 + len(rules[j].lhs) - k <= d:
                        found.append((j, 0, k))
            # inclusion ambiguities, including duplicated left-hand sides
            # (should not appear when inter-reduced)
            if n1 <= d:
                for pos in range(n1):
                    for end in range(pos + 1, n1 + 1):
                        for j in by_lhs.get(l1[pos:end], ()):
                            if j != i:
                                found.append((j, 1, pos))
            found.sort()
            for j, kind, at in found:
                yield i, j, (l1, rules[j].lhs, kind, at)

    def check_overlaps(self, d: int, resolved=None):
        """Every ambiguity of degree <= d whose two reductions disagree,
        in the order of `_ambiguities`: empty when all of them resolve.  A
        plain scan at any degree that certifies nothing, which `complete`
        runs and tests read as an oracle.  Completion appends the
        differences in this order, so it fixes the order of the completed
        rules.

        With a set `resolved` of ambiguity keys, the ambiguities whose key
        is in it are skipped, and the keys of the others join it after the
        scan: `complete` examines each ambiguity once.

        Each side of an ambiguity is summed word by word from the system's
        normal-form memo (`_add_nf`), with no polynomial product, and the
        right side is then subtracted from the left in the order of its
        terms.  The memo is never cleared, since the rules never change.
        """
        rules = self.rules
        nf = self._nf_word
        out, examined = [], []
        for i, j, key in self._ambiguities(d):
            if resolved is not None:
                if key in resolved:
                    continue
                examined.append(key)
            l1, l2, kind, at = key
            rhs1, rhs2 = rules[i].rhs.terms.items(), rules[j].rhs.terms.items()
            if kind == 0:
                word = l1 + l2[at:]
                diff = _add_nf({}, rhs1, nf, (), l2[at:])
                right = _add_nf({}, rhs2, nf, l1[: len(l1) - at])
            else:
                word = l1
                diff = _add_nf({}, rhs1, nf)
                right = _add_nf({}, rhs2, nf, l1[:at], l1[at + len(l2) :])
            for w, v in right.items():
                add_term(diff, w, -v)
            if diff:
                out.append(Obstruction(word, i, j, _ncpoly(self.alphabet, diff)))
        if resolved is not None:
            resolved.update(examined)
        return out


class Obstruction:
    """An ambiguity at `word` of rules rule_i and rule_j whose two
    reductions differ by the nonzero `diff`."""

    __slots__ = ("word", "rule_i", "rule_j", "diff")

    def __init__(self, word: tuple, rule_i: int, rule_j: int, diff: NCPoly):
        self.word = word
        self.rule_i = rule_i
        self.rule_j = rule_j
        self.diff = diff


def build_system(alphabet, relations, order):
    """Orient a relation list into an inter-reduced rewrite system, with
    no degree certified: `complete` certifies one."""
    rules = [r for r in (orient(rel, order) for rel in relations) if r is not None]
    rules = _interreduce(alphabet, rules, order)
    return RewriteSystem(alphabet, rules, order)


def _interreduce(alphabet, rules, order):
    """Reduce every rule by the others until no rule changes.

    Rule i is reduced only when its lhs or an rhs word contains the lhs of
    another live rule, which an `LhsIndex` of the live rules answers.  It
    becomes nf(lhs_i - rhs_i) by the others, summed over the words of the
    relation in the order its last reduction left them (lhs first before).

    One memo of normal forms by every live rule serves all the rules, and
    it is cleared whenever a rule changes.  Under deglex a word below
    lhs_i never contains lhs_i (a word that does is lhs_i or longer), nor
    does any of its reducts, so the others reduce it as every live rule
    does.  That covers the rhs words and the words that one rewrite of
    lhs_i (`index.match(lhs, i)`) gives; the result of that rewrite is
    never stored.  An irreducible lhs_i gives lhs_i -> nf(rhs_i) with no
    orienting; a reducible one is oriented again and moves in the index.
    The rules and their order are those that reducing each rule by a
    fresh system of the others on every pass gives.

    Whether rule i is reducible depends on rule i and the live lhs only:
    a changed rhs never makes another rule reducible, nor does a rule
    reduced away, which only removes its lhs.  So a rule found irreducible
    when `adds` lhs had been added to the index (`clean_at`) is skipped
    until an lhs is added.
    """
    rules = list(rules)
    # the position of each lhs among the words of its relation
    lead_at = [0] * len(rules)
    index = LhsIndex(rules)
    adds = 0
    clean_at = [-1] * len(rules)
    memo = {}
    nf = lambda w: _reduce_word(w, rules, index.match, memo)
    changed = True
    while changed:
        changed = False
        for i, rule in enumerate(rules):
            if rule is None or clean_at[i] == adds:
                continue
            lhs = rule.lhs
            step = index.match(lhs, i)
            if step is not None:
                pos, j, m = step
                lhs_nf = _add_nf({}, rules[j].rhs.terms.items(), nf,
                                 lhs[:pos], lhs[pos + m :])
            elif any(index.match(w) for w in rule.rhs.terms):
                lhs_nf = {lhs: S_ONE}
            else:
                clean_at[i] = adds
                continue
            rhs = list(rule.rhs.terms.items())
            p = lead_at[i]
            # nf(rhs_i - lhs_i): lhs_i - rhs_i up to sign, which the
            # orientation removes
            reduced = _add_nf({}, rhs[:p], nf)
            for w, v in lhs_nf.items():
                add_term(reduced, w, -v)
            _add_nf(reduced, rhs[p:], nf)
            # a word of the relation is reducible, so rule i changes
            changed = True
            memo.clear()
            if step is None:
                lead_at[i] = list(reduced).index(lhs)
                del reduced[lhs]
                rules[i] = RewriteRule(lhs, _ncpoly(alphabet, reduced))
                continue
            rules[i] = orient(_ncpoly(alphabet, reduced), order)
            index.move(i, rule, rules[i])
            if rules[i] is not None:
                adds += 1
                lead_at[i] = list(reduced).index(rules[i].lhs)
    return [r for r in rules if r is not None]


def complete(rs: RewriteSystem, d: int) -> RewriteSystem:
    """Bounded-degree completion: resolve all overlap obstructions of
    degree <= d by adding oriented differences of divergent reductions.

    `rs` itself when its completion degree reaches d.  Otherwise each
    round inter-reduces the rules of the current system, passed through
    as they are, followed by orient(diff) for each obstruction in the
    order `check_overlaps` lists them; that order fixes the order of the
    completed rules.  The system returned records d as its completion
    degree: the last round's own system, or, when `rs` is already clean
    up to d, a copy of it with the same rules that shares its normal-form
    memo.  No system given to `complete` is changed.  A round that would
    hold more than RULE_CAP rules raises CompletionBudgetError.

    Each ambiguity is examined once per completion.  The set `resolved`
    holds the keys (lhs_i, lhs_j, kind, position) of the ambiguities
    examined in earlier rounds, seeded with those of degree <=
    rs.completion_degree; a round examines only the others.  This is
    sound by Bergman's diamond lemma (G. M. Bergman, The diamond lemma
    for ring theory, Adv. Math. 29 (1978), Thm 1.2).  An ambiguity at w
    that reduced to a common value, or whose difference was added as a
    rule, is resolvable relative to the order: its two sides differ by an
    element of I_w, the span of the a*(lhs - rhs)*b with a*lhs*b < w.  It
    stays so in every later system.  An added rule only enlarges I_w.
    Inter-reduction rewrites a rule's lhs - rhs through the others at
    words <= its lhs, so I_w never shrinks.  A rule whose rhs changed
    differs from the old one by an element of I_lhs, and a rule whose lhs
    changed has new keys.  So the final system has every ambiguity of
    degree <= d resolvable relative to the order: condition (b) of the
    lemma up to degree d, which is equivalent to unique normal forms (a)
    and to the normal words spanning a complement of the ideal (c).
    """
    if d <= rs.completion_degree:
        return rs
    current = rs
    # a system that certifies no degree (-1) has no ambiguity to seed
    resolved = set()
    if rs.completion_degree >= 0:
        resolved.update(key for _, _, key in rs._ambiguities(rs.completion_degree))
    while obstructions := current.check_overlaps(d, resolved):
        # inter-reduction never adds a rule, so this caps the next system
        if len(current.rules) + len(obstructions) > RULE_CAP:
            raise CompletionBudgetError(f"completion exceeded rule cap {RULE_CAP}")
        # each diff is nonzero, so each orients to a rule
        rules = list(current.rules)
        rules += [orient(ob.diff, current.order) for ob in obstructions]
        rules = _interreduce(current.alphabet, rules, current.order)
        current = RewriteSystem(current.alphabet, rules, current.order)
    if current is rs:
        current = RewriteSystem(rs.alphabet, rs.rules, rs.order)
        current._nf_cache = rs._nf_cache
    current.completion_degree = d
    return current


def word_basis(rs: RewriteSystem, d: int):
    """All normal words of length <= d, sorted by the monomial order.

    By the diamond lemma they are a basis of the degree truncation when
    the system is completed to d, so this raises ConfluenceError when d
    exceeds its completion degree; it scans no overlap.  A negative d
    raises RewriteError.
    """
    if d < 0:
        raise RewriteError(f"word degree must be >= 0, got {d}")
    if d > rs.completion_degree:
        raise ConfluenceError(
            f"degree {d} exceeds completion bound {rs.completion_degree}"
        )
    ngen = len(rs.alphabet)
    lhs_map = rs.index.lhs_map
    lengths = {len(lhs) for lhs in lhs_map}
    words = []

    def extend(word):
        words.append(word)
        if len(word) == d:
            return
        for g in range(ngen):
            w = word + (g,)
            # word is normal, so an lhs in w ends at its last letter
            if not any(w[-m:] in lhs_map for m in lengths):
                extend(w)

    extend(())
    words.sort(key=rs.order.key)
    return words
