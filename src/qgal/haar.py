"""Invariant (Haar) functionals on degree truncations.

On a Hopf presentation the Haar functional J is the unique solution of
the right-invariance system (J (x) id) Delta(b) = J(b) * 1 with J(1) = 1
over the normal-word basis of the truncation.  On a comodule-algebra
extension the Haar measure is the convolution mu = (J (x) f) alpha with
any auxiliary functional normalized by f(1) = 1; uniqueness makes the
choice of f immaterial, which the tests exercise.  Positivity is
numerical evidence at sample q, clearly labeled as such: the Gram
eigenvalues come from `linalg.eigvalsh`, and a Gram matrix whose
eigenvalues do not converge gives an undecided item, never a pass.

The solve runs one elimination per graded block.  A grading gives each
generator a vector in Z^n and a word the sum over its letters, and none
is declared.  The row and column gradings `left` and `right` of a Hopf
presentation are the finest for which every rule as built is homogeneous
and Delta(g) has left legs of grade left(g), respectively right legs of
grade right(g).  Each condition asks two words for one grade, so the
gradings that hold form the kernel of the differences of their letter
counts; `hopf_grading` grades a generator by its coordinates in a basis
of it (`linalg.nullspace`, scaled to ints), and any grading that holds is
coarser.  `extension_grading` gives a generator g of a coaction's total
Z the one row grade of alpha(g)'s left legs, which must have one letter
at most, and checks Z's rules as built for it.  Homogeneous rules reduce
a word to words of its grade, so the rules of every deeper copy the
solve reads through are homogeneous too.  A kernel of 0, or a coaction
that fails a check or grades all of Z 0, puts every word in grade ():
one block, the whole system.  Why the blocks are exact, with E_b the
equations of Delta(b):

  - By homogeneity the system is block-diagonal by left(b): the unknowns
    of E_b are J on words of grade left(b), and J(b) itself when
    right(b) = 0.
  - If right(b) != 0, Delta(b) has no empty right leg, so E_b holds
    J(b) = 0; no Delta is needed to know that.
  - Let G be the set of left(w) over the basis words w with right(w) = 0.
    A block whose grade is not in G is homogeneous with every unknown
    pinned, so 0 solves it, uniquely.

So J is solved over the words b with left(b) in G, from their equations
alone, and is 0 on every other word: one elimination per grade in G
(`linalg.solve_blocks`), with J(1) = 1 in the block of grade 0.  No
equation spans two blocks, so uniqueness and inconsistency are decided
block by block as by the whole system.  For mu the left legs of alpha(b)
are words of grade left_Z(b) and of degree at most len(b), so mu(b) = 0,
for any f, when J vanishes on every basis word of that grade: alpha(b)
is built only for the other words.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub

from .linalg import LinearSolveError, eigvalsh, nullspace, solve_blocks
from .ncpoly import AlgebraError, NCPoly, apply_map
from .presentations import CoactionData, Presentation, alpha_ext, delta_ext
from .report import Report, timed
from .scalars import PoleError, Q_SAMPLES, S_ONE, S_ZERO, ScalarQ, add_term


class HaarError(AlgebraError):
    pass


class TruncationOverflowError(HaarError):
    """A value outside the solved truncation was requested."""


class LinearFunctional:
    """A functional given by its values on the normal words `basis`,
    normalized by value 1 on the unit."""

    __slots__ = ("basis", "values", "provenance", "grade")

    def __init__(self, basis: list, values: dict, provenance: dict | None = None,
                 grade=None):
        if values.get((), S_ZERO) != S_ONE:
            raise HaarError("functional must be normalized by value 1 on the unit")
        self.basis = basis      # normal words the functional is defined on
        self.values = values    # word -> scalar
        # how it was solved: depth, basis_words, solved_words (the words
        # not pinned to 0 by the grading), grading (which held, or why
        # none), and for J the blocks eliminated and the unknowns of the
        # largest (largest_block)
        self.provenance = {} if provenance is None else provenance
        # word -> grade map of the grading it was solved under, or None;
        # gram_matrix prunes by it
        self.grade = grade

    def of_word(self, word):
        try:
            return self.values[word]
        except KeyError:
            raise TruncationOverflowError(
                f"word of degree {len(word)} outside the solved truncation")

    def __call__(self, poly: NCPoly):
        return apply_map(poly, self.of_word, S_ZERO)


def _grader(vecs, dim):
    """word -> the sum in Z^dim of the grade vectors vecs[letter]."""
    zero = (0,) * dim

    def grade(word):
        g = zero
        for letter in word:
            g = tuple(map(add, g, vecs[letter]))
        return g

    return grade


def _trivial(word):
    return ()


def _finest(n, conditions):
    """The word -> grade map of the finest integer grading of words in n
    letters under which each of `conditions`, pairs (u, v) of words,
    gives u and v one grade (see the module docstring), or _trivial when
    that grading is 0."""
    rows = set()
    for u, v in conditions:
        diff = [0] * n
        for letter in u:
            diff[letter] += 1
        for letter in v:
            diff[letter] -= 1
        if any(diff):
            rows.add(tuple(diff))
    scalar = {x: ScalarQ.from_fraction(x) for x in set().union(*rows)}
    kernel = nullspace([{g: scalar[x] for g, x in enumerate(r) if x} for r in rows],
                       range(n))
    if not kernel:
        return _trivial
    scaled = []
    for vec in kernel:
        vec = [Fraction(vec[g].num.coeffs[0]) if g in vec else 0 for g in range(n)]
        m = lcm(*(x.denominator for x in vec))
        scaled.append([int(x * m) for x in vec])
    return _grader(dict(enumerate(zip(*scaled))), len(scaled))


def _inhomogeneous(p: Presentation, grade, name):
    """The failed check, when a completed rule of p mixes grades."""
    for rule in p.rewrite.rules:
        g = grade(rule.lhs)
        if any(grade(w) != g for w in rule.rhs.terms):
            return (f"rule {p.alphabet.word_str(rule.lhs)} not homogeneous "
                    f"for the {name} grading")
    return None


def hopf_grading(p: Presentation):
    """(left, right, held): word -> grade maps for the finest row and
    column gradings of p, derived from p's rules as built and Delta (see
    the module docstring), and which of them is not 0, or why none is.
    A grading that is 0 is the trivial map: every word in grade ()."""
    rules = [(rule.lhs, w) for rule in p.rewrite.rules for w in rule.rhs.terms]
    left, right = (_finest(len(p.alphabet), rules + [
        ((g,), key[i]) for g, t in p.hopf.delta.items() for key in t.terms])
        for i in (0, 1))
    held = " and ".join(name for name, grade in (("row", left), ("column", right))
                        if grade is not _trivial)
    return left, right, held or "none: only the zero grading keeps the rules and Delta"


def extension_grading(c: CoactionData):
    """(zleft, aleft, held): word -> row grade maps on Z and on the base:
    aleft the base's row grading, and zleft giving each generator g of Z
    the one grade of alpha(g)'s left legs, after the checks of the module
    docstring on those legs and on Z's rules as built, and which grading
    held.  When the base has no row grading or a check fails, both maps
    are trivial and `held` names the failure."""
    if c.base.hopf is None:
        return _trivial, _trivial, "none: the base has no Hopf data"
    aleft = hopf_grading(c.base)[0]
    if aleft is _trivial:
        return _trivial, _trivial, "none: the base has only the zero row grading"
    vecs = {}
    for g, t in c.alpha.items():
        name = c.total.alphabet.names[g]
        if any(len(w1) > 1 for w1, _ in t.terms):
            return (_trivial, _trivial,
                    f"none: alpha({name}) has a left leg of more than one letter")
        grades = {aleft(w1) for w1, _ in t.terms}
        if len(grades) != 1:
            return (_trivial, _trivial,
                    f"none: alpha({name}) has left legs of {len(grades)} grades")
        (vecs[g],) = grades
    if not any(map(any, vecs.values())):
        return _trivial, _trivial, "none: alpha's left legs give Z only the zero grading"
    zleft = _grader(vecs, len(aleft(())))
    failed = _inhomogeneous(c.total, zleft, "row")
    if failed:
        return _trivial, _trivial, f"none: {failed}"
    return zleft, aleft, "row"


def haar_on_hopf(p: Presentation, d: int) -> LinearFunctional:
    """Solve the right-invariance system on the degree-d truncation, one
    elimination per row grade that holds a word of column grade 0 (see
    the module docstring), with J(1) = 1 in the block of the unit.

    Non-uniqueness or inconsistency of the truncated system is raised,
    never silently resolved.
    """
    if p.hopf is None:
        raise HaarError(f"{p.name} carries no Hopf data")
    basis = p.basis(d)
    left, right, held = hopf_grading(p)
    blocks = {}
    for b in basis:
        blocks.setdefault(left(b), []).append(b)
    blocks = {g: words for g, words in blocks.items()
              if any(not any(right(w)) for w in words)}
    dext = delta_ext(p)

    def equations(grade):
        for b in blocks[grade]:
            if b == ():
                yield {(): S_ONE}, S_ONE
            # group Delta(b) = sum c * w1 (x) w2 by the right-leg word;
            # each right-leg word contributes one scalar equation
            by_right = {}
            for (w1, w2), c in dext(b).terms.items():
                by_right.setdefault(w2, {})[w1] = c
            for w2, row in by_right.items():
                if w2 == ():
                    add_term(row, b, -S_ONE)
                yield row, S_ZERO
            # rows absent from Delta(b) compare 0 with J(b) * coefficient
            # of the unit: when the empty right leg never occurs, J(b) = 0
            if () not in by_right:
                yield {b: S_ONE}, S_ZERO

    values = dict.fromkeys(basis, S_ZERO)
    for words, reducer in solve_blocks(blocks, equations, lambda w: (len(w), w)):
        values.update(reducer.solution(words))
    sizes = [*map(len, blocks.values())]
    return LinearFunctional(basis, values, {
        "depth": d, "basis_words": len(basis), "solved_words": sum(sizes),
        "grading": held, "blocks": len(sizes), "largest_block": max(sizes)},
        lambda w: (*left(w), *right(w)))


def unit_coefficient_functional():
    """f(word) = 1 on the empty word, 0 elsewhere."""
    return lambda word: S_ONE if word == () else S_ZERO


def haar_on_extension(c: CoactionData, J: LinearFunctional, d: int,
                      f=None) -> LinearFunctional:
    """mu = (J (x) f) alpha_Z on the degree-d truncation of Z, with
    alpha(b) built only where J does not vanish on its left legs' grade
    (see the module docstring)."""
    f = f or unit_coefficient_functional()
    basis = c.total.basis(d)
    zleft, aleft, held = extension_grading(c)
    # the left legs of alpha(b) have degree <= len(b): within J's basis
    # when len(b) <= depth, else left to of_word to raise
    depth = max(map(len, J.basis))
    live = {aleft(w) for w, v in J.values.items() if not v.is_zero()}
    aext = alpha_ext(c)
    values = {}
    solved = 0
    for b in basis:
        if len(b) <= depth and zleft(b) not in live:
            values[b] = S_ZERO
            continue
        solved += 1
        total = S_ZERO
        for (w1, w2), coeff in aext(b).terms.items():
            fv = f(w2)
            if fv.is_zero():
                continue
            total = total + coeff * J.of_word(w1) * fv
        values[b] = total
    return LinearFunctional(basis, values, {
        "depth": d, "basis_words": len(basis), "solved_words": solved,
        "grading": held}, zleft)


def verify_invariance(c: CoactionData, mu: LinearFunctional, d: int) -> Report:
    """(1 (x) mu) alpha_Z(b) = mu(b) * 1 for every basis word of Z."""
    report = Report(f"invariance({c.total.name}, degree {d})")
    with timed(report):
        A = c.base.alphabet
        aext = alpha_ext(c)
        for b in c.total.basis(d):
            lhs = {}
            for (w1, w2), coeff in aext(b).terms.items():
                add_term(lhs, w1, coeff * mu.of_word(w2))
            report.add_zero(f"invariance at {c.total.alphabet.word_str(b)}",
                            NCPoly(A, lhs) - NCPoly.scalar(A, mu.of_word(b)))
    return report


def _star_grader(p: Presentation, grade):
    """The word -> grade map `grade` when it is not None, p's completed
    rules are homogeneous for it, and star sends each generator g to words
    of grade -grade(g); else None.  Then star(b) * w has grade
    grade(w) - grade(b) and so has its normal form."""
    if grade is None or _inhomogeneous(p, grade, "star"):
        return None
    for g, image in p.star.images.items():
        negated = tuple(-x for x in grade((g,)))
        if any(grade(w) != negated for w in image.terms):
            return None
    return grade


def gram_matrix(p: Presentation, mu: LinearFunctional, d: int):
    """Exact Gram matrix mu(star(b) * w) over basis words of degree <= d.

    Where mu carries the grading it was solved under and star negates it
    (see _star_grader), the entry is 0 without a product when mu is 0 on
    every basis word of grade grade(w) - grade(b) and star(b) * w stays
    within mu's depth; every other entry is computed."""
    if p.star is None:
        raise HaarError(f"{p.name} carries no star structure")
    depth = max(map(len, mu.basis))
    basis = [w for w in mu.basis if len(w) <= d]
    starred = [p.nf(p.star.of_word(b)) for b in basis]
    plain = [NCPoly(p.alphabet, {b: S_ONE}) for b in basis]
    grade = _star_grader(p, mu.grade) or _trivial
    live = {grade(w) for w, v in mu.values.items() if not v.is_zero()}
    grades = [grade(b) for b in basis]
    gram = []
    for i in range(len(basis)):
        reach = depth - starred[i].degree()
        row = []
        for j in range(len(basis)):
            if (len(basis[j]) <= reach
                    and tuple(map(sub, grades[j], grades[i])) not in live):
                row.append(S_ZERO)
            else:
                row.append(mu(p.nf(starred[i] * plain[j])))
        gram.append(row)
    return basis, gram


def gram_positivity(p: Presentation, mu: LinearFunctional, d: int,
                    q_samples=Q_SAMPLES) -> Report:
    """Positive semidefiniteness of the Gram matrix at sample q.

    Exact conjugate symmetry is checked symbolically first; the
    eigenvalue check is numerical evidence at finitely many q and a
    finite degree, not a proof, and the report says so.
    """
    report = Report(f"gram-positivity({p.name}, degree {d})")
    report.params = {"q_samples": list(q_samples), "degree": d,
                     "nature": "finite-degree numerical evidence, not a proof"}
    with timed(report):
        _, gram = gram_matrix(p, mu, d)
        check_gram(report, gram, q_samples)
    return report


def check_gram(report: Report, gram, q_samples, witness=""):
    """Add to `report` the exact conjugate symmetry of a square matrix
    over Q(q), which is symmetry since conjugation on Q(q) is the
    identity (with `witness` on that item), then, at each sample q,
    numerical evidence that it is positive semidefinite."""
    n = len(gram)
    sym = all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))
    report.add("gram conjugate-symmetric exactly over the scalar field", sym,
               witness=witness)

    def psd(evs):
        lo, hi = evs[0], evs[-1]
        return lo >= -1e-9 * max(hi, 1.0), f"eigenvalues in [{lo:.3e}, {hi:.3e}]"

    for q0 in q_samples:
        add_gram_sample(report, gram, q0,
                        f"PSD evidence at q = {q0} ({n}x{n} gram)", psd)


def add_gram_sample(report: Report, gram, q0, desc, judge):
    """Add to `report` one item for a square matrix over Q(q) evaluated
    at q0: `desc`, with (ok, witness) = judge(its ascending eigenvalues).
    A pole at q0 fails the item "evaluation at q = q0", and a float
    overflow leaves it undecided; eigenvalues that do not converge leave
    `desc` undecided."""
    try:
        m = [[x.eval(q0) for x in row] for row in gram]
    except PoleError as e:
        report.add(f"evaluation at q = {q0}", False, witness=str(e))
        return
    except OverflowError as e:
        report.add_undecided(f"evaluation at q = {q0}",
                             witness=f"float overflow: {e}")
        return
    try:
        evs = eigvalsh(m)
    except LinearSolveError as e:
        report.add_undecided(desc, witness=str(e))
        return
    report.add(desc, *judge(evs))
