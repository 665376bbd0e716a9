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
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import LinearSolveError, RowReducer, eigvalsh
from .ncpoly import AlgebraError, NCPoly
from .presentations import (
    CoactionData,
    Presentation,
    alpha_ext,
    apply_scalar_map,
    delta_ext,
)
from .report import Report, timed
from .rewrite import word_basis
from .scalars import PoleError, S_ONE, S_ZERO, add_term


class HaarError(AlgebraError):
    pass


class TruncationOverflowError(HaarError):
    """A value outside the solved truncation was requested."""


@dataclass
class LinearFunctional:
    basis: list            # normal words the functional is defined on
    values: dict           # word -> scalar

    def __post_init__(self):
        if self.values.get((), S_ZERO) != S_ONE:
            raise HaarError("functional must be normalized by value 1 on the unit")

    def of_word(self, word):
        try:
            return self.values[word]
        except KeyError:
            raise TruncationOverflowError(
                f"word of degree {len(word)} outside the solved truncation")

    def __call__(self, poly: NCPoly):
        return apply_scalar_map(poly, self.of_word)


def haar_on_hopf(p: Presentation, d: int = 2) -> LinearFunctional:
    """Solve the right-invariance system on the degree-d truncation.

    Non-uniqueness or inconsistency of the truncated system is raised,
    never silently resolved.
    """
    if p.hopf is None:
        raise HaarError(f"{p.name} carries no Hopf data")
    p = p.ensure_degree(d)
    basis = word_basis(p.rewrite, d)
    dext = delta_ext(p)
    reducer = RowReducer(var_key=lambda w: (len(w), w))
    reducer.add_equation({(): S_ONE}, S_ONE)
    for b in basis:
        expansion = dext(b)
        # group Delta(b) = sum c * w1 (x) w2 by the right-leg word; each
        # right-leg word contributes one scalar equation
        by_right = {}
        for (w1, w2), c in expansion.terms.items():
            by_right.setdefault(w2, {})[w1] = c
        for w2, row in by_right.items():
            if w2 == ():
                add_term(row, b, -S_ONE)
            reducer.add_equation(row, S_ZERO)
        # rows absent from Delta(b) compare 0 with J(b) * coefficient of
        # the unit: when the empty right leg never occurs, J(b) = 0
        if () not in by_right:
            reducer.add_equation({b: S_ONE}, S_ZERO)
    values = reducer.solution(basis)
    return LinearFunctional(basis, values)


def unit_coefficient_functional():
    """f(word) = 1 on the empty word, 0 elsewhere."""
    return lambda word: S_ONE if word == () else S_ZERO


def haar_on_extension(c: CoactionData, J: LinearFunctional, d: int,
                      f=None) -> LinearFunctional:
    """mu = (J (x) f) alpha_Z on the degree-d truncation of Z."""
    f = f or unit_coefficient_functional()
    c = c.ensure_degree(d, d)
    basis = word_basis(c.total.rewrite, d)
    aext = alpha_ext(c)
    values = {}
    for b in basis:
        total = S_ZERO
        for (w1, w2), coeff in aext(b).terms.items():
            fv = f(w2)
            if fv.is_zero():
                continue
            total = total + coeff * J.of_word(w1) * fv
        values[b] = total
    return LinearFunctional(basis, values)


def verify_invariance(c: CoactionData, mu: LinearFunctional, d: int) -> Report:
    """(1 (x) mu) alpha_Z(b) = mu(b) * 1 for every basis word of Z."""
    report = Report(f"invariance({c.total.name}, degree {d})")
    with timed(report):
        c = c.ensure_degree(d, d)
        basis = word_basis(c.total.rewrite, d)
        A = c.base.alphabet
        aext = alpha_ext(c)
        for b in basis:
            lhs = {}
            for (w1, w2), coeff in aext(b).terms.items():
                add_term(lhs, w1, coeff * mu.of_word(w2))
            report.add_zero(f"invariance at {c.total.alphabet.word_str(b)}",
                            NCPoly(A, lhs) - NCPoly.scalar(A, mu.of_word(b)))
    return report


def gram_matrix(p: Presentation, mu: LinearFunctional, d: int):
    """Exact Gram matrix mu(star(b) * w) over basis words of degree <= d."""
    if p.star is None:
        raise HaarError(f"{p.name} carries no star structure")
    # star(b) * w reaches past d: certify the whole depth of mu
    p = p.ensure_degree(max(map(len, mu.basis)))
    basis = [w for w in mu.basis if len(w) <= d]
    starred = [p.nf(p.star.apply(NCPoly(p.alphabet, {b: S_ONE}))) for b in basis]
    plain = [NCPoly(p.alphabet, {b: S_ONE}) for b in basis]
    gram = []
    for i in range(len(basis)):
        row = []
        for j in range(len(basis)):
            row.append(mu(p.nf(starred[i] * plain[j])))
        gram.append(row)
    return basis, gram


def gram_positivity(p: Presentation, mu: LinearFunctional, d: int,
                    q_samples=(0.5, 0.9, 2.0)) -> Report:
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
    over Q(q) (with `witness` on that item), then, at each sample q,
    numerical evidence that it is positive semidefinite."""
    n = len(gram)
    sym = all(gram[i][j] == gram[j][i].conj()
              for i in range(n) for j in range(n))
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
