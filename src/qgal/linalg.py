"""Exact linear algebra over Q(q).

Sparse rows are dicts keyed by an arbitrary hashable variable, added
into through `scalars.add_term`.  `RowReducer` is the one elimination
routine.  `solve_blocks`, the one solver of the other modules, eliminates
each block of a block-diagonal system with a RowReducer of its own, once
it has checked that the block has at most BLOCK_BUDGET unknowns (a larger
block is undecided: BlockBudgetError).  A block's reducer is read in two
ways only: `solution` (the Haar solve) and `kernel`, the kernel vector of
each free variable (the Galois solve, and `nullspace`, one block, for the
cotensor kernel and the Haar gradings).  `mat_inv` reduces [A | I] with a RowReducer.

`eigvalsh` is the one floating-point routine of qgal: the eigenvalues of
a Gram matrix evaluated at a sample q, which are numerical evidence of
positivity, not a proof.  It makes at most MAX_SWEEPS Jacobi sweeps, a
constant as BLOCK_BUDGET is, and raises LinearSolveError past them.
"""

from __future__ import annotations

import math

from .report import Undecided
from .scalars import S_ONE, S_ZERO, add_term


class LinearSolveError(Exception):
    pass


class InconsistentSystemError(LinearSolveError):
    pass


class NonUniqueSolutionError(LinearSolveError, Undecided):
    pass


class BlockBudgetError(LinearSolveError, Undecided):
    """A block of a linear system over the budget; args (grade, size, budget)."""

    def __str__(self):
        return "the block of grade {} has {} unknowns, over the budget of {}".format(
            *self.args)


BLOCK_BUDGET = 5000  # the most unknowns solve_blocks eliminates in one block
MAX_SWEEPS = 50  # the most Jacobi sweeps eigvalsh makes before it gives up


class RowReducer:
    """Incremental Gaussian elimination for Ax = b with sparse rows.

    Variables may be any hashable keys; `var_key` fixes the pivot
    preference order (smaller key = preferred pivot).
    """

    def __init__(self, var_key=None):
        self.var_key = var_key or (lambda v: v)
        self.rows = {}  # pivot var -> (row dict, rhs)
        # var -> the pivots whose rows may hold it besides their own: an
        # entry that cancels stays listed, and a pivot's list goes when
        # it is eliminated from every other row
        self.holders = {}

    def add_equation(self, row, rhs):
        """Add one equation sum(row[v]*x_v) = rhs; returns True if it
        carried new information.  Every row kept holds no pivot but its
        own, so one pass over the pivots in `row` reduces it."""
        row = {k: v for k, v in row.items() if not v.is_zero()}
        for hit in [var for var in row if var in self.rows]:
            prow, prhs = self.rows[hit]
            c = row.pop(hit)
            for var, v in prow.items():
                if var != hit:
                    add_term(row, var, (-c) * v)
            rhs = rhs + (-c) * prhs
        if not row:
            if not rhs.is_zero():
                raise InconsistentSystemError("0 = nonzero in linear system")
            return False
        pivot = min(row, key=self.var_key)
        c = row[pivot].inv()
        row = {k: c * v for k, v in row.items()}
        rhs = c * rhs
        others = [var for var in row if var != pivot]
        for var in others:
            self.holders.setdefault(var, set()).add(pivot)
        # back-substitute into the existing rows that hold the pivot, which
        # no caller holds
        for pvar in self.holders.pop(pivot, ()):
            prow, prhs = self.rows[pvar]
            f = prow.pop(pivot, None)
            if f is not None:
                for var in others:
                    add_term(prow, var, (-f) * row[var])
                    self.holders[var].add(pvar)
                self.rows[pvar] = (prow, prhs + (-f) * rhs)
        self.rows[pivot] = (row, rhs)
        return True

    def solution(self, variables):
        """Unique solution restricted to `variables`.

        Raises NonUniqueSolutionError when some variable is undetermined:
        no row pivots on it, or its row holds a free variable, on which its
        value would depend.
        """
        undetermined = [v for v in variables
                        if v not in self.rows or len(self.rows[v][0]) > 1]
        if undetermined:
            raise NonUniqueSolutionError(
                f"{len(undetermined)} variables undetermined, e.g. {undetermined[0]!r}")
        return {v: self.rows[v][1] for v in variables}

    def kernel(self, variables):
        """free variable -> its kernel vector, for each of `variables` that
        no row pivots on, in the order given: 1 at the free variable, -c at
        the pivot of each row that holds it with coefficient c, and 0 at
        every other free variable."""
        return {v: {v: S_ONE, **{p: -row[v] for p, (row, _) in self.rows.items()
                                 if v in row}}
                for v in variables if v not in self.rows}


def solve_blocks(blocks, equations, var_key=None):
    """Yield (unknowns, reducer) for each grade -> unknowns of `blocks`, in
    turn: the RowReducer, pivoting by var_key, of the equations (row, rhs)
    that equations(grade) yields; no equation may span two blocks.  A block
    of more than BLOCK_BUDGET unknowns raises BlockBudgetError before its
    equations are asked for."""
    for grade, unknowns in blocks.items():
        if len(unknowns) > BLOCK_BUDGET:
            raise BlockBudgetError(grade, len(unknowns), BLOCK_BUDGET)
        reducer = RowReducer(var_key)
        for row, rhs in equations(grade):
            reducer.add_equation(row, rhs)
        yield unknowns, reducer


def nullspace(rows, variables, var_key=None):
    """Basis of the solution space of a homogeneous sparse system, one block.

    `rows` is an iterable of dicts var -> scalar; `variables` lists every
    variable (including those absent from all rows).  Returns the
    reducer's kernel vectors as dicts, one per free variable, ordered by
    var_key.
    """
    variables = sorted(variables, key=var_key)
    # an empty row says 0 = 0: it is not added
    ((_, reducer),) = solve_blocks(
        {(): variables}, lambda _: ((row, S_ZERO) for row in rows if row),
        var_key)
    return list(reducer.kernel(variables).values())


# -- dense matrices over scalars (small sizes only) -------------------------


def mat_inv(a):
    """Inverse of a square matrix, read off the reduced echelon form
    [I | A^-1] of [A | I]; raises on a singular matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise LinearSolveError(f"not a square matrix: {n} rows of lengths "
                               f"{sorted({len(row) for row in a})}")
    reducer = RowReducer()
    for i, row in enumerate(a):
        reducer.add_equation({**dict(enumerate(row)), n + i: S_ONE}, S_ZERO)
    if any(j not in reducer.rows for j in range(n)):
        raise LinearSolveError("singular matrix")
    return [[reducer.rows[j][0].get(n + k, S_ZERO) for k in range(n)]
            for j in range(n)]


# -- floating point: Hermitian eigenvalues -----------------------------------


def eigvalsh(matrix):
    """Eigenvalues, ascending, of a Hermitian matrix given as a list of
    lists of complex, by cyclic Jacobi rotations.

    Each rotation first turns a_pq real by the phase of a_pq, then zeroes
    it with a real rotation.  Sweeps stop once the off-diagonal Frobenius
    norm is at most 1e-15 times the diagonal one; LinearSolveError is
    raised when MAX_SWEEPS sweeps do not get there.
    """
    a = [[complex(x) for x in row] for row in matrix]
    n = len(a)
    sweeps = 0
    while True:
        off = math.fsum(abs(a[i][j]) ** 2 for i in range(n) for j in range(n) if i != j)
        diag = math.fsum(a[i][i].real ** 2 for i in range(n))
        if off <= 1e-30 * diag:  # squared norms: off <= 1e-15 * diag
            return sorted(a[i][i].real for i in range(n))
        if sweeps == MAX_SWEEPS:
            raise LinearSolveError(
                f"Jacobi eigenvalues did not converge in {MAX_SWEEPS} sweeps "
                f"(off-diagonal norm {math.sqrt(off):.3e})")
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                r = abs(apq)
                if r == 0.0:
                    continue
                phase = apq / r  # e^{i phi}; column q is turned by its conjugate
                theta = (a[q][q].real - a[p][p].real) / (2.0 * r)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                sp = s * phase.conjugate()
                cp = c * phase.conjugate()
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - sp * akq
                    a[k][q] = s * akp + cp * akq
                    a[p][k] = a[k][p].conjugate()
                    a[q][k] = a[k][q].conjugate()
                a[p][p] = complex(a[p][p].real - t * r)
                a[q][q] = complex(a[q][q].real + t * r)
                a[p][q] = a[q][p] = 0j
