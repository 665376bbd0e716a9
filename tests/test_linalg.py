"""mat_inv, which reads the inverse off RowReducer's reduced echelon form
of [A | I], and nullspace, which reads RowReducer's kernel vectors,
against a dense Gauss-Jordan elimination; solve_blocks against one
elimination of the whole system."""

import random

import pytest

from conftest import random_nonzero_scalar, random_scalar
from qgal import linalg
from qgal.linalg import (
    BlockBudgetError,
    LinearSolveError,
    NonUniqueSolutionError,
    RowReducer,
    mat_inv,
    nullspace,
    solve_blocks,
)
from qgal.scalars import Q, S_ONE, S_ZERO


def gauss_jordan(m):
    """Reference: (the reduced row echelon form of a dense matrix, its
    pivot columns), by Gauss-Jordan elimination pivoting on the first
    nonzero entry of each column."""
    m = [list(row) for row in m]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if not m[r][col].is_zero()), None)
        if pivot is None:
            continue
        m[top], m[pivot] = m[pivot], m[top]
        inv = m[top][col].inv()
        m[top] = [inv * v for v in m[top]]
        for r in range(len(m)):
            f = m[r][col]
            if r != top and not f.is_zero():
                m[r] = [x + (-f) * y for x, y in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots


def gauss_jordan_inverse(a):
    """Reference: A^-1 read off the reduced row echelon form of [A | I]."""
    n = len(a)
    m, pivots = gauss_jordan([list(row) + [S_ONE if i == j else S_ZERO for j in range(n)]
                              for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise LinearSolveError("singular matrix")
    return [row[n:] for row in m[:n]]


# denominators of the rational entries; the denser 4x4 matrices of
# test_dense_4x4_inverses cover products of arbitrary two-term inverses
DENOMINATORS = [S_ONE + Q, S_ONE + Q * Q, Q - 2 * S_ONE]


def random_entry(rng):
    """0, a Laurent entry, or a rational one (Laurent over a polynomial)."""
    kind = rng.randrange(4)
    if kind == 0:
        return S_ZERO
    x = random_scalar(rng, terms=2, exp=2)
    return x if kind == 1 else x * rng.choice(DENOMINATORS).inv()


def test_inverse_matches_gauss_jordan_on_seeded_matrices():
    rng = random.Random(13)
    checked = 0
    for n, count in ((0, 1), (1, 12), (2, 12), (3, 12), (4, 4)):
        for _ in range(count):
            a = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
            try:
                expected = gauss_jordan_inverse(a)
            except LinearSolveError:
                with pytest.raises(LinearSolveError):
                    mat_inv(a)
                continue
            got = mat_inv(a)
            assert got == expected
            assert [list(map(repr, r)) for r in got] == \
                [list(map(repr, r)) for r in expected]
            checked += 1
    assert checked >= 30  # most random matrices are invertible


def assert_is_inverse(a, inv):
    """A A^-1 = A^-1 A = I."""
    n = len(a)
    for x, y in ((a, inv), (inv, a)):
        for i in range(n):
            for j in range(n):
                s = S_ZERO
                for k in range(n):
                    s = s + x[i][k] * y[k][j]
                assert s == (S_ONE if i == j else S_ZERO)


def test_inverse_times_matrix_is_identity():
    a = [[Q, S_ONE, S_ZERO], [S_ONE, Q.inv(), S_ONE], [S_ZERO, S_ONE, Q + S_ONE]]
    assert_is_inverse(a, mat_inv(a))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_4x4_inverses(seed):
    # every entry a Laurent polynomial over a random two-term Laurent
    # polynomial: the elimination's numerators and denominators grow to
    # high degree, which makes the cost of each cancellation show
    rng = random.Random(seed)
    a = [[random_scalar(rng, terms=2, exp=2)
          * random_nonzero_scalar(rng, terms=2, exp=2).inv()
          for _ in range(4)] for _ in range(4)]
    got = mat_inv(a)
    assert got == gauss_jordan_inverse(a)
    assert_is_inverse(a, got)


@pytest.mark.parametrize("a", [
    # a repeated row
    [[Q, S_ONE], [Q, S_ONE]],
    # rank 1: every row a multiple of the first
    [[S_ONE, Q, Q * Q], [Q, Q * Q, Q * Q * Q], [-S_ONE, -Q, -Q * Q]],
    [[S_ZERO]],
], ids=["repeated-row", "rank-1", "zero"])
def test_singular_matrix_raises(a):
    with pytest.raises(LinearSolveError):
        gauss_jordan_inverse(a)
    with pytest.raises(LinearSolveError, match="singular matrix"):
        mat_inv(a)


@pytest.mark.parametrize("a", [
    [[S_ONE, Q, S_ZERO], [S_ZERO, S_ONE, Q]],
    [[S_ONE], [Q]],
    [[S_ONE, S_ZERO], [S_ZERO]],
], ids=["2x3", "2x1", "ragged"])
def test_non_square_matrix_raises(a):
    # the identity columns n + i of [A | I] must not meet a column of A
    with pytest.raises(LinearSolveError, match="not a square matrix"):
        mat_inv(a)


def random_system(rng, m, n):
    """m sparse rows over the variables 0..n-1: dicts that may hold zero
    entries, with an empty row, a row of zeros and a combination of two
    earlier rows among them when m allows."""
    rows = [{v: random_entry(rng) for v in rng.sample(range(n), rng.randint(1, n))}
            for _ in range(m)]
    if m >= 3:
        rows[rng.randrange(m)] = {}
        rows[rng.randrange(m)] = dict.fromkeys(range(n), S_ZERO)
        i, j = rng.sample(range(m), 2)
        c = random_entry(rng)
        rows.append({v: rows[i].get(v, S_ZERO) + c * rows[j].get(v, S_ZERO)
                     for v in range(n)})
    return rows


def test_nullspace_on_seeded_sparse_systems():
    rng = random.Random(30)
    ranks = set()
    for m, n, count in ((0, 3, 1), (1, 1, 4), (2, 4, 8), (3, 3, 8), (4, 6, 8), (6, 4, 6)):
        for _ in range(count):
            rows = random_system(rng, m, n)
            basis = nullspace(rows, range(n))
            _, pivots = gauss_jordan([[row.get(v, S_ZERO) for v in range(n)]
                                      for row in rows])
            assert len(basis) == n - len(pivots)
            ranks.add(len(pivots))
            for vec in basis:
                for row in rows:
                    s = S_ZERO
                    for v, c in row.items():
                        s = s + c * vec.get(v, S_ZERO)
                    assert s.is_zero()
            reducer = RowReducer()
            for row in rows:
                row = {v: c for v, c in row.items() if not c.is_zero()}
                if row:
                    reducer.add_equation(row, S_ZERO)
            kernel = reducer.kernel(range(n))
            assert list(kernel.values()) == basis
            for free, vec in kernel.items():
                assert vec[free] == S_ONE
                assert all(vec.get(other, S_ZERO).is_zero()
                           for other in kernel if other != free)
    assert ranks >= {0, 1, 2, 3}


def block_diagonal_system(rng, sizes):
    """grade -> its unknowns, and grade -> its equations (row, rhs): each
    block a random_system over unknowns of its own, whose right-hand sides
    are those of a random solution, so that the system is consistent."""
    blocks, equations, start = {}, {}, 0
    for grade, (m, n) in enumerate(sizes):
        unknowns = list(range(start, start + n))
        x = [random_entry(rng) for _ in unknowns]
        eqs = []
        for row in random_system(rng, m, n):
            rhs = S_ZERO
            for v, c in row.items():
                rhs = rhs + c * x[v]
            eqs.append(({start + v: c for v, c in row.items()}, rhs))
        blocks[grade], equations[grade] = unknowns, eqs
        start += n
    return blocks, equations


def one_block(equations):
    """The reducer of every equation of a system, eliminated together."""
    reducer = RowReducer()
    for eqs in equations.values():
        for row, rhs in eqs:
            reducer.add_equation(row, rhs)
    return reducer


def determined(reducer, variables):
    """variable -> its value, for each of `variables` the reducer fixes."""
    out = {}
    for v in variables:
        try:
            out.update(reducer.solution([v]))
        except NonUniqueSolutionError:
            pass
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_blocks_give_the_one_block_kernel_and_solution(seed):
    rng = random.Random(seed)
    unique = 0
    for _ in range(8):
        sizes = [(rng.randint(0, 6), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 4))]
        blocks, equations = block_diagonal_system(rng, sizes)
        variables = [v for unknowns in blocks.values() for v in unknowns]
        whole = one_block(equations)
        kernel, values = {}, {}
        for unknowns, reducer in solve_blocks(blocks, equations.get):
            kernel.update(reducer.kernel(unknowns))
            values.update(determined(reducer, unknowns))
        assert kernel == whole.kernel(variables)
        assert values == determined(whole, variables)
        unique += not kernel
    assert unique >= 1  # some systems have one solution, read whole


def test_block_over_the_budget_raises_before_its_equations(monkeypatch):
    monkeypatch.setattr(linalg, "BLOCK_BUDGET", 2)
    asked = []

    def equations(grade):
        asked.append(grade)
        return [({v: S_ONE}, S_ZERO) for v in blocks[grade]]

    blocks = {(0, 1): [0, 1], (1, 0): [2, 3, 4], (2, 2): [5]}
    solved = solve_blocks(blocks, equations)
    assert next(solved)[0] == [0, 1]
    with pytest.raises(BlockBudgetError, match=r"the block of grade \(1, 0\) has 3 "
                       "unknowns, over the budget of 2") as exc:
        next(solved)
    assert exc.value.args == ((1, 0), 3, 2)
    assert asked == [(0, 1)]


def test_one_block_is_nullspace():
    """nullspace is solve_blocks on one block, whose rows may hold zero
    entries: the kernel of a RowReducer given only the nonzero ones."""
    rng = random.Random(31)
    for m, n in ((0, 2), (3, 3), (4, 6), (6, 4)):
        rows = random_system(rng, m, n)
        ((_, reducer),) = solve_blocks({(): list(range(n))},
                                       lambda _: [(row, S_ZERO) for row in rows])
        filtered = RowReducer()
        for row in rows:
            row = {v: c for v, c in row.items() if not c.is_zero()}
            if row:
                filtered.add_equation(row, S_ZERO)
        kernel = list(reducer.kernel(range(n)).values())
        assert kernel == list(filtered.kernel(range(n)).values())
        assert kernel == nullspace(rows, range(n))
