"""mat_inv, which reads the inverse off RowReducer's reduced echelon form
of [A | I], against the dense Gauss-Jordan elimination it replaced."""

import random

import pytest

from conftest import random_nonzero_scalar, random_scalar
from qgal.linalg import LinearSolveError, mat_inv
from qgal.scalars import Q, S_ONE, S_ZERO


def gauss_jordan_inverse(a):
    """Reference: dense Gauss-Jordan on [A | I], pivoting on the first
    nonzero entry of each column."""
    n = len(a)
    aug = [list(row) + [S_ONE if i == j else S_ZERO for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise LinearSolveError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [inv * v for v in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f.is_zero():
                continue
            aug[r] = [x + (-f) * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
