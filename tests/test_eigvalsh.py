"""linalg.eigvalsh against numpy's Hermitian eigenvalues, the oracle."""

import numpy as np
import pytest

from qgal import haar, linalg
from qgal.haar import gram_matrix, haar_on_extension, haar_on_hopf
from qgal.linalg import LinearSolveError, eigvalsh

SIZES = range(1, 26)


def assert_matches_numpy(a):
    a = np.asarray(a, dtype=complex)
    got = eigvalsh(a.tolist())
    want = np.linalg.eigvalsh(a)
    assert len(got) == len(want)
    assert got == sorted(got)
    tol = 1e-10 * max(1.0, float(np.linalg.norm(a)))
    worst = max(abs(g - w) for g, w in zip(got, want))
    assert worst <= tol, (worst, tol)


def random_hermitian(rng, n, complex_entries):
    x = rng.standard_normal((n, n))
    if complex_entries:
        x = x + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def random_unitary(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(x)
    return u


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_random_hermitian(complex_entries):
    rng = np.random.default_rng(8)
    for n in SIZES:
        for _ in range(2):
            assert_matches_numpy(random_hermitian(rng, n, complex_entries))


def test_diagonal():
    rng = np.random.default_rng(81)
    for n in SIZES:
        d = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        assert_matches_numpy(np.diag(d))
    assert eigvalsh([[3.0, 0.0], [0.0, -1.0]]) == [-1.0, 3.0]
    assert eigvalsh([]) == []


def test_repeated_eigenvalues():
    rng = np.random.default_rng(82)
    for n in SIZES:
        d = rng.integers(-2, 3, n).astype(float)  # at most five distinct values
        u = random_unitary(rng, n)
        assert_matches_numpy(u @ np.diag(d) @ u.conj().T)


def test_rank_deficient_psd():
    """Exact zero eigenvalues: X X^H with X of rank k < n."""
    rng = np.random.default_rng(83)
    for n in SIZES:
        k = int(rng.integers(0, n))
        x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        a = x @ x.conj().T
        assert_matches_numpy(a)
        evs = eigvalsh(a.tolist())
        tol = 1e-10 * max(1.0, float(np.linalg.norm(a)))
        assert all(abs(e) <= tol for e in evs[:n - k])


def test_indefinite():
    rng = np.random.default_rng(84)
    for n in range(2, 26):
        d = np.concatenate([-rng.uniform(0.1, 5.0, n // 2),
                            rng.uniform(0.0, 5.0, n - n // 2)])
        u = random_unitary(rng, n)
        a = u @ np.diag(d) @ u.conj().T
        assert_matches_numpy(a)
        evs = eigvalsh(a.tolist())
        assert evs[0] < 0 < evs[-1]


@pytest.fixture(scope="module")
def mu6(c_uq):
    return haar_on_extension(c_uq, haar_on_hopf(c_uq.base, d=6), 6)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("q0", [0.5, 0.9, 2.0])
def test_uq2m2_grams(c_uq, mu6, degree, q0):
    _, gram = gram_matrix(c_uq.total, mu6, degree)
    assert_matches_numpy([[x.eval(q0) for x in row] for row in gram])


def test_no_convergence_raises(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    a = [[1.0, 0.5j], [-0.5j, 2.0]]
    with pytest.raises(LinearSolveError, match="did not converge in 0 sweeps"):
        eigvalsh(a)
    # a diagonal matrix needs no sweep
    assert eigvalsh([[2.0, 0.0], [0.0, 1.0]]) == [1.0, 2.0]


def test_gram_positivity_undecided_without_convergence(c_uq, mu6, monkeypatch):
    """A Gram matrix whose eigenvalues do not converge is never a pass."""
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    r = haar.gram_positivity(c_uq.total, mu6, 2)
    psd = [i for i in r.items if i.desc.startswith("PSD evidence")]
    assert len(psd) == 3
    assert all(i.status == "undecided" for i in psd)
    assert all("did not converge in 0 sweeps" in i.witness for i in psd)
    assert r.status == "undecided"
