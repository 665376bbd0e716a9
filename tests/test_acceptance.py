"""End-to-end acceptance checks.

Each test covers one numbered criterion, enforces its runtime budget, and
records a single PASS/FAIL line that the terminal summary prints after the
run (see conftest.pytest_terminal_summary).
"""

import random
import time
from contextlib import contextmanager

import pytest

import conftest
from qgal.characters import spectrum_empty, spectrum_witness
from qgal.cli import main as cli_main
from qgal.comodules import UnitaryStructure, duality_maps, fundamental, \
    snake_check, trivial
from qgal.cotensor import compute_cotensor, cotensor_inner, verify_biunitarity
from qgal.haar import gram_positivity, haar_on_extension, haar_on_hopf
from qgal.ncpoly import NCPoly
from qgal.presentations import catalog, findim_rep_obstruction
from qgal.scalars import S_ONE, S_ZERO, ScalarQ
from conftest import random_poly, random_scalar


@contextmanager
def criterion(n, desc, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        conftest.CRITERIA_LINES.append(f"CRITERION {n}: FAIL - {desc}")
        raise
    dt = time.perf_counter() - t0
    line = f"CRITERION {n}: PASS - {desc} ({dt:.1f}s, budget {limit_s}s)"
    conftest.CRITERIA_LINES.append(line)
    print(line)
    assert dt < limit_s, f"criterion {n} took {dt:.1f}s, budget {limit_s}s"


@pytest.fixture(scope="module")
def mu6(uq2, c_uq):
    """Haar pair deep enough for degree-2 Gram matrices (products of two
    starred degree-2 words reach degree 6)."""
    J = haar_on_hopf(uq2, d=6)
    return haar_on_extension(c_uq, J, 6)


def test_criterion_01_galois(glq2m2):
    with criterion(1, "two-cocycle extension passes the Galois suite and the "
                      "explicit matrix inverse identity", 60):
        assert cli_main(["verify", "GLq2m2", "--suite", "galois",
                        "--degree", "2"]) == 0
        P = glq2m2.parse
        z = [[P("z11"), P("z12")], [P("z21"), P("z22")]]
        M = [[P("z22*tau"), P("q*tau*z12")],
             [P("q^-1*z21*tau"), P("tau*z11")]]
        one = NCPoly.one(glq2m2.alphabet)
        zero = NCPoly.zero(glq2m2.alphabet)
        for A, B in ((z, M), (M, z)):
            for i in range(2):
                for j in range(2):
                    s = A[i][0] * B[0][j] + A[i][1] * B[1][j]
                    want = one if i == j else zero
                    assert glq2m2.nf(s - want).is_zero()


def test_criterion_02_star(capsys):
    with criterion(2, "star structure: 13 starred relations vanish and star "
                      "is involutive on all 5 generators", 10):
        assert cli_main(["verify", "Uq2m2", "--suite", "star"]) == 0
        out = capsys.readouterr().out
        starred = [l for l in out.splitlines() if "reduces to 0" in l]
        involutive = [l for l in out.splitlines() if "involutive" in l]
        assert len(starred) == 13
        assert len(involutive) == 5
        assert all(l.strip().startswith("ok") for l in starred + involutive)


def test_criterion_03_coaction():
    with criterion(3, "coaction is a coassociative counital star algebra "
                      "map", 30):
        assert cli_main(["verify", "Uq2m2", "--suite", "coaction"]) == 0


def test_criterion_04_haar_uniqueness(uq2, c_uq):
    with criterion(4, "invariant functional exists, is normalized, and is "
                      "unique on the extension", 60):
        J = haar_on_hopf(uq2, d=2)
        assert J.values[()] == S_ONE
        assert all(v.is_zero() for w, v in J.values.items() if w != ())
        mu1 = haar_on_extension(c_uq, J, 2)
        mu2 = haar_on_extension(c_uq, J, 2, f=lambda word: S_ONE)
        assert mu1.values == mu2.values


def test_criterion_05_gram_psd(c_uq, mu6):
    with criterion(5, "Gram matrices PSD at sampled q in degrees 1 and 2 "
                      "(finite-degree evidence)", 60):
        for d in (1, 2):
            r = gram_positivity(c_uq.total, mu6, d, q_samples=(0.5, 0.9, 2.0))
            assert r.ok
            assert "not a proof" in r.params["nature"]
            assert sum("PSD evidence" in i.desc for i in r.items) == 3


def test_criterion_06_biunitarity(c_uq, uq2m2, c_aufg):
    with criterion(6, "biunitarity of the fundamental block and of the "
                      "universal unitary generator block", 10):
        v = fundamental(uq2m2)
        assert verify_biunitarity(c_uq, v.matrix).ok
        Z = c_aufg.total.alphabet
        zblock = [[Z.gen(f"z{i}{j}") for j in (1, 2, 3)] for i in (1, 2, 3)]
        assert verify_biunitarity(c_aufg, zblock).ok


def test_criterion_07_cotensor_dims(uq2, c_uq, mu6):
    with criterion(7, "cotensor fibre dimensions: dim(V wedge Z) = 2 stable "
                      "in degree, orthonormal Gram, trivial gives dim 1", 120):
        v = fundamental(uq2)
        e1 = compute_cotensor(v, c_uq, 1)
        e2 = compute_cotensor(v, c_uq, 2)
        assert len(e1) == 2 and len(e2) == 2
        for i, x in enumerate(e1):
            for j, y in enumerate(e1):
                want = S_ONE if i == j else S_ZERO
                assert cotensor_inner(x, y, mu6) == want
        assert len(compute_cotensor(trivial(uq2), c_uq, 1)) == 1


def test_criterion_08_spectrum(glq2m2, glq2):
    with criterion(8, "character spectrum empty for the extension, nonempty "
                      "with counit witness for the base", 10):
        assert spectrum_empty(glq2m2) is True
        assert spectrum_empty(glq2) is False
        w = spectrum_witness(glq2)
        assert w is not None
        eps = {"x11": S_ONE, "x12": S_ZERO, "x21": S_ZERO,
               "x22": S_ONE, "t": S_ONE}
        assert {k: w[k] for k in eps} == eps


def test_criterion_09_surjection(uq2m2, c_aufg):
    with criterion(9, "quotient map from the universal unitary algebra kills "
                      "every defining relation exactly", 60):
        A = c_aufg.total
        Zi = uq2m2.alphabet

        def image(name):
            if name.endswith("s"):
                return uq2m2.star.apply(image(name[:-1]))
            i, j = int(name[1]), int(name[2])
            if i <= 2 and j <= 2:
                return Zi.gen(f"z{i}{j}")
            if i == 3 and j == 3:
                return Zi.gen("tau")
            return NCPoly.zero(Zi)

        images = {A.alphabet.index[nm]: image(nm) for nm in A.alphabet.names}
        assert len(A.relations) > 0
        for rel in A.relations:
            out = NCPoly.zero(Zi)
            for word, c in rel.terms.items():
                prod = NCPoly.one(Zi)
                for g in word:
                    prod = prod * images[g]
                    if prod.is_zero():
                        break
                out = out + prod.scale(c)
            assert uq2m2.nf(out).is_zero()


def test_criterion_10_findim_obstruction():
    scipy_opt = pytest.importorskip("scipy.optimize")
    with criterion(10, "rectangular isometry algebras admit finite "
                       "dimensional representations iff square, with a "
                       "numeric cross-check at (2,1)", 10):
        for n in range(1, 5):
            for p in range(1, 5):
                assert findim_rep_obstruction(n, p) == (n == p)

        # 1-dim representation residual for the (2,1) relations: the
        # isometry and coisometry conditions cannot both hold for scalars
        def resid(x):
            a11 = complex(x[0], x[1])
            a21 = complex(x[2], x[3])
            vals = (abs(a11) ** 2 - 1.0,
                    a11 * a21.conjugate(),
                    abs(a21) ** 2 - 1.0,
                    abs(a11) ** 2 + abs(a21) ** 2 - 1.0)
            return sum(abs(v) ** 2 for v in vals)

        rng = random.Random(7)
        best = float("inf")
        for _ in range(40):
            x0 = [rng.uniform(-2, 2) for _ in range(4)]
            res = scipy_opt.minimize(resid, x0, method="Nelder-Mead",
                                     options={"xatol": 1e-10, "fatol": 1e-12})
            best = min(best, float(res.fun))
        assert best > 0.1


def test_criterion_11_property_suites(uq2):
    with criterion(11, "normal-form laws on random elements, scalar field "
                       "axioms, and snake identities", 120):
        specs = [("GLq2", {}), ("Uq2", {}), ("GLq2m2", {}), ("Uq2m2", {}),
                 ("GLqm22", {}), ("Onp", dict(n=2, p=1)), ("AuFG", {})]
        rng = random.Random(11)
        for name, kw in specs:
            p = catalog(name, **kw)
            p = p.ensure_degree(6)  # certify products of two degree-3 elements
            elems = [random_poly(rng, p.alphabet, degree=3, terms=4)
                     for _ in range(200)]
            normals = [p.nf(x) for x in elems]
            for x, n_x in zip(elems, normals):
                assert p.nf(n_x) == n_x
            for (x, n_x), (y, n_y) in zip(zip(elems, normals),
                                          zip(elems[1:], normals[1:])):
                a, b = random_scalar(rng), random_scalar(rng)
                assert p.nf(x.scale(a) + y.scale(b)) == \
                    n_x.scale(a) + n_y.scale(b)
                assert p.nf(x * y) == p.nf(n_x * n_y)

        for _ in range(1000):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not b.is_zero():
                assert (a * b) * b.inv() == a

        v = fundamental(uq2)
        for dim in (1, 2, 3):
            g = [[ScalarQ.q_power(2 * i) if i == j else S_ZERO
                  for j in range(dim)] for i in range(dim)]
            base = trivial(uq2) if dim == 1 else v
            ev, coev = duality_maps(UnitaryStructure(base, g))
            assert snake_check(ev, coev).ok
