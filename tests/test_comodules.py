import pytest

from qgal import presentations
from qgal.comodules import (
    ComoduleError,
    Corep,
    NonPositiveGramError,
    UnitaryStructure,
    conjugate,
    duality_maps,
    fundamental,
    search_diagonal_gram,
    snake_check,
    tensor,
    trivial,
    unitarity_conjugator,
    verify_corep,
    verify_unitary_structure,
)
from qgal.cotensor import verify_biunitarity
from qgal.linalg import mat_inv
from qgal.presentations import (
    CoactionData,
    catalog,
    coaction,
    mat_mul,
    parse_presentation_text,
)
from qgal.report import Undecided
from qgal.scalars import Q, S_ONE, S_ZERO, ScalarQ


def test_trivial_and_fundamental(uq2):
    assert verify_corep(trivial(uq2)).ok
    v = fundamental(uq2)
    assert v.dim == 2
    assert verify_corep(v).ok


def test_determinant_one_dim(uq2):
    # the group-like element x11 x22 - q^-1 x12 x21 is a 1-dim corep
    d = Corep(uq2, [[uq2.parse("x11*x22 - q^-1*x12*x21")]])
    assert verify_corep(d).ok


def test_conjugate_and_tensor(uq2):
    v = fundamental(uq2)
    assert verify_corep(conjugate(v)).ok
    vv = tensor(v, v)
    assert vv.dim == 4
    assert verify_corep(vv).ok


def test_corrupted_corep_fails(uq2):
    v = fundamental(uq2)
    bad = Corep(uq2, [[v.matrix[0][0], v.matrix[0][1]],
                      [v.matrix[1][0], uq2.parse("x11 + x12")]])
    assert not verify_corep(bad).ok


def test_unitarity_of_conjugated_fundamental(uq2):
    # the conjugate matrix of the U_q(2) fundamental becomes unitary after
    # twisting by F = diag(1, q^-1); the untwisted conjugate is not
    v = fundamental(uq2)
    F = [[S_ONE, S_ZERO], [S_ZERO, ScalarQ.q_power(-1)]]
    assert unitarity_conjugator(v, F).ok
    identity = [[S_ONE, S_ZERO], [S_ZERO, S_ONE]]
    assert not unitarity_conjugator(v, identity).ok


@pytest.mark.parametrize("twisted", [True, False], ids=["twisted", "untwisted"])
def test_conjugator_and_biunitarity_report_alike(uq2, twisted):
    """Both check block unitarity through one routine: on w = F vbar F^-1
    they give the same items, all passing for F = diag(1, q^-1) and some
    failing for F = 1."""
    v = fundamental(uq2)
    F = [[S_ONE, S_ZERO], [S_ZERO, ScalarQ.q_power(-1 if twisted else 0)]]
    w = mat_mul(mat_mul(F, conjugate(v).matrix), mat_inv(F))
    hopf_on_itself = CoactionData(uq2, uq2, dict(uq2.hopf.delta))
    conj = unitarity_conjugator(v, F)
    biun = verify_biunitarity(hopf_on_itself, w)
    assert [(i.desc, i.status) for i in conj.items] == \
        [(i.desc, i.status) for i in biun.items]
    assert len(conj.items) == 8 and conj.ok is twisted


def test_unitarity_conjugator_singular_F(uq2):
    from qgal.linalg import LinearSolveError

    F = [[S_ONE, S_ZERO], [S_ONE, S_ZERO]]
    with pytest.raises(LinearSolveError):
        unitarity_conjugator(fundamental(uq2), F)


def test_search_diagonal_gram(uq2):
    u = search_diagonal_gram(fundamental(uq2))
    r = verify_unitary_structure(u)
    assert r.ok


def test_unitary_structure_rejects_bad_gram(uq2):
    v = fundamental(uq2)
    g = [[S_ONE, S_ZERO], [S_ZERO, ScalarQ.q_power(2)]]
    r = verify_unitary_structure(UnitaryStructure(v, g))
    # conjugate-symmetric and positive, but not invariant for this corep
    assert not r.ok
    assert any("invariance" in i.desc and i.status == "fail" for i in r.items)


def test_duality_and_snake_dims_1_to_3(uq2):
    v = fundamental(uq2)
    for dim in (1, 2, 3):
        g = [[ScalarQ.q_power(2 * i) if i == j else S_ZERO
              for j in range(dim)] for i in range(dim)]
        base = trivial(uq2) if dim == 1 else v
        ev, coev = duality_maps(UnitaryStructure(base, g))
        assert snake_check(ev, coev).ok


def test_unitary_structure_undecided_without_convergence(uq2, monkeypatch):
    from qgal import linalg

    # haar.add_gram_sample evaluates every sampled gram with linalg.eigvalsh
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    q = ScalarQ.q_power(1)
    g = [[S_ONE, q], [q, S_ONE + q * q]]
    r = verify_unitary_structure(UnitaryStructure(fundamental(uq2), g))
    pos = [i for i in r.items if i.desc.startswith("gram positive")]
    assert len(pos) == 3
    assert all(i.status == "undecided" and "did not converge" in i.witness
               for i in pos)
    with pytest.raises(Undecided, match="did not converge"):
        duality_maps(UnitaryStructure(fundamental(uq2), g))


def test_unitary_structure_reports_a_pole(uq2):
    """A gram with a pole at a sample q fails there, as in haar.check_gram,
    and raises nothing."""
    g = [[S_ONE, S_ZERO], [S_ZERO, (Q - 2).inv()]]
    r = verify_unitary_structure(UnitaryStructure(fundamental(uq2), g))
    at2 = [i for i in r.items if i.desc == "evaluation at q = 2.0"]
    assert len(at2) == 1 and at2[0].status == "fail"
    assert at2[0].witness == "denominator vanishes at q = 2.0"
    assert not r.ok


def test_duality_rejects_nonpositive_gram(uq2):
    g = [[S_ONE, S_ZERO], [S_ZERO, -S_ONE]]
    with pytest.raises(NonPositiveGramError):
        duality_maps(UnitaryStructure(fundamental(uq2), g))


# the square blocks of the catalog, named independently of the builders
SQUARE = [("GLq2", {}, "x", 2), ("Uq2", {}, "x", 2), ("GLq2m2", {}, "z", 2),
          ("Uq2m2", {}, "z", 2), ("GLqm22", {}, "t", 2),
          ("Onp", {"n": 2, "p": 2}, "a", 2), ("AuF", {}, "z", 3),
          ("AuFG", {}, "z", 3)]


@pytest.mark.parametrize("name,params,prefix,n", SQUARE)
def test_fundamental_is_the_declared_block(name, params, prefix, n):
    p = catalog(name, **params)
    names = [[f"{prefix}{i}{j}" for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert fundamental(p).matrix == [[p.gen(g) for g in row] for row in names]


def test_fundamental_needs_a_declared_square_block():
    with pytest.raises(ComoduleError, match="declares no square generator block"):
        fundamental(parse_presentation_text("algebra m\ngenerators z11 z12 z21 z22\n"))
    with pytest.raises(ComoduleError, match=r"Onp\(2,1\): declares no square"):
        fundamental(catalog("Onp"))


def test_rectangular_block_is_unitary_as_a_whole(monkeypatch):
    """z is 2x3 on AuFG(F, I3): both unitarity families hold on all of
    it, 9 + 4 items, where a 2x2 corner of it is not unitary."""
    monkeypatch.setattr(presentations, "_CACHE", dict(presentations._CACHE))
    c = coaction("AuFG", F=[[1, 1], [0, 1]], G=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r = verify_biunitarity(c, c.total.block)
    assert r.check_name == "biunitarity(AuFG, 2x3 block)"
    assert len(r.items) == 13 and r.ok
    corner = [row[:2] for row in c.total.block]
    assert not verify_biunitarity(c, corner).ok
    with pytest.raises(ComoduleError, match="AuFG: declares no square"):
        fundamental(c.total)


def test_tensor_compares_presentations_by_content(monkeypatch, uq2):
    monkeypatch.setattr(presentations, "_CACHE", dict(presentations._CACHE))
    v = fundamental(catalog("AuF"))
    w = fundamental(catalog("AuF", F=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert v.pres.name == w.pres.name
    with pytest.raises(ComoduleError, match="different presentations"):
        tensor(v, w)
    u = fundamental(uq2)
    vw = tensor(u, fundamental(uq2.ensure_degree(5)))
    assert vw.dim == 4 and vw.pres is uq2
