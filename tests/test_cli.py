import argparse
import builtins
import json
import os
import subprocess
import sys

import pytest

from conftest import subprocess_env
from qgal import __version__, characters, cli, presentations
from qgal.cli import main, suites_for
from qgal.haar import HaarError
from qgal.linalg import BlockBudgetError, NonUniqueSolutionError
from qgal.ncpoly import MAX_Q_EXPONENT
from qgal.rewrite import CompletionBudgetError, ConfluenceError

QPLANE = """
algebra qplane
generators x y
order x < y
relation y*x - q*x*y
star x -> x
star y -> y
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "Uq2m2", "--suite", "star")
    assert code == 0
    assert "[PASS]" in out


def test_failing_star_exits_1(tmp_path, capsys):
    f = tmp_path / "qplane.alg"
    f.write_text(QPLANE)
    code, out, _ = run(capsys, "verify", str(f), "--suite", "star")
    assert code == 1
    assert "[FAIL]" in out


def test_undecided_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("QGAL_DEGREE_CAP", "1")
    code, out, _ = run(capsys, "verify", "Onp", "--n", "2", "--p", "2",
                       "--suite", "spectrum")
    assert code == 2


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_malformed_degree_cap_exits_3(monkeypatch, capsys, value):
    # a usage error that names the variable and its value, no traceback
    monkeypatch.setenv("QGAL_DEGREE_CAP", value)
    code, _, err = run(capsys, "verify", "Uq2m2", "--suite", "spectrum")
    assert code == 3
    assert err == ("error: AlgebraError: QGAL_DEGREE_CAP must be an integer >= 0, "
                   f"got {value!r}\n")


def test_unknown_target_exits_3(capsys):
    code, _, err = run(capsys, "verify", "Nope", "--suite", "star")
    assert code == 3
    assert "error" in err


def test_directory_target_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path), "--suite", "star")
    assert code == 3
    assert "unknown target" in err


def test_inapplicable_suite_exits_3(capsys):
    code, _, err = run(capsys, "verify", "GLq2", "--suite", "star")
    assert code == 3


SUITES_ALL = {
    "GLq2": ["hopf", "spectrum", "galois"],
    "Uq2": ["hopf", "star", "spectrum", "haar", "galois"],
    "GLq2m2": ["spectrum", "coaction", "cotensor", "galois"],
    "Uq2m2": ["star", "spectrum", "coaction", "biunitarity", "haar",
              "cotensor", "galois"],
    "GLqm22": ["spectrum"],
    "Onp": ["star", "spectrum"],
    "AuF": ["hopf", "star", "spectrum", "haar", "galois"],
    "AuFG": ["star", "spectrum", "coaction", "biunitarity", "haar",
             "cotensor", "galois"],
}


def test_suites_for_each_catalog_target(c_aufg):
    # c_aufg shares its total with the AuFG target, so nothing is rebuilt
    for degree in (1, 2):
        args = argparse.Namespace(n=None, p=None, degree=degree)
        for target, suites in SUITES_ALL.items():
            assert suites_for(target, args) == suites, target


LINE = "algebra line\ngenerators x\nstar x -> x\n"


@pytest.fixture
def trivial_coaction(tmp_path):
    """A coaction file: Uq2 coacting trivially on the free *-algebra on
    one self-adjoint generator."""
    (tmp_path / "line.alg").write_text(LINE)
    f = tmp_path / "trivial.coa"
    f.write_text(f"coaction {tmp_path / 'line.alg'} over Uq2\n"
                 "alpha x -> 1 (x) x\n")
    return str(f)


def test_coaction_file_runs_its_suites(capsys, trivial_coaction):
    args = argparse.Namespace(n=None, p=None, degree=2)
    # no declared block: biunitarity is out
    assert suites_for(trivial_coaction, args) == [
        "star", "spectrum", "coaction", "haar", "cotensor", "galois"]
    for suite in ("star", "spectrum"):
        code, out, err = run(capsys, "verify", trivial_coaction, "--suite", suite)
        assert code == 0, err
        assert "[PASS]" in out and "[FAIL]" not in out
    code, out, _ = run(capsys, "verify", trivial_coaction, "--suite", "star")
    assert out.startswith("[PASS] star(line)")
    # alpha(x) = 1 (x) x is not Galois: beta has a kernel vector
    code, out, _ = run(capsys, "verify", trivial_coaction, "--suite", "galois")
    assert code == 1
    assert "FAIL beta(k) = 0, so line is not Galois  [k = 1 (x) x - x (x) 1]" in out
    code, out, _ = run(capsys, "verify", trivial_coaction, "--suite", "all")
    assert code == 1
    assert "FAIL suite galois: galois(line over Uq2, degree 2)" in out
    code, _, err = run(capsys, "verify", trivial_coaction, "--suite", "biunitarity")
    assert code == 3 and "declares no generator block" in err


def test_coaction_file_names_resolve_next_to_it(tmp_path, monkeypatch, capsys):
    (tmp_path / "line.alg").write_text(LINE)
    f = tmp_path / "triv.coa"
    f.write_text("coaction line.alg over Uq2\nalpha x -> 1 (x) x\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, out, err = run(capsys, "verify", str(f), "--suite", "coaction")
    assert code == 0, err
    assert out.startswith("[PASS] coaction(line over Uq2)")


def test_each_file_is_parsed_once(tmp_path, monkeypatch, capsys):
    (tmp_path / "line.alg").write_text(LINE)
    f = tmp_path / "triv.coa"
    f.write_text(f"coaction {tmp_path / 'line.alg'} over Uq2\n"
                 "alpha x -> 1 (x) x\n")
    calls = []
    parse = presentations.parse_presentation_text
    monkeypatch.setattr(presentations, "parse_presentation_text",
                        lambda *a, **k: calls.append(a) or parse(*a, **k))
    code, _, err = run(capsys, "verify", str(f), "--suite", "all")
    assert code == 1, err  # the coaction is not Galois
    assert len(calls) == 1
    # another text at the same path is another input
    (tmp_path / "line.alg").write_text(LINE + "relation x*x - x\n")
    run(capsys, "verify", str(f), "--suite", "star")
    assert len(calls) == 2


def test_each_text_is_read_once(trivial_coaction, monkeypatch, capsys):
    # one read of the coaction file's directives and one of the
    # presentation file's, however often the suites load them; earlier
    # tests read the same presentation text
    monkeypatch.setattr(cli, "_READ", {})
    calls = []
    read = presentations.read_dsl
    monkeypatch.setattr(presentations, "read_dsl",
                        lambda text: calls.append(text) or read(text))
    code, _, err = run(capsys, "verify", trivial_coaction, "--suite", "all")
    assert code == 1, err  # the coaction is not Galois
    assert len(calls) == len(set(calls)) == 2
    # an edited file is another text, and is read again
    line = os.path.join(os.path.dirname(trivial_coaction), "line.alg")
    with open(line, "a") as fh:
        fh.write("relation x*x - x\n")
    run(capsys, "verify", trivial_coaction, "--suite", "star")
    assert len(calls) == 3 and calls[2].endswith("relation x*x - x\n")


def test_a_coaction_file_is_read_once(tmp_path, monkeypatch):
    """Loading a coaction file reads its directives in one pass, which
    both tells a coaction file from a presentation file and gives the
    coaction parser its lines."""
    f = tmp_path / "triv.coa"
    f.write_text("coaction GLq2m2 over GLq2\n" + "".join(
        f"alpha {g} -> 1 (x) {g}\n" for g in ("tau", "z11", "z12", "z21", "z22")))
    # a text that an earlier load in this process read is not read again
    monkeypatch.setattr(cli, "_READ", {})
    calls = []
    sections = presentations._sections
    monkeypatch.setattr(presentations, "_sections",
                        lambda *a, **k: calls.append(a) or sections(*a, **k))
    c = cli.resolve_coaction(str(f), argparse.Namespace(n=None, p=None))
    assert (c.base.name, c.total.name) == ("GLq2", "GLq2m2")
    assert len(calls) == 1


def test_file_base_has_no_fundamental_comodule(tmp_path, capsys):
    (tmp_path / "line.alg").write_text(LINE)
    f = tmp_path / "self.coa"
    f.write_text(f"coaction {tmp_path / 'line.alg'} over {tmp_path / 'line.alg'}\n"
                 "alpha x -> 1 (x) x\n")
    code, _, err = run(capsys, "cotensor", str(f))
    assert code == 3
    assert "ComoduleError: line: declares no square generator block" in err


def test_coaction_file_naming_itself_exits_3(tmp_path, capsys):
    f = tmp_path / "loop.coa"
    f.write_text("coaction loop.coa over Uq2\n")
    code, out, err = run(capsys, "verify", str(f), "--suite", "star")
    assert code == 3 and out == ""
    path = os.path.realpath(f)
    assert f"CliError: cycle of coaction files: {path} -> {path}\n" in err


def test_coaction_files_naming_each_other_exit_3(tmp_path, capsys):
    a, b = tmp_path / "a.coa", tmp_path / "b.coa"
    a.write_text("coaction b.coa over Uq2\n")
    b.write_text("coaction a.coa over Uq2\n")
    code, out, err = run(capsys, "verify", str(a), "--suite", "star")
    assert code == 3 and out == ""
    pa, pb = os.path.realpath(a), os.path.realpath(b)
    assert f"CliError: cycle of coaction files: {pa} -> {pb} -> {pa}\n" in err


@pytest.mark.parametrize("target", ["GLq2", "GLq2m2"])
def test_verify_all_without_star(capsys, target):
    code, out, err = run(capsys, "verify", target, "--suite", "all")
    assert code == 0, err
    assert "[PASS] all(" in out


def test_q_zero_rejected(capsys):
    code, _, err = run(capsys, "verify", "Uq2m2", "--suite", "star",
                       "--q", "0.5,0")
    assert code == 3
    assert "q = 0" in err


@pytest.mark.parametrize("q_list", [",", "nan", "inf", "0.5,nan"])
def test_empty_or_nonfinite_q_rejected(capsys, q_list):
    code, _, err = run(capsys, "haar", "Uq2m2", "--degree", "1", "--q", q_list)
    assert code == 3
    assert "CliError" in err


def test_q_overflow_is_undecided(capsys):
    code, out, _ = run(capsys, "haar", "Uq2m2", "--degree", "1", "--q", "0.5,1e308")
    assert code == 2
    assert "evaluation at q = 1e+308  [float overflow:" in out


@pytest.mark.parametrize("argv", [
    ["--degree", "1", "--q", "abc"],    # a q list that does not parse
    ["--bogus"],                        # an unknown flag
    ["--degree", "x"],                  # a degree that is not an int
    ["--q", "-inf"],                    # argparse reads -inf as an option
])
def test_argparse_rejection_exits_3(capsys, argv):
    code, out, err = run(capsys, "haar", "Uq2m2", *argv)
    assert code == 3
    assert out == ""
    assert "usage: qgal" in err and "error: CliError: qgal" in err


@pytest.mark.parametrize("argv", [
    ["parse", "GLq2", "x11", "--json"],
    ["parse", "GLq2", "x11", "--q", "3"],
    ["normalize", "GLq2", "x12*x11", "--q", "3"],
])
def test_a_flag_the_command_does_not_read_exits_3(capsys, argv):
    """Each command takes only the flags it reads: parse prints no JSON
    and samples no q, and normalize samples no q."""
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[3:])}" in err


@pytest.mark.parametrize("argv", [
    ["haar", "Uq2m2", "--degree", "-1"],
    ["verify", "GLq2m2", "--suite", "galois", "--degree", "-1"],
    # run, it would pass vacuously: dim(V wedge Z) = 0 at degree -2
    ["cotensor", "Uq2m2", "--degree", "-2"],
])
def test_negative_degree_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "argument --degree: degree must be an integer >= 0, got '-" in err


def test_degree_0_runs_every_suite(capsys):
    code, out, err = run(capsys, "verify", "Uq2m2", "--suite", "all",
                         "--degree", "0")
    assert code == 0, err
    assert out.startswith("[PASS] star(Uq2m2)") and "[FAIL]" not in out


def test_help_exits_0(capsys):
    for argv in (["--help"], ["haar", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: qgal" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["tensorx", "tensor0", "tensor-1", "tensor+2"])
def test_bad_tensor_spec_exits_3(capsys, spec):
    code, _, err = run(capsys, "cotensor", "Uq2m2", "--comodule", spec,
                       "--degree", "1")
    assert code == 3
    assert "unknown comodule spec" in err


def test_json_schema(capsys, monkeypatch):
    # an empty catalog cache, so that the provenance below is that of
    # these commands alone, as in a fresh `qgal` process
    monkeypatch.setattr(presentations, "_CACHE", {})
    code, out, _ = run(capsys, "verify", "Uq2m2", "--suite", "star", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"check", "status", "items", "timing_ms", "params"}
    assert doc["status"] == "pass"
    for item in doc["items"]:
        assert set(item) == {"desc", "status", "witness"}
    assert doc["params"]["degree"] == 2
    assert doc["params"]["q_samples"] == [0.5, 0.9, 2.0]
    # Uq2m2 is built complete to degree 4, with 13 rules; haar at degree 1
    # solves to depth 3 and needs no longer completion
    _assert_provenance(doc["params"], "Uq2m2", 4, 13)
    code, out, _ = run(capsys, "haar", "Uq2m2", "--degree", "1", "--json")
    assert code == 0
    _assert_provenance(json.loads(out)["params"], "Uq2m2", 4, 13)


def test_haar_completes_each_algebra_once_past_its_build(capsys, monkeypatch):
    """haar Uq2m2 builds Uq2 and Uq2m2 complete to degree 4, and its
    basis(6) completes each once more, to 6.  The words of length 5 that
    the extension meets after take that degree-6 copy: ensure_degree
    reuses the shallowest copy that reaches the degree asked."""
    monkeypatch.setattr(presentations, "_CACHE", {})
    degrees = []
    complete = presentations.complete
    monkeypatch.setattr(presentations, "complete",
                        lambda rs, d: degrees.append(d) or complete(rs, d))
    code, _, err = run(capsys, "haar", "Uq2m2")
    assert code == 0, err
    assert degrees == [4, 4, 6, 6]


def _assert_provenance(params, target, completion_degree, rules):
    assert params["qgal_version"] == __version__
    assert params["target"] == target
    assert params["completion_degree"] == completion_degree
    assert params["rules"] == rules


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "GLq2", "x12*x11")
    assert code == 0
    assert out.strip() == "q*x11*x12"


def test_normalize_json_carries_the_provenance_of_the_run(capsys, monkeypatch):
    monkeypatch.setattr(presentations, "_CACHE", {})
    code, out, _ = run(capsys, "normalize", "GLq2", "x12*x11", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "normalize(GLq2)"
    assert doc["items"] == [{"desc": "normal form", "status": "pass",
                             "witness": "q*x11*x12"}]
    # GLq2 is built complete to degree 4, with 13 rules
    _assert_provenance(doc["params"], "GLq2", 4, 13)
    assert doc["params"]["target_params"] == {}


@pytest.mark.parametrize("argv, params", [
    (["normalize", "Onp", "a11*a21", "--json"], {"n": 2, "p": 1}),
    (["normalize", "Onp", "a11*a21", "--p", "2", "--json"], {"n": 2, "p": 2}),
    (["verify", "Onp", "--n", "3", "--suite", "star", "--json"], {"n": 3, "p": 1}),
    (["haar", "AuF", "--degree", "0", "--json"],
     {"F": [["(0)", "(1)", "(0)"], ["(-q)", "(0)", "(0)"], ["(0)", "(0)", "(1)"]]}),
], ids=["defaults", "p-set", "n-set", "matrix"])
def test_json_records_the_catalog_parameters_in_effect(capsys, argv, params):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["params"]["target_params"] == params


def test_file_target_has_no_catalog_parameters(tmp_path, capsys):
    f = tmp_path / "qplane.alg"
    f.write_text(QPLANE)
    code, out, _ = run(capsys, "normalize", str(f), "y*x", "--json")
    assert code == 0
    assert json.loads(out)["params"]["target_params"] is None


def test_normalize_file_target(tmp_path, capsys):
    f = tmp_path / "qplane.alg"
    f.write_text(QPLANE)
    code, out, _ = run(capsys, "normalize", str(f), "y*x")
    assert code == 0
    assert out.strip() == "q*x*y"


def test_normalize_certifies_to_the_input_degree(tmp_path, capsys):
    # the file builds at degree 3; the overlap xyx.yx of degree 5 only
    # resolves once the system is completed to the degree of the input
    f = tmp_path / "xyx.alg"
    f.write_text("algebra xyx\ngenerators x y\nrelation x*y*x - y\n")
    code, out, _ = run(capsys, "normalize", str(f), "x*y*x*y*x")
    assert code == 0
    assert out.strip() == "x*y*y"


def test_normalize_does_not_depend_on_earlier_commands(capsys):
    want = "q*z11*z11 - q*tau*z11*z11*z11*z22"
    code, out, _ = run(capsys, "normalize", "Uq2m2", "tau*z11*z11*z12*z21")
    assert code == 0 and out.strip() == want
    assert run(capsys, "verify", "Uq2m2", "--suite", "haar")[0] == 0
    code, out, _ = run(capsys, "normalize", "Uq2m2", "tau*z11*z11*z12*z21")
    assert code == 0 and out.strip() == want


def test_parse_echo(capsys):
    code, out, _ = run(capsys, "parse", "GLq2", "x11*(x12 + x21)")
    assert code == 0
    assert "x11*x12" in out and "x11*x21" in out


def test_parse_error_exits_3(capsys):
    code, _, err = run(capsys, "parse", "GLq2", "x11*(")
    assert code == 3
    assert "column" in err


def test_q_exponent_beyond_the_bound_exits_3(capsys):
    # each exponent would cost a list of 10^8 numerators, in a gcd or in a
    # product: the parser refuses both before any arithmetic
    for expr in ("x11/(1+q^100000000)", "(1+q^100000000)*x11"):
        code, out, err = run(capsys, "normalize", "Uq2", expr)
        assert (code, out) == (3, "")
        assert f"limit +-{MAX_Q_EXPONENT}" in err


def test_parsed_scalars_beyond_the_bound_exit_3(capsys):
    # each factor is within the bound, but the product of two is not: its
    # numerator list alone would hold 10^4 numerators, and the gcds of the
    # sum of two such quotients took seconds
    P = "*".join(["(1+q^1000)"] * 10)
    Q = "*".join(["(1-q^999)"] * 10)
    code, out, err = run(capsys, "normalize", "Uq2", f"x11/({P}) + x11/({Q})")
    assert (code, out) == (3, "")
    assert err == (f"parse error: q exponent 2000 of a coefficient is beyond the "
                   f"limit +-{MAX_Q_EXPONENT} (line 1, column 16)\n")


def test_parse_error_at_the_end_names_the_end_of_input(capsys):
    code, _, err = run(capsys, "parse", "GLq2", "x11 +")
    assert code == 3
    assert err == "parse error: unexpected end of input (line 1, column 6)\n"


def test_spectrum_onp(capsys):
    code, out, _ = run(capsys, "verify", "Onp", "--n", "1", "--p", "1",
                       "--suite", "spectrum")
    assert code == 0
    assert "nonempty" in out


def test_spectrum_aufg_has_the_counit_of_auf(monkeypatch, capsys):
    # z_ij, z_ij* -> delta_ij kills the 36 abelianized relations of AuFG;
    # Groebner passes its degree cap before it finds that out
    def no_groebner(*args, **kwargs):
        raise AssertionError("Groebner basis computed")

    monkeypatch.setattr(characters, "groebner", no_groebner)
    code, out, _ = run(capsys, "verify", "AuFG", "--suite", "spectrum",
                       "--json")
    assert code == 0
    (item,) = json.loads(out)["items"]
    assert item["desc"] == "spectrum is nonempty"
    delta = ", ".join(f"z{i}{j}{s} -> ({int(i == j)})" for i in (1, 2, 3)
                      for j in (1, 2, 3) for s in ("", "s"))
    assert item["witness"] == (
        f"character: {delta}; the counit of AuF, carried over by generator "
        f"name: a Galois object with a character is trivial")


def test_spectrum_glq2m2_builds_no_coaction_base(monkeypatch, capsys):
    # GLq2, the base of GLq2m2's coaction, has other generator names, so
    # its counit cannot carry over: the suite builds GLq2m2 alone
    monkeypatch.setattr(presentations, "_CACHE", {})
    code, out, _ = run(capsys, "verify", "GLq2m2", "--suite", "spectrum")
    assert code == 0
    assert out.splitlines()[:2] == [
        "[PASS] spectrum(GLq2m2)",
        "  ok   spectrum is empty (1 lies in the abelianized ideal)"]
    assert [key[0] for key in presentations._CACHE] == ["GLq2m2"]


def test_base_names_flags_the_coactions_whose_names_match(c_glq, c_uq,
                                                         c_aufg):
    for name, c in (("GLq2m2", c_glq), ("Uq2m2", c_uq), ("AuFG", c_aufg)):
        same = sorted(c.base.alphabet.names) == sorted(c.total.alphabet.names)
        assert presentations.CATALOG[name].base_names == same, name
    assert [name for name, entry in presentations.CATALOG.items()
            if entry.coaction is not None] == ["GLq2m2", "Uq2m2", "AuFG"]


def test_haar_command(capsys):
    code, out, _ = run(capsys, "haar", "Uq2m2", "--degree", "1")
    assert code == 0
    assert "PSD evidence" in out


@pytest.mark.parametrize("argv", [["haar", "Uq2m2", "--degree", "1"],
                                  ["verify", "Uq2m2", "--suite", "haar",
                                   "--degree", "1"]], ids=["haar", "suite"])
def test_haar_reports_how_J_and_mu_were_solved(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    params = json.loads(out)["params"]
    # depth 3 * degree: 55 normal words of degree <= 3 on each 2x2 algebra
    # J is eliminated in blocks, mu is no solve
    for name, grading, solve in (("J", "row and column", {"blocks", "largest_block"}),
                                 ("mu", "row", set())):
        prov = params[name]
        assert set(prov) == {"depth", "basis_words", "solved_words", "grading", *solve}
        assert (prov["depth"], prov["basis_words"]) == (3, 55)
        assert 0 < prov["solved_words"] < 55
        assert prov["grading"] == grading
    # J's 10 solved words, in 3 blocks of one row grade each
    assert (params["J"]["solved_words"], params["J"]["blocks"],
            params["J"]["largest_block"]) == (10, 3, 4)


def test_galois_json_records_what_it_certified(capsys, monkeypatch):
    monkeypatch.setattr(presentations, "_CACHE", {})
    code, out, _ = run(capsys, "verify", "GLq2m2", "--suite", "galois", "--json")
    assert code == 0
    # the 11 defining relations of GLq2 checked against tau, GLq2 at its
    # build degree and GLq2m2 completed to 6 (20 rules), and tau solved at
    # degree 3, in 9 blocks of at most 44 unknowns over degrees 1 to 3;
    # completion_degree is the int every report gives
    assert json.loads(out)["params"] == {
        "degree": 2, "relations_checked": 11,
        "leg_completion_degrees": {"base": 4, "total": 6}, "witness_degree": 3,
        "blocks": 9, "largest_block": 44,
        "q_samples": [0.5, 0.9, 2.0], "qgal_version": __version__,
        "target": "GLq2m2", "target_params": {}, "completion_degree": 6,
        "rules": 20}


def test_haar_auf_degree_1(capsys):
    code, out, _ = run(capsys, "haar", "AuF", "--degree", "1")
    assert code == 0
    table = dict(line.split() for line in out.splitlines()[:19])
    assert table.pop("1") == "(1)"
    assert sorted(table) == sorted(presentations.catalog("AuF").alphabet.names)
    assert len(table) == 18
    assert set(table.values()) == {"(0)"}


def test_cotensor_command(capsys):
    code, out, _ = run(capsys, "cotensor", "Uq2m2")
    assert code == 0
    assert "dim(V wedge Z) = 2" in out
    assert "stable" in out


def test_cotensor_below_coefficient_degree_is_undecided(capsys):
    # V (x) V has coefficients of degree 2, so degrees 0 and 1 both give
    # dimension 0; the true dimension, 4, appears at degree 2
    code, out, _ = run(capsys, "cotensor", "Uq2m2", "--comodule", "tensor2",
                       "--degree", "1")
    assert code == 2
    assert "[UNDECIDED]" in out
    assert "below the comodule's coefficient degree 2" in out


@pytest.mark.parametrize("spec", ["conjugate", "tensor2"])
def test_cotensor_gram_of_other_comodules_is_checked_for_positivity(capsys, spec):
    # the echelon kernel basis is orthonormal only for the fundamental
    # comodule; here its Gram is 2/(1+q^2) I (conjugate) or has a 2x2
    # block of determinant q^2 (tensor2): positive definite, not I
    code, out, _ = run(capsys, "cotensor", "Uq2m2", "--comodule", spec,
                       "--degree", "3")
    assert code == 0
    assert "Gram matrix under the Haar measure is the identity" not in out
    assert "ok   gram conjugate-symmetric exactly over the scalar field" in out
    assert out.count("ok   PSD evidence at q = ") == 3


def test_cotensor_tensor2_at_its_coefficient_degree_is_undecided(capsys):
    # degree 1 lies below the coefficient degree 2, so stability stays
    # undecided; the Gram checks pass
    code, out, _ = run(capsys, "cotensor", "Uq2m2", "--comodule", "tensor2",
                       "--degree", "2", "--json")
    assert code == 2
    doc = json.loads(out)
    assert [i["status"] for i in doc["items"]] == \
        ["pass", "undecided", "pass", "pass", "pass", "pass"]
    assert doc["params"]["q_samples"] == [0.5, 0.9, 2.0]


def test_gram_check_fails_a_mutated_off_diagonal_entry():
    from qgal.haar import check_gram
    from qgal.report import Report
    from qgal.scalars import Q, S_ONE, S_ZERO

    q2, q4 = Q * Q, Q * Q * Q * Q
    gram = [[q2 + q4, S_ZERO, q4, S_ZERO],
            [S_ZERO, S_ONE, S_ZERO, S_ZERO],
            [q4, S_ZERO, S_ONE - q2 + q4, S_ZERO],
            [S_ZERO, S_ZERO, S_ZERO, S_ONE]]
    report = Report("gram")
    check_gram(report, gram, [0.5, 2.0])
    assert report.ok and len(report.items) == 3
    gram[0][2] = q4 + Q
    report = Report("gram")
    check_gram(report, gram, [0.5, 2.0])
    first = report.items[0]
    assert first.desc == "gram conjugate-symmetric exactly over the scalar field"
    assert first.status == "fail"


@pytest.mark.parametrize("error", [
    NonUniqueSolutionError("2 free variables"),
    CompletionBudgetError("budget of 5 rounds exhausted"),
    ConfluenceError("degree 7 exceeds the completion degree 6"),
    BlockBudgetError((0, 0), 4, 3),
])
def test_stopped_computation_exits_2(monkeypatch, capsys, error):
    def stop(args):
        raise error

    monkeypatch.setattr(cli, "cmd_verify", stop)
    code, _, err = run(capsys, "verify", "Uq2m2", "--suite", "star")
    assert code == 2
    assert f"undecided: {type(error).__name__}: {error}" in err


def test_algebra_error_exits_3(monkeypatch, capsys):
    def refuse(args):
        raise HaarError("Uq2 carries no star structure")

    monkeypatch.setattr(cli, "cmd_haar", refuse)
    code, _, err = run(capsys, "haar", "Uq2")
    assert code == 3
    assert "HaarError: Uq2 carries no star structure" in err


def test_internal_error_exits_4(monkeypatch, capsys):
    def crash(args):
        raise KeyError("x13")

    monkeypatch.setattr(cli, "cmd_normalize", crash)
    code, _, err = run(capsys, "normalize", "GLq2", "x12*x11")
    assert code == 4
    assert "internal error: KeyError" in err


def test_out_of_memory_exits_4_without_a_traceback(monkeypatch, capfd):
    """Out of memory, importing `traceback` raised a second MemoryError,
    and Python exited 1, the code of a fail; so can formatting a message
    and writing it through sys.stderr.  Here the handler can do neither."""
    class Exhausted:
        def write(self, text):
            raise MemoryError

    def exhaust(args):
        def refuse(*a, **k):
            raise MemoryError

        monkeypatch.setattr(sys, "stderr", Exhausted())
        monkeypatch.setattr(builtins, "__import__", refuse)
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_normalize", exhaust)
    try:
        code = main(["normalize", "GLq2", "x12*x11"])
    finally:
        monkeypatch.undo()  # imports and sys.stderr work again
    assert code == 4
    assert capfd.readouterr().err == "internal error: out of memory\n"


QGAL = [sys.executable, "-c", "import sys; from qgal.cli import main; sys.exit(main())"]


def test_closed_stdout_exits_141():
    """`qgal ... | head -1`: the reader leaves after one line, while the
    later suites are still to be printed."""
    proc = subprocess.Popen(
        QGAL + ["verify", "Uq2m2", "--suite", "all"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=subprocess_env(PYTHONUNBUFFERED="1"))
    assert proc.stdout.readline().startswith(b"[PASS] ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == 141
    assert err == ""  # no traceback, no "internal error"


def test_stdout_closed_before_buffered_output_exits_141():
    """A reader gone before block-buffered output is flushed at the end."""
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(QGAL + ["parse", "GLq2", "x11*x12"], stdout=w,
                              stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_n_and_p_only_where_the_target_takes_them(tmp_path, capsys):
    code, _, err = run(capsys, "normalize", "Uq2", "x12*x11", "--n", "5")
    assert code == 3 and "takes no --n" in err
    f = tmp_path / "qplane.alg"
    f.write_text(QPLANE)
    code, _, err = run(capsys, "normalize", str(f), "y*x", "--p", "3")
    assert code == 3 and "takes no --p" in err
    code, out, err = run(capsys, "verify", "Onp", "--n", "3", "--p", "2",
                         "--suite", "star")
    assert code == 0, err
    assert out.startswith("[PASS] star(Onp(3,2))")
