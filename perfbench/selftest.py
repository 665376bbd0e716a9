"""Self-test of the output checks: every check passes on a right output
and fails on a deliberately wrong one, so none of them is vacuous.

    python3 perfbench/selftest.py

The right outputs come from running qgal here; the wrong ones perturb
them (a changed normal form, a wrong dimension or word count, a failing
item).  Exits 0 when every check behaved, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import checks
import worker
from run import README_COMMANDS, ROOT, SRC, child_env

# what the installed `qgal` console script runs
CONSOLE_SCRIPT = "import sys; from qgal.cli import main; sys.exit(main())"

FAILURES = []


def expect(label, problems, should_fail):
    ok = bool(problems) == should_fail
    print(f"  {'ok  ' if ok else 'FAIL'} {label}"
          + (f": {problems[0]}" if problems and ok else ""))
    if not ok:
        FAILURES.append(label)


def test_hilbert():
    hilbert = checks.hilbert_2x2(6)
    closed = [comb(d + 5, 5) - comb(d + 2, 5) for d in range(7)]
    expect("Hilbert function from sympy matches C(d+5,5) - C(d+2,5)",
           [] if hilbert == closed == [1, 6, 21, 55, 120, 231, 406]
           else [f"{hilbert} vs {closed}"], False)
    return hilbert


def test_cli(hilbert):
    outputs = {}
    for argv in README_COMMANDS:
        out = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT] + argv,
                             capture_output=True, text=True, env=child_env(),
                             cwd=ROOT, check=True).stdout
        outputs[argv[0] + ("-json" if "--json" in argv else "")
                + ("-galois" if "galois" in argv else "")] = (argv, out)
        expect(f"qgal {' '.join(argv)}: right output",
               checks.cli_problems(argv, out, hilbert), False)

    def wrong(key, old, new, label):
        argv, out = outputs[key]
        assert old in out, (key, old)
        expect(f"qgal {' '.join(argv)}: {label}",
               checks.cli_problems(argv, out.replace(old, new, 1), hilbert),
               True)

    wrong("normalize", "q*x11*x12", "x11*x12", "normal form without q")
    wrong("parse", "x11*x21", "x21*x11", "reordered product")
    wrong("verify", "  ok   star", "  FAIL star", "a failing item")
    argv, out = outputs["verify-galois"]
    dropped = "\n".join(out.splitlines()[:-3] + out.splitlines()[-2:])
    expect(f"qgal {' '.join(argv)}: one basis word missing",
           checks.cli_problems(argv, dropped, hilbert), True)
    wrong("verify-json", "64 checks", "63 checks", "galois on 20 words")
    wrong("verify-json", "25 checks", "24 checks", "haar on 20 words")
    wrong("verify-json", '"status": "pass"', '"status": "fail"', "a failed suite")
    wrong("haar", "z12                      (0)", "z12                      (q)",
          "mu nonzero on a generator")
    wrong("haar", "1                        (1)", "1                        (2)",
          "mu(1) = 2")
    wrong("cotensor", "= 2 at degree", "= 3 at degree", "wrong dimension")


def test_build(hilbert):
    from qgal import presentations

    p = presentations.catalog("GLq2m2").ensure_degree(6)
    facts = checks.presentation_facts(p, 6)
    expect("GLq2m2 at degree 6: right facts",
           checks.build_problems(facts, hilbert), False)
    wrong_counts = dict(facts, word_counts=facts["word_counts"][:6]
                        + [facts["word_counts"][6] + 1])
    expect("GLq2m2: one normal word too many at degree 6",
           checks.build_problems(wrong_counts, hilbert), True)
    expect("GLq2m2: an unresolved overlap",
           checks.build_problems(dict(facts, overlaps=1), hilbert), True)
    expect("GLq2m2: no relations",
           checks.build_problems(dict(facts, relations=0,
                                      relations_nonzero=0), hilbert), True)

    # a presentation whose rewrite system lost a rule: the relation of
    # that rule no longer normalises to 0
    class Dropped:
        relations = p.relations
        rewrite = type(p.rewrite)(p.alphabet, p.rewrite.rules[1:],
                                  p.rewrite.order, p.rewrite.completion_degree)

        def nf(self, poly):
            return self.rewrite.normal_form(poly)

    problems = checks.build_problems(checks.presentation_facts(Dropped()),
                                     hilbert)
    expect("GLq2m2 with a rule dropped: relations",
           [m for m in problems if "normalise" in m], True)


def test_nf():
    from qgal.scalars import Q

    algebras = worker.setup_nf_random()
    inputs = worker.nf_inputs(7, algebras)
    rng = random.Random(7)
    _, x, y = next(t for t in inputs if t[0] == "Uq2")
    p = algebras["Uq2"]
    z = x * y
    out = p.nf(z)
    chars = checks.uq2_characters(Fraction(2, 3), Fraction(-5, 7))
    a = worker.random_scalar(rng, rational=True)

    expect("nf Uq2: idempotent", checks.idempotence_problems(p, out), False)
    expect("nf Uq2: nf(nf(x)nf(y))", checks.product_problems(p, x, y, out),
           False)
    expect("nf Uq2: irreducible", checks.irreducible_problems(p, out), False)
    expect("nf Uq2: linear", checks.linearity_problems(p, z, out, a), False)
    expect("nf Uq2: characters", checks.character_problems(z, out, chars), False)

    # normal but wrong: one extra normal word
    plus = out + p.gen("x11")
    expect("nf Uq2 plus x11: nf(nf(x)nf(y))",
           checks.product_problems(p, x, y, plus), True)
    expect("nf Uq2 plus x11: linearity",
           checks.linearity_problems(p, z, plus, a), True)
    expect("nf Uq2 plus x11: characters",
           checks.character_problems(z, plus, chars), True)
    # right modulo the ideal but not reduced: x12*x11 = q x11*x12 undone
    unreduced = out + p.parse("x12*x11") - p.parse("x11*x12").scale(Q)
    expect("nf Uq2 with x12*x11 left unreduced: idempotence",
           checks.idempotence_problems(p, unreduced), True)
    expect("nf Uq2 with x12*x11 left unreduced: irreducibility",
           checks.irreducible_problems(p, unreduced), True)
    expect("nf Uq2 scaled by q: characters",
           checks.character_problems(z, out.scale(Q), chars), True)


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path.insert(0, str(SRC))
    print("Hilbert function")
    hilbert = test_hilbert()
    print("cli-readme checks")
    test_cli(hilbert)
    print("build-catalog checks")
    test_build(hilbert)
    print("nf-random checks")
    test_nf()
    if FAILURES:
        print(f"selftest: {len(FAILURES)} checks misbehaved: {FAILURES}")
        return 1
    print("selftest: every check passed its right output and failed its "
          "wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
