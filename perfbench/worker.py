"""One process that runs an in-process workload against qgal.

    python3 perfbench/worker.py <build-catalog|nf-random> --seed N
        --seconds S [--segments K] [--trace FILE] [--setup-only]

It imports qgal (and, for nf-random, builds its algebras), prints
`ready`, then runs whole rounds of the workload's operations until S
seconds have passed, checks the outputs, and prints one JSON line: every
timed sample as [operation index, label, start, end], the peak resident
set measured before any check ran, the operations that raised, and what
the checks found.  With --trace, the layer tracer is installed after the
import and its spans and counts go to FILE.  run.py starts this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from fractions import Fraction

import hostspeed

# catalog targets as `qgal verify` names them; Onp resolves to Onp(2,1)
CATALOG_TARGETS = ("GLq2", "Uq2", "GLq2m2", "Uq2m2", "GLqm22", "Onp", "AuFG")
COACTION_TARGETS = ("GLq2m2", "Uq2m2", "AuFG")
FAMILY_2X2 = ("GLq2", "Uq2", "GLq2m2", "Uq2m2", "GLqm22")
NF_ALGEBRAS = ("Uq2", "Uq2m2", "GLqm22")
COMPLETION_DEGREE = 6
INPUTS_PER_ALGEBRA = 40
# Operations that take under a few seconds run this many times per round,
# so that their median latency is not one sample; the long ones (here the
# AuFG builds, 85% of the round) run once.
REPEATS = 3
LONG_TARGETS = ("AuFG",)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """Times operations and, when traced, marks them for the tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.timed = []          # [op index, label, start, end]
        self.failed = []
        self.rss = 0.0
        self._count = {}

    def run(self, index, label, fn, sample_memo=True):
        """Time fn() as one sample of operation `index`; the result is
        None when the call raised."""
        n = self._count.get(index, 0)
        self._count[index] = n + 1
        t = self.tracer
        if t:
            t.begin(f"o{index}.s{n}")
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # a failed operation is counted, not fatal
            result = None
            self.failed.append(f"{label}: {type(e).__name__}: {e}")
        end = time.perf_counter()
        self.rss = max(self.rss, peak_rss_mb())
        if t:
            if sample_memo:
                t.sample_memo()
            t.end()
        self.timed.append([index, label, start, end])
        return result


# ---------------------------------------------------------------------------
# build-catalog
# ---------------------------------------------------------------------------


def build_catalog_ops(seed):
    ops = [("catalog", n) for n in CATALOG_TARGETS]
    ops += [("coaction", n) for n in COACTION_TARGETS]
    ops += [("degree", n) for n in FAMILY_2X2]
    random.Random(seed).shuffle(ops)
    return ops


def _rules(p):
    return [(r.lhs, r.rhs.pretty()) for r in p.rewrite.rules]


def run_build_catalog(args, samples):
    from qgal import cli, presentations

    import checks

    cli_args = argparse.Namespace(n=None, p=None, degree=2)
    ops = build_catalog_ops(args.seed)
    facts, first_rules, problems = [], {}, []
    start = time.perf_counter()
    while True:
        for rep in range(REPEATS):
            for i, (kind, name) in enumerate(ops):
                if rep and name in LONG_TARGETS:
                    continue
                presentations._CACHE.clear()
                if kind == "catalog":
                    fn = lambda: cli.resolve_presentation(name, cli_args)
                elif kind == "coaction":
                    fn = lambda: cli.resolve_coaction(name, cli_args)
                else:
                    p = cli.resolve_presentation(name, cli_args)
                    fn = lambda: p.ensure_degree(COMPLETION_DEGREE)
                # each build starts on a collected heap, as in a fresh
                # `qgal` process, whatever the builds before it left
                gc.collect()
                result = samples.run(i, f"{kind} {name}", fn)
                if result is None:
                    continue
                built = ([result.base, result.total] if kind == "coaction"
                         else [result])
                rules = [_rules(p) for p in built]
                if i not in first_rules:
                    # the first sample is checked in full, later ones
                    # against it
                    first_rules[i] = rules
                    degree = COMPLETION_DEGREE if kind == "degree" else None
                    for p in built:
                        facts.append([f"{kind} {name}: {p.name}",
                                      checks.presentation_facts(p, degree)])
                elif rules != first_rules[i]:
                    problems.append(f"{kind} {name}: rules differ between "
                                    f"two builds")
        if time.perf_counter() - start >= args.seconds:
            break
    presentations._CACHE.clear()
    return {"facts": facts, "problems": problems}


# ---------------------------------------------------------------------------
# nf-random
# ---------------------------------------------------------------------------

# denominators of the rational-function coefficients: 1+q, 1+q^2 and
# 1-q+q^2, none of which vanishes at the point the character check uses
DENOMINATORS = ({0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 1: -1, 2: 1})
NUMERATORS = (-5, -3, -2, -1, 1, 2, 3, 5)


def random_laurent(rng):
    from qgal.scalars import LaurentPoly

    return LaurentPoly({k: Fraction(rng.choice(NUMERATORS), rng.choice((1, 2, 3)))
                        for k in rng.sample(range(-2, 3), 2)})


def random_scalar(rng, rational):
    """A Laurent polynomial in q, or one over a seeded denominator."""
    from qgal.scalars import LaurentPoly, ScalarQ

    if not rational:
        return ScalarQ(random_laurent(rng))
    den = rng.choice(DENOMINATORS)
    return ScalarQ(random_laurent(rng),
                   LaurentPoly({k: Fraction(c) for k, c in den.items()}))


def random_poly(rng, alphabet):
    """One term of each degree 0..3 over seeded words; the terms of odd
    degree have rational-function coefficients, the others Laurent ones.
    The fixed shape keeps the work of one input alike across seeds."""
    from qgal.ncpoly import NCPoly

    n = len(alphabet)
    terms = {}
    for degree in range(4):
        word = tuple(rng.randrange(n) for _ in range(degree))
        terms[word] = random_scalar(rng, rational=degree % 2 == 1)
    return NCPoly(alphabet, terms)


def nf_inputs(seed, algebras):
    """(algebra name, x, y) triples; the operation normalises x*y."""
    rng = random.Random(seed)
    inputs = []
    for name in NF_ALGEBRAS:
        a = algebras[name].alphabet
        for _ in range(INPUTS_PER_ALGEBRA):
            inputs.append((name, random_poly(rng, a), random_poly(rng, a)))
    return inputs


def setup_nf_random():
    from qgal import presentations

    return {name: presentations.catalog(name).ensure_degree(COMPLETION_DEGREE)
            for name in NF_ALGEBRAS}


def run_nf_random(args, samples, algebras, sampler):
    """Whole rounds over the inputs for --seconds, in --segments parts;
    between two parts the worker prints `paused` and waits for a line on
    standard input, while run.py measures another set-up."""
    products = [(name, x, y, x * y)
                for name, x, y in nf_inputs(args.seed, algebras)]
    first, problems = None, []
    r = 0
    for segment in range(args.segments):
        if segment:
            # the sampler rests while run.py times the other set-up
            sampler.stop()
            print("paused", flush=True)
            sys.stdin.readline()
            sampler.start()
        start = time.perf_counter()
        while True:
            outs = nf_round(products, algebras, samples, r)
            if first is None:
                first = outs
            elif outs != first:
                problems.append(f"round {r} normal forms differ from round 0")
            r += 1
            if time.perf_counter() - start >= args.seconds / args.segments:
                break
    problems += nf_checks(products, first, algebras, args.seed)
    return {"problems": problems}


def nf_round(products, algebras, samples, r):
    outs = []
    for i, (name, _, _, z) in enumerate(products):
        p = algebras[name]
        outs.append(samples.run(i, f"nf {name}", lambda: p.nf(z),
                                sample_memo=False))
    t = samples.tracer
    if t:
        # the memo outlives the operations, so it is sampled per round
        t.begin(f"memo.s{r}")
        t.sample_memo()
        t.end()
    return outs


def nf_checks(products, outs, algebras, seed):
    import checks

    rng = random.Random(seed + 1)
    problems = []
    for i, ((name, x, y, z), out) in enumerate(zip(products, outs)):
        if out is None:
            continue
        p = algebras[name]
        found = checks.nf_problems(p, x, y, out)
        found += checks.linearity_problems(p, z, out,
                                           random_scalar(rng, rational=True))
        if name == "Uq2":
            ca = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            cd = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
            found += checks.character_problems(
                z, out, checks.uq2_characters(ca, cd))
        problems += [f"nf {name} input {i}: {msg}" for msg in found]
    return problems


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=("build-catalog", "nf-random"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--segments", type=int, default=1)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sampler = hostspeed.Sampler()
    sampler.start()
    tracer = None
    start = time.perf_counter()
    import qgal.cli  # noqa: F401  (interpreter start and import: set-up)

    if args.trace:
        from tracer import IMPORT_SPAN, Tracer

        tracer = Tracer("w:")
        tracer.begin("setup")
        tracer.record(IMPORT_SPAN, start, time.perf_counter())
        tracer.install()
    algebras = setup_nf_random() if args.workload == "nf-random" else None
    if tracer:
        tracer.end()
    print("ready", flush=True)
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"calib": sampler.samples}), flush=True)
        return 0

    samples = Samples(tracer)
    if args.workload == "build-catalog":
        result = run_build_catalog(args, samples)
    else:
        result = run_nf_random(args, samples, algebras, sampler)
    sampler.stop()
    result.update(samples=samples.timed, failed=samples.failed,
                  peak_rss_mb=samples.rss, calib=sampler.samples)
    if tracer:
        with open(args.trace, "w") as fh:
            json.dump(tracer.export(), fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
