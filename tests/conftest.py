import functools
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import qgal
from qgal.ncpoly import NCPoly
from qgal.presentations import catalog, coaction
from qgal.scalars import S_ONE, ScalarQ


@pytest.fixture(scope="session")
def glq2():
    return catalog("GLq2")


@pytest.fixture(scope="session")
def uq2():
    return catalog("Uq2")


@pytest.fixture(scope="session")
def glq2m2():
    return catalog("GLq2m2")


@pytest.fixture(scope="session")
def uq2m2():
    return catalog("Uq2m2")


@pytest.fixture(scope="session")
def glqm22():
    return catalog("GLqm22")


@pytest.fixture(scope="session")
def c_glq():
    return coaction("GLq2m2")


@pytest.fixture(scope="session")
def c_uq():
    return coaction("Uq2m2")


@pytest.fixture(scope="session")
def c_aufg():
    return coaction("AuFG")


def random_scalar(rng, terms=3, exp=4):
    """Random nonzero-ish element of the q-rational scalar field."""
    total = ScalarQ.from_fraction(0)
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        total = total + ScalarQ.from_fraction(c) * ScalarQ.q_power(
            rng.randint(-exp, exp))
    return total


def random_nonzero_scalar(rng, terms=3, exp=4):
    while True:
        s = random_scalar(rng, terms, exp)
        if not s.is_zero():
            return s


def random_poly(rng, alphabet, degree=3, terms=4):
    """Random noncommutative polynomial of the given maximal degree."""
    n = len(alphabet)
    out = NCPoly.zero(alphabet)
    for _ in range(rng.randint(1, terms)):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, degree)))
        out = out + NCPoly(alphabet, {word: S_ONE}).scale(random_scalar(rng))
    return out


def zero_free(p):
    """Whether no coefficient of the NCPoly or TensorPoly p is zero."""
    return all(not c.is_zero() for c in p.terms.values())


def fractions(lo, hi, max_denominator=None):
    """The Fractions in [lo, hi], for ints lo < hi, that
    st.fractions(lo, hi, max_denominator=...) draws, from the same
    choices: a denominator d, then a numerator in [lo*d, hi*d].  Each
    d's numerator strategy is built once, where st.fractions builds and
    validates a new one on every draw."""
    @functools.cache
    def over(d):
        return st.builds(Fraction, st.integers(lo * d, hi * d), st.just(d))

    drawn = st.integers(1, max_denominator).flatmap(over)
    if max_denominator is None:
        return drawn
    # limit_denominator changes no value here, but without it the draws
    # inside st.dictionaries differ from those of st.fractions: hypothesis
    # reads the structure of a strategy when it varies its choices
    return drawn.map(lambda f: f.limit_denominator(max_denominator))


def subprocess_env(**extra):
    """The environment for a child Python that imports this qgal."""
    env = dict(os.environ, **extra)
    src = str(Path(qgal.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def rng():
    return random.Random(20240817)


# one line per acceptance criterion, printed after the run
CRITERIA_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERIA_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERIA_LINES:
            terminalreporter.write_line(line)
