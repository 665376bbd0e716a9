"""Fuzzing of the expression parser and the file DSL: any text gives a
result or a ParseError or CatalogError, never another exception."""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from qgal.ncpoly import Alphabet, ParseError, parse_expr
from qgal.presentations import (
    CatalogError,
    catalog,
    parse_coaction_text,
    parse_presentation_text,
)
from qgal.rewrite import CompletionBudgetError, TrivialIdealError

ALPHABET = Alphabet(["x", "y", "x11", "z"])

# the tokens of the expression grammar and of the two file formats
TOKENS = ["+", "-", "*", "/", "(", ")", "^", "q", "q^-1", "0", "1", "2",
          "17", "/0", "x", "y", "x11", "z", "w", " ", " ", "\n", "(x)",
          "->", "<", "#", "over", "GLq2", "GLq2m2", "z11", "tau", "t",
          "\u00b2", "\u0663"]
DIRECTIVES = ["algebra", "generators", "order", "star", "relation",
              "coaction", "alpha", "", "generator"]

soup = st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=2)),
                max_size=16).map("".join)
lines = st.lists(st.tuples(st.sampled_from(DIRECTIVES), soup),
                 max_size=6).map(
    lambda ls: "\n".join(f"{d} {s}" for d, s in ls))

# a text that parses may still present the zero algebra, or need more
# completion than the degree allows: verdicts on the algebra, not parse
# failures, and only the presentation parser runs a completion
COMPLETION_VERDICTS = (TrivialIdealError, CompletionBudgetError)

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(soup)
# each of these once raised something other than ParseError
@example("1/0")
@example("\u00b2")           # a superscript two: isdigit(), but not int()
@example("(" * 400 + "x" + ")" * 400)
@example("1" * 5000)         # more digits than int() converts
def test_parse_expr_fuzz(text):
    try:
        parse_expr(text, ALPHABET)
    except ParseError:
        pass


@FUZZ
@given(st.one_of(soup, lines,
                 lines.map(lambda t: "algebra a\ngenerators x y\n" + t)))
@example("algebra a\ngenerators x x")
@example("algebra a\ngenerators q")
@example("algebra a\ngenerators x y\nstar x -> x")
def test_parse_presentation_text_fuzz(text):
    try:
        parse_presentation_text(text)
    except (ParseError, CatalogError, *COMPLETION_VERDICTS):
        pass


@FUZZ
@given(st.one_of(soup, lines,
                 lines.map(lambda t: "coaction GLq2m2 over GLq2\n" + t)))
def test_parse_coaction_text_fuzz(text):
    try:
        parse_coaction_text(text, catalog)
    except (ParseError, CatalogError):
        pass
