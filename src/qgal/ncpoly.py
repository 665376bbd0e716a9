"""Free *-algebra over Q(q) on a finite generator alphabet.

Words are tuples of generator indices; the empty tuple is the unit
monomial.  Noncommutative polynomials are finite maps word -> scalar.
Also provides the star involution, multi-leg tensor elements, and the
expression parser/printer used by the CLI and file formats.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import S_ONE, UNIT_DEN, ScalarQ, add_term


class AlgebraError(Exception):
    pass


class ParseError(AlgebraError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Alphabet:
    """Ordered list of generator names; index = position."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise AlgebraError("generator names must be unique")
        if "q" in names:
            raise AlgebraError("'q' is reserved for the deformation parameter")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def gen(self, name) -> "NCPoly":
        return NCPoly(self, {(self.index[name],): S_ONE})

    def word_str(self, word) -> str:
        if not word:
            return "1"
        return "*".join(self.names[i] for i in word)

    def __repr__(self):
        return f"Alphabet{self.names!r}"


class NCPoly:
    """Noncommutative polynomial: finite map from words to scalars.

    `terms` never holds a zero.  The constructor filters the zeros out of
    the map it is given; `_ncpoly` takes over a map that holds none, as
    the arithmetic here and the rewrite layer build them.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        self.alphabet = alphabet
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def zero(alphabet) -> "NCPoly":
        return NCPoly(alphabet)

    @staticmethod
    def one(alphabet) -> "NCPoly":
        return NCPoly(alphabet, {(): S_ONE})

    @staticmethod
    def scalar(alphabet, c) -> "NCPoly":
        return NCPoly(alphabet, {(): c})

    def is_zero(self):
        return not self.terms

    def degree(self) -> int:
        return max(map(len, self.terms), default=0)

    def _check(self, other):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlgebraError("operands live over different alphabets")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return _ncpoly(self.alphabet, out)

    def __neg__(self):
        return _ncpoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            self._check(other)
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    add_term(out, w1 + w2, c1 * c2)
            return _ncpoly(self.alphabet, out)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    def scale(self, c) -> "NCPoly":
        if isinstance(c, (int, Fraction)):
            c = ScalarQ.from_fraction(c)
        return NCPoly(self.alphabet, {w: c * v for w, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            parts.append(_term_str(self.terms[w], self.alphabet.word_str(w)))
        return _sum_str(parts)

    def __repr__(self):
        return f"<NCPoly {self.pretty()}>"


def _ncpoly(alphabet: Alphabet, terms: dict) -> NCPoly:
    """An NCPoly that takes over the map terms, which must hold no zero."""
    p = object.__new__(NCPoly)
    p.alphabet = alphabet
    p.terms = terms
    return p


def _scalar_str(c) -> str:
    """Render a scalar in the expression grammar (parenthesized if a sum)."""
    num, den = c.num, c.den
    if den is UNIT_DEN and len(num.coeffs) == 1:
        ((e, f),) = num.coeffs.items()
        if e == 0:
            return str(f)
        qpart = "q" if e == 1 else f"q^{e}"
        return qpart if f == 1 else f"-{qpart}" if f == -1 else f"{f}*{qpart}"
    # repr(c) is "(num)", or "(num) / (den)", which a product would split
    return repr(c) if den is UNIT_DEN else f"({c!r})"


def _term_str(c, mono) -> str:
    """Render c*mono, writing a coefficient of 1 or -1 as a sign only."""
    s = _scalar_str(c)
    if mono == "1":
        return s
    return mono if s == "1" else f"-{mono}" if s == "-1" else f"{s}*{mono}"


def _sum_str(parts) -> str:
    """Join rendered terms, writing a negative term after " - "."""
    return " + ".join(parts).replace(" + -", " - ")


class StarMap:
    """Star images of each generator, extended antimultiplicatively to
    words (of_word) and linearly to the whole free algebra (apply), with
    no relation reduction.  A star is conjugate-linear, and conjugation
    on Q(q) is the identity."""

    __slots__ = ("alphabet", "images", "of_word")

    def __init__(self, alphabet: Alphabet, images):
        self.alphabet = alphabet
        self.images = dict(images)
        missing = [alphabet.names[i] for i in range(len(alphabet)) if i not in self.images]
        if missing:
            raise AlgebraError(f"star images missing for generators: {missing}")
        self.of_word = extend_anti(self.images, NCPoly.one(alphabet))

    def apply(self, poly: NCPoly) -> NCPoly:
        return apply_map(poly, self.of_word, NCPoly.zero(poly.alphabet))


class TensorPoly:
    """Element of a tensor product of free algebras (one alphabet per leg).

    Stored as a map (word, ..., word) -> scalar, `terms`, which never
    holds a zero: the constructor filters the zeros out of the map it is
    given, and `_tensor` takes over a map that holds none.  Products are
    taken leg by leg; legs are reduced independently by their rewrite
    systems.
    """

    __slots__ = ("alphabets", "terms")

    def __init__(self, alphabets, terms=None):
        self.alphabets = tuple(alphabets)
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def one(alphabets) -> "TensorPoly":
        return TensorPoly(alphabets, {tuple(() for _ in alphabets): S_ONE})

    @staticmethod
    def of(*polys) -> "TensorPoly":
        """Elementary tensor of NCPolys, one per leg."""
        out = TensorPoly.one([p.alphabet for p in polys])
        for leg, p in enumerate(polys):
            out = out.mul_leg(leg, p)
        return out

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return _tensor(self.alphabets, out)

    def __neg__(self):
        return _tensor(self.alphabets, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self.times(other) if isinstance(other, TensorPoly) else self.scale(other)

    def times(self, other: "TensorPoly", left=()) -> "TensorPoly":
        """The product leg by leg, other's word first on the legs in `left`:
        (u1 (x) v1).times(u2 (x) v2, (1,)) is u1 u2 (x) v2 v1."""
        flip = [leg in left for leg in range(len(self.alphabets))]
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_term(out, tuple(w2 + w1 if f else w1 + w2
                                    for f, w1, w2 in zip(flip, k1, k2)), c1 * c2)
        return _tensor(self.alphabets, out)

    def scale(self, c) -> "TensorPoly":
        return TensorPoly(self.alphabets, {k: c * v for k, v in self.terms.items()})

    def mul_leg(self, leg, poly: NCPoly) -> "TensorPoly":
        """Right-multiply one leg by an NCPoly."""
        out = {}
        for k, c in self.terms.items():
            for w, cw in poly.terms.items():
                add_term(out, k[:leg] + (k[leg] + w,) + k[leg + 1 :], c * cw)
        return _tensor(self.alphabets, out)

    def __eq__(self, other):
        return (
            isinstance(other, TensorPoly)
            and self.alphabets == other.alphabets
            and self.terms == other.terms
        )

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, key=lambda k: tuple((len(w), w) for w in k)):
            c = self.terms[k]
            legs = " (x) ".join(a.word_str(w) for a, w in zip(self.alphabets, k))
            parts.append(_term_str(c, legs))
        return _sum_str(parts)

    def __repr__(self):
        return f"<TensorPoly {self.pretty()}>"


def _tensor(alphabets: tuple, terms: dict) -> TensorPoly:
    """A TensorPoly over the tuple alphabets that takes over the map
    terms, which must hold no zero."""
    t = object.__new__(TensorPoly)
    t.alphabets = alphabets
    t.terms = terms
    return t


def apply_map(poly, ext, zero):
    """The linear extension of ext, a map on words, at poly: the sum of
    ext(w) * c over the terms c*w of poly, added in term order to zero.
    The values of ext may be scalars, NCPolys or TensorPolys, and poly a
    TensorPoly, whose terms are keyed by word tuples."""
    out = zero
    for w, c in poly.terms.items():
        out = out + ext(w) * c
    return out


def extend_anti(images, one):
    """Extend generator -> image antimultiplicatively to words, with no
    reduction: a word's image is one times the images of its letters,
    last letter first.  one is the unit the images multiply into, such as
    NCPoly.one(alphabet); for scalars, S_ONE, which commute, so that is
    the multiplicative extension."""

    def ext(word):
        out = one
        for letter in reversed(word):
            out = out * images[letter]
        return out

    return ext


# ---------------------------------------------------------------------------
# Expression parser
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := ('+'|'-')* factor (('*'|'/') factor)*
#                                            a divisor must be a nonzero scalar
#   factor := scalar | ident | '(' expr ')'
#   scalar := integer | 'q' ['^' ['-'] integer]
#                                            |exponent| <= MAX_Q_EXPONENT
#   Every sum, product and quotient formed keeps each coefficient's
#   numerator and denominator q exponents within +-MAX_Q_EXPONENT too.
#
#   tensor := ['-'] tterm (('+'|'-') tterm)*
#   tterm  := term '(x)' term                the left term over the first
#                                            alphabet, the right over the second
#
# Nothing follows a term by juxtaposition, so '(' 'x' ')' after a term
# is the tensor sign even where a generator is named x.
# ---------------------------------------------------------------------------


DIGITS = frozenset("0123456789")
# each level costs three stack frames (expr, term, factor)
MAX_NESTING = 100
# a Laurent polynomial is stored densely, in memory in proportion to the
# span of its exponents
MAX_Q_EXPONENT = 1000


def _tokens(src, line, col):
    """The (kind, text, line, column) tokens of src, each placed as if src
    began at (line, col) of a file, ending with an "eof" token."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch in "+-*/()^":
            tokens.append((ch, ch, line, start_col))
            i += 1
            col += 1
        elif ch in DIGITS:
            j = i
            while j < n and src[j] in DIGITS:
                j += 1
            tokens.append(("int", src[i:j], line, start_col))
            col += j - i
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (src[j].isalnum()):
                j += 1
            tokens.append(("ident", src[i:j], line, start_col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src, alphabet: Alphabet, at):
        self.tokens = _tokens(src, *at)
        self.pos = 0
        self.depth = 0
        self.alphabet = alphabet  # the alphabet factor reads generators from

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok[2], tok[3])

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {kind!r}, found {_found(tok)}", tok)
        return tok

    def integer(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            self.error(f"integer of {len(tok[1])} digits is too long", tok)

    def bounded(self, poly, tok):
        """poly, when every coefficient's numerator and denominator have
        their lowest and highest q exponents within +-MAX_Q_EXPONENT;
        else a ParseError at tok, the operator that formed poly."""
        for c in poly.terms.values():
            for k in (c.num.low(), c.num.degree(), c.den.low(), c.den.degree()):
                if abs(k) > MAX_Q_EXPONENT:
                    self.error(f"q exponent {k} of a coefficient is beyond "
                               f"the limit +-{MAX_Q_EXPONENT}", tok)
        return poly

    def parse(self, term):
        out = self.expr(term)
        tok = self.peek()
        if tok[0] != "eof":
            self.error(f"trailing input {tok[1]!r}", tok)
        return out

    def expr(self, term=None):
        """A signed sum of the terms that `term` reads (default: term)."""
        term = term or self.term
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        out = term()
        if sign < 0:
            out = -out
        while self.peek()[0] in ("+", "-"):
            op = self.next()
            rhs = term()
            out = self.bounded(out + rhs if op[0] == "+" else out - rhs, op)
        return out

    def tensor_term(self, left: Alphabet, right: Alphabet) -> "TensorPoly":
        self.alphabet = left
        a = self.term()
        op = self.peek()
        for kind, text in (("(", "("), ("ident", "x"), (")", ")")):
            tok = self.next()
            if tok[:2] != (kind, text):
                self.error(f"expected '(x)', found {_found(tok)}", tok)
        self.alphabet = right
        return self.bounded(TensorPoly.of(a, self.term()), op)

    def term(self) -> NCPoly:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        out = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()
            if op[0] == "*":
                out = self.bounded(out * self.factor(), op)
                continue
            tok = self.peek()
            d = self.factor()
            if not d.terms:
                self.error("division by zero", tok)
            if set(d.terms) != {()}:
                self.error("divisor is not a scalar", tok)
            out = self.bounded(out.scale(d.terms[()].inv()), op)
        return -out if sign < 0 else out

    def factor(self) -> NCPoly:
        tok = self.peek()
        kind, text = tok[0], tok[1]
        if kind == "(":
            self.next()
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}", tok)
            out = self.expr()
            self.depth -= 1
            close = self.next()
            if close[0] != ")":
                self.error("expected ')'", close)
            return out
        if kind == "int":
            self.next()
            return NCPoly.scalar(self.alphabet, ScalarQ.from_fraction(self.integer(tok)))
        if kind == "ident":
            self.next()
            if text == "q":
                k = 1
                if self.peek()[0] == "^":
                    self.next()
                    sign = 1
                    if self.peek()[0] == "-":
                        self.next()
                        sign = -1
                    etok = self.expect("int")
                    k = sign * self.integer(etok)
                    if abs(k) > MAX_Q_EXPONENT:
                        self.error(f"q exponent {k} is beyond the limit "
                                   f"+-{MAX_Q_EXPONENT}", etok)
                return NCPoly.scalar(self.alphabet, ScalarQ.q_power(k))
            if text not in self.alphabet.index:
                self.error(f"unknown generator {text!r}", tok)
            return self.alphabet.gen(text)
        self.error("unexpected end of input" if kind == "eof"
                   else f"unexpected token {text!r}", tok)


def _found(tok) -> str:
    """A token as an error message names it."""
    return "end of input" if tok[0] == "eof" else repr(tok[1])


def parse_expr(src: str, alphabet: Alphabet, at=(1, 1)) -> NCPoly:
    """Parse an expression in the grammar above to an NCPoly.  A
    ParseError gives its place as if src began at (line, column) `at`."""
    parser = _Parser(src, alphabet, at)
    return parser.parse(parser.term)


def parse_tensor(src: str, left: Alphabet, right: Alphabet, at=(1, 1)) -> TensorPoly:
    """Parse a tensor in the grammar above to a TensorPoly over
    (left, right); `at` as in parse_expr."""
    parser = _Parser(src, left, at)
    return parser.parse(lambda: parser.tensor_term(left, right))
