"""Expression parser for field elements and twisted polynomials.

Grammar, standard precedence (loosest first):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | 'x' | 't' | '(' expr ')'

Two modes share the grammar.  In field mode 't' is rejected and every
value is computed in K = F_p(x) as a rational function: a quotient
multiplies by the inverse, and a power is a fraction power, so no twisted
polynomial is built.  K needs only ``from_int`` and ``x``: a plain
``RationalFunctionField`` will do.  In poly mode values are twisted
polynomials over a derived field, with division restricted to divisors
free of t (TInDenominator otherwise).  Anything unparseable raises
ExprSyntaxError carrying the offset.  So does division by zero, whose
error is also a ZeroDivisionError, and a literal power whose degree would
pass ``MAX_POWER_DEGREE``; both modes raise the same error at the same
offset for the same t-free text.
"""

from __future__ import annotations

from .diffpoly import DiffPoly
from .errors import ExprSyntaxError, TInDenominator
from .scalars import RatFunc, RationalFunctionField
from .towers import DerivedField

__all__ = ["parse_field_element", "parse_diffpoly"]


_OPS = set("+-*/^()")
# ASCII only: str.isdigit also admits superscripts, which int() refuses,
# and other scripts' digits, which it reads as numbers.
_DIGITS = frozenset("0123456789")


def decimal_int(text: str) -> int:
    """An integer written as an optional sign and ASCII digits 0-9 only.

    int() also reads other scripts' digits and underscores ("1_0"); the
    config values and the command-line numbers go through this instead,
    so they take the digits the expression parser takes.  ValueError
    otherwise.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or not _DIGITS.issuperset(digits):
        raise ValueError("invalid literal for int(): %r" % text)
    return int(text)

# Largest degree a literal power b^n may reach, counted as n times the degree
# of b: its degree in t or the largest degree of a coefficient's numerator
# or denominator, whichever is larger.  A constant b has degree 0 and is
# never refused.  Every g of degree p^e up to this ceiling parses; beyond
# it the algebra's table alone has more than a million entries.
MAX_POWER_DEGREE = 1024


class _ZeroDivisorError(ExprSyntaxError, ZeroDivisionError):
    """Division by zero in the text: a bad expression, and still a
    ZeroDivisionError for callers that catch that."""


def _height(c: RatFunc) -> int:
    return max(len(c.num_coeffs), len(c.den_coeffs)) - 1


def _degree(v) -> int:
    """The degree MAX_POWER_DEGREE bounds, of a fraction or a twisted
    polynomial."""
    if isinstance(v, RatFunc):
        return _height(v)
    return max(v.degree(), max(map(_height, v.coeffs), default=0))


def _tokenize(s: str):
    tokens = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and s[j] in _DIGITS:
                j += 1
            tokens.append((("INT", int(s[i:j])), i))
            i = j
            continue
        if ch in ("x", "t"):
            # Bare variable; a following letter means an unknown name.
            if i + 1 < n and s[i + 1].isalnum():
                raise ExprSyntaxError("unknown name %r" % s[i:], i)
            tokens.append((ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append((("END", None), n))
    return tokens


class _Parser:
    """Recursive descent over the tokens; values are fractions of K in
    field mode and twisted polynomials over K in poly mode."""

    def __init__(self, tokens, K: RationalFunctionField, poly: bool):
        self.tokens = tokens
        self.pos = 0
        self.K = K
        self.poly = poly

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok, at = self.advance()
        if tok != kind:
            raise ExprSyntaxError("expected %r" % kind, at)
        return tok

    def parse(self):
        v = self.expr()
        tok, at = self.advance()
        if tok != ("END", None):
            raise ExprSyntaxError("trailing input", at)
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.advance()
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        v = self.unary()
        while self.peek() in ("*", "/"):
            op, at = self.advance()
            rhs = self.unary()
            if op == "*":
                v = v * rhs
            else:
                v = self._divide(v, rhs, at)
        return v

    def _divide(self, v, rhs, at: int):
        if self.poly:
            if rhs.degree() > 0:
                raise TInDenominator("cannot divide by a polynomial in t")
            rhs = rhs.coeff(0)
        if not rhs:
            raise _ZeroDivisorError("division by zero in expression", at)
        # v / c is the left quotient c^(-1) v.  In a twisted polynomial it
        # equals v c^(-1) only for a constant c, and every coefficient an
        # accepted g may have is a constant.
        return self._scalar(rhs.inverse()) * v

    def unary(self):
        if self.peek() == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek() == "^":
            _, at = self.advance()
            tok, iat = self.advance()
            if not (isinstance(tok, tuple) and tok[0] == "INT"):
                raise ExprSyntaxError("exponent must be a literal integer", iat)
            degree = tok[1] * _degree(v)
            if degree > MAX_POWER_DEGREE:
                raise ExprSyntaxError(
                    "power of degree %d is above the ceiling %d" % (degree, MAX_POWER_DEGREE),
                    iat,
                )
            return v ** tok[1]
        return v

    def atom(self):
        tok, at = self.advance()
        if isinstance(tok, tuple) and tok[0] == "INT":
            return self._scalar(self.K.from_int(tok[1]))
        if tok == "x":
            return self._scalar(self.K.x())
        if tok == "t":
            if not self.poly:
                raise ExprSyntaxError("t is not allowed in a field expression", at)
            return DiffPoly.t(self.K)
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ExprSyntaxError("expected a value", at)

    def _scalar(self, c: RatFunc):
        return DiffPoly.constant(self.K, c) if self.poly else c


def parse_field_element(s: str, K: RationalFunctionField) -> RatFunc:
    return _Parser(_tokenize(s), K, poly=False).parse()


def parse_diffpoly(s: str, K: DerivedField) -> DiffPoly:
    return _Parser(_tokenize(s), K, poly=True).parse()
