"""Expression parser for field elements and twisted polynomials.

Grammar, standard precedence (loosest first):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | 'x' | 't' | '(' expr ')'

Two modes share the machinery.  In field mode 't' is rejected and the value
is a rational function; in poly mode values are twisted polynomials, with
division restricted to divisors free of t (TInDenominator otherwise).
Anything unparseable raises ExprSyntaxError carrying the offset.  So does
division by zero, whose error is also a ZeroDivisionError, and a literal
power whose degree would pass ``MAX_POWER_DEGREE``.
"""

from __future__ import annotations

from .diffpoly import DiffPoly
from .errors import ExprSyntaxError, TInDenominator
from .scalars import RatFunc
from .towers import DerivedField

__all__ = ["parse_expr", "parse_field_element", "parse_diffpoly"]


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


def _degree(v: DiffPoly) -> int:
    height = max((max(len(c.num_coeffs), len(c.den_coeffs)) - 1 for c in v.coeffs), default=0)
    return max(v.degree(), height)


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
    def __init__(self, tokens, K: DerivedField, allow_t: bool):
        self.tokens = tokens
        self.pos = 0
        self.K = K
        self.allow_t = allow_t

    def peek(self):
        return self.tokens[self.pos][0]

    def where(self):
        return self.tokens[self.pos][1]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok, at = self.advance()
        if tok != kind:
            raise ExprSyntaxError("expected %r" % kind, at)
        return tok

    def parse(self) -> DiffPoly:
        v = self.expr()
        tok, at = self.advance()
        if tok != ("END", None):
            raise ExprSyntaxError("trailing input", at)
        return v

    def expr(self) -> DiffPoly:
        v = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.advance()
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self) -> DiffPoly:
        v = self.unary()
        while self.peek() in ("*", "/"):
            op, at = self.advance()
            rhs = self.unary()
            if op == "*":
                v = v * rhs
            else:
                v = self._divide(v, rhs, at)
        return v

    def _divide(self, v: DiffPoly, rhs: DiffPoly, at: int) -> DiffPoly:
        if rhs.degree() > 0:
            raise TInDenominator("cannot divide by a polynomial in t")
        if not rhs:
            raise _ZeroDivisorError("division by zero in expression", at)
        inv = self.K.invert(rhs.coeff(0))
        return v.map_coeffs(lambda c: c * inv)

    def unary(self) -> DiffPoly:
        if self.peek() == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> DiffPoly:
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

    def atom(self) -> DiffPoly:
        tok, at = self.advance()
        if isinstance(tok, tuple) and tok[0] == "INT":
            return DiffPoly.constant(self.K, self.K.from_int(tok[1]))
        if tok == "x":
            return DiffPoly.constant(self.K, self.K.x())
        if tok == "t":
            if not self.allow_t:
                raise ExprSyntaxError("t is not allowed in a field expression", at)
            return DiffPoly.t(self.K)
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ExprSyntaxError("expected a value", at)


def parse_expr(s: str, K: DerivedField, mode: str = "field"):
    """Parse s over K; mode is "field" (RatFunc) or "poly" (DiffPoly)."""
    if mode not in ("field", "poly"):
        raise ValueError("mode must be 'field' or 'poly'")
    tokens = _tokenize(s)
    poly = _Parser(tokens, K, allow_t=(mode == "poly")).parse()
    if mode == "poly":
        return poly
    return poly.coeff(0) if poly else K.zero()


def parse_field_element(s: str, K: DerivedField) -> RatFunc:
    return parse_expr(s, K, "field")


def parse_diffpoly(s: str, K: DerivedField) -> DiffPoly:
    return parse_expr(s, K, "poly")
