"""Expression parsing for both value domains, including error positions."""

import random

import pytest

from diffext import parsing
from diffext.diffpoly import DiffPoly, p_poly_as_diffpoly
from diffext.errors import ExprSyntaxError, TInDenominator
from diffext.frontend import derived_field
from diffext.parsing import (
    MAX_POWER_DEGREE,
    decimal_int,
    parse_diffpoly,
    parse_field_element,
)
from diffext.scalars import DensePoly, PrimeField, RatFunc, RationalFunctionField, random_ratfunc
from diffext.towers import DerivedField, PPolynomial, QuaternionRing


def _w(p, coeffs):
    F = PrimeField(p)
    return RatFunc(DensePoly(F, coeffs), DensePoly.one(F))


K2X = DerivedField(2, _w(2, (0, 1)))
K3X = DerivedField(3, _w(3, (0, 1)))
K5X = DerivedField(5, _w(5, (0, 1)))
K7X = DerivedField(7, _w(7, (0, 1)))


def test_parse_field_frozen_values():
    x = K2X.x()
    assert parse_field_element("x^2 + 1", K2X) == x * x + K2X.one()
    # (x+1)/(x^2+x) = 1/x over F_2.
    assert parse_field_element("(x + 1)/(x^2 + x)", K2X) == x.inverse()
    assert parse_field_element("0", K2X) == K2X.zero()
    assert parse_field_element("-x", K3X) == -K3X.x()
    # Coefficients reduce mod p.
    assert parse_field_element("5", K3X) == K3X.from_int(2)
    assert parse_field_element("2*x + x", K3X) == K3X.zero()


def test_parse_poly_frozen_values():
    x, one = K2X.x(), K2X.one()
    f = parse_diffpoly("t^2 - t - x", K2X)
    assert f == DiffPoly(K2X, (x, one, one))
    assert parse_diffpoly("t*t", K2X) == DiffPoly(K2X, (K2X.zero(), K2X.zero(), one))
    # Twisted product in the source: t*x = x*t + x over x d/dx.
    assert parse_diffpoly("t*x", K2X) == DiffPoly(K2X, (x, x))
    # Division by a t-free scalar is allowed.
    assert parse_diffpoly("(x*t)/x", K2X) == DiffPoly.t(K2X)


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_field_element("y + 1", K2X)
    assert exc.value.position == 0
    with pytest.raises(ExprSyntaxError) as exc:
        parse_field_element("x + ", K2X)
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError) as exc:
        parse_field_element("x 1", K2X)
    assert exc.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse_field_element("t + 1", K2X)  # t is poly-mode only
    with pytest.raises(ExprSyntaxError):
        parse_field_element("(x + 1", K2X)
    with pytest.raises(ExprSyntaxError):
        parse_field_element("x^x", K2X)


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663"], ids=["superscript", "arabic_indic"])
def test_only_ascii_digits_are_numbers(text):
    # str.isdigit admits both: int() refuses the superscript two, and reads
    # the Arabic-Indic three as 3.  Each is an unexpected character instead.
    with pytest.raises(ExprSyntaxError, match="unexpected character") as exc:
        parse_field_element(text, K2X)
    assert exc.value.position == 2


def test_parse_division_errors():
    with pytest.raises(ZeroDivisionError):
        parse_field_element("1/(x - x)", K2X)
    with pytest.raises(TInDenominator):
        parse_diffpoly("(t + 1)/t", K2X)
    with pytest.raises(TInDenominator):
        parse_diffpoly("1/(t + x)", K2X)


def test_division_by_zero_is_a_bad_expression():
    # Still a ZeroDivisionError, and also a syntax error at the '/'.
    for text, at in (("1/0", 1), ("x + 1/(x + x)", 5)):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_field_element(text, K2X)
        assert isinstance(exc.value, ZeroDivisionError)
        assert exc.value.position == at
        assert str(exc.value).startswith("division by zero in expression")


def test_power_degree_ceiling():
    x = K2X.x()
    n = MAX_POWER_DEGREE
    assert parse_field_element("x^%d" % n, K2X) == x ** n
    # Refused up front, at the exponent's offset, before any work.
    with pytest.raises(ExprSyntaxError) as exc:
        parse_field_element("x^99999999999", K2X)
    assert exc.value.position == 2
    with pytest.raises(ExprSyntaxError) as exc:
        parse_field_element("x^%d" % (n + 1), K2X)
    assert exc.value.position == 2
    # The exponent counts times the base's degree, denominators included.
    half = n // 2
    assert parse_field_element("(1/(x^2 + 1))^%d" % half, K2X) == (x * x + K2X.one()) ** -half
    with pytest.raises(ExprSyntaxError) as exc:
        parse_field_element("(1/(x^2 + 1))^%d" % (half + 1), K2X)
    assert exc.value.position == len("(1/(x^2 + 1))^")
    # In poly mode the degree in t counts too.
    with pytest.raises(ExprSyntaxError):
        parse_diffpoly("t^%d" % (n + 1), K2X)
    with pytest.raises(ExprSyntaxError):
        parse_diffpoly("(t + 1)^%d" % (n + 1), K2X)
    # A constant base stays allowed at any exponent.
    assert parse_field_element("2^99999999999", K3X) == K3X.from_int(2)
    assert parse_field_element("3^99999999999", K3X) == K3X.zero()
    assert parse_field_element("(x - x)^99999999999", K3X) == K3X.zero()


def test_field_print_parse_roundtrip():
    rng = random.Random(64)
    for K in (K2X, K3X, K5X, K7X):
        for _ in range(150):
            a = random_ratfunc(K, rng, 3)
            assert parse_field_element(str(a), K) == a


def test_poly_print_parse_roundtrip():
    rng = random.Random(65)
    for K in (K2X, K3X, K5X, K7X):
        for _ in range(100):
            coeffs = [random_ratfunc(K, rng, 2) for _ in range(rng.randrange(4) + 1)]
            h = DiffPoly(K, coeffs)
            assert parse_diffpoly(str(h), K) == h
        # p-polynomials with coefficients in F = F_p(x^p), fractions among them.
        for e in (1, 2, 3):
            for _ in range(3):
                g = PPolynomial(K.p, e, [random_ratfunc(K, rng, 1) ** K.p for _ in range(e)])
                assert parse_diffpoly(str(g), K) == p_poly_as_diffpoly(g, K), str(g)


def test_printed_sums_of_terms():
    # The printed forms the parser reads back, pinned exactly: a quaternion's
    # real part stands alone unwrapped, a DiffPoly's constant fraction is
    # wrapped, a coefficient 1 leaves its unit alone and zero prints as 0.
    x, one, zero = K3X.x(), K3X.one(), K3X.zero()
    Q = QuaternionRing(K3X)
    K2 = RationalFunctionField(2)
    table = [
        (Q.of(K3X.from_int(2) / (x + one), one, zero, zero), "2/(x + 1) + i"),
        (Q.of(zero, x, one, one / x), "x*i + j + (1/(x))*ij"),
        (Q.zero(), "0"),
        (DiffPoly(K3X, [one / x, one]), "t + (1/(x))"),
        (DiffPoly(K3X, [x, K3X.from_int(2) * x, zero, one]), "t^3 + 2*x*t + x"),
        (DiffPoly(K3X, []), "0"),
        (DiffPoly(Q, [Q.of(x, one, zero, zero), Q.of(one, one, zero, zero), Q.one()]), "t^2 + (1 + i)*t + x + i"),
        (DiffPoly(Q, [Q.of(one / x, zero, one, zero), Q.of(zero, zero, one, zero)]), "j*t + (1/(x) + j)"),
        (PPolynomial(2, 2, [K2.x() ** -4, K2.zero()]), "t^4 + (1/(x^4))*t^2"),
        (PPolynomial(3, 2, [zero, x ** 3 + one]), "t^9 + (x^3 + 1)*t"),
    ]
    assert [str(value) for value, _ in table] == [text for _, text in table]


def test_unary_minus_and_precedence():
    x = K3X.x()
    assert parse_field_element("-x^2", K3X) == -(x * x)
    assert parse_field_element("2 - -x", K3X) == K3X.from_int(2) + x
    assert parse_field_element("1 + 2*x", K3X) == K3X.one() + K3X.from_int(2) * x
    assert parse_field_element("(1 + 2)*x", K3X) == K3X.zero()


def test_decimal_int_takes_a_sign_and_ascii_digits_only():
    assert [decimal_int(t) for t in ("0", "12", "-3", "+4", "007")] == [0, 12, -3, 4, 7]
    for text in ("", "-", "+", "1_0", "\u0663", "\u00b2", " 3", "3 ", "0x1", "--1", "1.0"):
        with pytest.raises(ValueError):
            decimal_int(text)


# -- field mode against poly mode -------------------------------------------


def _random_expr(rng, depth):
    """A random t-free expression; a few divide by zero or pass the power
    ceiling."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(["x", "x", str(rng.randrange(12)), "(x - x)", "(x + 1)"])
    if roll < 0.45:
        return "-" + _random_expr(rng, depth - 1)
    if roll < 0.6:
        n = rng.choice([0, 1, 2, 3, 5, 7, 2000])
        return "(%s)^%d" % (_random_expr(rng, depth - 1), n)
    op = rng.choice(" + - * / ".split())
    return "(%s %s %s)" % (_random_expr(rng, depth - 1), op, _random_expr(rng, depth - 1))


def _sweep(p):
    rng = random.Random("field-vs-poly:%d" % p)
    return [_random_expr(rng, 3) for _ in range(150)]


def _outcome(parse, s):
    try:
        return "value", parse(s)
    except ExprSyntaxError as exc:
        return type(exc), exc.position


_FIELDS = {
    "p%d-%s" % (p, w.replace("/", "over")): derived_field(p, w)
    for p in (2, 3, 5, 7)
    for w in ("x", "1", "1/x")
}


@pytest.mark.parametrize("K", list(_FIELDS.values()), ids=list(_FIELDS))
def test_field_mode_matches_poly_mode(K):
    # Field mode computes in K; poly mode builds twisted polynomials and
    # reads the constant term.  Values, error classes and offsets agree.
    kinds = set()
    for s in _sweep(K.p):
        got = _outcome(lambda s: parse_field_element(s, K), s)
        want = _outcome(lambda s: parse_diffpoly(s, K).coeff(0), s)
        assert got == want, s
        kinds.add(got[0])
    assert kinds == {"value", ExprSyntaxError, parsing._ZeroDivisorError}
    # t is refused in field mode, at its offset, whatever surrounds it.
    for s in ("t", "x + t", "1/(x*t)", "(t - x)^2", "2 / t"):
        with pytest.raises(ExprSyntaxError, match="t is not allowed") as exc:
            parse_field_element(s, K)
        assert exc.value.position == s.index("t")


@pytest.mark.parametrize("K", list(_FIELDS.values()), ids=list(_FIELDS))
def test_field_mode_builds_no_twisted_polynomial(monkeypatch, K):
    want = [_outcome(lambda s: parse_diffpoly(s, K).coeff(0), s) for s in _sweep(K.p)]

    def refuse(*args, **kwargs):
        raise AssertionError("field mode built a DiffPoly")

    monkeypatch.setattr(DiffPoly, "__init__", refuse)
    assert [_outcome(lambda s: parse_field_element(s, K), s) for s in _sweep(K.p)] == want
    with pytest.raises(AssertionError):
        parse_diffpoly("x", K)


def test_field_mode_takes_a_plain_rational_function_field():
    K = RationalFunctionField(3)
    assert parse_field_element("(x^2 + 1)/(2*x)", K) == (K.x() ** 2 + K.one()) / (K.from_int(2) * K.x())
