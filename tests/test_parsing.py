"""Expression parsing for both value domains, including error positions."""

import random

import pytest

from diffext.diffpoly import DiffPoly
from diffext.errors import ExprSyntaxError, TInDenominator
from diffext.parsing import (
    MAX_POWER_DEGREE,
    decimal_int,
    parse_diffpoly,
    parse_expr,
    parse_field_element,
)
from diffext.scalars import DensePoly, PrimeField, RatFunc, random_ratfunc
from diffext.towers import DerivedField


def _w(p, coeffs):
    F = PrimeField(p)
    return RatFunc(DensePoly(F, coeffs), DensePoly.one(F))


K2X = DerivedField(2, _w(2, (0, 1)))
K3X = DerivedField(3, _w(3, (0, 1)))


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


def test_parse_mode_validation():
    with pytest.raises(ValueError):
        parse_expr("x", K2X, mode="weird")


def test_field_print_parse_roundtrip():
    rng = random.Random(64)
    for K in (K2X, K3X):
        for _ in range(150):
            a = random_ratfunc(K, rng, 3)
            assert parse_field_element(str(a), K) == a


def test_poly_print_parse_roundtrip():
    rng = random.Random(65)
    for K in (K2X, K3X):
        for _ in range(100):
            coeffs = [random_ratfunc(K, rng, 2) for _ in range(rng.randrange(4) + 1)]
            h = DiffPoly(K, coeffs)
            assert parse_diffpoly(str(h), K) == h


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
