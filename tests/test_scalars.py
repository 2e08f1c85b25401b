"""Base arithmetic: prime fields, the polynomial kernels, canonical fractions.

Polynomial arithmetic runs on coefficient tuples (``scalars._mul``,
``_add``, ``_neg``, ``_remainder``, ``_exquo``, ``_gcd``, ``_pow``), and the
tests call those kernels; ``DensePoly`` is only a view of a tuple.
"""

import gc
import random
from pathlib import Path

import pytest

from diffext import scalars
from diffext.scalars import (
    DensePoly,
    PrimeField,
    RatFunc,
    RationalFunctionField,
    poly_gcd,
    random_poly,
    random_ratfunc,
    _add,
    _mul,
    _neg,
    _pow,
    _power,
)
from oracles import formal_derivative, monic, scale

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(field, *coeffs):
    return DensePoly(field, coeffs)


def _frac(field, num, den):
    """The gcd constructor's fraction num/den of two coefficient tuples."""
    return RatFunc(DensePoly(field, num), DensePoly(field, den))


def test_prime_field_validation():
    PrimeField(65521)  # largest prime below 2**16
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField((1 << 16) + 1)


def test_poly_normalization_trims_leading_zeros():
    assert P(F2, 1, 1, 0, 0).coeffs == (1, 1)
    assert P(F2, 0).coeffs == ()
    assert P(F3, 3, 1).coeffs == (0, 1)
    assert P(F2, 1).degree() == 0
    assert DensePoly.zero(F2).degree() == -1


def test_poly_gcd_frozen_values():
    # gcd(x^2 + x, x) = x over F_2.
    g = poly_gcd(P(F2, 0, 1, 1), P(F2, 0, 1))
    assert g == P(F2, 0, 1)
    # gcd(x^2 + 1, x + 1) = x + 1 over F_2 (x^2 + 1 = (x + 1)^2).
    g = poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1))
    assert g == P(F2, 1, 1)
    # One argument zero: monic scaling of the other.
    g = poly_gcd(P(F3, 0, 2), DensePoly.zero(F3))
    assert g == P(F3, 0, 1)
    assert not poly_gcd(DensePoly.zero(F2), DensePoly.zero(F2))


def test_poly_gcd_divides_both():
    rng = random.Random(11)
    for _ in range(300):
        a = random_poly(F3, rng, 5)
        b = random_poly(F3, rng, 5)
        g = poly_gcd(a, b)
        if not g:
            assert not a and not b
            continue
        assert g.coeffs[-1] == 1
        for u in (a.coeffs, b.coeffs):
            assert _mul(g.coeffs, scalars._exquo(u, g.coeffs, 3), 3) == u


def test_ratfunc_canonical_frozen_values():
    # (x^2 + x)/x reduces to x + 1 over F_2.
    r = RatFunc(P(F2, 0, 1, 1), P(F2, 0, 1))
    assert r.num == P(F2, 1, 1)
    assert r.den == DensePoly.one(F2)
    # Zero numerator collapses to 0/1 regardless of denominator.
    r = RatFunc(DensePoly.zero(F2), P(F2, 1, 0, 1))
    assert r.num == DensePoly.zero(F2)
    assert r.den == DensePoly.one(F2)
    # a/a = 1, and the denominator is forced monic.
    a = P(F3, 1, 2)
    assert RatFunc(a, a) == RatFunc.one(F3)
    r = RatFunc(P(F3, 1), P(F3, 2))
    assert r.den_coeffs == (1,) and r.num_coeffs == (2,)
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(F2, 1), DensePoly.zero(F2))


def test_ratfunc_canonical_is_representative_independent():
    rng = random.Random(23)
    K = RationalFunctionField(3)
    for _ in range(200):
        a = random_ratfunc(K, rng, 3)
        s = random_poly(F3, rng, 3, nonzero=True).coeffs
        scaled = _frac(F3, _mul(a.num_coeffs, s, 3), _mul(a.den_coeffs, s, 3))
        assert scaled == a
        assert scaled.num.coeffs == a.num.coeffs and scaled.den.coeffs == a.den.coeffs


def test_field_ops_frozen_values():
    K = RationalFunctionField(2)
    x = K.x()
    one = K.one()
    # 1/(x+1) + x/(x+1) = 1 over F_2.
    d = RatFunc(DensePoly(K.field, (1, 1)), DensePoly.one(K.field))
    assert one / d + x / d == one
    # x * (1/x) = 1.
    assert x * x.inverse() == one
    # x - x = 0.
    assert x - x == K.zero()
    with pytest.raises(ZeroDivisionError):
        one / K.zero()
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_sampled(p):
    K = RationalFunctionField(p)
    rng = random.Random(1000 + p)
    zero, one = K.zero(), K.one()
    for _ in range(400):
        a = random_ratfunc(K, rng, 4)
        b = random_ratfunc(K, rng, 4)
        c = random_ratfunc(K, rng, 4)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if a:
            assert a * a.inverse() == one


def test_ratfunc_pow():
    K = RationalFunctionField(3)
    x = K.x()
    assert x ** 4 == x * x * x * x
    assert x ** 0 == K.one()
    assert x ** -2 == (x * x).inverse()
    zero = K.zero()
    assert zero ** 0 == K.one()
    # Equality is structural, so this pins the canonical zero 0/1.
    assert zero ** 1 == zero and zero ** 3 == zero
    # A constant denominator skips the gcd but is still made monic: over F_3,
    # x/2 is 2x/1.
    half_x = RatFunc(P(F3, 0, 1), P(F3, 2))
    assert (half_x.num, half_x.den) == (P(F3, 0, 2), P(F3, 1))
    assert half_x ** 3 == RatFunc(P(F3, 0, 0, 0, 2), P(F3, 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ratfunc_pow_matches_repeated_product(monkeypatch, p):
    # The product reduces by a gcd and the power takes none; equality is
    # structural, so both must give the same canonical fraction.  n runs up
    # to 7, so n = p is included.
    gcds = []
    gcd = scalars.poly_gcd

    def counted(a, b):
        gcds.append(1)
        return gcd(a, b)

    monkeypatch.setattr(scalars, "poly_gcd", counted)
    rng = random.Random(90 + p)
    K = RationalFunctionField(p)
    for _ in range(12):
        a = random_ratfunc(K, rng, 3, nonzero=True)
        expected = K.one()
        for n in range(8):
            gcds.clear()
            got = a ** n
            assert not gcds
            assert got == expected
            expected = expected * a


class _Counting:
    """Integer under multiplication that counts the products taken."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counting.products += 1
        return _Counting(self.value * other.value)


def test_power_squares_only_while_bits_remain():
    one = _Counting(1)
    assert _power(_Counting(3), 0, one) is one
    for n in range(1, 17):
        _Counting.products = 0
        assert _power(_Counting(3), n, one).value == 3 ** n
        assert _Counting.products == (n.bit_length() - 1) + (bin(n).count("1") - 1)
    with pytest.raises(ValueError):
        _power(_Counting(3), -1, one)


def test_pow_matches_repeated_product():
    rng = random.Random(5)
    K = RationalFunctionField(3)
    a, expected = (2, 1, 1), (1,)
    for n in range(6):
        assert _pow(a, n, 3) == expected
        expected = _mul(expected, a, 3)
    a, expected = random_ratfunc(K, rng, 2, nonzero=True), K.one()
    for n in range(6):
        assert a ** n == expected
        expected = expected * a
    with pytest.raises(ValueError):
        _pow((2, 1), -1, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_powers_match_square_and_multiply_and_repeated_products(p):
    # n runs over every digit pattern of two base-p digits and past p^2.
    # The bases: zero, constants, x, leading coefficient p - 1, random.
    rng = random.Random(310 + p)
    F = PrimeField(p)
    K = RationalFunctionField(p)
    mul = lambda u, v: _mul(u, v, p)
    bases = [(), (1,), (p - 1,), (0, 1)]
    bases += [P(F, 1, 2 % p, p - 1).coeffs] + [random_poly(F, rng, 3).coeffs for _ in range(3)]
    fracs = [K.zero(), K.one(), RatFunc(P(F, 0, p - 1), P(F, 1, 1))]
    fracs += [random_ratfunc(K, rng, 3, nonzero=True) for _ in range(2)]
    for a in bases:
        expected = (1,)
        for n in range(2 * p * p + 4):
            assert _pow(a, n, p) == expected == _power(a, n, (1,), mul), (a, n)
            expected = _mul(expected, a, p)
    for a in fracs:
        expected = K.one()
        for n in range(2 * p * p + 4):
            assert a ** n == expected == _power(a, n, K.one()), (a, n)
            expected = expected * a


@pytest.mark.parametrize("p", [257, 65521])
def test_digit_powers_at_large_p(p):
    # n = p is one Frobenius spread and n = p + 1 one product more; the
    # oracle is square-and-multiply, and repeated products for constants.
    F = PrimeField(p)
    K = RationalFunctionField(p)
    mul = lambda u, v: _mul(u, v, p)
    c, x1 = (3,), (1, 1)
    for n in (p, p + 1):
        expected = (1,)
        for _ in range(n):
            expected = _mul(expected, c, p)
        assert _pow(c, n, p) == expected == _power(c, n, (1,), mul)
        power = _power(x1, n, (1,), mul)
        assert _pow(x1, n, p) == power
        assert _frac(F, x1, (1,)) ** n == _frac(F, power, (1,))
        assert _frac(F, (1,), x1) ** n == _frac(F, (1,), power)
        assert _frac(F, c, (1,)) ** n == K.from_int(expected[0])
    assert _pow(x1, p, p) == (1,) + (0,) * (p - 1) + (1,)


def test_p_th_power_takes_no_product(monkeypatch):
    calls = []
    mul = scalars._mul

    def counted(a, b, p):
        calls.append(1)
        return mul(a, b, p)

    monkeypatch.setattr(scalars, "_mul", counted)
    for p in (2, 3, 7):
        a = P(PrimeField(p), 1, 1, 2).coeffs
        # 2p is p^2 at p = 2; otherwise its digit 2 costs one squaring.
        for n, products in ((p, 0), (p * p, 0), (p + 1, 1), (p * p + p, 1), (2 * p, int(p > 2))):
            calls.clear()
            scalars._pow(a, n, p)
            assert len(calls) == products, (p, n)
    # A monomial's power takes none at any n.
    calls.clear()
    scalars._pow((0, 0, 2), 11, 3)
    assert not calls


def test_char_p_frobenius_is_additive():
    for p in (2, 3):
        K = RationalFunctionField(p)
        rng = random.Random(7 * p)
        for _ in range(100):
            a = random_ratfunc(K, rng, 3)
            b = random_ratfunc(K, rng, 3)
            assert (a + b) ** p == a ** p + b ** p


def test_str_forms():
    K = RationalFunctionField(3)

    def poly(*coeffs):
        return RatFunc(DensePoly(K.field, coeffs), DensePoly.one(K.field))

    assert str(K.zero()) == "0"
    assert str(poly(1, 2, 1)) == "x^2 + 2*x + 1"
    assert str(poly(0, 1) / poly(1, 1)) == "x/(x + 1)"
    assert str((poly(1, 1) / poly(0, 0, 1))) == "(x + 1)/(x^2)"


# -- the tuple kernels and Henrici's fraction arithmetic against the old routes
#
# The oracles: a schoolbook product and a textbook long division and Euclid
# on coefficient tuples, and the gcd-taking RatFunc(num, den) constructor
# applied to the unreduced sum, product and quotient.


def _loop_mul(a, b, p):
    """Schoolbook product of coefficient tuples: one pass per entry of a."""
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i : i + nb] = [o + ai * y for o, y in zip(out[i : i + nb], b)]
    return tuple([c % p for c in out])


def _textbook_divmod(a, b, p):
    """(quotient, remainder) of coefficient tuples, for any nonzero b."""
    rem = list(a)
    db = len(b) - 1
    q = [0] * max(len(rem) - db, 0)
    inv = pow(b[-1], -1, p)
    while len(rem) > db:
        k = len(rem) - 1 - db
        c = rem[-1] * inv % p
        q[k] = c
        for i, bc in enumerate(b):
            rem[k + i] = (rem[k + i] - c * bc) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(q), tuple(rem)


def _textbook_gcd(a, b, p):
    while b:
        a, b = b, _textbook_divmod(a, b, p)[1]
    return monic(a, p)


def _assert_canonical_coeffs(cs, p):
    assert type(cs) is tuple
    assert all(type(c) is int and 0 <= c < p for c in cs)
    assert not cs or cs[-1] != 0


def _assert_canonical(r, p):
    _assert_canonical_coeffs(r.num_coeffs, p)
    _assert_canonical_coeffs(r.den_coeffs, p)
    assert r.den_coeffs and r.den_coeffs[-1] == 1
    if r.num_coeffs:
        assert _textbook_gcd(r.num_coeffs, r.den_coeffs, p) == (1,)
    else:
        assert r.den_coeffs == (1,)


def _fraction_pairs(p, rng, n):
    """Pairs that reach every branch of the sum and the product: zero,
    constants, polynomials, equal denominators, shared factors, a sum that
    cancels part of gcd(b, d), and p-th-power denominators."""
    K = RationalFunctionField(p)
    F = K.field

    def frac(deg=3):
        return random_ratfunc(K, rng, deg)

    def monic(deg):
        return random_poly(F, rng, deg, monic=True).coeffs

    for _ in range(n):
        a = frac()
        kind = rng.randrange(8)
        if kind == 0:
            b = K.zero() if rng.randrange(2) else K.from_int(rng.randrange(1, p))
        elif kind == 1:
            b = RatFunc(random_poly(F, rng, 3), DensePoly.one(F))
        elif kind == 2:
            b = RatFunc(random_poly(F, rng, 3), a.den)
        elif kind == 3:
            s = monic(2)
            b = _frac(F, random_poly(F, rng, 3).coeffs, _mul(s, monic(2), p))
            a = _frac(F, a.num_coeffs, _mul(a.den_coeffs, s, p))
        elif kind == 4:
            # a + b = z, so the sum cancels what a and b share beyond z.
            b = frac() - a
        elif kind == 5:
            b = _frac(F, random_poly(F, rng, 2).coeffs, _pow(monic(1), p, p))
            a = _frac(F, a.num_coeffs, _mul(a.den_coeffs, _pow(monic(1), p, p), p))
        elif kind == 6:
            # Cross factors for the product: num a shares with den b.
            s = monic(2)
            a = _frac(F, _mul(a.num_coeffs, s, p), a.den_coeffs)
            b = _frac(F, random_poly(F, rng, 2).coeffs, _mul(s, monic(1), p))
        else:
            b = frac()
        yield a, b


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dense_poly_kernels_match_textbook(p):
    F = PrimeField(p)
    rng = random.Random(800 + p)
    for _ in range(300):
        a = random_poly(F, rng, 7).coeffs
        b = random_poly(F, rng, 5).coeffs
        c = rng.randrange(p)
        total, difference, product = _add(a, b, p), _add(a, _neg(b, p), p), _mul(a, b, p)
        scaled = _mul(P(F, c).coeffs, a, p)
        for got in (total, difference, _neg(a, p), product, scaled):
            _assert_canonical_coeffs(got, p)
        assert scaled == scale(a, c, p)
        derivative = scalars._derivative(a, p)
        _assert_canonical_coeffs(derivative, p)
        assert derivative == formal_derivative(a, p)
        assert product == _loop_mul(a, b, p)
        assert _add(difference, b, p) == a
        g = poly_gcd(DensePoly(F, a), DensePoly(F, b)).coeffs
        _assert_canonical_coeffs(g, p)
        assert g == _textbook_gcd(a, b, p) == scalars._gcd(a, b, p)
        if len(b) >= 3:
            _check_division(a, b, p)
        # A shared factor must come back whole.
        s = random_poly(F, rng, 3, monic=True).coeffs
        x, y = _mul(a, s, p), _mul(b, s, p)
        assert scalars._gcd(x, y, p) == _textbook_gcd(x, y, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_low_degree_kernel_paths_match_textbook(p):
    # Divisors of degree 0, 1 and 2, not monic: the one-entry scaling pass
    # of the product and the early exit from Euclid, whose linear tail
    # takes the root of a non-monic divisor; their monic multiples take the
    # constant and synthetic exact quotients, and degree 2 the packed long
    # division.
    F = PrimeField(p)
    rng = random.Random(1300 + p)

    def of_degree(n, monic=False):
        top = 1 if monic else rng.randrange(1, p)
        return tuple(rng.randrange(p) for _ in range(n)) + (top,)

    gcd_degrees = set()
    for _ in range(120):
        a = random_poly(F, rng, 7).coeffs
        for n in (0, 1, 2):
            b = of_degree(n)
            assert _mul(a, b, p) == _mul(b, a, p) == _loop_mul(a, b, p)
            if n == 2:
                _check_division(a, b, p)
            # A linear factor absent, then present in both operands.
            s = of_degree(1)
            for x, y in ((a, b), (_mul(a, s, p), _mul(b, s, p)), (_mul(a, b, p), b)):
                g = scalars._gcd(x, y, p)
                _assert_canonical_coeffs(g, p)
                assert g == scalars._gcd(y, x, p) == _textbook_gcd(x, y, p)
                gcd_degrees.add(len(g) - 1)
            # Exact quotients by a monic divisor, the dividend a product.
            m = monic(b, p)
            for x in (_mul(a, m, p), _mul(_mul(a, m, p), of_degree(1, monic=True), p)):
                got = scalars._exquo(x, m, p)
                assert got == _textbook_divmod(x, m, p)[0]
                assert type(got) is tuple
    assert {0, 1, 2} <= gcd_degrees


def _memo_key(x, y):
    return (x.num_coeffs, x.den_coeffs, y.num_coeffs, y.den_coeffs)


def _henrici_cases(x, y):
    """(op, memo, right operand the memo is keyed by, gcd-constructor
    oracle) for x + y, x - y, x * y and x / y on x's field."""
    F = x.field
    p = F.p
    a, b, c, d = x.num_coeffs, x.den_coeffs, y.num_coeffs, y.den_coeffs
    ad, cb, bd = _mul(a, d, p), _mul(c, b, p), _mul(b, d, p)
    cases = [
        (lambda: x + y, F._add_memo, y, _frac(F, _add(ad, cb, p), bd)),
        (lambda: x - y, F._add_memo, -y, _frac(F, _add(ad, _neg(cb, p), p), bd)),
        (lambda: x * y, F._mul_memo, y, _frac(F, _mul(a, c, p), bd)),
    ]
    if y:
        cases.append((lambda: x / y, F._mul_memo, y.inverse(), _frac(F, ad, _mul(b, c, p))))
    return cases


# -- Kronecker products against the schoolbook loop
#
# _mul packs each operand into one int, w bytes per coefficient, where w is
# the fewest bytes that hold n (p-1)^2 for the shorter length n, and n = 1
# is a scaling pass.  The oracle is _loop_mul's schoolbook loop; the lengths sit on
# both sides of every change of path.
# Operands whose coefficients are all p - 1 give the largest slot sums.


# Past w (p-1) = 255 the slots are read one by one: p = 211 gives slots of
# 3 and 4 bytes, and p = 65537, whose p - 1 = 2^16 takes three bytes, slots
# of 5 and 6.  At p = 2^32 + 15 they pass 8 bytes.
_KRONECKER_PRIMES = [2, 3, 5, 7, 11, 13, 17, 31, 211, 257, 65521, 65537, 4294967311]


def _width_switches(p, cap):
    """Shorter lengths n <= cap on both sides of each change of slot width."""
    out = {1, 2, 3, 4}
    for bits in (8, 16, 24, 32, 40):
        n = ((1 << bits) - 1) // (p - 1) ** 2  # the longest n whose slot sums fit
        out.update((n, n + 1))
    return sorted(n for n in out if 1 <= n <= cap)


def _operand(rng, p, n, full):
    if full:
        return (p - 1,) * n
    return tuple(rng.randrange(p) for _ in range(n - 1)) + (rng.randrange(1, p),)


@pytest.mark.parametrize("p", _KRONECKER_PRIMES)
def test_kronecker_products_match_schoolbook_loop(p):
    rng = random.Random(2500 + p)
    for n in _width_switches(p, 2000):
        for m in (n, n + 3):
            for full in (False, True):
                a, b = _operand(rng, p, n, full), _operand(rng, p, m, full)
                want = _loop_mul(a, b, p)
                assert scalars._mul(a, b, p) == scalars._mul(b, a, p) == want, (n, m, full)


@pytest.mark.parametrize("p", _KRONECKER_PRIMES)
def test_kronecker_products_of_full_operands_at_every_width(p):
    # Lengths too long for the loop: with every coefficient p - 1, entry k of
    # the product of lengths n and m is (p-1)^2 = 1 times the number of pairs
    # i + j = k, min(k + 1, n, m, n + m - 1 - k), mod p.
    for n in _width_switches(p, 70000):
        m = n + 1
        got = scalars._mul((p - 1,) * n, (p - 1,) * m, p)
        assert got == tuple(min(k + 1, n, m, n + m - 1 - k) % p for k in range(n + m - 1)), n


@pytest.mark.parametrize("p", [2, 7, 31, 257])
def test_shifted_sums_match_schoolbook_sums(p):
    # Few small terms give one-byte slots at p = 2 and 7, many large ones
    # wider slots; p = 257 packs two bytes per coefficient.
    rng = random.Random(2600 + p)
    for count in (1, 3, 9, 40):
        polys = [_operand(rng, p, rng.randrange(1, 12), False) for _ in range(5)] + [()]
        term = lambda: (rng.randrange(1, p), rng.randrange(20), rng.randrange(6))
        columns = [[term() for _ in range(rng.randrange(count + 1))] for _ in range(6)]
        want = []
        for terms in columns:
            acc = ()
            for c, s, k in terms:
                acc = scalars._add(acc, _loop_mul((0,) * s + (c,), polys[k], p), p)
            want.append(acc)
        assert scalars._shifted_sums(polys, columns, p) == want, count
        # The unpacking half alone, at the least width that holds every
        # slot and one wider, as a caller that packs once for many sums
        # picks it.
        top = (p - 1) * max([1] + [sum([c for c, _, _ in terms]) for terms in columns])
        least = (top.bit_length() + 7) // 8
        for w in (least, least + 1):
            packed = [scalars._pack(P, w, p) for P in polys]
            sums = [sum([c * packed[k] << 8 * w * s for c, s, k in terms]) for terms in columns]
            assert [scalars._unpacked(n, w, p) for n in sums] == want, (count, w)


@pytest.mark.parametrize("p", [2, 5, 13, 127, 131, 257, 65537])
def test_unpack_matches_slot_by_slot_reduction(p):
    # _unpack reduces byte j of every slot by one table while w (p-1) <=
    # 255 (p = 127 at w = 2 is the last such prime, 131 the first past it)
    # and past that reads each slot as one int; full slots of 0xff bytes
    # are included.
    rng = random.Random(2700 + p)
    for w in (1, 2, 3, 4, 5, 8, 9):
        if p > 256 ** w:
            continue
        for size in (1, 7, 64):
            for full in (False, True):
                slots = [256 ** w - 1 if full else rng.randrange(256 ** w) for _ in range(size)]
                n = sum(s << 8 * w * k for k, s in enumerate(slots))
                want = [s % p for s in slots]
                assert scalars._unpack(n, w, size, p) == want, (w, size, full)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_henrici_arithmetic_matches_gcd_constructor(p):
    # Every operation runs twice on one field: the first pass is Henrici's
    # (it fills the field's memo), the second must be a memo hit, and both
    # must equal the gcd constructor's result.
    rng = random.Random(900 + p)
    fields = set()
    for a, b in _fraction_pairs(p, rng, 400):
        for x, y in ((a, b), (b, a)):
            fields.add(id(x.field))
            for op, memo, z, want in _henrici_cases(x, y):
                first = op()
                if x and z:
                    key = _memo_key(x, z)
                    assert key in memo
                    size = len(memo)
                    second = op()
                    assert len(memo) == size and memo[key] == (second.num_coeffs, second.den_coeffs)
                else:  # a zero operand returns early and leaves no entry
                    second = op()
                for got in (first, second):
                    _assert_canonical(got, p)
                    assert got == want
            pairs = [(-x, _frac(x.field, _neg(x.num_coeffs, p), x.den_coeffs))]
            if y:
                pairs.append((y.inverse(), RatFunc(y.den, y.num)))
            for got, want in pairs:
                _assert_canonical(got, p)
                assert got == want
    assert len(fields) == 1


def test_fraction_memos_stay_within_their_cap(monkeypatch):
    # At a cap of 8 all three memos are emptied again and again; none ever
    # holds more than 8 entries, and every result after a clear still
    # equals the gcd constructor's.
    monkeypatch.setattr(scalars, "_FRACTION_MEMO_ENTRIES", 8)
    for p in (2, 3, 5, 7):
        rng = random.Random(1900 + p)
        clears = {"add": 0, "mul": 0, "cancel": 0}
        last = {"add": 0, "mul": 0, "cancel": 0}
        for a, b in _fraction_pairs(p, rng, 60):
            F = a.field
            memos = (("add", F._add_memo), ("mul", F._mul_memo), ("cancel", F._cancel_memo))
            for op, _, _, want in _henrici_cases(a, b):
                got = op()
                assert got == want
                _assert_canonical(got, p)
                for name, m in memos:
                    assert len(m) <= 8
                    if len(m) < last[name]:
                        clears[name] += 1
                    last[name] = len(m)
        assert min(clears.values()) >= 2, clears


def _is_tuple_pair(value):
    return type(value) is tuple and len(value) == 2 and all(type(v) is tuple for v in value)


def _is_tuple_triple(value):
    return type(value) is tuple and len(value) == 3 and all(type(v) is tuple for v in value)


def _cancel_pairs(p, rng):
    """Ordered pairs for scalars._cancel: shared factors, constants, equal
    operands, coprime pairs and one zero side."""
    F = PrimeField(p)
    out = []
    for _ in range(30):
        u = random_poly(F, rng, 6, nonzero=True).coeffs
        v = random_poly(F, rng, 6, nonzero=True).coeffs
        s = random_poly(F, rng, 4, monic=True).coeffs
        c = (rng.randrange(1, p),)
        out += [
            (u, v),
            (scalars._mul(u, s, p), scalars._mul(v, s, p)),
            (c, v), (u, c), (u, u), (scalars._mul(u, s, p), s),
            # gcd(u, u + 1) = 1
            (u, scalars._add(u, (1,), p)),
            ((), v),
        ]
    return F, out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_cancel_matches_gcd_then_exact_division(monkeypatch, p):
    # Each pair's (g, u/g, v/g) equals poly_gcd followed by _exquo, and g
    # times each cofactor gives the operand back.  The second call with the
    # same pair is a memo hit: it takes no gcd and returns the stored
    # triple.
    gcds = []
    gcd = scalars.poly_gcd

    def counted(a, b):
        gcds.append(1)
        return gcd(a, b)

    monkeypatch.setattr(scalars, "poly_gcd", counted)
    F, pairs = _cancel_pairs(p, random.Random(2100 + p))
    kinds = set()
    for u, v in pairs:
        g = gcd(DensePoly(F, u), DensePoly(F, v)).coeffs
        want = (g, scalars._exquo(u, g, p), scalars._exquo(v, g, p))
        gcds.clear()
        got = scalars._cancel(F, u, v)
        assert got == want and _is_tuple_triple(got)
        assert scalars._mul(g, got[1], p) == u and scalars._mul(g, got[2], p) == v
        assert F._cancel_memo[(u, v)] is got
        # One gcd, or none when an earlier pair was the same.
        taken = len(gcds)
        assert taken <= 1
        again = scalars._cancel(F, u, v)
        assert again is got and len(gcds) == taken
        kinds.add(len(g) > 1)
    assert kinds == {False, True}


def test_cancel_memo_is_per_field():
    # Two PrimeField(3) objects compare equal but keep their own memos: a
    # pair reduced on one is still a miss on the other.  A memo shared
    # between fields would carry results from one command to the next.
    F, G = PrimeField(3), PrimeField(3)
    assert F == G and F._cancel_memo is not G._cancel_memo
    u, v = (1, 0, 1), (2, 1)  # x^2 + 1 and x + 2 = x - 1 over F_3: coprime
    scalars._cancel(F, scalars._mul(u, v, 3), v)
    assert len(F._cancel_memo) == 1 and not G._cancel_memo
    scalars._cancel(G, scalars._mul(u, v, 3), v)
    assert F._cancel_memo == G._cancel_memo
    assert F._cancel_memo[(scalars._mul(u, v, 3), v)] is not G._cancel_memo[(scalars._mul(u, v, 3), v)]


def test_two_loads_of_one_config_share_no_fraction_memo():
    # Each load of a config builds its own fields: a suite run on the first
    # load adds nothing to the second's memos, which hold only what its own
    # load put there, and the second's suite fills memos of its own.
    from diffext.frontend import instance_from_text, run_suite

    text = (CONFIGS / "i3.cfg").read_text(encoding="utf-8")
    first, second = instance_from_text(text), instance_from_text(text)
    names = ("_cancel_memo", "_add_memo", "_mul_memo")
    fields = first.K.field, second.K.field
    loaded = [{name: dict(getattr(F, name)) for name in names} for F in fields]
    assert fields[0] is not fields[1] and loaded[0] == loaded[1]
    assert run_suite(first, "ring").checks
    grown = {name: dict(getattr(fields[0], name)) for name in names}
    assert all(len(grown[name]) > len(loaded[0][name]) for name in names)
    assert {name: getattr(fields[1], name) for name in names} == loaded[1]
    assert run_suite(second, "ring").checks
    for name in names:
        assert getattr(fields[0], name) == grown[name]
        assert getattr(fields[0], name) is not getattr(fields[1], name)


def test_ring_suite_leaves_no_field_garbage(monkeypatch):
    # A field's memos hold coefficient tuples, never fractions, so no
    # fraction -> field -> memo -> fraction cycle forms: once a suite's
    # objects are dropped, reference counting frees them all, and the
    # cycle collector finds no field and no fraction.
    from diffext.frontend import instance_from_text, run_suite

    memos, cancel_memos = [], []
    init = PrimeField.__init__

    def recording_init(self, p):
        init(self, p)
        memos.extend((self._add_memo, self._mul_memo))
        cancel_memos.append(self._cancel_memo)

    monkeypatch.setattr(PrimeField, "__init__", recording_init)
    text = (CONFIGS / "i3.cfg").read_text(encoding="utf-8")
    gc.collect()
    gc.disable()
    try:
        inst = instance_from_text(text)
        report = run_suite(inst, "ring")
        assert report.checks and all(c.verdict == "pass" for c in report.checks)
        assert any(memos) and any(cancel_memos)
        assert all(_is_tuple_pair(v) for memo in memos for v in memo.values())
        assert all(_is_tuple_triple(v) for memo in cancel_memos for v in memo.values())
        del inst, report
        memos.clear()
        cancel_memos.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (PrimeField, RatFunc))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not leaked


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gcd_constructor_matches_textbook(p):
    F = PrimeField(p)
    rng = random.Random(950 + p)
    for _ in range(300):
        num = random_poly(F, rng, 6)
        den = random_poly(F, rng, 6, nonzero=True)
        r = RatFunc(num, den)
        _assert_canonical(r, p)
        n, d = num.coeffs, den.coeffs
        g = _textbook_gcd(n, d, p)
        lc = pow(_textbook_divmod(d, g, p)[0][-1], -1, p)
        if n:
            assert r.num_coeffs == scale(_textbook_divmod(n, g, p)[0], lc, p)
            assert r.den_coeffs == scale(_textbook_divmod(d, g, p)[0], lc, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_derivation_matches_quotient_rule_oracle(p):
    from diffext.towers import DerivedField

    F = PrimeField(p)
    K = RationalFunctionField(p)
    rng = random.Random(970 + p)
    x2p1 = RatFunc(DensePoly(K.field, (1, 0, 1)), DensePoly.one(K.field))
    xp1 = RatFunc(DensePoly(K.field, (1, 1)), DensePoly.one(K.field))
    weights = [K.x(), K.one(), x2p1, K.x().inverse(), xp1 / K.x()]
    for w in weights:
        D = DerivedField(p, w)
        for a, b in _fraction_pairs(p, rng, 40):
            for u in (a, b, a * b, a + b):
                v, n = u.den_coeffs, u.num_coeffs
                dv, dn = formal_derivative(v, p), formal_derivative(n, p)
                top = _add(_mul(dn, v, p), _neg(_mul(n, dv, p), p), p)
                want = _frac(F, _mul(w.num_coeffs, top, p), _mul(_mul(w.den_coeffs, v, p), v, p))
                got = D.delta(u)
                _assert_canonical(got, p)
                assert got == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ratfunc_value_contract_across_construction_routes(p):
    # Whatever route builds a fraction, its parts are the textbook canonical
    # form of an unreduced pair (the gcd constructor is the oracle), its
    # field has the right modulus, and equal values hash alike.
    from diffext.parsing import parse_field_element
    from diffext.towers import DerivedField

    F = PrimeField(p)
    K = DerivedField(p, RatFunc.x(F))
    rng = random.Random(1300 + p)
    # (value, unreduced numerator, unreduced denominator), as tuples.
    routes = []
    for a, b in _fraction_pairs(p, rng, 20):
        n, d = random_poly(F, rng, 4), random_poly(F, rng, 4, nonzero=True)
        an, ad, bn, bd = a.num_coeffs, a.den_coeffs, b.num_coeffs, b.den_coeffs
        routes += [
            (RatFunc(n, d), n.coeffs, d.coeffs),
            (a + b, _add(_mul(an, bd, p), _mul(bn, ad, p), p), _mul(ad, bd, p)),
            (a - b, _add(_mul(an, bd, p), _neg(_mul(bn, ad, p), p), p), _mul(ad, bd, p)),
            (a * b, _mul(an, bn, p), _mul(ad, bd, p)),
            (-a, _neg(an, p), ad),
            (a ** 3, _pow(an, 3, p), _pow(ad, 3, p)),
            (a ** 0, (1,), (1,)),
            (parse_field_element("(%s)/(%s)" % (n, d), K), n.coeffs, d.coeffs),
            (K.from_coords(K.coords(a)), an, ad),
        ]
        if b:
            routes += [
                (a / b, _mul(an, bd, p), _mul(ad, bn, p)),
                (b.inverse(), bd, bn),
                (b ** -2, _pow(bd, 2, p), _pow(bn, 2, p)),
            ]
        routes += [(c, c.num_coeffs, c.den_coeffs) for c in K.coords(a)]
        v = random_ratfunc(K, rng, 3)
        routes.append((v, v.num_coeffs, v.den_coeffs))
    values = []
    for v, n, d in routes:
        want = _frac(F, n, d)
        assert v.field.p == p and v.num.field.p == p and v.den.field.p == p
        _assert_canonical(v, p)
        assert v.num == want.num and v.den == want.den
        assert v == want and hash(v) == hash(want)
        values.append(v)
    for u in values:
        for v in values:
            if u == v:
                assert hash(u) == hash(v)
    # Equal coefficient tuples over different fields are different values.
    assert RatFunc.x(F) != RatFunc.x(PrimeField(7))


# -- long division and Euclid on packed ints against the textbook routes
#
# Divisors of degree >= 2 run on packed ints: at p = 2 every slot is one
# byte holding 0 or 1, and at odd p the slot width grows with the number of
# division steps that can reach one slot, min(len(a) - len(b) + 1, len(b)).
# The cases sit on both sides of every change of width, with the largest
# slot sums (a divisor of all p - 1 and a quotient of all ones), and at
# p = 2 with degrees past 300 so that the leading slot is read off many
# bytes.

_DIVISION_PRIMES = [2, 3, 5, 7, 11, 13, 251, 257, 65521]


def _step_switches(p, cap):
    """Numbers of steps per slot m <= cap on both sides of each width change."""
    out = {1, 2, 3}
    if p > 2:
        for bits in (8, 16, 24, 32, 40, 48):
            # The most steps whose slot sums (p-1)(1 + m (p-1)) fit in bits.
            m = (((1 << bits) - 1) // (p - 1) - 1) // (p - 1)
            out.update((m, m + 1))
    return sorted(m for m in out if 1 <= m <= cap)


def _random_of_length(rng, p, n, monic=False):
    top = 1 if monic else rng.randrange(1, p)
    return tuple(rng.randrange(p) for _ in range(n - 1)) + (top,)


def _check_division(a, b, p):
    """_remainder, _gcd and _exquo against the textbook routes, len(b) >= 3.

    _remainder returns bytes at one-byte slots and a tuple at wider ones,
    and a dividend shorter than b is its own remainder, with no division.
    """
    want_q, want_r = _textbook_divmod(a, b, p)
    if len(a) >= len(b):
        q = [0] * len(want_q)
        r = scalars._remainder(a, b, p, q)
        assert type(r) in (bytes, tuple)
        assert (tuple(q), tuple(r)) == (want_q, want_r)
    assert scalars._gcd(a, b, p) == scalars._gcd(b, a, p) == _textbook_gcd(a, b, p)
    if not want_r and b[-1] == 1:
        assert scalars._exquo(a, b, p) == want_q


@pytest.mark.parametrize("p", _DIVISION_PRIMES)
def test_packed_division_matches_textbook_at_every_width(p):
    rng = random.Random(3300 + p)
    for m in _step_switches(p, 300):
        # m steps of a long divisor, and m slots of a short one past m steps.
        for steps, nb in ((m, m + 2), (m + 3, max(m, 3))):
            for full in (False, True):
                if full:
                    b = (p - 1,) * nb
                    q = (1,) * steps
                else:
                    b = _random_of_length(rng, p, nb)
                    q = _random_of_length(rng, p, steps)
                r = tuple(rng.randrange(p) for _ in range(nb - 1))
                a = scalars._add(_loop_mul(q, b, p), r, p)
                _check_division(a, b, p)


@pytest.mark.parametrize("p", _DIVISION_PRIMES)
def test_exact_quotient_matches_long_division_at_every_width(p):
    # _exquo cuts a and b to their top len(a) - deg b entries and runs only
    # the quotient loop.  At every slot width of the test above, with and
    # without the cut, its quotient by a monic b is that of the whole long
    # division, for q b and for q b + r alike: the loop never reads the
    # slots r lives in.
    rng = random.Random(3700 + p)
    for m in _step_switches(p, 300):
        for steps, nb in ((m, m + 2), (m + 3, max(m, 3))):
            for full in (False, True):
                if full:
                    b = (p - 1,) * (nb - 1) + (1,)
                    q = (1,) * steps
                else:
                    b = _random_of_length(rng, p, nb, monic=True)
                    q = _random_of_length(rng, p, steps)
                r = tuple(rng.randrange(p) for _ in range(nb - 1))
                exact = _loop_mul(q, b, p)
                for a in (exact, scalars._add(exact, r, p)):
                    got = scalars._exquo(a, b, p)
                    whole = [0] * steps
                    scalars._remainder(a, b, p, whole)
                    assert type(got) is tuple
                    assert got == tuple(whole) == q, (m, steps, nb, full)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_packed_division_at_three_byte_slots(p):
    # Past 300 steps per slot the textbook route is too slow.  A dividend
    # q b + r with deg r < deg b fixes the quotient q and the remainder r,
    # so the construction is the oracle for the switch to three bytes.
    rng = random.Random(3350 + p)
    for m in _step_switches(p, 20000):
        if m <= 300:
            continue
        for full in (False, True):
            b = (p - 1,) * (m + 2) if full else _random_of_length(rng, p, m + 2)
            q = (1,) * m if full else _random_of_length(rng, p, m)
            r = scalars._trim([rng.randrange(p) for _ in range(m + 1)])
            a = scalars._add(scalars._mul(q, b, p), r, p)
            quotient = [0] * m
            remainder = scalars._remainder(a, b, p, quotient)
            assert (tuple(quotient), tuple(remainder)) == (q, r), (m, full)


@pytest.mark.parametrize("p", _DIVISION_PRIMES)
def test_packed_division_edge_operands(p):
    rng = random.Random(3400 + p)
    for _ in range(40):
        b = _random_of_length(rng, p, rng.randrange(3, 9))
        m = _random_of_length(rng, p, rng.randrange(3, 9), monic=True)
        q = _random_of_length(rng, p, rng.randrange(1, 12))
        # Non-monic divisors, exact quotients, and dividends shorter than,
        # as long as, and longer than the divisor.
        for a in (q, b, _loop_mul(q, b, p), _loop_mul(q, m, p), scalars._add(b, q, p)):
            for d in (b, m):
                _check_division(a, d, p)
        assert scalars._exquo(_loop_mul(q, m, p), m, p) == q
        # Zero and constant operands against the packed divisors.
        for a in ((), (rng.randrange(1, p),)):
            for d in (b, m):
                _check_division(a, d, p)
                assert scalars._gcd(d, a, p) == _textbook_gcd(d, a, p)
        # A shared factor comes back whole from Euclid.
        s = _random_of_length(rng, p, rng.randrange(3, 6), monic=True)
        x, y = _loop_mul(q, s, p), _loop_mul(b, s, p)
        want = _textbook_gcd(x, y, p)
        assert scalars._gcd(x, y, p) == want and len(want) >= len(s)
    assert scalars._gcd((), (), p) == ()


def test_packed_division_past_300_at_p_2():
    rng = random.Random(3500)
    for na, nb in ((301, 3), (420, 150), (640, 317), (1000, 999), (333, 40)):
        a, b = _random_of_length(rng, 2, na), _random_of_length(rng, 2, nb)
        _check_division(a, b, 2)
        s = _random_of_length(rng, 2, 97)
        _check_division(_loop_mul(a, s, 2), _loop_mul(b, s, 2), 2)
        _check_division(_loop_mul(a, b, 2), b, 2)


def _kernel_digest_outputs():
    """Every kernel output on a seeded set, in a fixed order.

    A division entry is (quotient, remainder): the packed long division's
    for a divisor of length >= 3, and the textbook route's for a shorter
    one, which no kernel divides by with a remainder.
    """

    def division(a, b, p):
        if len(b) < 3 or len(a) < len(b):
            return _textbook_divmod(a, b, p)
        q = [0] * (len(a) - len(b) + 1)
        r = scalars._remainder(a, b, p, q)
        return tuple(q), tuple(r)

    out = []
    for p in _DIVISION_PRIMES:
        rng = random.Random(3600 + p)
        for _ in range(60):
            n = rng.randrange(1, 500 if p == 2 else 40)
            a = _random_of_length(rng, p, n)
            b = _random_of_length(rng, p, rng.randrange(1, n + 2))
            m = _random_of_length(rng, p, rng.randrange(1, 12), monic=True)
            s = _random_of_length(rng, p, rng.randrange(1, 6), monic=True)
            out.append(division(a, b, p))
            out.append(division(b, a, p))
            out.append(scalars._gcd(a, b, p))
            out.append(scalars._gcd(_loop_mul(a, s, p), _loop_mul(b, s, p), p))
            out.append(scalars._exquo(_loop_mul(a, m, p), m, p))
    return out


def test_division_kernels_match_pinned_digest():
    # The digest of the list kernels' outputs that the packed ones replaced.
    import hashlib

    digest = hashlib.sha256(repr(_kernel_digest_outputs()).encode()).hexdigest()
    assert digest == "503db0c57b29b7eef459726df689ed4be86109eb323e5611f45b8bd5836b5a9a"
