"""Base arithmetic: prime fields, dense polynomials, canonical fractions."""

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
    _power,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(field, *coeffs):
    return DensePoly(field, coeffs)


def test_prime_field_validation():
    PrimeField(65521)  # largest prime below 2**16
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField((1 << 16) + 1)


def test_prime_field_inverse():
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_poly_normalization_trims_leading_zeros():
    assert P(F2, 1, 1, 0, 0).coeffs == (1, 1)
    assert P(F2, 0).coeffs == ()
    assert P(F3, 3, 1).coeffs == (0, 1)
    assert P(F2, 1).degree() == 0
    assert DensePoly.zero(F2).degree() == -1


def test_poly_divmod_exact():
    # (x^2 + x) = x * (x + 1) over F_2, remainder 0.
    q, r = divmod(P(F2, 0, 1, 1), P(F2, 0, 1))
    assert q == P(F2, 1, 1)
    assert not r
    # Generic case keeps the division identity.
    g = P(F3, 1, 2, 0, 1)
    f = P(F3, 2, 1)
    q, r = divmod(g, f)
    assert q * f + r == g
    assert r.degree() < f.degree()


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
        assert g.is_monic()
        assert not a % g
        assert not b % g


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
    assert r.den.is_monic()
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(F2, 1), DensePoly.zero(F2))


def test_ratfunc_canonical_is_representative_independent():
    rng = random.Random(23)
    K = RationalFunctionField(3)
    for _ in range(200):
        a = random_ratfunc(K, rng, 3)
        s = random_poly(F3, rng, 3, nonzero=True)
        scaled = RatFunc(a.num * s, a.den * s)
        assert scaled == a
        assert scaled.num.coeffs == a.num.coeffs and scaled.den.coeffs == a.den.coeffs


def test_field_ops_frozen_values():
    K = RationalFunctionField(2)
    x = K.x()
    one = K.one()
    # 1/(x+1) + x/(x+1) = 1 over F_2.
    d = K.poly(1, 1)
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
    for a, one in (
        (P(F3, 2, 1, 1), DensePoly.one(F3)),
        (random_ratfunc(K, rng, 2, nonzero=True), K.one()),
    ):
        expected = one
        for n in range(6):
            assert a ** n == expected
            expected = expected * a
    with pytest.raises(ValueError):
        P(F3, 2, 1) ** -1


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
    assert str(K.zero()) == "0"
    assert str(K.poly(1, 2, 1)) == "x^2 + 2*x + 1"
    assert str(K.poly(0, 1) / K.poly(1, 1)) == "x/(x + 1)"
    assert str((K.poly(1, 1) / K.poly(0, 0, 1))) == "(x + 1)/(x^2)"


# -- the tuple kernels and Henrici's fraction arithmetic against the old routes
#
# The oracles: a schoolbook product and a textbook long division and Euclid
# on DensePoly values built through the validating constructor, and the
# gcd-taking RatFunc(num, den) constructor applied to the unreduced sum,
# product and quotient.


def _textbook_mul(a, b):
    F = a.field
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return DensePoly(F, out)


def _textbook_divmod(a, b):
    F = a.field
    rem = list(a.coeffs)
    q = [0] * max(len(rem) - b.degree(), 0)
    inv = F.inv(b.lc())
    while len(rem) > b.degree():
        k = len(rem) - 1 - b.degree()
        c = F.mul(rem[-1], inv)
        q[k] = c
        for i, bc in enumerate(b.coeffs):
            rem[k + i] = F.sub(rem[k + i], F.mul(c, bc))
        while rem and rem[-1] == 0:
            rem.pop()
    return DensePoly(F, q), DensePoly(F, rem)


def _textbook_gcd(a, b):
    while b:
        a, b = b, _textbook_divmod(a, b)[1]
    return a.scale(a.field.inv(a.lc())) if a else a


def _assert_canonical_poly(poly, p):
    cs = poly.coeffs
    assert type(cs) is tuple
    assert all(type(c) is int and 0 <= c < p for c in cs)
    assert not cs or cs[-1] != 0


def _assert_canonical(r, p):
    _assert_canonical_poly(r.num, p)
    _assert_canonical_poly(r.den, p)
    assert r.den.coeffs and r.den.coeffs[-1] == 1
    if r.num:
        assert _textbook_gcd(r.num, r.den).coeffs == (1,)
    else:
        assert r.den.coeffs == (1,)


def _fraction_pairs(p, rng, n):
    """Pairs that reach every branch of the sum and the product: zero,
    constants, polynomials, equal denominators, shared factors, a sum that
    cancels part of gcd(b, d), and p-th-power denominators."""
    K = RationalFunctionField(p)
    F = K.field

    def frac(deg=3):
        return random_ratfunc(K, rng, deg)

    def monic(deg):
        return random_poly(F, rng, deg, monic=True)

    for _ in range(n):
        a = frac()
        kind = rng.randrange(8)
        if kind == 0:
            b = K.zero() if rng.randrange(2) else K.from_int(rng.randrange(1, p))
        elif kind == 1:
            b = RatFunc.from_poly(random_poly(F, rng, 3))
        elif kind == 2:
            b = RatFunc(random_poly(F, rng, 3), a.den)
        elif kind == 3:
            s = monic(2)
            b = RatFunc(random_poly(F, rng, 3), s * monic(2))
            a = RatFunc(a.num, a.den * s)
        elif kind == 4:
            # a + b = z, so the sum cancels what a and b share beyond z.
            b = frac() - a
        elif kind == 5:
            b = RatFunc(random_poly(F, rng, 2), monic(1) ** p)
            a = RatFunc(a.num, a.den * monic(1) ** p)
        elif kind == 6:
            # Cross factors for the product: num a shares with den b.
            s = monic(2)
            a = RatFunc(a.num * s, a.den)
            b = RatFunc(random_poly(F, rng, 2), s * monic(1))
        else:
            b = frac()
        yield a, b


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dense_poly_kernels_match_textbook(p):
    F = PrimeField(p)
    rng = random.Random(800 + p)
    for _ in range(300):
        a = random_poly(F, rng, 7)
        b = random_poly(F, rng, 5)
        for got in (a + b, a - b, -a, a * b, a.formal_derivative(), a.scale(rng.randrange(p))):
            _assert_canonical_poly(got, p)
        assert a * b == _textbook_mul(a, b)
        assert (a - b) + b == a
        g = poly_gcd(a, b)
        _assert_canonical_poly(g, p)
        assert g == _textbook_gcd(a, b)
        assert scalars._gcd(a.coeffs, b.coeffs, p) == g.coeffs
        if b:
            q, r = divmod(a, b)
            _assert_canonical_poly(q, p)
            _assert_canonical_poly(r, p)
            assert (q, r) == _textbook_divmod(a, b)
        # A shared factor must come back whole.
        s = random_poly(F, rng, 3, monic=True)
        if s:
            assert poly_gcd(a * s, b * s) == _textbook_gcd(a * s, b * s)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_low_degree_kernel_paths_match_textbook(p):
    # Divisors of degree 0, 1 and 2 take the constant and synthetic
    # divisions and the early exit from Euclid; they are not monic.
    F = PrimeField(p)
    rng = random.Random(1300 + p)

    def of_degree(n, monic=False):
        top = 1 if monic else rng.randrange(1, p)
        return DensePoly(F, [rng.randrange(p) for _ in range(n)] + [top])

    gcd_degrees = set()
    for _ in range(120):
        a = random_poly(F, rng, 7)
        for n in (0, 1, 2):
            b = of_degree(n)
            assert a * b == b * a == _textbook_mul(a, b)
            q, r = divmod(a, b)
            _assert_canonical_poly(q, p)
            _assert_canonical_poly(r, p)
            assert (q, r) == _textbook_divmod(a, b)
            # A linear factor absent, then present in both operands.
            s = of_degree(1)
            for x, y in ((a, b), (a * s, b * s), (a * b, b)):
                g = poly_gcd(x, y)
                _assert_canonical_poly(g, p)
                assert g == poly_gcd(y, x) == _textbook_gcd(x, y)
                gcd_degrees.add(g.degree())
            # Exact quotients by a monic divisor, the dividend a product.
            m = b.monic()
            for x in (a * m, a * m * of_degree(1, monic=True)):
                got = scalars._exquo(x.coeffs, m.coeffs, p)
                assert got == _textbook_divmod(x, m)[0].coeffs
                assert type(got) is tuple
    assert {0, 1, 2} <= gcd_degrees


def _memo_key(x, y):
    return (x.num_coeffs, x.den_coeffs, y.num_coeffs, y.den_coeffs)


def _henrici_cases(x, y):
    """(op, memo, right operand the memo is keyed by, gcd-constructor
    oracle) for x + y, x - y, x * y and x / y on x's field."""
    F = x.field
    cases = [
        (lambda: x + y, F._add_memo, y, RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)),
        (lambda: x - y, F._add_memo, -y, RatFunc(x.num * y.den - y.num * x.den, x.den * y.den)),
        (lambda: x * y, F._mul_memo, y, RatFunc(x.num * y.num, x.den * y.den)),
    ]
    if y:
        cases.append((lambda: x / y, F._mul_memo, y.inverse(), RatFunc(x.num * y.den, x.den * y.num)))
    return cases


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
            pairs = [(-x, RatFunc(-x.num, x.den))]
            if y:
                pairs.append((y.inverse(), RatFunc(y.den, y.num)))
            for got, want in pairs:
                _assert_canonical(got, p)
                assert got == want
    assert len(fields) == 1


def test_fraction_memos_stay_within_their_cap(monkeypatch):
    # At a cap of 8 both memos are emptied again and again; neither ever
    # holds more than 8 entries, and every result after a clear still
    # equals the gcd constructor's.
    monkeypatch.setattr(scalars, "_FRACTION_MEMO_ENTRIES", 8)
    for p in (2, 3, 5, 7):
        rng = random.Random(1900 + p)
        clears = {"add": 0, "mul": 0}
        last = {"add": 0, "mul": 0}
        for a, b in _fraction_pairs(p, rng, 60):
            F = a.field
            for op, _, _, want in _henrici_cases(a, b):
                got = op()
                assert got == want
                _assert_canonical(got, p)
                for name, m in (("add", F._add_memo), ("mul", F._mul_memo)):
                    assert len(m) <= 8
                    if len(m) < last[name]:
                        clears[name] += 1
                    last[name] = len(m)
        assert clears["add"] >= 2 and clears["mul"] >= 2


def _is_tuple_pair(value):
    return type(value) is tuple and len(value) == 2 and all(type(v) is tuple for v in value)


def test_ring_suite_leaves_no_field_garbage(monkeypatch):
    # A field's memos hold coefficient tuples, never fractions, so no
    # fraction -> field -> memo -> fraction cycle forms: once a suite's
    # objects are dropped, reference counting frees them all, and the
    # cycle collector finds no field and no fraction.
    from diffext.frontend import instance_from_text, run_suite

    memos = []
    init = PrimeField.__init__

    def recording_init(self, p):
        init(self, p)
        memos.extend((self._add_memo, self._mul_memo))

    monkeypatch.setattr(PrimeField, "__init__", recording_init)
    text = (CONFIGS / "i3.cfg").read_text(encoding="utf-8")
    gc.collect()
    gc.disable()
    try:
        inst = instance_from_text(text)
        report = run_suite(inst, "ring")
        assert report.checks and all(c.verdict == "pass" for c in report.checks)
        assert any(memos)
        assert all(_is_tuple_pair(v) for memo in memos for v in memo.values())
        del inst, report
        memos.clear()
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
        g = _textbook_gcd(num, den)
        lc = F.inv(_textbook_divmod(den, g)[0].lc())
        if num:
            assert r.num == _textbook_divmod(num, g)[0].scale(lc)
            assert r.den == _textbook_divmod(den, g)[0].scale(lc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_derivation_matches_quotient_rule_oracle(p):
    from diffext.towers import DerivedField

    F = PrimeField(p)
    K = RationalFunctionField(p)
    rng = random.Random(970 + p)
    weights = [K.x(), K.one(), K.poly(1, 0, 1), K.x().inverse(), K.poly(1, 1) / K.x()]
    for w in weights:
        D = DerivedField(p, w)
        for a, b in _fraction_pairs(p, rng, 40):
            for u in (a, b, a * b, a + b):
                v, n = u.den, u.num
                dv = DensePoly(F, [i * c for i, c in enumerate(v.coeffs)][1:])
                dn = DensePoly(F, [i * c for i, c in enumerate(n.coeffs)][1:])
                want = RatFunc(w.num * (dn * v - n * dv), w.den * v * v)
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
    routes = []  # (value, unreduced numerator, unreduced denominator)
    for a, b in _fraction_pairs(p, rng, 20):
        n, d = random_poly(F, rng, 4), random_poly(F, rng, 4, nonzero=True)
        routes += [
            (RatFunc(n, d), n, d),
            (a + b, a.num * b.den + b.num * a.den, a.den * b.den),
            (a - b, a.num * b.den - b.num * a.den, a.den * b.den),
            (a * b, a.num * b.num, a.den * b.den),
            (-a, -a.num, a.den),
            (a ** 3, a.num ** 3, a.den ** 3),
            (a ** 0, DensePoly.one(F), DensePoly.one(F)),
            (parse_field_element("(%s)/(%s)" % (n, d), K), n, d),
            (K.from_coords(K.coords(a)), a.num, a.den),
        ]
        if b:
            routes += [
                (a / b, a.num * b.den, a.den * b.num),
                (b.inverse(), b.den, b.num),
                (b ** -2, b.den ** 2, b.num ** 2),
            ]
        routes += [(c, c.num, c.den) for c in K.coords(a)]
        v = random_ratfunc(K, rng, 3)
        routes.append((v, v.num, v.den))
    values = []
    for v, n, d in routes:
        want = RatFunc(n, d)
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
