"""Derivations on F_p(x), constant coordinates, minimal p-polynomials."""

import random

import pytest

from diffext import towers
from diffext.errors import GNotAnnihilating, ZeroDerivation
from diffext.linalg import Matrix
from diffext.scalars import (
    DensePoly,
    PrimeField,
    RatFunc,
    _add,
    _mul,
    _neg,
    _pow,
    random_ratfunc,
)
from diffext.towers import (
    DerivedField,
    PPolynomial,
    QuaternionRing,
    minimal_p_polynomial,
    p_polynomial_at_exponent,
    z1_split,
)
from oracles import formal_derivative, solve


def _w(p, coeffs):
    F = PrimeField(p)
    return RatFunc(DensePoly(F, coeffs), DensePoly.one(F))


K2X = DerivedField(2, _w(2, (0, 1)))   # delta = x d/dx over F_2
K2D = DerivedField(2, _w(2, (1,)))     # delta = d/dx over F_2
K3X = DerivedField(3, _w(3, (0, 1)))   # delta = x d/dx over F_3


def test_zero_derivation_rejected():
    with pytest.raises(ZeroDerivation):
        DerivedField(2, RatFunc.zero(K2X.field))


def test_derivation_frozen_values():
    x = K2X.x()
    # delta = x d/dx: delta(x) = x, delta(x^2) = 2x^2 = 0 over F_2.
    assert K2X.delta(x) == x
    assert not K2X.delta(x * x)
    # Quotient rule: delta(1/x) = -x/x^2 = 1/x over F_2.
    assert K2X.delta(x.inverse()) == x.inverse()
    # delta = d/dx: delta(x^3) = 3x^2 = x^2 over F_2.
    assert K2D.delta(x ** 3) == x * x
    # Constants of F_p vanish.
    assert not K3X.delta(K3X.from_int(2))


def test_leibniz_and_additivity_sampled():
    rng = random.Random(5)
    for K in (K2X, K2D, K3X):
        for _ in range(250):
            a = random_ratfunc(K, rng, 3)
            b = random_ratfunc(K, rng, 3)
            assert K.delta(a + b) == K.delta(a) + K.delta(b)
            assert K.delta(a * b) == K.delta(a) * b + a * K.delta(b)
            if b:
                q = a / b
                assert K.delta(q) == (K.delta(a) * b - a * K.delta(b)) / (b * b)


def test_is_constant_frozen_values():
    x = K2X.x()
    assert K2X.is_constant(x * x)
    assert K2X.is_constant((x * x) / (x * x + K2X.one()))
    assert not K2X.is_constant(x)
    assert K2X.is_constant(K2X.one())


def _constant_by_quotient_rule(a):
    """delta(u/v) = w (u'v - uv')/v^2 vanishes iff u'v = uv', for any w."""
    p, u, v = a.field.p, a.num_coeffs, a.den_coeffs
    return _mul(formal_derivative(u, p), v, p) == _mul(u, formal_derivative(v, p), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_constant_matches_quotient_rule_oracle(p):
    rng = random.Random(60 + p)
    for w in (_w(p, (0, 1)), _w(p, (1,)), _w(p, (0, 1)).inverse()):  # x, 1, 1/x
        K = DerivedField(p, w)
        x = K.x()
        samples = [K.zero(), K.one(), K.from_int(p - 1), x ** p, x ** (2 * p) + K.one()]
        # p-th powers over non-p-th powers, and mixed exponents.
        samples += [x ** p / x, x ** (p + 1), x ** p + x, (x ** p + K.one()) / (x ** p + x)]
        for _ in range(20):
            r = random_ratfunc(K, rng, 3)
            s = random_ratfunc(K, rng, 3, nonzero=True)
            samples += [r, r ** p, r ** p / s, r ** p / s ** p, r ** p + s]
        seen = set()
        for a in samples:
            expected = _constant_by_quotient_rule(a)
            assert K.is_constant(a) == expected, (K, a)
            assert (not K.delta(a)) == expected, (K, a)
            seen.add(expected)
        assert seen == {True, False}


def test_delta_of_a_constant_skips_the_quotient_rule(monkeypatch):
    def no_derivative(coeffs, p):
        raise AssertionError("formal derivative taken for a constant")

    # A fresh field: its delta memo is empty, so every call below computes.
    K = DerivedField(3, _w(3, (0, 1)))
    x = K.x()
    monkeypatch.setattr(towers, "_derivative", no_derivative)
    for a in (K.zero(), K.from_int(2), x ** 3, (x ** 6 + K.one()) / (x ** 3 + x ** 9)):
        assert not K.delta(a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_matches_quotient_rule_oracle(p):
    F = PrimeField(p)
    x1, x2, x0 = (DensePoly(F, c).coeffs for c in ((1, 1), (2, 1), (0, 1)))
    # Squarefree, squared factors, p-th-power factors, and both mixed.
    dens = [(1,), _mul(_mul(x0, x1, p), x2, p), _mul(_pow(x1, 2, p), x0, p), _pow(x1, p, p)]
    dens += [_mul(_pow(x1, p, p), _pow(x2, 2, p), p), _mul(_pow(x0, 2 * p, p), x1, p)]
    dens += [_mul(_pow(x1, p + 1, p), _pow(x2, p, p), p)]
    dens += [_mul(_pow((1, 0, 1), p, p), _pow(x0, 3, p), p)]
    rng = random.Random(80 + p)
    x = _w(p, (0, 1))
    for w in (x, _w(p, (1,)), x.inverse(), (x + _w(p, (1,))) / x):  # x, 1, 1/x, (x+1)/x
        K = DerivedField(p, w)
        for den in dens:
            for _ in range(10):
                num = DensePoly(F, [rng.randrange(p) for _ in range(rng.randrange(8))])
                a = RatFunc(num, DensePoly(F, den))
                want = _by_quotient_rule(w, a)
                got = K.delta(a)
                assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), (w, a)


def _by_quotient_rule(w, a):
    """w (u'v - uv')/v^2 for a = u/v, through the gcd constructor."""
    F, u, v = a.field, a.num_coeffs, a.den_coeffs
    p = F.p
    du, dv = formal_derivative(u, p), formal_derivative(v, p)
    top = _add(_mul(du, v, p), _neg(_mul(u, dv, p), p), p)
    return RatFunc(DensePoly(F, top), DensePoly(F, _mul(v, v, p))) * w


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_memo_matches_uncached_quotient_rule(monkeypatch, p):
    # Every call, memo hit or miss, against the quotient rule.  The ceiling
    # is lowered to 7 so that the memo is emptied several times per field.
    monkeypatch.setattr(towers, "_DELTA_MEMO_ENTRIES", 7)
    rng = random.Random(90 + p)
    x, one = _w(p, (0, 1)), _w(p, (1,))
    for w in (x, one, x * x + one, (x + one) / x):
        K = DerivedField(p, w)
        args = [random_ratfunc(K, rng, 3) for _ in range(12)]
        sizes = []
        for a in args + args[::-1] + args[:5]:
            assert K.delta(a) == _by_quotient_rule(w, a), (w, a)
            sizes.append(len(K._delta_memo))
        assert max(sizes) == 7 and sizes.count(1) >= 3
        # After the last clear the memo still answers from what it kept.
        kept = dict(K._delta_memo)
        for (num, den), got in kept.items():
            a = next(b for b in args if (b.num.coeffs, b.den.coeffs) == (num, den))
            assert K.delta(a) is got


def test_delta_memo_is_per_field():
    # (x + 1)/x has the same coefficient tuples over F_2 and F_3, and delta
    # = x d/dx sends it to -1/x: 1/x over F_2, 2/x over F_3.  Fields with
    # the same p and another delta(x) keep their own answers too.
    got = []
    for p in (2, 3, 2):
        x, one = _w(p, (0, 1)), _w(p, (1,))
        for w in (x, one):
            K = DerivedField(p, w)
            a = (x + one) / x
            assert K.delta(a) == _by_quotient_rule(w, a)
            got.append(K.delta(a).num.coeffs)
    assert got[0] == got[4] == (1,) and got[2] == (2,)


def test_coords_frozen_value():
    # x^3/(x^2+1) over F_2 with delta = d/dx: multiply by v/v to get
    # (x^5 + x^3)/(x^4 + 1); even part 0, odd part (x^4 + x^2)/(x^4 + 1) * x.
    x = K2D.x()
    a = x ** 3 / (x * x + K2D.one())
    c0, c1 = K2D.coords(a)
    assert not c0
    expected = (x ** 4 + x ** 2) / (x ** 4 + K2D.one())
    assert c1 == expected
    assert K2D.is_constant(c1)
    assert c0 + c1 * x == a


def test_coords_roundtrip_sampled():
    rng = random.Random(77)
    for K in (K2X, K3X, K2D):
        x = K.x()
        basis = K.constant_basis()
        for _ in range(200):
            a = random_ratfunc(K, rng, 3)
            cs = K.coords(a)
            assert len(cs) == K.p
            for c in cs:
                assert K.is_constant(c)
            recombined = sum((c * b for c, b in zip(cs, basis)), K.zero())
            assert recombined == a
        # Coordinates of basis vectors are unit vectors.
        for j, b in enumerate(basis):
            cs = K.coords(b)
            assert all((c == K.one()) == (i == j) for i, c in enumerate(cs))


# The earlier routes, kept as oracles for the tuple ones: coordinates built
# with the public constructors against v^p, and constancy read by a nested
# generator over the off-residue exponents.
def _coords_by_constructors(K, a):
    p, field = K.p, K.field
    u, v = a.num_coeffs, a.den_coeffs
    if len(v) > 1:
        u, v = _mul(u, _pow(v, p - 1, p), p), _pow(v, p, p)
    out = []
    for j in range(p):
        cs = u[j::p]
        spread = [0] * (p * len(cs))
        spread[::p] = cs
        out.append(RatFunc(DensePoly(field, spread), DensePoly(field, v)))
    return tuple(out)


def _is_constant_by_generator(K, a):
    p = K.p
    return not any(
        any(cs[j::p]) for cs in (a.num_coeffs, a.den_coeffs) for j in range(1, min(p, len(cs)))
    )


def _planted(K, rng, where):
    """A fraction with one nonzero coefficient off the exponents k p.

    The other part is 1, so the fraction is canonical as built; the
    planted exponent is the top one or lies below it.
    """
    p, field = K.p, K.field
    cs = [0] * (p * rng.randrange(1, 4) + 1)
    cs[::p] = [rng.randrange(p) for _ in cs[::p]]
    cs[-1] = 1
    j = rng.choice([k for k in range(len(cs) + 1) if k % p])
    if j == len(cs):
        cs.append(1)
    else:
        cs[j] = rng.randrange(1, p)
    one = DensePoly.one(field)
    planted = DensePoly(field, cs)
    a = RatFunc(planted, one) if where == "num" else RatFunc(one, planted)
    assert (a.num_coeffs if where == "num" else a.den_coeffs) == planted.coeffs
    return a


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_coords_and_is_constant_match_the_constructor_routes(p):
    rng = random.Random(110 + p)
    w = _w(p, (0, 1))
    for K in (DerivedField(p, w), DerivedField(p, w.inverse())):
        x, one = K.x(), K.one()
        samples = [K.zero(), K.one(), x, x ** p, one / x, (x + one) / x ** 2, x ** (p + 1) / (x ** p + x)]
        for _ in range(12):
            r = random_ratfunc(K, rng, 3)
            s = random_ratfunc(K, rng, 3, nonzero=True)
            # Denominators divisible by x, p-th powers, and both mixed.
            samples += [r, r / x ** rng.randrange(1, p + 2), r ** p, r ** p / s ** p, s ** p / x ** p, r / s ** p]
            samples += [_planted(K, rng, "num"), _planted(K, rng, "den")]
        seen = set()
        for a in samples:
            assert K.coords(a) == _coords_by_constructors(K, a), (K, a)
            expected = _is_constant_by_generator(K, a)
            assert K.is_constant(a) == expected, (K, a)
            seen.add(expected)
        assert seen == {True, False}


def _coords_samples(K, rng):
    # Zero, polynomials, (x + 1)/x^2 (its coordinates cancel in y) and x + 1
    # (the same numerator over another denominator), then random fractions.
    x, one = K.x(), K.one()
    out = [K.zero(), one, x, x + one, (x + one) / x ** 2, x ** (K.p + 1) + x]
    return out + [random_ratfunc(K, rng, 3) for _ in range(10)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coords_memo_matches_uncached_split(monkeypatch, p):
    # Every call, memo hit or miss, against the split and the constructor
    # route.  The ceiling is lowered to 7 so that the memo is emptied
    # several times per field.
    monkeypatch.setattr(towers, "_COORDS_MEMO_ENTRIES", 7)
    rng = random.Random(130 + p)
    x, one = _w(p, (0, 1)), _w(p, (1,))
    for w in (x, one, x * x + one):
        K = DerivedField(p, w)
        args = _coords_samples(K, rng)
        sizes = []
        for a in args + args[::-1] + args[:5]:
            got = K.coords(a)
            assert got == K._split(a) == _coords_by_constructors(K, a), (w, a)
            sizes.append(len(K._coords_memo))
        assert max(sizes) == 7 and sizes.count(1) >= 3
        # After the last clear the memo still answers from what it kept.
        kept = dict(K._coords_memo)
        for (num, den), got in kept.items():
            a = next(b for b in args if (b.num_coeffs, b.den_coeffs) == (num, den))
            assert K.coords(a) is got


def test_coords_memo_is_per_field():
    # (x + 1)/x^2 has the same coefficient tuples over F_2 and F_3: its
    # coordinates are (1/x^2, 1/x^2) at p = 2 and (0, 1/x^3, 1/x^3) at p = 3.
    got = {}
    for p in (2, 3):
        K = DerivedField(p, _w(p, (0, 1)))
        x, one = K.x(), K.one()
        got[p] = K.coords((x + one) / x ** 2)
        assert got[p] == K._split((x + one) / x ** 2)
    x2, x3 = _w(2, (0, 1)), _w(3, (0, 1))
    assert [c.inverse() for c in got[2]] == [x2 ** 2] * 2
    assert not got[3][0] and [c.inverse() for c in got[3][1:]] == [x3 ** 3] * 2
    # Two fields with one p keep their own memos: a call on one leaves the
    # other's empty, and equal answers are different objects.
    for p in (2, 3):
        x, one = _w(p, (0, 1)), _w(p, (1,))
        K1, K2 = DerivedField(p, x), DerivedField(p, one)
        a = (x + one) / x ** 2
        first = K1.coords(a)
        assert K1._coords_memo and not K2._coords_memo
        second = K2.coords(a)
        assert second == first and second is not first
        assert all(c.field is K2.field for c in second)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_from_coords_inverts_coords(p):
    # Over K, and over Q (odd p) on quaternions with those parts.
    rng = random.Random(140 + p)
    K = DerivedField(p, _w(p, (1, 0, 1)))
    samples = _coords_samples(K, rng)
    for a in samples:
        assert K.from_coords(K.coords(a)) == a
    assert [K.from_coords(K.coords(b)) for b in K.constant_basis()] == [K.x() ** j for j in range(p)]
    if p > 2:
        Q = QuaternionRing(K)
        for k in range(len(samples)):
            q = Q.of(*(samples[(k + m) % len(samples)] for m in range(4)))
            assert Q.from_coords(Q.coords(q)) == q


def test_minimal_p_polynomial_frozen_values():
    # delta = x d/dx over F_2: delta^2 = delta, so g = t^2 + t (i.e. t^2 - t).
    g = minimal_p_polynomial(K2X)
    assert g.e == 1
    assert g.coeffs == (K2X.one(),)
    # delta = d/dx over F_2: delta^2 = 0, so g = t^2.
    g = minimal_p_polynomial(K2D)
    assert g.e == 1
    assert g.coeffs == (K2D.zero(),)
    # delta = x d/dx over F_3: delta^3 = delta, so g = t^3 + 2t = t^3 - t.
    g = minimal_p_polynomial(K3X)
    assert g.e == 1
    assert g.coeffs == (K3X.from_int(2),)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_minimal_p_polynomial_builds_only_needed_levels(monkeypatch, p):
    # delta^(p-1)(w) for a = delta^(p-1)(w)/w (p - 1 derivations), then the
    # re-check that g(delta) kills x (p): 2p - 1 in all.
    K = DerivedField(p, _w(p, (0, 1)))
    calls = []
    honest = DerivedField.delta
    monkeypatch.setattr(DerivedField, "delta", lambda K, a: calls.append(a) or honest(K, a))
    g = minimal_p_polynomial(K)
    assert g.e == 1
    assert len(calls) == 2 * p - 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_split_of_a_declared_g_derives_only_a(monkeypatch, p):
    # z1_split needs a = delta^(p-1)(w)/w alone: p - 1 derivations on a
    # fresh field, and no re-check at x, which would take p more; a second
    # split, and the minimal p-polynomial after it, reuse that a.
    K = DerivedField(p, _w(p, (0, 1)))
    calls = []
    honest = DerivedField.delta
    monkeypatch.setattr(DerivedField, "delta", lambda K, a: calls.append(a) or honest(K, a))
    g = p_polynomial_at_exponent(DerivedField(p, _w(p, (0, 1))), 2)
    del calls[:]
    assert z1_split(K, g) == z1_split(K, g)
    assert len(calls) == p - 1
    minimal_p_polynomial(K)
    assert len(calls) == 2 * p - 1


def test_minimal_p_polynomial_annihilates_on_samples():
    rng = random.Random(13)
    for K in (K2X, K2D, K3X):
        g = minimal_p_polynomial(K)
        assert g.annihilates(K)
        for _ in range(100):
            a = random_ratfunc(K, rng, 3)
            assert not g.apply_operator(K, a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_annihilates_at_x_matches_basis_and_samples(p):
    # Oracle: g(delta) applied to the whole basis 1, x, ..., x^(p-1) and to
    # random elements.  Coefficients off the right one by a constant fail
    # at x and on the basis alike.
    rng = random.Random("annihilates:%d" % p)
    for w in ((0, 1), (1,), (1, 0, 1)):
        K = DerivedField(p, _w(p, w))
        g = minimal_p_polynomial(K)
        shifts = [K.zero(), K.one(), K.x() ** p, random_ratfunc(K, rng, 1) ** p]
        for e in (1, 2):
            a = g.coeffs[0] ** (p ** (e - 1))
            for s in shifts:
                cand = PPolynomial(p, e, (a + s,) + (K.zero(),) * (e - 1))
                on_basis = all(not cand.apply_operator(K, b) for b in K.constant_basis())
                assert cand.annihilates(K) == on_basis, (w, e, s)
                # At e = 1 the annihilator is unique; at e = 2 with a = 0,
                # delta^p = 0 and every coefficient works.
                assert on_basis == (not s or (e == 2 and not a)), (w, e, s)
                if on_basis:
                    for _ in range(5):
                        assert not cand.apply_operator(K, random_ratfunc(K, rng, 2))


def test_minimal_p_polynomial_weirder_derivation():
    # delta = (1/x) d/dx over F_2: delta^2 = (1/x^2) delta with 1/x^2 constant.
    F = K2D.field
    K = DerivedField(2, RatFunc(DensePoly.one(F), DensePoly(F, (0, 1))))
    g = minimal_p_polynomial(K)
    assert g.e == 1
    x = K.x()
    assert g.coeffs == ((x * x).inverse(),)
    assert g.annihilates(K)


def test_ppolynomial_str_and_apply():
    g = minimal_p_polynomial(K2X)
    assert str(g) == "t^2 + t"
    x = K2X.x()
    # g(delta)(a) = delta(delta(a)) + delta(a).
    a = x / (x + K2X.one())
    assert g.apply_operator(K2X, a) == K2X.delta(K2X.delta(a)) + K2X.delta(a)


def test_log_derivative():
    x = K2X.x()
    assert K2X.log_derivative(x) == K2X.one()
    # Constants have zero logarithmic derivative.
    assert not K2X.log_derivative(x * x)
    # Homomorphism: dlog(ab) = dlog(a) + dlog(b).
    rng = random.Random(3)
    for _ in range(100):
        a = random_ratfunc(K2X, rng, 3, nonzero=True)
        b = random_ratfunc(K2X, rng, 3, nonzero=True)
        assert K2X.log_derivative(a * b) == K2X.log_derivative(a) + K2X.log_derivative(b)
    with pytest.raises(ZeroDivisionError):
        K2X.log_derivative(K2X.zero())


def _quaternion_ring(p):
    return QuaternionRing(DerivedField(p, _w(p, (1, 0, 1))))  # delta = (x^2 + 1) d/dx


def _quaternion_samples(Q, rng, count):
    # Random elements; every third has one part zero, and the next only one
    # part nonzero.
    zero, out = Q.base.zero(), []
    for k in range(count):
        parts = list(Q.random_element(rng, 2).parts)
        if k % 3 == 1:
            parts[k % 4] = zero
        elif k % 3 == 2:
            parts = [c if m == k % 4 else zero for m, c in enumerate(parts)]
        out.append(Q.of(*parts))
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_quaternion_product_is_associative_and_delta_is_a_derivation(p):
    Q = _quaternion_ring(p)
    rng = random.Random("quat-assoc:%d" % p)
    samples = _quaternion_samples(Q, rng, 24)
    for a, b, c in zip(samples, samples[1:] + samples[:1], samples[2:] + samples[:2]):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c and (b + c) * a == b * a + c * a
        assert Q.delta(a * b) == Q.delta(a) * b + a * Q.delta(b)
        assert Q.delta(a + b) == Q.delta(a) + Q.delta(b)


@pytest.mark.parametrize("p", [3, 5])
def test_quaternion_relations_and_center(p):
    Q = _quaternion_ring(p)
    K = Q.base
    zero, one, x = K.zero(), K.one(), K.x()
    i, j = Q.of(zero, one, zero, zero), Q.of(zero, zero, one, zero)
    n = Q.j_square
    # n is the least non-residue mod p: 2 at p = 3 and 5.
    assert n == K.from_int(2) and all(k * k % p != 2 for k in range(p))
    assert i * i == Q.embed(x ** p) and j * j == Q.embed(n)
    assert i * j == Q.of(zero, zero, zero, one) == -(j * i)
    assert Q.is_constant(i) and Q.is_constant(j) and not Q.is_constant(Q.embed(x))
    # K is central, and only K: as_scalar reads the scalar part.
    rng = random.Random("quat-center:%d" % p)
    for q in _quaternion_samples(Q, rng, 10):
        c = Q.embed(K.random_element(rng, 2))
        assert c * q == q * c
        assert (Q.as_scalar(q) is not None) == (q * i == i * q and q * j == j * q)


@pytest.mark.parametrize("p", [3, 5])
def test_quaternion_inverse_norm_and_no_zero_divisors(p):
    Q = _quaternion_ring(p)
    rng = random.Random("quat-inverse:%d" % p)
    samples = [q for q in _quaternion_samples(Q, rng, 30) if q]
    for a, b in zip(samples, samples[1:]):
        inv = Q.invert(a)
        assert a * inv == Q.one() == inv * a
        assert Q.norm(a * b) == Q.norm(a) * Q.norm(b)
        assert Q.norm(a) and a * b
    with pytest.raises(ZeroDivisionError):
        Q.invert(Q.zero())


@pytest.mark.parametrize("p", [3, 5])
def test_quaternion_coords_roundtrip(p):
    Q = _quaternion_ring(p)
    basis = Q.constant_basis()
    assert len(basis) == Q.dim_over_constants == 4 * p
    # The first p basis elements are K's, embedded.
    assert basis[:p] == [Q.embed(b) for b in Q.base.constant_basis()]
    for k, b in enumerate(basis):
        assert Q.coords(b) == tuple(Q.base.one() if m == k else Q.base.zero() for m in range(4 * p))
    rng = random.Random("quat-coords:%d" % p)
    for q in _quaternion_samples(Q, rng, 30):
        cs = Q.coords(q)
        assert Q.from_coords(cs) == q
        assert all(Q.base.is_constant(c) for c in cs)


def test_quaternion_ring_refuses_p2():
    with pytest.raises(ValueError, match="odd p"):
        QuaternionRing(K2X)


def _annihilator_by_solve(K, e):
    """The exponent-e p-polynomial by linear algebra over F, as an oracle.

    delta^(p^k) is F-linear, so it is a p x p matrix M_k over F in the basis
    1, x, ..., x^(p-1).  The coefficients solve sum a_i M_(e-i) = -M_e
    entrywise, with the free variables at zero; NoSolution if there is none.
    """
    p = K.p
    images, done, mats = K.constant_basis(), 0, []
    for k in range(e + 1):
        for _ in range(p ** k - done):
            images = [K.delta(a) for a in images]
        done = p ** k
        cols = [K.coords(a) for a in images]
        mats.append([tuple(col[i] for col in cols) for i in range(p)])
    rows = [[mats[e - i][r][c] for i in range(1, e + 1)] for r in range(p) for c in range(p)]
    rhs = tuple(-mats[e][r][c] for r in range(p) for c in range(p))
    sol, _ = solve(Matrix(K, rows), rhs)
    assert all(K.is_constant(c) for c in sol)
    return PPolynomial(p, e, sol)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("weight", ["x", "1", "x^2 + 1", "1/x", "(x+1)/x"])
def test_minimal_p_polynomial_matches_hochschild(p, weight):
    # Hochschild: (w d/dx)^p = delta^(p-1)(w) d/dx, as (d/dx)^p = 0 on
    # F_p(x).  So delta^p = a delta with a = delta^(p-1)(w)/w, and the
    # closed form t^(p^e) - a^(p^(e-1)) t^(p^(e-1)) must be what the solve
    # over F finds at every exponent.
    from diffext.frontend import derived_field

    K = derived_field(p, weight)
    w = d = K.delta_of_x
    for _ in range(p - 1):
        d = K.delta(d)
    g = minimal_p_polynomial(K)
    assert g.e == 1
    assert g.coeffs == (-(d / w),)
    for e in (1, 2, 3) if p <= 3 else (1, 2):
        got = p_polynomial_at_exponent(K, e)
        want = _annihilator_by_solve(K, e)
        assert got == want and str(got) == str(want), (e, got, want)


def test_split_frozen_values():
    # Over x d/dx at p = 2, z1 = t^2 + t: t^4 + t^2 = z1^2 and
    # t^4 + t = z1^2 + z1.
    one, zero = K2X.one(), K2X.zero()
    assert z1_split(K2X, minimal_p_polynomial(K2X)) == (one, [one])
    assert z1_split(K2X, PPolynomial(2, 2, (one, zero))) == (one, [one, zero])
    assert z1_split(K2X, PPolynomial(2, 2, (zero, one))) == (one, [one, one])


def test_split_refuses_g_that_is_not_h_of_z1(monkeypatch):
    # t^4 + t^2 + t leaves the remainder t on division by z1 = t^2 + t
    # under composition, so g(delta) = delta != 0.
    one = K2X.one()
    g = PPolynomial(2, 2, (one, one))
    assert not g.annihilates(K2X)
    with pytest.raises(GNotAnnihilating, match=r"^g = t\^4 \+ t\^2 \+ t does not annihilate the derivation$"):
        z1_split(K2X, g)
    # A coefficient outside F is refused before any derivation, even on a
    # field that has not built its z1 yet.
    K = DerivedField(3, _w(3, (0, 1)))
    x = K.x()
    monkeypatch.setattr(DerivedField, "delta", lambda K, a: 1 / 0)
    with pytest.raises(GNotAnnihilating, match="outside F"):
        z1_split(K, PPolynomial(3, 2, (x, -(K.one() + x))))


_SPLIT_CASES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


@pytest.mark.parametrize("p,e", _SPLIT_CASES, ids=["p%d-e%d" % c for c in _SPLIT_CASES])
def test_split_matches_the_derivation_oracle(p, e):
    # Twelve g with coefficients in F per weight: six built as h(z1) for a
    # random monic h over F (the first h = s^q), three of those with one
    # coefficient moved by a random element of F (possibly zero), and three
    # drawn at random.  The split keeps g exactly when g(delta) kills x
    # (PPolynomial.annihilates, p^e derivations), and reads h = s^q exactly
    # when g is p_polynomial_at_exponent(K, e).
    from diffext.frontend import derived_field

    rng = random.Random("split:%d:%d" % (p, e))
    kept = refused = 0
    for weight in ("x", "1", "x^2 + 1", "1/x", "(x+1)/x", "x^2"):
        K = derived_field(p, weight)
        a1 = minimal_p_polynomial(K).coeffs[0]
        closed = p_polynomial_at_exponent(K, e)
        in_f = lambda: random_ratfunc(K, rng, 1) ** p
        gs = []
        for i in range(9):
            # hs = [h_(e-1), ..., h_0]; h_k z1^(p^k) puts h_k at t^(p^(k+1))
            # and h_k a1^(p^k) at t^(p^k).  coeffs[k] is that of t^(p^k).
            hs = [K.one()] + [in_f() if i % 6 else K.zero() for _ in range(e - 1)]
            coeffs = [K.zero()] * (e + 1)
            for k, h_k in zip(range(e - 1, -1, -1), hs):
                coeffs[k + 1] = coeffs[k + 1] + h_k
                coeffs[k] = coeffs[k] + h_k * a1 ** (p ** k)
            assert coeffs[e] == K.one()
            lower = coeffs[e - 1 :: -1]
            if i >= 6:
                j = rng.randrange(e)
                lower[j] = lower[j] + in_f()
            gs.append(PPolynomial(p, e, lower))
        gs += [PPolynomial(p, e, [in_f() for _ in range(e)]) for _ in range(3)]
        for g in gs:
            try:
                split = z1_split(K, g)
            except GNotAnnihilating:
                split = None
            assert (split is not None) == g.annihilates(K), (weight, g)
            if split is None:
                refused += 1
                continue
            kept += 1
            got_a1, hs = split
            assert got_a1 == a1 and len(hs) == e and all(K.is_constant(h) for h in hs)
            assert (not any(hs[1:])) == (g == closed), (weight, g)
    assert kept >= 36 and refused
