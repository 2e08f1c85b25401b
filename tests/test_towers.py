"""Derivations on F_p(x), constant coordinates, minimal p-polynomials."""

import random

import pytest

from diffext import towers
from diffext.errors import ZeroDerivation
from diffext.linalg import Matrix
from diffext.scalars import RatFunc, random_ratfunc
from diffext.towers import (
    DerivedField,
    PPolynomial,
    QuaternionRing,
    minimal_p_polynomial,
    p_polynomial_at_exponent,
)


def _w(p, coeffs):
    from diffext.scalars import DensePoly, PrimeField

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
    """delta(u/v) = w (u'v - uv')/v^2 vanishes iff u'v - uv' = 0, for any w."""
    u, v = a.num, a.den
    return not (u.formal_derivative() * v - u * v.formal_derivative())


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
    from diffext.scalars import DensePoly

    def no_derivative(poly):
        raise AssertionError("formal derivative taken for a constant")

    # A fresh field: its delta memo is empty, so every call below computes.
    K = DerivedField(3, _w(3, (0, 1)))
    x = K.x()
    monkeypatch.setattr(DensePoly, "formal_derivative", no_derivative)
    for a in (K.zero(), K.from_int(2), x ** 3, (x ** 6 + K.one()) / (x ** 3 + x ** 9)):
        assert not K.delta(a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_matches_quotient_rule_oracle(p):
    from diffext.scalars import DensePoly, PrimeField

    F = PrimeField(p)
    x1, x2, x0 = DensePoly(F, (1, 1)), DensePoly(F, (2, 1)), DensePoly(F, (0, 1))
    # Squarefree, squared factors, p-th-power factors, and both mixed.
    dens = [DensePoly.one(F), x0 * x1 * x2, x1 ** 2 * x0, x1 ** p, x1 ** p * x2 ** 2]
    dens += [x0 ** (2 * p) * x1, x1 ** (p + 1) * x2 ** p, DensePoly(F, (1, 0, 1)) ** p * x0 ** 3]
    rng = random.Random(80 + p)
    x = _w(p, (0, 1))
    for w in (x, _w(p, (1,)), x.inverse(), (x + _w(p, (1,))) / x):  # x, 1, 1/x, (x+1)/x
        K = DerivedField(p, w)
        for den in dens:
            for _ in range(10):
                num = DensePoly(F, [rng.randrange(p) for _ in range(rng.randrange(8))])
                a = RatFunc(num, den)
                u, v = a.num, a.den
                want = RatFunc(u.formal_derivative() * v - u * v.formal_derivative(), v * v) * w
                got = K.delta(a)
                assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), (w, a)


def _by_quotient_rule(w, a):
    u, v = a.num, a.den
    return RatFunc(u.formal_derivative() * v - u * v.formal_derivative(), v * v) * w


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
    from diffext.scalars import DensePoly

    p, field = K.p, K.field
    u, v = a.num, a.den
    if v.degree() > 0:
        u, v = u * v ** (p - 1), v ** p
    out = []
    for j in range(p):
        cs = u.coeffs[j::p]
        spread = [0] * (p * len(cs))
        spread[::p] = cs
        out.append(RatFunc(DensePoly(field, spread), v))
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
    from diffext.scalars import DensePoly

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
    from diffext.scalars import DensePoly

    K = DerivedField(2, RatFunc(DensePoly.one(F), DensePoly.x(F)))
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
    sol, _ = Matrix(K, rows).solve(rhs)
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
