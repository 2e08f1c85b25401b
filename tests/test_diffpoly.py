"""Twisted polynomial arithmetic, right division, V-operators."""

import random

import pytest

from diffext import diffpoly
from diffext.errors import InternalInvariantViolation
from diffext.diffpoly import (
    DiffPoly,
    _LevelRing,
    _p_step,
    is_right_invariant,
    p_poly_as_diffpoly,
    substitute,
    v_g,
    v_p_tower,
)
from diffext.parsing import parse_diffpoly
from diffext.scalars import DensePoly, PrimeField, RatFunc, random_ratfunc
from diffext.towers import (
    DerivedField,
    QuaternionRing,
    minimal_p_polynomial,
    p_polynomial_at_exponent,
)
from oracles import dense_v_p, product_by_t_steps


def _w(p, coeffs):
    F = PrimeField(p)
    return RatFunc(DensePoly(F, coeffs), DensePoly.one(F))


K2X = DerivedField(2, _w(2, (0, 1)))   # delta = x d/dx over F_2
K2D = DerivedField(2, _w(2, (1,)))     # delta = d/dx over F_2
K3X = DerivedField(3, _w(3, (0, 1)))   # delta = x d/dx over F_3
K3D = DerivedField(3, _w(3, (1,)))     # delta = d/dx over F_3
Q3X = QuaternionRing(K3X)              # (x^3, 2) over K3X
Q3D = QuaternionRing(K3D)              # (x^3, 2) over K3D


def dp(ring, *coeffs):
    return DiffPoly(ring, coeffs)


def random_dp(ring, rng, deg, coeff_deg=2):
    return DiffPoly(
        ring, [random_ratfunc(ring, rng, coeff_deg) for _ in range(deg + 1)]
    )


def test_twisted_product_frozen_values():
    x, one, zero = K2X.x(), K2X.one(), K2X.zero()
    t = DiffPoly.t(K2X)
    xc = DiffPoly.constant(K2X, x)
    # t * x = x*t + delta(x) = x*t + x for delta = x d/dx.
    assert t * xc == dp(K2X, x, x)
    # x * t has no correction term.
    assert xc * t == dp(K2X, zero, x)
    # t * x over delta = d/dx: x*t + 1.
    t2 = DiffPoly.t(K2D)
    assert t2 * DiffPoly.constant(K2D, K2D.x()) == dp(K2D, K2D.one(), K2D.x())
    # Left distributivity over a sum with a constant.
    assert (t + xc) * (t + xc) == t * t + t * xc + xc * t + xc * xc


def test_product_degree_law_over_field():
    rng = random.Random(101)
    for ring in (K2X, K3X):
        for _ in range(150):
            f = random_dp(ring, rng, rng.randrange(4))
            g = random_dp(ring, rng, rng.randrange(4))
            if f and g:
                assert (f * g).degree() == f.degree() + g.degree()


def test_associativity_of_ring_product_sampled():
    rng = random.Random(55)
    for ring in (K2X, K3D):
        for _ in range(60):
            a = random_dp(ring, rng, 2, 1)
            b = random_dp(ring, rng, 2, 1)
            c = random_dp(ring, rng, 2, 1)
            assert (a * b) * c == a * (b * c)


def test_right_division_frozen_value():
    # g = t^3, f = t^2 - x over delta = d/dx, F_2: q = t, r = x*t + 1.
    ring = K2D
    x = ring.x()
    g = dp(ring, ring.zero(), ring.zero(), ring.zero(), ring.one())
    f = dp(ring, -x, ring.zero(), ring.one())
    q, r = g.right_divmod(f)
    assert q == DiffPoly.t(ring)
    assert r == dp(ring, ring.one(), x)
    assert q * f + r == g


def test_right_division_properties_sampled():
    rng = random.Random(77)
    ring = K2X
    for _ in range(250):
        g = random_dp(ring, rng, rng.randrange(6))
        f = random_dp(ring, rng, rng.randrange(3))
        if not f:
            continue
        q, r = g.right_divmod(f)
        assert q * f + r == g
        assert r.degree() < f.degree()
        # Perturbing the quotient breaks the degree bound: uniqueness.
        s = random_dp(ring, rng, 1)
        if s:
            r2 = g - (q + s) * f
            assert r2.degree() >= f.degree()


def test_division_by_zero_and_exactness():
    ring = K2X
    t = DiffPoly.t(ring)
    with pytest.raises(ZeroDivisionError):
        t.right_divmod(DiffPoly.zero(ring))
    # (t - 1) right-divides t^2 - t over x d/dx: t^2 - t = t*(t - 1).
    one = ring.one()
    f = dp(ring, -one, one)
    g = dp(ring, ring.zero(), -one, one)
    q, r = g.right_divmod(f)
    assert not r
    assert q == t


def test_v_p_frozen_values():
    # delta = d/dx over F_2, b = x: V_2(x) = x^2 + 1; V_4(x) = x^4 + 1.
    x = K2D.x()
    assert v_p_tower(K2D, x, 1) == x * x + K2D.one()
    assert v_p_tower(K2D, x, 2) == x ** 4 + K2D.one()
    # delta = x d/dx over F_2: V_2(x) = x^2 + x.
    xx = K2X.x()
    assert v_p_tower(K2X, xx, 1) == xx * xx + xx


def test_v_p_closed_form_commutative_sampled():
    rng = random.Random(202)
    for ring, p in ((K2X, 2), (K2D, 2), (K3X, 3), (K3D, 3)):
        for _ in range(60):
            b = random_ratfunc(ring, rng, 2)
            # V_p(b) = b^p + delta^(p-1)(b) over a commutative base.
            d = b
            for _ in range(p - 1):
                d = ring.delta(d)
            assert v_p_tower(ring, b, 1) == b ** p + d


def test_v_p_quaternion_frozen_value():
    # d/dx over F_3, b = x i + j: b^2 = x^5 + 2 is central and delta(b) = i,
    # so V_3(b) = b^3 + b i - i b = (x^5 + 2) b + (j i - i j) = (x^5 + 2) b + ij.
    x, one, zero = K3D.x(), K3D.one(), K3D.zero()
    b = Q3D.of(zero, x, one, zero)
    v = v_p_tower(Q3D, b, 1)
    assert v == Q3D.of(zero, x ** 6 + x + x, x ** 5 + one + one, one)
    db = Q3D.delta(b)
    assert v == b * b * b + b * db - db * b


def test_v_3_quaternion_commutator_term():
    # Noncommutative p = 3: V_3(b) = b^3 + delta^2(b) + b*delta(b) - delta(b)*b.
    rng = random.Random(17)
    commutators = 0
    for _ in range(30):
        b = Q3D.random_element(rng, 1)
        db = Q3D.delta(b)
        expect = b * b * b + Q3D.delta(db) + b * db - db * b
        assert v_p_tower(Q3D, b, 1) == expect
        commutators += b * db != db * b
    assert commutators


def test_v_p_tower_matches_iteration_and_quaternion_levels():
    rng = random.Random(23)
    for _ in range(10):
        b = Q3X.random_element(rng, 1)
        v1 = v_p_tower(Q3X, b, 1)
        assert v_p_tower(Q3X, b, 2) == v_p_tower(Q3X, v1, 1)


def test_v_g_frozen_values():
    g = minimal_p_polynomial(K2X)  # t^2 + t for x d/dx over F_2
    one, x = K2X.one(), K2X.x()
    # V_g(1) = 1 + delta(1) + 1 = 0: 1 is a logarithmic derivative.
    assert not v_g(K2X, g, one)
    # V_g(x) = x^2 + x + x = x^2.
    assert v_g(K2X, g, x) == x * x
    # V_g(1/x) = 1/x^2 over F_2.
    assert v_g(K2X, g, x.inverse()) == (x * x).inverse()


def test_v_g_additive_sampled():
    rng = random.Random(4)
    for K in (K2X, K3X):
        g = minimal_p_polynomial(K)
        for _ in range(120):
            a = random_ratfunc(K, rng, 2)
            b = random_ratfunc(K, rng, 2)
            assert v_g(K, g, a + b) == v_g(K, g, a) + v_g(K, g, b)


def test_v_g_shift_identity_sampled():
    # g(t - b) = g(t) - V_g(b) as twisted polynomials.
    rng = random.Random(40)
    for K in (K2X, K3X, K2D):
        g = minimal_p_polynomial(K)
        gt = p_poly_as_diffpoly(g, K)
        for _ in range(40):
            b = random_ratfunc(K, rng, 2)
            shifted = substitute(gt, lambda a: a, -b, K.one())
            assert shifted == gt - DiffPoly.constant(K, v_g(K, g, b))


def test_middle_coefficient_violation_detected():
    # A ring that claims characteristic 2 but computes mod 4 breaks the
    # middle-coefficient cancellation in (t - b)^2.
    class Z4:
        def __init__(self, v):
            self.v = v % 4

        def __add__(self, o):
            return Z4(self.v + o.v)

        def __sub__(self, o):
            return Z4(self.v - o.v)

        def __mul__(self, o):
            return Z4(self.v * o.v)

        def __neg__(self):
            return Z4(-self.v)

        def __eq__(self, o):
            return isinstance(o, Z4) and o.v == self.v

        def __bool__(self):
            return self.v != 0

        def __hash__(self):
            return hash(self.v)

    class BrokenRing:
        p = 2
        is_commutative = True

        def zero(self):
            return Z4(0)

        def one(self):
            return Z4(1)

        def delta(self, a):
            return Z4(0)

        def embed(self, c):
            return c

        def __eq__(self, o):
            return isinstance(o, BrokenRing)

    with pytest.raises(InternalInvariantViolation):
        v_p_tower(BrokenRing(), Z4(1), 1)


def test_is_right_invariant_frozen_values():
    one, x = K2X.one(), K2X.x()
    # f = t^2 + t + x^2: d = x^2 is a constant, so R*f is two-sided.
    f_assoc = dp(K2X, x * x, one, one)
    assert is_right_invariant(f_assoc)
    # f = t^2 + t + x: d = x is not constant.
    f_non = dp(K2X, x, one, one)
    assert not is_right_invariant(f_non)
    # f = t over d/dx: t*x = x*t + 1 leaves remainder 1.
    assert not is_right_invariant(DiffPoly.t(K2D))


def test_substitute_frozen_value():
    # h = t^2 + t + x, tau = id, c = 1, eps = 1 over x d/dx, F_2:
    # (t+1)^2 = t^2 + 1, so the image is t^2 + t + x again.
    one, x = K2X.one(), K2X.x()
    h = dp(K2X, x, one, one)
    img = substitute(h, lambda a: a, one, one)
    assert img == h
    # Shift by x instead: image is t^2 + t + x^2 + x (not h).
    img2 = substitute(h, lambda a: a, x, one)
    assert img2 == dp(K2X, x * x + x, one, one)


def test_substitute_is_multiplicative_for_valid_shift():
    # For c with V_g(c) = 0 the substitution respects the ring product.
    rng = random.Random(9)
    ring = K2X
    one = ring.one()
    for _ in range(60):
        a = random_dp(ring, rng, 2, 1)
        b = random_dp(ring, rng, 2, 1)
        left = substitute(a * b, lambda z: z, one, one)
        right = substitute(a, lambda z: z, one, one) * substitute(b, lambda z: z, one, one)
        assert left == right


def test_diffpoly_pow_matches_repeated_product():
    rng = random.Random(13)
    for ring in (K3X, Q3X):
        a = DiffPoly(ring, [ring.random_element(rng, 1) for _ in range(3)])
        expected = DiffPoly.constant(ring, ring.one())
        for n in range(6):
            assert a ** n == expected
            expected = expected * a
        with pytest.raises(ValueError):
            a ** -1


@pytest.mark.parametrize("K", [K2X, K3X], ids=["p2", "p3"])
def test_v_g_products_per_level(monkeypatch, K):
    # Over K the p-step is the closed form and takes no twisted product.  The
    # quaternion ring, for odd p only, takes (T - c)^p, T = t^(p^k), by
    # square-and-multiply: two products at p = 3.
    calls = []
    mul = DiffPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(DiffPoly, "__mul__", counted)
    x, one = K.x(), K.one()
    cases = [(K, x.inverse() + x, 0)]
    if K.p == 3:
        Q = QuaternionRing(K)
        cases.append((Q, Q.of(x.inverse(), x, one, x + one), 2))
    for ring, b, products in cases:
        for e in (1, 2):
            calls.clear()
            v_g(ring, p_polynomial_at_exponent(K, e), b)
            assert len(calls) == e * products


def _weights(p):
    x = _w(p, (0, 1))
    return (x, _w(p, (1,)), _w(p, (1, 0, 1)), x.inverse())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_step_closed_form_matches_twisted_power(p):
    # The twisted route is the oracle: V_p(b) = -((t - b)^p)_0 by DiffPoly **.
    rng = random.Random(700 + p)
    for w in _weights(p):
        K = DerivedField(p, w)
        for _ in range(15):
            b = random_ratfunc(K, rng, 2)
            twisted = -(DiffPoly(K, (-b, K.one())) ** p).coeff(0)
            assert _p_step(K, b, 0) == twisted


def test_low_degree_right_remainder_does_not_invert(monkeypatch):
    Q = Q3X
    calls = []
    invert = QuaternionRing.invert

    def counted(self, a):
        calls.append(1)
        return invert(self, a)

    monkeypatch.setattr(QuaternionRing, "invert", counted)
    x, zero, one = K3X.x(), K3X.zero(), K3X.one()
    f = DiffPoly(Q, (Q.of(x, one, zero, zero), Q.one(), Q.one()))
    u = DiffPoly(Q, (Q.one(), Q.of(x, zero, x, x)))
    q, r = u.right_divmod(f)
    assert not q and r == u
    assert not DiffPoly.zero(Q).right_divmod(f)[1]
    assert not calls
    # A division step still inverts the leading coefficient once.
    (f * DiffPoly.t(Q)).right_divmod(f)
    assert len(calls) == 1


def _monomial_right_divmod(g, f):
    # Right division before the ladder: one twisted product (c t^k) * f per
    # quotient term.
    ring = g.ring
    inv_lc = ring.invert(f.lc())
    q, r = DiffPoly.zero(ring), g
    while r and r.degree() >= f.degree():
        k = r.degree() - f.degree()
        mono = DiffPoly(ring, (ring.zero(),) * k + (r.lc() * inv_lc,))
        q, r = q + mono, r - mono * f
    return q, r


def _division_rings():
    for p in (2, 3, 5):
        x, one = _w(p, (0, 1)), _w(p, (1,))
        for name, w in (("x", x), ("1", one), ("x^2+1", x * x + one), ("(x+1)/x", (x + one) / x)):
            yield pytest.param(DerivedField(p, w), id="p%d-%s" % (p, name))
    for name, Q in (("p3-x", Q3X), ("p3-1", Q3D)):
        yield pytest.param(Q, id="Q-" + name)


def _with_unit_lead(ring, rng, deg):
    # A random polynomial of degree deg whose leading coefficient is invertible.
    while True:
        lead = ring.random_element(rng, 1)
        try:
            ring.invert(lead)
        except ZeroDivisionError:
            continue
        return DiffPoly(ring, [ring.random_element(rng, 2) for _ in range(deg)] + [lead])


@pytest.mark.parametrize("ring", list(_division_rings()))
def test_ladder_division_matches_monomial_oracle(ring):
    rng = random.Random(4100 + ring.p)
    for df in (1, 2, 3):
        for dg in (df - 1, df, df + 2, 6):
            f = _with_unit_lead(ring, rng, df)
            g = DiffPoly(ring, [ring.random_element(rng, 2) for _ in range(dg + 1)])
            # Sparse dividends skip quotient terms: zero every other coefficient.
            h = DiffPoly(ring, [c if i % 2 else ring.zero() for i, c in enumerate(g.coeffs)])
            for u in (g, h):
                q, r = u.right_divmod(f)
                assert (q, r) == _monomial_right_divmod(u, f)
                assert r.degree() < f.degree() and q * f + r == u


def test_right_division_takes_one_t_step_per_quotient_degree(monkeypatch):
    rng = random.Random(4200)
    f = DiffPoly(K3X, [random_ratfunc(K3X, rng, 2) for _ in range(2)] + [K3X.x()])
    g = DiffPoly(K3X, [random_ratfunc(K3X, rng, 2, nonzero=True) for _ in range(6)])
    steps, products = [], []
    t_step, mul = diffpoly._t_step, DiffPoly.__mul__
    monkeypatch.setattr(diffpoly, "_t_step", lambda ring, cs: steps.append(1) or t_step(ring, cs))
    monkeypatch.setattr(DiffPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    q, r = g.right_divmod(f)
    # Degree 5 by degree 2: the rungs t f, t^2 f and t^3 f, and no product.
    assert (len(steps), len(products)) == (3, 0)
    assert q.degree() == 3 and r.degree() <= 1
    monkeypatch.undo()
    assert q * f + r == g


def test_t_power_derives_only_nonzero_coefficients(monkeypatch):
    K = DerivedField(2, _w(2, (0, 1)))
    calls = []
    delta = DerivedField.delta
    monkeypatch.setattr(DerivedField, "delta", lambda self, a: calls.append(1) or delta(self, a))
    f = parse_diffpoly("t^512", K)
    assert f == DiffPoly(K, (K.zero(),) * 512 + (K.one(),))
    # Each t-step derives the one nonzero coefficient; no zero is derived.
    assert len(calls) <= 511


# delta^p is not delta on these fields, so level p^2 is not the level-0
# p-step iterated: (t - b)^(p^2) = (t^p - c)^p, c = V_p(b), and t^p commutes
# with a through delta^p.
_LEVEL_TWO_CASES = [(2, (1,)), (2, (1, 1)), (3, (1, 1))]  # delta(x) = num / x
_LEVEL_TWO_IDS = ["p2-1/x", "p2-(x+1)/x", "p3-(x+1)/x"]


def _over_x(p, num):
    F = PrimeField(p)
    return DerivedField(p, RatFunc(DensePoly(F, num), DensePoly(F, (0, 1))))


@pytest.mark.parametrize("p,num", _LEVEL_TWO_CASES, ids=_LEVEL_TWO_IDS)
def test_level_two_p_step_matches_expansion(p, num):
    K = _over_x(p, num)
    rng = random.Random("level-two:%d:%s" % (p, num))
    samples = 12 if p == 3 else 30

    def iterated(b):
        # The level-0 step applied twice, right only where delta^p = delta.
        return _p_step(K, _p_step(K, b, 0), 0)

    misses = 0
    for _ in range(samples):
        b = random_ratfunc(K, rng, 2)
        expansion = dense_v_p(K, b, 2)
        assert _p_step(K, _p_step(K, b, 0), 1) == expansion
        assert v_p_tower(K, b, 2) == expansion
        misses += iterated(b) != expansion
    # The cases are ones where the old iterated form is wrong somewhere.
    assert misses


@pytest.mark.parametrize("p,num", _LEVEL_TWO_CASES, ids=_LEVEL_TWO_IDS)
def test_level_two_v_g_and_quaternion_steps_match_expansion(p, num):
    K = _over_x(p, num)
    rng = random.Random("level-two-g:%d:%s" % (p, num))
    g = p_polynomial_at_exponent(K, 2)
    gt = p_poly_as_diffpoly(g, K)
    for _ in range(6 if p == 3 else 10):
        b = random_ratfunc(K, rng, 2)
        # g(t - b) = g(t) - V_g(b), with g(t - b) formed by substitution.
        shifted = substitute(gt, lambda z: z, -b, K.one())
        assert shifted == gt - DiffPoly.constant(K, v_g(K, g, b))
    if p == 2:
        return  # the quaternion ring needs an odd p
    Q = QuaternionRing(K)
    for _ in range(2):
        B = Q.random_element(rng, 1)
        expansion = dense_v_p(Q, B, 2)
        assert _p_step(Q, _p_step(Q, B, 0), 1) == expansion
        assert v_p_tower(Q, B, 2) == expansion


# (p, delta(x), e, a) with a = delta^(p-1)(w)/w, the constant of delta^p =
# a delta: a = 0, 1 and 2 make the level derivation delta^(p^k) =
# a^((p^k - 1)/(p - 1)) delta zero, delta itself and a multiple of delta
# that no exponent off by one reproduces, so a wrong scale is caught.
_DENSE_CASES = [
    (2, (1,), 2, 0), (2, (1,), 3, 0), (3, (1,), 2, 0), (5, (1,), 2, 0),
    (2, (0, 1), 2, 1), (2, (0, 1), 3, 1), (3, (0, 1), 2, 1), (5, (0, 1), 2, 1),
    (3, (1, 0, 1), 2, 2),
]


@pytest.mark.parametrize(
    "p,w,e,a", _DENSE_CASES, ids=["p%d-w%s-e%d" % (p, "".join(map(str, w)), e) for p, w, e, _ in _DENSE_CASES]
)
def test_v_p_tower_levels_match_the_dense_expansion(p, w, e, a):
    K = DerivedField(p, _w(p, w))
    assert minimal_p_polynomial(K).coeffs == (K.from_int(-a),)
    rng = random.Random("dense:%d:%s:%d" % (p, w, e))
    for _ in range(3 if p == 5 else 6):
        b = random_ratfunc(K, rng, 2)
        assert v_p_tower(K, b, e) == dense_v_p(K, b, e)
    if p == 3:
        Q = QuaternionRing(K)
        B = Q.random_element(rng, 1)
        assert v_p_tower(Q, B, e) == dense_v_p(Q, B, e)


@pytest.mark.parametrize("p", [3, 5])
def test_quaternion_p_step_matches_the_dense_expansion(p):
    # Over Q the p-step reads (T - c)^p in the level ring; the oracle
    # expands (t - b)^(p^2) in full.
    Q = QuaternionRing(DerivedField(p, _w(p, (0, 1))))
    rng = random.Random("q-step:%d" % p)
    for _ in range(2):
        B = Q.random_element(rng, 1)
        expansion = dense_v_p(Q, B, 2)
        assert _p_step(Q, _p_step(Q, B, 0), 1) == expansion
        assert v_p_tower(Q, B, 2) == expansion


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_ring_products_match_the_t_step_oracle(p):
    # The products of v_p_tower's levels, in A[T; delta^(p^k)] for k = 1, 2,
    # over K and, at odd p, over Q: random pairs and the powers (T - c)^j,
    # c = V_(p^k)(b).
    K = DerivedField(p, _w(p, (1, 0, 1)))
    rings = [K] + ([QuaternionRing(K)] if p > 2 else [])
    rng = random.Random("level-products:%d" % p)
    for ring in rings:
        b = ring.random_element(rng, 1)
        for level in (1, 2):
            L = _LevelRing(ring, level)
            for _ in range(4):
                u, v = (DiffPoly(L, [ring.random_element(rng, 1) for _ in range(rng.randrange(1, 5))]) for _ in "uv")
                assert u * v == product_by_t_steps(u, v)
            c = v_p_tower(ring, b, level)
            step = DiffPoly(L, (-c, ring.one()))
            power = DiffPoly.constant(L, ring.one())
            for j in range(1, p + 1):
                power = product_by_t_steps(power, step)
                assert step ** j == power
