"""Automorphism descriptors: validity, orders, inner maps, constraints."""

import inspect
import random

import pytest

from diffext import autos
from diffext.autos import (
    AutoDescriptor,
    apply_auto,
    auto_constraints,
    auto_order,
    build_auto,
    compose_shift_autos,
    inner_auto,
    is_log_derivative,
    log_derivative_witness,
    shift_isomorphism,
)
from diffext.dext import ExtAlgebra, _bounded_height_witness, _coords_rows
from diffext.diffpoly import DiffPoly, substitute, v_g
from diffext.errors import (
    ConditionFailed,
    NotInvertible,
    NotNuclear,
    UnsupportedInstance,
)
from diffext.frontend import instance_from_text
from diffext.scalars import DensePoly, PrimeField, RatFunc, random_ratfunc
from diffext.towers import DerivedField, QuaternionRing, minimal_p_polynomial


IDENT = lambda z: z


def test_build_auto_valid_shift(i1):
    K = i1.ring
    H = build_auto(i1, IDENT, K.one(), K.one())
    assert H.c == K.one()
    # t maps to t + 1.
    img = apply_auto(H, i1.t())
    assert img == i1.t() + i1.one()


def test_build_auto_rejects_bad_shift(i1):
    # c = x: V_g(x) = x^2 != 0, the image of f differs from f.
    K = i1.ring
    with pytest.raises(ConditionFailed) as exc:
        build_auto(i1, IDENT, K.x(), K.one())
    assert exc.value.condition == "fixes_f"


def test_build_auto_rejects_bad_eps(i1, i3):
    # (eps - 1) delta(x) = 0 at z = x, whatever c is: every eps != 1 fails
    # the commutation constraint.  auto_constraints states this as a fact.
    p5 = instance_from_text("p = 5\ndelta_of_x = x\nd = x\n").algebra
    rng = random.Random(41)
    tried = 0
    for alg in (i1, i3, p5):
        K = alg.ring
        for eps in range(2, K.p):
            for c in [K.zero()] + [random_ratfunc(K, rng, 2) for _ in range(5)]:
                with pytest.raises(ConditionFailed) as exc:
                    build_auto(alg, IDENT, c, K.from_int(eps))
                assert exc.value.condition == "eq1"
                tried += 1
    assert tried == 6 * (1 + 3)


def test_valid_shifts_are_exactly_log_derivatives(i1, i3):
    rng = random.Random(31)
    for alg in (i1, i3):
        K = alg.ring
        hits = 0
        for _ in range(100):
            u = random_ratfunc(K, rng, 2, nonzero=True)
            c = K.log_derivative(u)
            assert is_log_derivative(alg, c)
            build_auto(alg, IDENT, c, K.one())  # must not raise
            hits += 1
        assert hits == 100


def test_is_log_derivative_frozen_values(i1):
    K = i1.ring
    x = K.x()
    assert is_log_derivative(i1, K.one())
    assert is_log_derivative(i1, K.zero())
    assert not is_log_derivative(i1, x.inverse() ** 2)
    assert not is_log_derivative(i1, x)


def test_log_derivative_witness(i1):
    K = i1.ring
    # delta(x)/x = 1 for delta = x d/dx.
    w = log_derivative_witness(i1, K.one())
    assert w is not None
    assert K.log_derivative(w) == K.one()
    # None is a proof: V_g(x) = x^2 != 0, so x is no log-derivative.
    assert log_derivative_witness(i1, K.x()) is None


def _digits(code, p, width):
    return [(code // p ** i) % p for i in range(width)]


def brute_force_log_derivative(K, c, bound):
    """The enumeration the bounded-height search replaced: every fraction.

    Monic denominators by degree then base-p code, nonzero numerators by
    code inside each denominator block.
    """
    p = K.p
    for dd in range(bound + 1):
        for dcode in range(p ** dd):
            den = DensePoly(K.field, _digits(dcode, p, dd) + [1])
            for ncode in range(1, p ** (bound + 1)):
                u = RatFunc(DensePoly(K.field, _digits(ncode, p, bound + 1)), den)
                if K.log_derivative(u) == c:
                    return u
    return None


def _fraction_of_height(K, rng, height):
    p = K.p
    num = DensePoly(K.field, [rng.randrange(p) for _ in range(height)] + [rng.randrange(1, p)])
    den = DensePoly(K.field, [rng.randrange(p) for _ in range(rng.randrange(height + 1))] + [1])
    return RatFunc(num, den)


@pytest.mark.parametrize("p,bounds", [(2, range(4)), (3, range(3))], ids=["p2", "p3"])
@pytest.mark.parametrize("weight", ["x", "1", "x^2 + 1"])
def test_log_derivative_witness_matches_enumeration(p, bounds, weight):
    alg = instance_from_text("p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)).algebra
    K = alg.base_field
    rng = random.Random(97 * p + len(weight))
    x = K.x()
    for bound in bounds:
        cs = [K.zero(), K.one(), x, x.inverse()]
        for height in (rng.randrange(bound + 1), bound + 1):
            cs.append(K.log_derivative(_fraction_of_height(K, rng, height)))
        for c in cs:
            # Oracles: the plain enumeration and the bounded-height search of
            # the factor search, fed delta(u) - c u in coordinates.
            rows_for = _coords_rows(K, lambda u: (K.delta(u) - c * u,), (K.zero(),), bound)
            bounded = _bounded_height_witness(K, rows_for, bound)
            brute = brute_force_log_derivative(K, c, bound)
            assert str(bounded) == str(brute), (bound, c)
            got = log_derivative_witness(alg, c)
            assert (got is not None) == is_log_derivative(alg, c), (bound, c)
            if brute is not None:
                assert got is not None and K.log_derivative(got) == c, (bound, c)


_LOG_WEIGHTS = ("x", "1", "x^2 + 1", "1/x", "(x+1)/x", "x^3 + x + 1")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_log_derivative_witness_is_exact(p):
    # Planted c = delta(u0)/u0 are all found; on random c a witness exists
    # exactly when V_g(c) = 0.  Eight of each per weight: 48 per prime.
    rng = random.Random("logder:%d" % p)
    for weight in _LOG_WEIGHTS:
        alg = instance_from_text("p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)).algebra
        K = alg.base_field
        for _ in range(8):
            c = K.log_derivative(random_ratfunc(K, rng, 3, nonzero=True))
            u = log_derivative_witness(alg, c)
            assert u is not None and K.log_derivative(u) == c, (weight, c)
            c = random_ratfunc(K, rng, 3)
            u = log_derivative_witness(alg, c)
            assert (u is not None) == is_log_derivative(alg, c), (weight, c)
            assert u is None or K.log_derivative(u) == c


def test_automorphism_is_multiplicative(i1, i3):
    rng = random.Random(7)
    for alg in (i1, i3):
        K = alg.ring
        H = build_auto(alg, IDENT, K.one(), K.one())
        for _ in range(80):
            u = alg.random_element(rng, 2)
            v = alg.random_element(rng, 2)
            assert apply_auto(H, u * v) == apply_auto(H, u) * apply_auto(H, v)
            assert apply_auto(H, u + v) == apply_auto(H, u) + apply_auto(H, v)
        assert apply_auto(H, alg.one()) == alg.one()


def test_automorphism_fixes_coefficients_setwise(i1):
    # Images of degree-0 elements stay degree 0 (tau = id fixes them).
    K = i1.ring
    H = build_auto(i1, IDENT, K.one(), K.one())
    rng = random.Random(41)
    for _ in range(50):
        a = random_ratfunc(K, rng, 3)
        img = apply_auto(H, i1.scalar(a))
        assert img.rep.degree() <= 0
        assert img == i1.scalar(a)


def test_auto_order_frozen_values(i1, i3):
    K1 = i1.ring
    ident = build_auto(i1, IDENT, K1.zero(), K1.one())
    assert auto_order(ident) == 1
    H = build_auto(i1, IDENT, K1.one(), K1.one())
    assert auto_order(H) == 2
    K3 = i3.ring
    H3 = build_auto(i3, IDENT, K3.one(), K3.one())
    assert auto_order(H3) == 3
    # Bound too small: None.
    assert auto_order(H3, bound=2) is None


def test_nonidentity_shifts_have_order_p(i1, i3):
    rng = random.Random(12)
    for alg, p in ((i1, 2), (i3, 3)):
        K = alg.ring
        for _ in range(20):
            u = random_ratfunc(K, rng, 2, nonzero=True)
            c = K.log_derivative(u)
            H = build_auto(alg, IDENT, c, K.one())
            assert auto_order(H) == (1 if not c else p)


def test_composition_adds_shifts(i1):
    K = i1.ring
    rng = random.Random(9)
    for _ in range(40):
        u1 = random_ratfunc(K, rng, 2, nonzero=True)
        u2 = random_ratfunc(K, rng, 2, nonzero=True)
        c1, c2 = K.log_derivative(u1), K.log_derivative(u2)
        H1 = build_auto(i1, IDENT, c1, K.one())
        H2 = build_auto(i1, IDENT, c2, K.one())
        H12 = compose_shift_autos(H1, H2)
        assert H12.c == c1 + c2
        for b in i1.basis():
            assert apply_auto(H12, b) == apply_auto(H1, apply_auto(H2, b))


def test_inner_auto_frozen_value(i1):
    K = i1.ring
    x = K.x()
    G = inner_auto(i1, x)
    # a = x: c = x^(-1) delta(x) = 1.
    assert G.c == K.one()
    assert G.tau_name == "id"
    # G_x(t) = x^(-1) (x t + x) = t + 1.
    assert apply_auto(G, i1.t()) == i1.t() + i1.one()


def test_inner_auto_matches_conjugation(i1, i3):
    rng = random.Random(21)
    for alg in (i1, i3):
        K = alg.ring
        for _ in range(25):
            a = random_ratfunc(K, rng, 2, nonzero=True)
            G = inner_auto(alg, a)
            ai = alg.scalar(a.inverse())
            ae = alg.scalar(a)
            for _ in range(5):
                u = alg.random_element(rng, 2)
                assert apply_auto(G, u) == (ai * u) * ae


def test_inner_auto_errors(i1):
    with pytest.raises(NotInvertible):
        inner_auto(i1, i1.ring.zero())
    with pytest.raises(NotNuclear):
        inner_auto(i1, i1.t())


def test_inner_auto_over_quaternions_needs_right_nuclear_a():
    # d = x i: (f a) mod f = a d - d a, so a is nuclear iff it commutes with i.
    alg = _quaternion_algebra()
    Q = alg.ring
    x, zero, one = Q.base.x(), Q.base.zero(), Q.base.one()
    for a in (Q.of(zero, zero, one, zero), Q.of(one, zero, one, zero)):
        with pytest.raises(NotNuclear):
            inner_auto(alg, a)
    assert inner_auto(alg, Q.one()).c == Q.zero()
    # Conjugation by i is the descriptor (conj, 0, 1), checked inside
    # inner_auto against literal conjugation on the basis, and here on
    # sampled elements.
    i = Q.of(zero, one, zero, zero)
    G = inner_auto(alg, i)
    assert G.tau_name == "conj" and G.c == Q.zero()
    i_el, i_inv = alg.scalar(i), alg.scalar(Q.invert(i))
    rng = random.Random(4600)
    for _ in range(5):
        u = alg.random_element(rng, 2)
        assert apply_auto(G, u) == (i_inv * u) * i_el
    # a = x + i is not constant: c = a^(-1) delta(a) leaves K.
    a = Q.of(x, one, zero, zero)
    G = inner_auto(alg, a)
    assert G.tau_name == "conj" and G.c == Q.invert(a) * Q.delta(a)
    assert Q.as_scalar(G.c) is None


def test_inner_auto_by_scalar_quaternion_fixes_coefficients():
    # A scalar a = embed(c) is central: conjugation fixes every coefficient,
    # so tau is named "id"; the basis cross-check inside inner_auto agrees.
    alg = _quaternion_algebra()
    Q, K = alg.ring, alg.base_field
    x = K.x()
    for c in (K.one(), x, x * x + K.one()):
        G = inner_auto(alg, Q.embed(c))
        assert G.tau_name == "id" and G.c == Q.embed(K.log_derivative(c))


def test_inner_autos_are_log_derivative_shifts(i1):
    # The inner subgroup lands exactly on shifts by log derivatives.
    rng = random.Random(33)
    K = i1.ring
    for _ in range(30):
        a = random_ratfunc(K, rng, 2, nonzero=True)
        G = inner_auto(i1, a)
        assert is_log_derivative(i1, G.c)


def test_auto_constraints_report(i1, i3):
    for alg in (i1, i3):
        rep = auto_constraints(alg)
        assert rep.tau_forced == "id"
        assert rep.eps_forced == "1"
        assert rep.c_condition == "V_g(c) = 0"
        K = alg.ring
        assert rep.contains(K.one())
        assert not rep.contains(K.x())
        # Membership agrees with actual descriptor validity.
        rng = random.Random(3)
        for _ in range(30):
            c = random_ratfunc(K, rng, 2)
            assert rep.contains(c) == rep.descriptor_valid(c)


def test_auto_constraints_states_theorems_without_building(monkeypatch, i1, i2, i3, i4, i2_d0):
    def no_build(*args, **kwargs):
        raise AssertionError("descriptor built")

    assert list(inspect.signature(auto_constraints).parameters) == ["algebra"]
    monkeypatch.setattr(autos, "build_auto", no_build)
    for alg in (i1, i2, i3, i4, i2_d0):
        rep = auto_constraints(alg)
        assert (rep.tau_forced, rep.eps_forced, rep.c_condition) == ("id", "1", "V_g(c) = 0")
        assert rep.facts == (
            "p-th roots are unique in K, so tau fixes x and tau = id",
            "delta(x) != 0 forces eps = 1 in the commutation constraint",
            "admissible c form the kernel of V_g (logarithmic derivatives)",
        )


def test_auto_constraints_unsupported_for_quaternion_base():
    K = DerivedField(3, RatFunc(DensePoly.one(PrimeField(3)), DensePoly.one(PrimeField(3))))
    Q = QuaternionRing(K)
    g = minimal_p_polynomial(K)
    for d in (Q.zero(), Q.embed(K.x())):
        alg = ExtAlgebra(Q, g, d)
        with pytest.raises(UnsupportedInstance, match="^constraint analysis needs a commutative base$"):
            auto_constraints(alg)


def test_descriptor_equality(i1):
    K = i1.ring
    H1 = build_auto(i1, IDENT, K.one(), K.one())
    H2 = build_auto(i1, lambda z: z, K.one(), K.one())
    assert H1 == H2
    H3 = build_auto(i1, IDENT, K.zero(), K.one())
    assert H1 != H3


def _substitute_by_products(h, tau, c, eps):
    # The substitution before the power tables: (eps*t + c)^i by one twisted
    # product per power.
    ring = h.ring
    image_t = DiffPoly(ring, (c, eps))
    acc, power = DiffPoly.zero(ring), DiffPoly.constant(ring, ring.one())
    for i, a in enumerate(h.coeffs):
        if i > 0:
            power = power * image_t
        ta = tau(a)
        if ta:
            acc = acc + power.scale_left(ta)
    return acc


def _quaternion_algebra():
    # d = x i over Q = (x^3, 2) over F_3(x), delta = x d/dx.
    K = DerivedField(3, RatFunc(DensePoly(PrimeField(3), (0, 1)), DensePoly.one(PrimeField(3))))
    Q = QuaternionRing(K)
    zero = K.zero()
    return ExtAlgebra(Q, minimal_p_polynomial(K), Q.of(zero, K.x(), zero, zero))


def test_substitute_matches_product_oracle():
    rng = random.Random(4300)
    K2 = DerivedField(2, RatFunc(DensePoly(PrimeField(2), (0, 1)), DensePoly.one(PrimeField(2))))
    K3 = DerivedField(3, RatFunc(DensePoly(PrimeField(3), (1,)), DensePoly.one(PrimeField(3))))
    for ring in (K2, K3, QuaternionRing(K3)):
        for _ in range(6):
            h = DiffPoly(ring, [ring.random_element(rng, 2) for _ in range(rng.randrange(7))])
            c = ring.random_element(rng, 2)
            for eps in (ring.one(), ring.random_element(rng, 1)):
                tau = IDENT if ring.is_commutative else (lambda z: z * z)
                assert substitute(h, tau, c, eps) == _substitute_by_products(h, tau, c, eps)


def _descriptors(alg, rng):
    # Shift descriptors by log derivatives, and inner descriptors (tau =
    # conjugation over the quaternion ring).
    ring = alg.ring
    if ring.is_commutative:
        units = [random_ratfunc(ring, rng, 2, nonzero=True) for _ in range(3)]
        out = [build_auto(alg, IDENT, ring.log_derivative(u), ring.one()) for u in units]
        return out + [inner_auto(alg, a) for a in units]
    K, zero, one = ring.base, ring.base.zero(), ring.base.one()
    u = ring.embed(K.x() + one)
    shift = build_auto(alg, IDENT, ring.invert(u) * ring.delta(u), ring.one())
    return [shift, inner_auto(alg, ring.of(K.x(), one, zero, zero))]


def test_apply_auto_and_shift_iso_match_product_oracle(monkeypatch, i1, i3, i4):
    rng = random.Random(4400)
    products = []
    mul = DiffPoly.__mul__
    for alg in (i1, i3, i4, _quaternion_algebra()):
        ring = alg.ring
        elems = alg.basis() + [alg.random_element(rng, 2) for _ in range(4)]
        elems += [elems[-1] * elems[-2]]
        descs = _descriptors(alg, rng)
        # Only a central a gives a shift over Q (see the test below).
        K = alg.base_field
        isos = [shift_isomorphism(alg, ring.embed(K.random_element(rng, 2))) for _ in range(2)]
        assert "conj" in [H.tau_name for H in descs] or ring.is_commutative
        monkeypatch.setattr(DiffPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        images = [[apply_auto(H, u) for u in elems] for H in descs]
        shifted = [[iso(u) for u in elems] for iso in isos]
        monkeypatch.undo()
        # The tables replace every twisted product.
        assert not products
        for H, row in zip(descs, images):
            for u, img in zip(elems, row):
                assert img == alg.element(_substitute_by_products(u.rep, H.tau, H.c, H.eps))
        for iso, row in zip(isos, shifted):
            for u, img in zip(elems, row):
                want = _substitute_by_products(u.rep, IDENT, iso.c, ring.one())
                assert img == iso.target.element(want)


def test_shift_isomorphism_over_quaternions_needs_a_central_shift():
    # t -> t - a is multiplicative only when a commutes with the
    # coefficient ring; j does not, and the eq1 check refuses it.
    alg = _quaternion_algebra()
    Q = alg.ring
    K, zero, one = Q.base, Q.base.zero(), Q.base.one()
    with pytest.raises(ConditionFailed) as exc:
        shift_isomorphism(alg, Q.of(zero, zero, one, zero))
    assert exc.value.condition == "eq1"
    a = Q.embed(K.x())
    iso = shift_isomorphism(alg, a)
    assert iso.target.d == alg.d + v_g(Q, alg.g, a)
    back = shift_isomorphism(iso.target, -a)
    rng = random.Random(4500)
    for _ in range(20):
        u = alg.random_element(rng, 2)
        v = alg.random_element(rng, 2)
        assert iso(u * v) == iso(u) * iso(v)
        assert back(iso(u)) == u


def test_power_table_is_derived_and_stays_out_of_equality_and_repr(i1):
    K = i1.ring
    H = build_auto(i1, IDENT, K.one(), K.one())
    assert len(H.powers) == i1.f.degree() + 1
    assert "powers" not in repr(H)
    # The five-argument constructor forms the same table itself; a table
    # cannot be passed in, so it always matches c and eps.
    other = AutoDescriptor(i1, IDENT, "id", K.one(), K.one())
    assert H == other and hash(H) == hash(other)
    assert other.powers == H.powers
    assert other.target is i1 and H.target is i1
    u = i1.element(DiffPoly(K, [K.x(), K.one()]))
    assert apply_auto(other, u) == apply_auto(H, u)
    with pytest.raises(TypeError):
        AutoDescriptor(i1, IDENT, "id", K.one(), K.one(), ())
