"""Automorphism descriptors: validity, orders, inner maps, constraints."""

import inspect
import itertools
import random

import pytest

from diffext import autos
from diffext.autos import (
    AutoDescriptor,
    apply_auto,
    auto_constraints,
    auto_order,
    build_auto,
    compose_autos,
    inner_auto,
    is_log_derivative,
    log_derivative_witness,
    shift_isomorphism,
)
from diffext.dext import ExtAlgebra, _bounded_height_witness
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
from oracles import coords_columns, iterated_order


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


def test_valid_shift_that_is_not_inner():
    # g = t^4 + t^2 = z1^2 + z1 with z1 = t^2 at p = 2, delta = d/dx:
    # V_z1(1) = 1 and V_g(1) = 1 + 1 = 0.  t -> t + 1 is an automorphism,
    # but u'/u = 1 has no solution u, so the shift is not inner.
    alg = instance_from_text("p = 2\ndelta_of_x = 1\nd = x\ng = t^4 + t^2\n").algebra
    one = alg.ring.one()
    assert build_auto(alg, IDENT, one, one).c == one
    assert not is_log_derivative(alg, one)
    assert log_derivative_witness(alg, one) is None


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


# A g = h(z1) that is not z1^(p^(e-1)), per (p, weight): its valid shifts,
# ker V_g, can be more than the logarithmic derivatives, ker V_z1.
_NON_CLOSED_G = {(2, "1"): "t^4 + t^2", (2, "x"): "t^4 + t", (3, "x"): "t^9 + 2*t"}


def _log_derivative_algebras(p, weight):
    """The instance with d = 0 and the minimal g, then the one with the
    weight's non-closed g, if it has one."""
    text = "p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)
    texts = [text]
    if (p, weight) in _NON_CLOSED_G:
        texts.append(text + "g = %s\n" % _NON_CLOSED_G[p, weight])
    return [instance_from_text(t).algebra for t in texts]


@pytest.mark.parametrize("p,bounds", [(2, range(4)), (3, range(3))], ids=["p2", "p3"])
@pytest.mark.parametrize("weight", ["x", "1", "x^2 + 1"])
def test_log_derivative_witness_matches_enumeration(p, bounds, weight):
    algs = _log_derivative_algebras(p, weight)
    K = algs[0].base_field
    rng = random.Random(97 * p + len(weight))
    x = K.x()
    for bound in bounds:
        cs = [K.zero(), K.one(), x, x.inverse()]
        for height in (rng.randrange(bound + 1), bound + 1):
            cs.append(K.log_derivative(_fraction_of_height(K, rng, height)))
        for c in cs:
            # Oracles: the plain enumeration and the bounded-height search of
            # the factor search, fed delta(u) - c u in coordinates.
            columns_for = coords_columns(K, lambda u: (K.delta(u) - c * u,), (K.zero(),), bound)
            bounded = _bounded_height_witness(K, columns_for, bound, bound)
            brute = brute_force_log_derivative(K, c, bound)
            assert str(bounded) == str(brute), (bound, c)
            got = log_derivative_witness(algs[0], c)
            for alg in algs:
                assert (got is not None) == is_log_derivative(alg, c), (alg.g, bound, c)
            if brute is not None:
                assert got is not None and K.log_derivative(got) == c, (bound, c)


_LOG_WEIGHTS = ("x", "1", "x^2 + 1", "1/x", "(x+1)/x", "x^3 + x + 1")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_log_derivative_witness_is_exact(p):
    # Planted c = delta(u0)/u0 are all found; on random c a witness exists
    # exactly when V_z1(c) = 0, for the minimal g and for a non-closed one.
    # Eight of each per weight: 48 per prime.
    rng = random.Random("logder:%d" % p)
    for weight in _LOG_WEIGHTS:
        algs = _log_derivative_algebras(p, weight)
        alg = algs[0]
        K = alg.base_field
        for _ in range(8):
            c = K.log_derivative(random_ratfunc(K, rng, 3, nonzero=True))
            u = log_derivative_witness(alg, c)
            assert u is not None and K.log_derivative(u) == c, (weight, c)
            assert all(is_log_derivative(alg_g, c) for alg_g in algs), (weight, c)
            c = random_ratfunc(K, rng, 3)
            u = log_derivative_witness(alg, c)
            for alg_g in algs:
                assert (u is not None) == is_log_derivative(alg_g, c), (weight, alg_g.g, c)
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
    assert list(inspect.signature(auto_order).parameters) == ["H"]
    assert list(inspect.signature(build_auto).parameters) == ["algebra", "tau", "c", "eps"]


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
        H12 = compose_autos(H1, H2)
        assert H12.c == c1 + c2
        for b in i1.basis():
            assert apply_auto(H12, b) == apply_auto(H1, apply_auto(H2, b))


def test_order_and_composition_refuse_maps_onto_another_algebra(i1, i3):
    # Over x d/dx at p = 2, V_g(x) = x^2, so the shift t -> t - x maps
    # i1 (d = x) onto the algebra with d = x^2 + x: no automorphism, so it
    # has no order, and H o H is not defined, since H does not act on its
    # own target.
    K = i1.ring
    x = K.x()
    H = shift_isomorphism(i1, x)
    assert H.target.d == x * x + x and H.target != i1
    with pytest.raises(ValueError, match=r"^the descriptor maps onto the algebra with d = x\^2 \+ x, not onto its own$"):
        auto_order(H)
    mismatch = (
        r"^the second map goes onto ExtAlgebra\(g=t\^2 \+ t, d=x\^2 \+ x\), "
        r"the first acts on ExtAlgebra\(g=t\^2 \+ t, d=x\)$"
    )
    with pytest.raises(ValueError, match=mismatch):
        compose_autos(H, H)
    ident = build_auto(i1, IDENT, K.zero(), K.one())
    with pytest.raises(ValueError, match=mismatch):
        compose_autos(ident, H)
    assert compose_autos(H, ident) == H
    # The inverse the shift_isomorphism docstring names: the shift by -a
    # from the target.
    assert compose_autos(shift_isomorphism(H.target, -x), H) == ident
    # A shift by a log derivative lands on i1 itself and is an automorphism.
    back = shift_isomorphism(i1, K.one())
    assert back.target == i1 and auto_order(back) == 2
    assert compose_autos(back, back) == ident
    # A chain A -> B -> C composes: at p = 3, V_g is F_p-linear, so the
    # shift by x from B after the shift by x from A is the shift by 2x.
    K3 = i3.ring
    x3 = K3.x()
    H_ab = shift_isomorphism(i3, x3)
    H_bc = shift_isomorphism(H_ab.target, x3)
    assert len({i3.d, H_ab.target.d, H_bc.target.d}) == 3
    H_ac = compose_autos(H_bc, H_ab)
    assert H_ac == shift_isomorphism(i3, x3 + x3)
    assert H_ac.algebra == i3 and H_ac.target == H_bc.target
    u = i3.element(DiffPoly(K3, [x3, K3.one(), x3 * x3]))
    assert H_ac(u) == H_bc(H_ab(u))
    back = shift_isomorphism(H_ac.target, -x3 - x3)
    assert compose_autos(back, H_ac) == build_auto(i3, IDENT, K3.zero(), K3.one())
    assert compose_autos(H_ac, back) == build_auto(H_ac.target, IDENT, K3.zero(), K3.one())


def test_inner_autos_compose_as_a_homomorphism(i1, i3):
    # Conjugation by b after conjugation by a is conjugation by a b:
    # b^(-1) (a^(-1) u a) b = (a b)^(-1) u (a b).
    for alg in (i1, i3):
        K = alg.ring
        x, one = K.x(), K.one()
        for a, b in ((x, x + one), (x * x + one, one / x), (x + one, x + one)):
            assert compose_autos(inner_auto(alg, b), inner_auto(alg, a)) == inner_auto(alg, a * b)
    # Over Q with d = x i, the nuclear coefficients are K(i): i and 1 + i.
    alg = _quaternion_algebra()
    Q = alg.ring
    x, zero, one = Q.base.x(), Q.base.zero(), Q.base.one()
    i, one_i = Q.of(zero, one, zero, zero), Q.of(one, one, zero, zero)
    for a, b in ((i, one_i), (one_i, i), (Q.embed(x), one_i)):
        assert compose_autos(inner_auto(alg, b), inner_auto(alg, a)) == inner_auto(alg, a * b)
    # With the central d = x every coefficient is nuclear, and i and 1 + x j
    # do not commute: the composite is conjugation by a b, not by b a.
    alg = ExtAlgebra(Q, minimal_p_polynomial(Q.base), Q.embed(x))
    a, b = i, Q.of(one, zero, x, zero)
    assert a * b != b * a
    G = compose_autos(inner_auto(alg, b), inner_auto(alg, a))
    assert G == inner_auto(alg, a * b) and G != inner_auto(alg, b * a)
    assert G.c == inner_auto(alg, b).c + Q.invert(b) * inner_auto(alg, a).c * b


def test_inner_auto_frozen_value(i1):
    K = i1.ring
    x = K.x()
    G = inner_auto(i1, x)
    # a = x: c = x^(-1) delta(x) = 1.
    assert G.c == K.one()
    assert G.images == tuple(i1._ring_basis)
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
    assert G.images != tuple(alg._ring_basis) and G.c == Q.zero()
    i_el, i_inv = alg.scalar(i), alg.scalar(Q.invert(i))
    rng = random.Random(4600)
    for _ in range(5):
        u = alg.random_element(rng, 2)
        assert apply_auto(G, u) == (i_inv * u) * i_el
    # a = x + i is not constant: c = a^(-1) delta(a) leaves K.
    a = Q.of(x, one, zero, zero)
    G = inner_auto(alg, a)
    assert G.images != tuple(alg._ring_basis) and G.c == Q.invert(a) * Q.delta(a)
    assert Q.as_scalar(G.c) is None


def test_inner_auto_nuclearity_is_commuting_with_d():
    # For a coefficient a, (f a) mod f = a d - d a (ExtAlgebra.nucleus), so
    # inner_auto's test a d != d a is the right-nuclearity test.  The
    # product-and-divide route is the oracle, over K at p = 2, 3, 5 and over
    # the quaternion ring with d central, pure and random.
    rng = random.Random(4700)
    cases = []
    for p in (2, 3, 5):
        K = DerivedField(p, RatFunc(DensePoly(PrimeField(p), (0, 1)), DensePoly.one(PrimeField(p))))
        for _ in range(2):
            alg = ExtAlgebra(K, minimal_p_polynomial(K), random_ratfunc(K, rng, 2))
            cases.append((alg, [random_ratfunc(K, rng, 2, nonzero=True) for _ in range(3)]))
    Q = _quaternion_algebra().ring
    K3 = Q.base
    x, zero = K3.x(), K3.zero()
    for d in (Q.embed(x), Q.of(zero, x, zero, zero), Q.random_element(rng, 1)):
        alg = ExtAlgebra(Q, minimal_p_polynomial(K3), d)
        # u + v d commutes with d; a random quaternion does not.
        u, v = (Q.embed(random_ratfunc(K3, rng, 1, nonzero=True)) for _ in range(2))
        cases.append((alg, [Q.random_element(rng, 1), Q.random_element(rng, 1), u + v * d]))
    verdicts = set()
    for alg, coefficients in cases:
        ring, f = alg.ring, alg.f
        for a in coefficients:
            if not a:
                continue
            commutator = a * alg.d - alg.d * a
            assert (f * DiffPoly.constant(ring, a)).right_divmod(f)[1] == DiffPoly.constant(
                ring, commutator
            )
            if commutator:
                with pytest.raises(NotNuclear):
                    inner_auto(alg, a)
            else:
                assert inner_auto(alg, a).c == ring.invert(a) * ring.delta(a)
            verdicts.add(bool(commutator))
    assert verdicts == {False, True}


def test_inner_auto_by_scalar_quaternion_fixes_coefficients():
    # A scalar a = embed(c) is central: conjugation fixes every coefficient,
    # so tau is the identity; the basis cross-check inside inner_auto agrees.
    alg = _quaternion_algebra()
    Q, K = alg.ring, alg.base_field
    x = K.x()
    for c in (K.one(), x, x * x + K.one()):
        G = inner_auto(alg, Q.embed(c))
        assert G.images == tuple(alg._ring_basis) and G.c == Q.embed(K.log_derivative(c))
        assert repr(G).startswith("AutoDescriptor(tau=id, ")


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
            acc = acc + DiffPoly.constant(ring, ta) * power
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
        assert any(H.images != tuple(alg._ring_basis) for H in descs) or ring.is_commutative
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
    assert compose_autos(back, iso) == build_auto(alg, IDENT, Q.zero(), Q.one())


def test_power_table_is_derived_and_stays_out_of_equality_and_repr(i1):
    K = i1.ring
    H = build_auto(i1, IDENT, K.one(), K.one())
    assert len(H.powers) == i1.f.degree() + 1
    assert "powers" not in repr(H)
    # The constructor forms the same table itself; a table cannot be passed
    # in, so it always matches c and eps.
    other = AutoDescriptor(i1, IDENT, K.one(), K.one())
    assert H == other and hash(H) == hash(other)
    assert other.powers == H.powers
    assert other.target is i1 and H.target is i1
    u = i1.element(DiffPoly(K, [K.x(), K.one()]))
    assert apply_auto(other, u) == apply_auto(H, u)
    with pytest.raises(TypeError):
        AutoDescriptor(i1, IDENT, K.one(), K.one(), ())


def test_descriptors_are_left_k_linear(i1, i3):
    # The order oracle, inner_auto and the suite's composition check compare
    # maps on the K-basis only; that rests on H(k u) = k H(u) for k in K:
    # shifts over K, and conjugations by i and by x + i over Q.
    cases = []
    for alg in (i1, i3):
        K = alg.ring
        cases.append((alg, build_auto(alg, IDENT, K.log_derivative(K.x() + K.one()), K.one())))
        cases.append((alg, inner_auto(alg, K.x() ** 2 + K.one())))
    alg = _quaternion_algebra()
    Q = alg.ring
    x, zero, one = Q.base.x(), Q.base.zero(), Q.base.one()
    for a in (Q.of(zero, one, zero, zero), Q.of(x, one, zero, zero)):
        cases.append((alg, inner_auto(alg, a)))
    assert [H.images != tuple(alg._ring_basis) for alg, H in cases].count(True) == 2
    rng = random.Random(4700)
    for alg, H in cases:
        ring = alg.ring
        for _ in range(6):
            k = alg.scalar(ring.embed(random_ratfunc(ring.base_field, rng, 2, nonzero=True)))
            u = alg.random_element(rng, 2)
            assert apply_auto(H, k * u) == k * apply_auto(H, u)


def test_literal_conjugation_is_left_k_linear():
    alg = _quaternion_algebra()
    Q = alg.ring
    x, zero, one = Q.base.x(), Q.base.zero(), Q.base.one()
    rng = random.Random(4701)
    for a in (Q.of(zero, one, zero, zero), Q.of(x, one, zero, zero)):
        a_el, ainv_el = alg.scalar(a), alg.scalar(Q.invert(a))
        conj = lambda u: (ainv_el * u) * a_el
        for _ in range(4):
            k = alg.scalar(Q.embed(random_ratfunc(Q.base, rng, 2, nonzero=True)))
            u = alg.random_element(rng, 2)
            assert conj(k * u) == k * conj(u)


def test_k_basis_spans_the_f_basis(i3):
    # Every F-basis element is x^j times a K-basis element, in order.
    for alg in (i3, _quaternion_algebra()):
        ring = alg.ring
        x = alg.scalar(ring.embed(ring.base_field.x()))
        kb, fb = alg.k_basis(), alg.basis()
        p = ring.p
        assert len(fb) == p * len(kb) == alg.dim
        for n, e in enumerate(kb):
            power = e
            for j in range(p):
                assert fb[n * p + j] == power
                power = x * power


def _inverse_x_descriptor():
    # At p = 2 over x d/dx, tau: x -> 1/x with c = 0 and eps = 1 is an
    # automorphism of D_(x + 1/x): tau fixes d, and tau(delta(x)) = 1/x =
    # delta(tau(x)).
    alg = instance_from_text("p = 2\ndelta_of_x = x\nd = x + 1/x\n").algebra
    K = alg.ring
    inv = K.one() / K.x()

    def at_inverse(coeffs):
        acc = K.zero()
        for c in reversed(coeffs):
            acc = acc * inv + (K.one() if c else K.zero())
        return acc

    return alg, build_auto(alg, lambda r: at_inverse(r.num_coeffs) / at_inverse(r.den_coeffs), K.zero(), K.one())


def test_auto_order_counts_a_tau_that_moves_k():
    # x -> 1/x fixes every t^i of the K-basis and moves x, so its order is
    # 2, not 1.
    alg, H = _inverse_x_descriptor()
    K = alg.ring
    assert all(apply_auto(H, u) == u for u in alg.k_basis())
    assert apply_auto(H, alg.scalar(K.x())) == alg.scalar(K.one() / K.x())
    assert auto_order(H) == 2


def test_composing_a_tau_that_moves_k():
    # x -> 1/x has order 2: H o H is the identity, though H moves x.  Its
    # tau is read from the images, not from a name that defaulted to "id".
    alg, H = _inverse_x_descriptor()
    K = alg.ring
    assert H.images != tuple(alg._ring_basis)
    HH = compose_autos(H, H)
    assert HH.images == tuple(alg._ring_basis)
    assert HH == build_auto(alg, IDENT, K.zero(), K.one())
    x = alg.scalar(K.x())
    assert H(H(x)) == x == HH(x) != H(x)


def _moebius(K, a, b, c, d):
    # The ring map of K = F_p(x) with x -> (a x + b)/(c x + d).
    m = (K.from_int(a) * K.x() + K.from_int(b)) / (K.from_int(c) * K.x() + K.from_int(d))

    def at_m(coeffs):
        acc = K.zero()
        for k in reversed(coeffs):
            acc = acc * m + K.from_int(k)
        return acc

    return lambda r: at_m(r.num_coeffs) / at_m(r.den_coeffs)


def _pgl2(p):
    # One matrix per element of PGL_2(F_p): its first nonzero entry is 1.
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p and next(v for v in (a, b, c, d) if v) == 1:
            yield a, b, c, d


def test_order_and_composition_match_the_iteration_over_pgl2():
    # Every Moebius tau at p = 2 and 3 with c in {0, 1} and eps = 1, on 24
    # instances: the order read off the triples is the iterated one, and
    # the composite of every pair is the composite of the maps on the
    # K-basis and x.
    candidates, orders, pairs = 0, [], 0
    for p in (2, 3):
        for w in ("x", "1", "x^2 + 1"):
            for d in ("x", "x + 1/x", "x^2 + 1/x^2", "x^3 + x"):
                alg = instance_from_text("p = %d\ndelta_of_x = %s\nd = %s\n" % (p, w, d)).algebra
                K = alg.ring
                found = []
                for m in _pgl2(p):
                    tau = _moebius(K, *m)
                    for c in (K.zero(), K.one()):
                        candidates += 1
                        try:
                            found.append(build_auto(alg, tau, c, K.one()))
                        except ConditionFailed:
                            pass
                test = alg.k_basis() + [alg.scalar(K.x())]
                for H in found:
                    orders.append(auto_order(H))
                    assert orders[-1] == iterated_order(H), (alg, H)
                for H1, H2 in itertools.product(found, repeat=2):
                    H12 = compose_autos(H1, H2)
                    assert all(H12(u) == H1(H2(u)) for u in test), (alg, H1, H2)
                    pairs += 1
    assert (candidates, len(orders), pairs) == (720, 44, 102)
    assert sorted(set(orders)) == [1, 2, 3, 6]
    # The order-6 map after a shift that tau moves: tau1(c2) != c2.
    alg = instance_from_text("p = 3\ndelta_of_x = x\nd = x^2\n").algebra
    K = alg.ring
    H6 = build_auto(alg, _moebius(K, 2, 0, 0, 1), K.one(), K.one())
    S = build_auto(alg, IDENT, K.log_derivative(K.x() + K.one()), K.one())
    assert H6.tau(S.c) != S.c
    test = alg.k_basis() + [alg.scalar(K.x())]
    for H1, H2 in ((H6, S), (S, H6)):
        H12 = compose_autos(H1, H2)
        assert all(H12(u) == H1(H2(u)) for u in test)
        assert auto_order(H12) == iterated_order(H12)


def test_repr_names_tau_by_its_images(i1):
    K = i1.ring
    assert repr(build_auto(i1, IDENT, K.one(), K.one())) == "AutoDescriptor(tau=id, c=1, eps=1)"
    _, H = _inverse_x_descriptor()
    assert repr(H) == "AutoDescriptor(tau=(x -> 1/(x)), c=0, eps=1)"


def test_constructor_runs_both_checks(i1):
    # AutoDescriptor is the checked map itself: no route builds one that the
    # eq1 and fixes_f checks have not seen.
    K = i1.ring
    with pytest.raises(ConditionFailed) as exc:
        AutoDescriptor(i1, IDENT, K.x(), K.one())
    assert exc.value.condition == "fixes_f"
    assert str(exc.value) == "candidate moves the modulus by x^2"
    with pytest.raises(ConditionFailed) as exc:
        AutoDescriptor(i1, IDENT, K.zero(), K.x())
    assert exc.value.condition == "eq1"
    assert str(exc.value).startswith("commutation constraint fails on x: ")
    assert AutoDescriptor(i1, IDENT, K.one(), K.one()) == build_auto(i1, IDENT, K.one(), K.one())


def test_auto_order_exceeds_p_for_a_tau_that_moves_k():
    # At p = 3, delta(x) = x, d = x^2: tau: x -> -x fixes d and commutes
    # with x d/dx, so (tau, 1, 1) is an automorphism.  tau has order 2 and
    # H^2 is the shift by 1 + tau(1) = 2, of order 3: H has order 6 > p.
    alg = instance_from_text("p = 3\ndelta_of_x = x\nd = x^2\n").algebra
    K = alg.ring

    def at_minus_x(coeffs):
        return DensePoly(K.field, [c * (-1) ** k for k, c in enumerate(coeffs)])

    tau = lambda r: RatFunc(at_minus_x(r.num_coeffs), at_minus_x(r.den_coeffs))
    H = build_auto(alg, tau, K.one(), K.one())
    assert repr(H) == "AutoDescriptor(tau=(x -> 2*x), c=1, eps=1)"
    assert auto_order(H) == 6


def test_auto_order_reads_none_after_p_times_p_plus_one_rounds(monkeypatch):
    # Conjugation by 1 + i over Q = (x^3, 2) at p = 3 has infinite order:
    # its powers are conjugations by (1 + i)^n, never central.  The search
    # stops after exactly p(p + 1) = 12 steps of the law, and applies the
    # descriptor to nothing.
    alg = _quaternion_algebra()
    Q = alg.ring
    zero, one = Q.base.zero(), Q.base.one()
    G = inner_auto(alg, Q.of(one, one, zero, zero))
    steps = []
    law = autos._compose_law
    monkeypatch.setattr(autos, "_compose_law", lambda *args: steps.append(1) or law(*args))
    monkeypatch.setattr(autos, "apply_auto", None)
    assert auto_order(G) is None
    assert len(steps) == 3 * 4
    assert iterated_order(G) is None


def test_auto_order_on_the_k_basis_matches_the_f_basis():
    # The order read on the K-basis is the one the F-basis gives, for a
    # conjugation whose tau is not the identity (conjugation by i, order 2).
    alg = _quaternion_algebra()
    Q = alg.ring
    zero, one = Q.base.zero(), Q.base.one()
    G = inner_auto(alg, Q.of(zero, one, zero, zero))
    assert G.images != tuple(alg._ring_basis)
    basis = alg.basis()
    images, order = list(basis), None
    for k in range(1, 5):
        images = [apply_auto(G, u) for u in images]
        if images == basis:
            order = k
            break
    assert order == auto_order(G) == iterated_order(G) == 2
    # Conjugation by the central x is the shift by delta(x)/x = 1.
    X = inner_auto(alg, Q.embed(Q.base.x()))
    assert auto_order(X) == iterated_order(X) == 3


def test_conjugations_with_one_name_compare_by_tau():
    # Over Q with the central d = x, conjugation by i and by j both have
    # c = 0 and move the coefficients, yet H_i(j) = -j = 2j while H_j(j) = j.
    # Conjugation by 2i is the same map as by i.
    K = DerivedField(3, RatFunc(DensePoly(PrimeField(3), (0, 1)), DensePoly.one(PrimeField(3))))
    Q = QuaternionRing(K)
    alg = ExtAlgebra(Q, minimal_p_polynomial(K), Q.embed(K.x()))
    zero, one, two = K.zero(), K.one(), K.from_int(2)
    i, j = Q.of(zero, one, zero, zero), Q.of(zero, zero, one, zero)
    Hi, Hj, H2i = (inner_auto(alg, a) for a in (i, j, Q.of(zero, two, zero, zero)))
    assert Hi.c == Hj.c == Q.zero()
    assert repr(Hi) == "AutoDescriptor(tau=(x -> x, i -> i, j -> 2*j), c=0, eps=1)"
    assert repr(Hj) == "AutoDescriptor(tau=(x -> x, i -> 2*i, j -> j), c=0, eps=1)"
    assert repr(H2i) == repr(Hi)
    J = alg.scalar(j)
    assert apply_auto(Hi, J) == alg.scalar(Q.of(zero, zero, two, zero)) and apply_auto(Hj, J) == J
    assert Hi != Hj
    assert Hi == H2i and hash(Hi) == hash(H2i)
    assert len({Hi, Hj, H2i}) == 2
