"""Acceptance gate: eleven structural criteria over the shipped instances.

Each test prints one PASS line on the way out; a failed assertion keeps the
line unprinted, so grep for "criterion" in the -s output or read the usual
pytest verdicts.  Everything here is exact arithmetic; tolerance is equality.

Instances (built in conftest):

    i1     p = 2, delta = x d/dx, g = t^2 - t, d = x     nonassociative
    i2     same field, d = x^2 in F                      associative
    i3     p = 3, delta = x d/dx, g = t^3 - t, d = x     nonassociative
    i4     p = 2, delta = d/dx, g = t^2, d = x           nonassociative
    i2_d0  same as i2 with d = 0                         associative, split
"""

import random

import pytest

from diffext.autos import (
    apply_auto,
    auto_order,
    build_auto,
    compose_shift_autos,
    inner_auto,
    shift_isomorphism,
)
from diffext.diffpoly import DiffPoly, is_right_invariant, v_g, v_p_tower
from diffext.errors import ConditionFailed, NoSolution
from diffext.scalars import DensePoly, PrimeField, RatFunc, random_ratfunc
from diffext.towers import (
    DerivedField,
    QuaternionRing,
    minimal_p_polynomial,
    p_polynomial_at_exponent,
)

IDENT = lambda z: z


def _derived(p, w_coeffs):
    F = PrimeField(p)
    return DerivedField(p, RatFunc(DensePoly(F, w_coeffs), DensePoly.one(F)))


def _report(line):
    print("\n%s" % line)


# -- 1: skew binomial identity ----------------------------------------------


def test_c01_skew_identity():
    """(t-b)^(p^e) = t^(p^e) - V(b): middles vanish, constant matches oracles."""
    rng = random.Random(101)
    fields = {2: _derived(2, (0, 1)), 3: _derived(3, (0, 1))}

    def closed_form(K, b):
        # V_p(b) = b^p + delta^(p-1)(b), the commutative one-step oracle.
        d = b
        for _ in range(K.p - 1):
            d = K.delta(d)
        return b ** K.p + d

    field_samples = 0
    for p, K in fields.items():
        for e in (1, 2):
            for _ in range(125):
                b = random_ratfunc(K, rng, 1)
                lin = DiffPoly(K, (-b, K.one()))
                power = lin ** (p ** e)
                for i in range(1, p ** e):
                    assert not power.coeff(i), "middle coefficient t^%d nonzero" % i
                assert power.coeff(p ** e) == K.one()
                v = -power.coeff(0)
                assert v == v_p_tower(K, b, e)
                oracle = closed_form(K, b)
                if e == 2:
                    oracle = closed_form(K, oracle)
                assert v == oracle
                field_samples += 1
    assert field_samples == 500

    quaternion_samples = 0
    p = 3
    Q = QuaternionRing(fields[p])
    for e in (1, 2):
        for _ in range(25):
            B = Q.random_element(rng, 1)
            lin = DiffPoly(Q, (-B, Q.one()))
            power = lin ** (p ** e)
            for i in range(1, p ** e):
                assert not power.coeff(i)
            assert power.coeff(p ** e) == Q.one()
            assert -power.coeff(0) == v_p_tower(Q, B, e)
            quaternion_samples += 1
    assert quaternion_samples == 50
    _report("criterion 1 (skew identity, 500 field + 50 quaternion samples): PASS")


# -- 2: right division -------------------------------------------------------


def test_c02_right_division(i1):
    K = i1.ring
    rng = random.Random(102)
    for _ in range(1000):
        g = DiffPoly(K, [random_ratfunc(K, rng, 2) for _ in range(rng.randrange(1, 6))])
        f = DiffPoly(K, [random_ratfunc(K, rng, 2) for _ in range(rng.randrange(1, 4))])
        if not f:
            f = DiffPoly.t(K)
        q, r = g.right_divmod(f)
        assert q * f + r == g
        assert r.degree() < f.degree()
    _report("criterion 2 (division algorithm, 1000 samples): PASS")


# -- 3: nuclei ----------------------------------------------------------------


def test_c03_nuclei(i1, i2, i3):
    for alg, names in ((i1, ["1", "x"]), (i3, ["1", "x", "x^2"])):
        for which in ("left", "middle", "right", "full"):
            basis = alg.nucleus(which)
            assert [str(b) for b in basis] == names, which
    full = i2.nucleus("full")
    assert [str(b) for b in full] == ["1", "x", "t", "x*t"]
    _report("criterion 3 (nuclei: K on i1/i3, everything on i2): PASS")


# -- 4: centralizer of the coefficient field ----------------------------------


def test_c04_centralizer_of_k(i1, i3):
    for alg in (i1, i3):
        K = alg.ring
        cent = alg.centralizer([alg.scalar(b) for b in K.constant_basis()])
        assert len(cent) == K.p
        assert all(u.rep.degree() == 0 for u in cent), "Cent(K) is not inside K"
    _report("criterion 4 (Cent(K) = K on i1 and i3): PASS")


# -- 5: associativity triple equivalence --------------------------------------


def test_c05_associativity_equivalence(i1, i2, i3, i4):
    outcomes = {}
    for name, alg in (("i1", i1), ("i2", i2), ("i3", i3), ("i4", i4)):
        assoc = alg.is_associative()
        assert assoc == alg.ring.is_constant(alg.d)
        assert assoc == is_right_invariant(alg.f)
        outcomes[name] = assoc
    assert outcomes == {"i1": False, "i2": True, "i3": False, "i4": False}
    _report("criterion 5 (associative iff d in F iff f right-invariant): PASS")


# -- 6: automorphism suite -----------------------------------------------------


def test_c06_automorphism_suite(i1, i3):
    one1 = i1.ring.one()
    H = build_auto(i1, IDENT, one1, one1)
    assert auto_order(H) == 2
    one3 = i3.ring.one()
    H3 = build_auto(i3, IDENT, one3, one3)
    assert auto_order(H3) == 3

    with pytest.raises(ConditionFailed) as info:
        build_auto(i1, IDENT, i1.ring.x(), one1)
    assert info.value.condition == "fixes_f"

    K = i1.ring
    rng = random.Random(106)
    for _ in range(100):
        u1 = random_ratfunc(K, rng, 2, nonzero=True)
        u2 = random_ratfunc(K, rng, 2, nonzero=True)
        c1, c2 = K.log_derivative(u1), K.log_derivative(u2)
        H1 = build_auto(i1, IDENT, c1, one1)
        H2 = build_auto(i1, IDENT, c2, one1)
        H12 = compose_shift_autos(H1, H2)
        assert H12.c == c1 + c2
        assert H12 == build_auto(i1, IDENT, c1 + c2, one1)
    _report("criterion 6 (shift automorphisms: orders 2 and 3, FixesF, 100 compositions): PASS")


# -- 7: inner automorphisms ----------------------------------------------------


def test_c07_inner_conjugation(i1):
    K = i1.ring
    rng = random.Random(107)
    for _ in range(100):
        a = random_ratfunc(K, rng, 2, nonzero=True)
        G = inner_auto(i1, a)
        assert G.c == K.invert(a) * K.delta(a)
        a_el = i1.scalar(a)
        ainv_el = i1.scalar(K.invert(a))
        for _ in range(20):
            u = i1.random_element(rng, 2)
            assert (ainv_el * u) * a_el == apply_auto(G, u)
    _report("criterion 7 (inner maps are shifts by a^(-1)delta(a), 100 x 20): PASS")


# -- 8: logarithmic derivative criterion ---------------------------------------


def test_c08_log_derivative_kernel(i1):
    K = i1.ring
    rng = random.Random(108)
    for _ in range(200):
        u = random_ratfunc(K, rng, 3, nonzero=True)
        assert not v_g(K, i1.g, K.log_derivative(u))
    assert v_g(K, i1.g, K.x().inverse())
    _report("criterion 8 (V_g vanishes on 200 log derivatives, not on 1/x): PASS")


# -- 9: division verdict -------------------------------------------------------


def test_c09_division_verdict(i1, i2_d0):
    assert i1.linear_right_factor_search(4) is None
    verdict, witness = i1.division_verdict(4)
    assert verdict == "division (proved)" and witness is None
    assert i1.is_division_probe(random.Random(109), samples=200)

    K = i2_d0.ring
    b = i2_d0.linear_right_factor_search(4)
    assert b == K.one()
    lin = DiffPoly(K, (-b, K.one()))
    q, r = i2_d0.f.right_divmod(lin)
    assert not r and q * lin == i2_d0.f
    _report("criterion 9 (i1 proved division, d not in F; d=0 splits at b=1): PASS")


# -- 10: shift isomorphism -----------------------------------------------------


def test_c10_shift_isomorphism(i1):
    K = i1.ring
    x = K.x()
    iso = shift_isomorphism(i1, x)
    assert iso.target.d == x + x * x
    inv = shift_isomorphism(iso.target, -x)
    rng = random.Random(110)
    for _ in range(500):
        u = i1.random_element(rng, 1)
        v = i1.random_element(rng, 1)
        assert iso(u * v) == iso(u) * iso(v)
        assert inv(iso(u)) == u
    _report("criterion 10 (t -> t - x lands in d = x + x^2, 500 pairs): PASS")


# -- 11: minimal p-polynomial --------------------------------------------------


def test_c11_minimal_p_polynomial(i1, i3, i4):
    for alg, expected in ((i1, "t^2 + t"), (i3, "t^3 + 2*t"), (i4, "t^2")):
        K = alg.ring
        g = minimal_p_polynomial(K)
        assert str(g) == expected
        assert g == alg.g
        with pytest.raises(NoSolution):
            p_polynomial_at_exponent(K, g.e - 1)
    _report("criterion 11 (minimal annihilators t^2-t, t^3-t, t^2; none below): PASS")
