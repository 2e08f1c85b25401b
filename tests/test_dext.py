"""Quotient algebras: products, nuclei, center, factors, shift isomorphisms."""

import random

import pytest

from diffext.dext import ExtAlgebra
from diffext.diffpoly import DiffPoly, is_right_invariant, v_g
from diffext.frontend import instance_from_text
from diffext.linalg import Matrix
from diffext.scalars import DensePoly, PrimeField, RatFunc
from diffext.towers import DerivedField, MatrixRingAdapter, minimal_p_polynomial


def span_coords(alg, elems):
    return sorted(tuple(str(c) for c in alg.coords(e)) for e in elems)


def p3_algebra(delta_of_x, d):
    text = "p = 3\ndelta_of_x = %s\nd = %s\n" % (delta_of_x, d)
    return instance_from_text(text).algebra


def basis_str(elems):
    return ", ".join(str(e) for e in elems)


def nucleus_oracle(alg, which):
    """Nucleus coordinates from one stacked kernel over twisted associators.

    Every associator comes from the element-level product, not from the
    structure constants; zero rows are kept so that an associative algebra
    yields the whole space.
    """
    basis = alg.basis()
    slots = ("left", "middle", "right") if which == "full" else (which,)
    place = {
        "left": lambda v, a, b: (v, a, b),
        "middle": lambda v, a, b: (a, v, b),
        "right": lambda v, a, b: (a, b, v),
    }
    rows = []
    for slot in slots:
        for a in basis:
            for b in basis:
                cols = [alg.coords(alg.associator(*place[slot](v, a, b))) for v in basis]
                rows.extend(zip(*cols))
    return Matrix(alg.base_field, rows).kernel()


def test_product_frozen_values(i1):
    K = i1.ring
    x = K.x()
    t = i1.t()
    # t o t = t + x: reduce t^2 mod t^2 + t + x.
    assert (t * t).rep == DiffPoly(K, (x, K.one()))
    # t o x = x t + x: no reduction needed.
    xs = i1.scalar(x)
    assert (t * xs).rep == DiffPoly(K, (x, x))
    # Associator [t, t, t] = x.
    assert i1.associator(t, t, t) == xs


def test_dim_and_basis(i1, i3):
    assert i1.dim == 4
    assert [str(b) for b in i1.basis()] == ["1", "x", "t", "x*t"]
    assert i3.dim == 9
    for alg in (i1, i3):
        for i, b in enumerate(alg.basis()):
            cs = alg.coords(b)
            assert all(bool(c) == (j == i) for j, c in enumerate(cs))
            assert alg.from_coords(cs) == b


def test_coords_roundtrip_sampled(i1, i3):
    rng = random.Random(88)
    for alg in (i1, i3):
        for _ in range(50):
            u = alg.random_element(rng, 2)
            assert alg.from_coords(alg.coords(u)) == u


def test_structure_constants_match_direct_product(i1, i3):
    rng = random.Random(3)
    for alg in (i1, i3):
        alg.structure_constants()
        for _ in range(40):
            u = alg.random_element(rng, 2)
            v = alg.random_element(rng, 2)
            via_table = alg._mul_coords(alg.coords(u), alg.coords(v))
            assert via_table == alg.coords(u * v)


def test_left_distributivity_and_scalar_tower(i1):
    rng = random.Random(14)
    for _ in range(60):
        u = i1.random_element(rng, 2)
        v = i1.random_element(rng, 2)
        w = i1.random_element(rng, 2)
        assert (u + v) * w == u * w + v * w
        assert u * (v + w) == u * v + u * w


def test_is_associative_frozen(i1, i2, i3, i4):
    assert not i1.is_associative()
    assert i2.is_associative()
    assert not i3.is_associative()
    assert not i4.is_associative()
    # Equivalent formulations: d constant, f right-invariant.
    for alg in (i1, i2, i3, i4):
        assert alg.is_associative() == alg.ring.is_constant(alg.d)
        assert alg.is_associative() == is_right_invariant(alg.f)


def test_nucleus_frozen_values(i1, i3):
    # Nonassociative instances: every nucleus collapses to K.
    for alg in (i1, i3):
        base = [alg.scalar(b) for b in alg.ring.constant_basis()]
        for which in ("left", "middle", "right", "full"):
            nuc = alg.nucleus(which)
            assert span_coords(alg, nuc) == span_coords(alg, base)
    # The kernel convention puts the embedded field basis out literally.
    assert [str(e) for e in i1.nucleus("full")] == ["1", "x"]
    assert [str(e) for e in i3.nucleus("full")] == ["1", "x", "x^2"]


def test_nucleus_associative_instance(i2):
    # d in F: the algebra is associative and the nucleus is everything.
    nuc = i2.nucleus("full")
    assert len(nuc) == i2.dim
    assert span_coords(i2, nuc) == span_coords(i2, i2.basis())


@pytest.mark.parametrize("which", ["left", "middle", "right", "full"])
def test_nucleus_matches_element_level_oracle(i1, i2, which):
    for alg in (i1, i2):
        assert [alg.coords(e) for e in alg.nucleus(which)] == nucleus_oracle(alg, which)


def test_left_nucleus_matches_oracle_rational_d():
    alg = p3_algebra("x^2 + 1", "(x^2+1)/((x+1)*(x+2))")
    assert [alg.coords(e) for e in alg.nucleus("left")] == nucleus_oracle(alg, "left")


def test_structure_queries_constant_d():
    # A constant d makes the algebra associative: the nucleus is everything,
    # while the center and Cent(t) stay small.
    alg = p3_algebra("x^2 + 1", "2")
    assert len(alg.nucleus("full")) == 9
    assert basis_str(alg.center()) == "1"
    assert basis_str(alg.centralizer([alg.t()])) == "1, t, t^2"


def test_nucleus_rejects_unknown_slot(i1):
    with pytest.raises(ValueError):
        i1.nucleus("outer")


def test_center_frozen_values(i1, i2, i3):
    # Center is the constant subfield F: just the F-multiples of 1.
    for alg in (i1, i3):
        z = alg.center()
        assert len(z) == 1
        assert z[0] == alg.one()
    # Associative instance: center of (K, delta, d in F) is still F... the
    # commutant of K and t inside the full algebra is F itself.
    z2 = i2.center()
    assert len(z2) == 1
    assert z2[0] == i2.one()


def test_center_elements_commute_and_associate(i1, i3):
    rng = random.Random(70)
    for alg in (i1, i3):
        for z in alg.center():
            for _ in range(20):
                u = alg.random_element(rng, 2)
                v = alg.random_element(rng, 2)
                assert z * u == u * z
                assert not alg.associator(z, u, v)
                assert not alg.associator(u, z, v)
                assert not alg.associator(u, v, z)


def test_centralizer_frozen_value(i1, i3):
    # Cent({x}) = K for g = t^p + a_1 t instances.
    for alg in (i1, i3):
        x = alg.scalar(alg.ring.x())
        cent = alg.centralizer([x])
        base = [alg.scalar(b) for b in alg.ring.constant_basis()]
        assert span_coords(alg, cent) == span_coords(alg, base)


def test_centralizer_non_unit_bases(i3):
    K = i3.ring
    x = K.x()
    t_plus_x = i3.element(DiffPoly(K, (x, K.one())))
    x_t = i3.element(DiffPoly(K, (K.zero(), x)))
    assert basis_str(i3.centralizer([t_plus_x])) == "1, t + x, t^2 + 2*x*t + x^2 + x"
    assert basis_str(i3.centralizer([x_t])) == "1, x*t, x^2*t^2 + x^2*t"


def test_centralizer_of_center_is_everything(i1):
    cent = i1.centralizer([i1.one()])
    assert len(cent) == i1.dim


def test_linear_right_factor_frozen_values(i2_d0):
    # d = 0: b = 1 is preferred over the trivial zero witness at bound 0.
    K = i2_d0.ring
    b = i2_d0.linear_right_factor_search(0)
    assert b == K.one()
    lin = DiffPoly(K, (-b, K.one()))
    q, r = i2_d0.f.right_divmod(lin)
    assert not r and q == DiffPoly.t(K)


def test_linear_right_factor_x_squared():
    # f = t^2 - t - x^2 over x d/dx, F_2: V_g(x) = x^2, so b = x at bound 1.
    K = DerivedField(2, RatFunc(DensePoly(PrimeField(2), (0, 1)), DensePoly.one(PrimeField(2))))
    g = minimal_p_polynomial(K)
    alg = ExtAlgebra(K, g, K.x() ** 2)
    assert alg.linear_right_factor_search(0) is None
    b = alg.linear_right_factor_search(1)
    assert b == K.x()


def test_division_verdicts(i1, i2, i3):
    # I1: no linear factor up to bound 4; for p = 2 that is conclusive.
    verdict, witness = i1.division_verdict(4)
    assert verdict == "division (proved)" and witness is None
    # I2 is associative with zero divisors: witness x found.
    verdict, witness = i2.division_verdict(4)
    assert verdict == "not division (witness)" and witness == i2.ring.x()
    # I3 at a tiny bound: exhaustion is not conclusive for p = 3.
    verdict, witness = i3.division_verdict(1)
    assert verdict == "unknown (bound exhausted)" and witness is None


def test_division_probe_consistency(i1, i2, rng_seed=0):
    rng = random.Random(rng_seed)
    assert i1.is_division_probe(rng, samples=40)
    assert not i2.is_division_probe(rng, samples=40)


def test_shift_isomorphism_frozen(i1):
    K = i1.ring
    x = K.x()
    iso = i1.shift_isomorphism(x)
    # Target modulus: d + V_g(x) = x + x^2.
    assert iso.target.d == x + x * x
    # t maps to t - x.
    img = iso(i1.t())
    assert img.rep == DiffPoly(K, (-x, K.one()))


def test_shift_isomorphism_multiplicative(i1, i3):
    rng = random.Random(1234)
    for alg in (i1, i3):
        a = alg.ring.random_element(rng, 2)
        iso = alg.shift_isomorphism(a)
        for _ in range(60):
            u = alg.random_element(rng, 2)
            v = alg.random_element(rng, 2)
            assert iso(u * v) == iso(u) * iso(v)
            assert iso(u + v) == iso(u) + iso(v)


def test_shift_isomorphism_inverse(i1):
    rng = random.Random(5)
    x = i1.ring.x()
    iso = i1.shift_isomorphism(x)
    back = iso.inverse()
    assert back.target == i1
    for _ in range(30):
        u = i1.random_element(rng, 2)
        assert back(iso(u)) == u


def test_shift_by_log_derivative_is_endo(i1):
    # V_g(1) = 0, so shifting by 1 maps the algebra to itself.
    one = i1.ring.one()
    iso = i1.shift_isomorphism(one)
    assert iso.target == i1


def test_matrix_adapter_algebra_smoke():
    # Associative check via the adapter: d = 0 constant matrix, g = t^2
    # annihilates entrywise d/dx over F_2.
    K = DerivedField(2, RatFunc(DensePoly.one(PrimeField(2)), DensePoly.one(PrimeField(2))))
    A = MatrixRingAdapter(K, 2)
    g = minimal_p_polynomial(K)
    alg = ExtAlgebra(A, g, A.zero())
    assert alg.dim == 16
    assert alg.is_associative()
    rng = random.Random(2)
    u = alg.random_element(rng, 1)
    v = alg.random_element(rng, 1)
    w = alg.random_element(rng, 1)
    assert not alg.associator(u, v, w)
