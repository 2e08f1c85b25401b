"""Quotient algebras: products, nuclei, center, factors, shift isomorphisms."""

import random
import tracemalloc
from pathlib import Path

import pytest

from diffext import dext
from diffext.autos import auto_constraints, shift_isomorphism
from diffext.dext import MAX_TABLE_ENTRIES, ExtAlgebra
from diffext.diffpoly import DiffPoly, is_right_invariant, p_poly_as_diffpoly, v_g
from diffext.errors import (
    GNotAnnihilating,
    InternalInvariantViolation,
    NoSolution,
    UnsupportedInstance,
)
from diffext.frontend import instance_from_text
from diffext.linalg import Matrix, solve_columns_mod_p
from diffext.scalars import (
    DensePoly,
    PrimeField,
    RatFunc,
    _add,
    _derivative,
    _exquo,
    _frobenius,
    _mul,
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
from oracles import (
    coords_columns,
    left_kernel_vector,
    left_multiplication_singular,
    padded_rows,
    product_by_t_steps,
    quotient_product,
    solve_mod_p,
)


def span_coords(alg, elems):
    return sorted(tuple(str(c) for c in alg.coords(e)) for e in elems)


def p3_algebra(delta_of_x, d):
    text = "p = 3\ndelta_of_x = %s\nd = %s\n" % (delta_of_x, d)
    return instance_from_text(text).algebra


def basis_str(elems):
    return ", ".join(str(e) for e in elems)


# The associator engine the library used before the eigenring: products
# through the structure constants of table_oracle, associator maps over
# basis pairs cut down by the common-kernel routine, and a sweep over basis
# triples.  Each entry point forms the table once for its algebra.
_PLACE = {
    "left": lambda v, a, b: (v, a, b),
    "middle": lambda v, a, b: (a, v, b),
    "right": lambda v, a, b: (a, b, v),
}


def table_product(alg, table, us, vs):
    """Product in coordinates via the structure constants in table."""
    zero = alg.base_field.zero()
    out = [zero] * alg.dim
    for i, ui in enumerate(us):
        if not ui:
            continue
        row = table[i]
        for j, vj in enumerate(vs):
            if not vj:
                continue
            w = ui * vj
            for k, s in enumerate(row[j]):
                if s:
                    out[k] = out[k] + w * s
    return tuple(out)


def table_assoc(alg, table, us, vs, ws):
    """Coordinates of the associator (u v) w - u (v w) via the table."""
    m = lambda a, b: table_product(alg, table, a, b)
    return tuple(l - r for l, r in zip(m(m(us, vs), ws), m(us, m(vs, ws))))


def table_is_associative(alg):
    table = table_oracle(alg)
    units = alg._units(alg.dim)
    return not any(
        any(table_assoc(alg, table, u, v, w)) for u in units for v in units for w in units
    )


def table_nucleus(alg, table, slot):
    """One nucleus slot from the associator maps over basis pairs.

    The kernel does not depend on the order of the maps.  Those with a in
    the coefficient ring vanish, so a runs from the top of the basis down:
    they come last, when the running basis is smallest.
    """
    units = alg._units(alg.dim)
    maps = [
        lambda v, a=a, b=b: table_assoc(alg, table, *_PLACE[slot](v, a, b))
        for a in reversed(units)
        for b in units
    ]
    return alg._common_kernel(maps, units)


def residual(basis):
    """A linear map whose kernel is span(basis), for a canonical basis.

    Each vector of the canonical form has a pivot at its last nonzero
    coordinate, where the others vanish; v minus the basis vectors scaled
    by v at their pivots is zero exactly on the span.
    """
    pivots = [max(i for i, c in enumerate(b) if c) for b in basis]

    def fn(v):
        out = v
        for b, i in zip(basis, pivots):
            if v[i]:
                out = tuple(o - v[i] * e for o, e in zip(out, b))
        return out

    return fn


def table_nuclei(alg):
    """All four slots by the table engine; full is the other three intersected."""
    table = table_oracle(alg)
    out = {slot: table_nucleus(alg, table, slot) for slot in _PLACE}
    out["full"] = alg._common_kernel([residual(out["middle"]), residual(out["right"])], out["left"])
    return out


def nucleus_oracle(alg, which):
    """Nucleus coordinates from one stacked kernel over twisted associators.

    Every associator comes from the element-level product, not from the
    structure constants: [e_i, e_j, e_k] = (e_i e_j) e_k - e_i (e_j e_k)
    with the products of basis pairs formed once.  Zero rows are kept so
    that an associative algebra yields the whole space.
    """
    basis = alg.basis()
    n = len(basis)
    prod = [[u * v for v in basis] for u in basis]
    slots = ("left", "middle", "right") if which == "full" else (which,)
    rows = []
    for slot in slots:
        for a in range(n):
            for b in range(n):
                cols = []
                for v in range(n):
                    i, j, k = _PLACE[slot](v, a, b)
                    cols.append(alg.coords(prod[i][j] * basis[k] - basis[i] * prod[j][k]))
                rows.extend(zip(*cols))
    return Matrix(alg.base_field, rows).kernel()


def table_oracle(alg):
    """The table as it used to be built: every basis product, reduced mod f."""
    basis = alg.basis()
    return [[alg.coords(quotient_product(ei, ej)) for ej in basis] for ei in basis]


def center_oracle(alg):
    """The full nucleus cut down by the commutators with all dim basis elements.

    center() commutes with the generators t and the ring basis only.
    """
    maps = [alg._commutator_with(a) for a in alg.basis()]
    return alg._common_kernel(maps, alg._nucleus_coords("full"))


def quaternion_ring(weight="x"):
    """Q = (x^3, 2) over F_3(x) with delta = weight d/dx."""
    return QuaternionRing(instance_from_text("p = 3\ndelta_of_x = %s\nd = 0\n" % weight).K)


def quaternion_algebra(name):
    """The dim-36 quotient of Q[t; delta] by t^3 - t - d, delta = x d/dx.

    d = x i and d = x + j are constants of K-degree 1 that are not central;
    d = x is central and not constant.  None is associative.
    """
    Q = quaternion_ring()
    zero, one, x = Q.base.zero(), Q.base.one(), Q.base.x()
    d = {"x*i": Q.of(zero, x, zero, zero), "x": Q.embed(x), "x+j": Q.of(x, zero, one, zero)}[name]
    return ExtAlgebra(Q, minimal_p_polynomial(Q.base), d)


_QUATERNION_DS = ["x*i", "x", "x+j"]


@pytest.fixture(scope="module", params=_QUATERNION_DS)
def quaternion_alg(request):
    return request.param, quaternion_algebra(request.param)


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
        table = alg.structure_constants()
        for _ in range(40):
            u = alg.random_element(rng, 2)
            v = alg.random_element(rng, 2)
            via_table = table_product(alg, table, alg.coords(u), alg.coords(v))
            assert via_table == alg.coords(u * v)


def test_structure_constants_match_product_oracle(i1, i2, i3, i4):
    for alg in (i1, i2, i3, i4):
        assert alg.structure_constants() == table_oracle(alg)


# Weight 1/x wraps x^p with a coordinate denominator divisible by x, and d
# = (x + 1)/x^2 has coordinates whose gcd in y = x^p cancels.
@pytest.mark.parametrize("d", ["2", "(x^2+2*x+1)/(x^2+1)", "(x + 1)/x^2"])
@pytest.mark.parametrize("weight", ["x", "1", "x^2 + 1", "1/x"])
def test_structure_constants_match_product_oracle_p3(weight, d):
    alg = p3_algebra(weight, d)
    assert alg.structure_constants() == table_oracle(alg)


def test_structure_constants_match_product_oracle_p5():
    alg = instance_from_text("p = 5\ndelta_of_x = x\nd = x\n").algebra
    assert alg.dim == 25
    assert alg.structure_constants() == table_oracle(alg)


def test_structure_constants_match_product_oracle_quaternion(quaternion_alg):
    _, alg = quaternion_alg
    assert alg.dim == 36
    assert alg.structure_constants() == table_oracle(alg)


def test_structure_constants_check_every_entry_is_constant(monkeypatch):
    # Coordinates that leave F (x times the constant ones) must be caught.
    alg = p3_algebra("x", "x")
    honest = DerivedField.coords
    x = alg.ring.x()
    monkeypatch.setattr(DerivedField, "coords", lambda K, a: tuple(x * c for c in honest(K, a)))
    with pytest.raises(InternalInvariantViolation, match="not in F"):
        alg.structure_constants()
    assert alg._table is None


def test_structure_table_guard_refuses_before_any_work(monkeypatch):
    # Exponent-one instances have dim p^2: p = 13 is built, p = 17 refused.
    assert 169 ** 3 <= MAX_TABLE_ENTRIES < 289 ** 3
    alg = instance_from_text("p = 17\ndelta_of_x = x\nd = x\n").algebra
    calls = []
    monkeypatch.setattr(DerivedField, "coords", lambda K, a: calls.append(a))
    monkeypatch.setattr(DerivedField, "delta", lambda K, a: calls.append(a))
    with pytest.raises(UnsupportedInstance, match="MAX_TABLE_ENTRIES"):
        alg.structure_constants()
    assert not calls and alg._table is None


def _sweep_algebra(p, weight, d, g=None):
    text = "p = %d\ndelta_of_x = %s\nd = %s\n" % (p, weight, d)
    return instance_from_text(text + ("g = %s\n" % g if g else "")).algebra


# (p, delta(x), d, declared g): every weight at p = 2, 3, 5 and 7 with d
# in F and not, and the declared g = t^4 + t^2 = z1^2 + z1 at p = 2.
_PRODUCT_SWEEP = [
    (p, w, d, None)
    for p in (2, 3, 5, 7)
    for w in ("x", "1", "x^2 + 1", "1/x")
    for d in ("x", "x^%d" % p)
] + [(2, "1", "x", "t^4 + t^2"), (2, "1", "x^2", "t^4 + t^2")]


def _sweep_elements(alg, rng):
    # Full random elements, sparse ones (every other coefficient zero, some
    # of degree below m - 1), the powers of t, and 0 and 1.
    m, zero = alg.f.degree(), alg.ring.zero()
    full = [alg.random_element(rng, 2) for _ in range(3)]
    sparse = [
        alg.element(DiffPoly(alg.ring, [c if i % 2 == k else zero for i, c in enumerate(u.rep.coeffs)]))
        for k, u in enumerate(full[:2])
    ]
    powers = [alg.element(DiffPoly(alg.ring, (zero,) * i + (alg.ring.one(),))) for i in (1, m - 1)]
    return full + sparse + powers + [alg.zero(), alg.one()]


def _check_products_against_oracles(alg, rng, pairs):
    elems = _sweep_elements(alg, rng)
    for _ in range(pairs):
        u, v = rng.choice(elems), rng.choice(elems)
        assert u.rep * v.rep == product_by_t_steps(u.rep, v.rep)
        assert u * v == quotient_product(u, v), (u, v)


@pytest.mark.parametrize(
    "p,weight,d,g", _PRODUCT_SWEEP, ids=["p%d-w(%s)-d(%s)%s" % (p, w, d, "-" + g if g else "") for p, w, d, g in _PRODUCT_SWEEP]
)
def test_products_match_the_t_step_and_quotient_oracles(p, weight, d, g):
    alg = _sweep_algebra(p, weight, d, g)
    _check_products_against_oracles(alg, random.Random("sweep:%d:%s:%s:%s" % (p, weight, d, g)), 20)


@pytest.mark.parametrize("name", _QUATERNION_DS)
def test_quaternion_products_match_the_t_step_and_quotient_oracles(name):
    alg = quaternion_algebra(name)
    _check_products_against_oracles(alg, random.Random("sweep-q:" + name), 8)


# K at p = 2, 3 and 5, the declared g = t^4 + t^2 at p = 2, and Q at p = 3.
_REDUCTION_CASES = {
    "p2": lambda: _sweep_algebra(2, "x", "x"),
    "p3": lambda: _sweep_algebra(3, "x^2 + 1", "x"),
    "p5": lambda: _sweep_algebra(5, "1/x", "x^5 + x"),
    "p2-t^4+t^2": lambda: _sweep_algebra(2, "1", "x", "t^4 + t^2"),
    "p3-quaternion": lambda: quaternion_algebra("x+j"),
}


@pytest.mark.parametrize("name", list(_REDUCTION_CASES))
def test_element_reduces_a_representative_by_right_division(name):
    # element(q f + r) is the class of r, stored as r itself, for every q
    # and every r of degree below m.
    alg = _REDUCTION_CASES[name]()
    ring, m = alg.ring, alg.f.degree()
    rng = random.Random("reduce:" + name)
    for r in [alg.random_element(rng, 1).rep for _ in range(3)] + [DiffPoly.zero(ring)]:
        top = ring.zero()
        while not top:
            top = ring.random_element(rng, 1)
        q = DiffPoly(ring, [ring.random_element(rng, 1) for _ in range(rng.randrange(m + 1))] + [top])
        u = alg.element(q * alg.f + r)
        assert u == alg.element(r) and u.rep == r


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
        assert alg.is_associative() == table_is_associative(alg)


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


@pytest.fixture(scope="module", params=["x", "1", "x^2 + 1"])
def p3_rational_d(request):
    alg = p3_algebra(request.param, "(x^2+1)/((x+1)*(x+2))")
    return alg, table_nuclei(alg)


@pytest.mark.parametrize("which", ["left", "middle", "right", "full"])
def test_nucleus_matches_table_engine_rational_d(p3_rational_d, which):
    alg, oracle = p3_rational_d
    assert [alg.coords(e) for e in alg.nucleus(which)] == oracle[which]


# Over Q the left and middle nuclei are Q (Petit), the right nucleus is the
# centralizer of d, and associativity is "d in F".  The oracles: associator
# maps built from element products, the eigenring map u |-> (f u) mod f and
# right-invariance of f.  The whole associator sweep over basis pairs costs
# too much at dim 36, so the left and middle oracles take one map each,
# [v, t^2, t] and [t^2, v, t].  Its kernel holds the nucleus, and Q lies in
# the nucleus because f is monic, so a kernel of dimension 4p = 12 is the
# nucleus.
def _top_associator_maps(alg):
    """The maps v |-> [v, t^(m-1), t] and v |-> [t^(m-1), v, t], by element products."""
    t = alg.t()
    top = alg.one()
    for _ in range(alg.f.degree() - 1):
        top = top * t
    return {
        "left": alg._on_coords(lambda v: [alg.associator(v, top, t)]),
        "middle": alg._on_coords(lambda v: [alg.associator(top, v, t)]),
    }


def test_quaternion_left_and_middle_nuclei_are_q(quaternion_alg):
    _, alg = quaternion_alg
    units = alg._units(alg.dim)
    q = units[: alg.ring.dim_over_constants]
    assert len(q) == 12
    for slot, fn in _top_associator_maps(alg).items():
        assert alg._common_kernel([fn], units) == q
        assert [alg.coords(e) for e in alg.nucleus(slot)] == q
    # Q is left and middle nuclear, sampled.
    rng = random.Random("quat-nuclear:%s" % alg.d)
    for b in alg.ring.constant_basis():
        u, v, a = alg.random_element(rng, 1), alg.random_element(rng, 1), alg.scalar(b)
        assert not alg.associator(a, u, v) and not alg.associator(u, a, v)


def test_quaternion_right_and_full_nuclei_match_eigenring_map(quaternion_alg):
    name, alg = quaternion_alg
    units = alg._units(alg.dim)
    eigen = alg._on_coords(lambda u: [alg.element(alg.f * u.rep)])
    cut = list(_top_associator_maps(alg).values())
    right = alg._common_kernel([eigen], units)
    full = alg._common_kernel([eigen] + cut, units)
    assert [alg.coords(e) for e in alg.nucleus("right")] == right
    assert [alg.coords(e) for e in alg.nucleus("full")] == full
    # d = x is central, so right = Q; otherwise K + K d, of degree 0.
    assert len(right) == len(full) == {"x*i": 6, "x": 12, "x+j": 6}[name]
    assert all(e.degree() <= 0 for e in alg.nucleus("right"))


def test_quaternion_center_matches_all_basis_commutators(quaternion_alg):
    _, alg = quaternion_alg
    center = alg.center()
    assert [alg.coords(z) for z in center] == center_oracle(alg)
    assert basis_str(center) == "1"


@pytest.mark.parametrize(
    "p,weight",
    [(3, "x"), (5, "x"), (3, "x^2 + 1"), (5, "x^2 + 1")],
    ids=["p3-x", "p5-x", "p3-x2+1", "p5-x2+1"],
)
def test_quaternion_is_associative_matches_right_invariance(p, weight):
    K = instance_from_text("p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)).K
    Q = QuaternionRing(K)
    zero, one, x = K.zero(), K.one(), K.x()
    g = minimal_p_polynomial(K)
    # Central constants, then a central non-constant, then constants that
    # are not central, then a random d.
    ds = [Q.zero(), Q.one(), Q.embed(x ** p), Q.embed(x)]
    ds += [Q.of(zero, one, zero, zero), Q.of(zero, zero, one, zero), Q.of(zero, x ** p, zero, one)]
    ds.append(Q.random_element(random.Random("quat-assoc:%d:%s" % (p, weight)), 1))
    rng = random.Random("quat-assoc-samples")
    verdicts = []
    for d in ds:
        alg = ExtAlgebra(Q, g, d)
        assert alg.dim == 4 * p * p
        assert alg.is_associative() == is_right_invariant(alg.f), d
        verdicts.append(alg.is_associative())
        if verdicts[-1]:
            u, v, w = (alg.random_element(rng, 1) for _ in range(3))
            assert not alg.associator(u, v, w)
    assert verdicts == [True] * 3 + [False] * (len(ds) - 3)


def test_quaternion_algebra_smoke():
    # d = 0 is a central constant: the quotient of Q[t; delta] by the
    # minimal g is associative, by the verdict and by the structure table.
    Q = quaternion_ring()
    alg = ExtAlgebra(Q, minimal_p_polynomial(Q.base), Q.zero())
    assert alg.dim == 36
    assert alg.is_associative()
    assert table_is_associative(alg)
    rng = random.Random(2)
    u, v, w = (alg.random_element(rng, 1) for _ in range(3))
    assert not alg.associator(u, v, w)


def test_exponent_two_nuclei_match_table_engine():
    # g = t^4 + t^2 annihilates x d/dx over F_2 but is not minimal.  Left
    # and middle are still K; the right nucleus is the larger eigenring.
    alg = instance_from_text("p = 2\ndelta_of_x = x\nd = x\ng = t^4 + t^2\n").algebra
    oracle = table_nuclei(alg)
    for which in ("left", "middle", "right", "full"):
        assert [alg.coords(e) for e in alg.nucleus(which)] == oracle[which]
    assert [len(oracle[w]) for w in ("left", "middle", "right")] == [2, 2, 4]
    x, t = alg.scalar(alg.ring.x()), alg.t()
    eigen = [alg.one(), x, t * t + t, x * (t * t + t)]
    assert span_coords(alg, alg.nucleus("right")) == span_coords(alg, eigen)


# The right and full nuclei over K come from the centralizer of d and left =
# middle = K, associativity from d in F; the oracles are the eigenring map
# u |-> (f u) mod f over every basis vector, and right-invariance of f.
_EIGEN_CASES = [
    (p, w, None) for p in (2, 3, 5) for w in ("x", "1", "x^2 + 1", "1/x", "(x+1)/x")
] + [
    (2, "x", "t^4 + t^2"),
    (2, "1/x", "t^4 + (1/(x^4))*t^2"),
    (2, "(x+1)/x", "t^4 + (1/(x^4))*t^2"),
    (3, "x", "t^9 + 2*t^3"),
    (3, "(x+1)/x", "t^9 + (1/(x^9))*t^3"),
]


@pytest.mark.parametrize(
    "p,weight,g_text",
    _EIGEN_CASES,
    ids=[("p%d-%s-%s" % c).replace(" ", "") for c in _EIGEN_CASES],
)
def test_right_and_full_nuclei_match_eigenring_map(p, weight, g_text):
    text = "p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)
    inst = instance_from_text(text + ("g = %s\n" % g_text if g_text else ""))
    K, g = inst.K, inst.g
    assert g.e == (2 if g_text else 1)
    rng = random.Random("eigen:%d:%s:%s" % (p, weight, g_text))
    d = random_ratfunc(K, rng, 2)
    while K.is_constant(d):
        d = random_ratfunc(K, rng, 2)
    # A p-th power is a constant.
    for d in (random_ratfunc(K, rng, 1, nonzero=True) ** p, d):
        alg = ExtAlgebra(K, g, d)
        invariant = is_right_invariant(alg.f)
        assert alg.is_associative() == invariant == K.is_constant(d)
        units = alg._units(alg.dim)
        eigen = alg._on_coords(lambda u: [alg.element(alg.f * u.rep)])
        right = alg._common_kernel([eigen], units)
        full = alg._common_kernel([eigen], units if invariant else units[:p])
        assert [alg.coords(e) for e in alg.nucleus("right")] == right
        assert [alg.coords(e) for e in alg.nucleus("full")] == full
        if not invariant:
            # Exponent one: the system is triangular, right = K; exponent
            # two reaches past K.
            assert (len(right) == p) == (g.e == 1)


def test_algebra_refuses_g_that_does_not_annihilate_delta():
    # t^2 does not annihilate x d/dx over F_2 (delta^2 = delta), so t^2 is
    # not central and d in F would not make the quotient associative.
    K = DerivedField(2, RatFunc(DensePoly(PrimeField(2), (0, 1)), DensePoly.one(PrimeField(2))))
    g = PPolynomial(2, 1, (K.zero(),))
    with pytest.raises(GNotAnnihilating):
        ExtAlgebra(K, g, K.one())
    # The same for t^3 and x d/dx over F_3, over K and over Q.
    Q = quaternion_ring()
    g = PPolynomial(3, 1, (Q.base.zero(),))
    for ring in (Q.base, Q):
        with pytest.raises(GNotAnnihilating):
            ExtAlgebra(ring, g, ring.one())


def test_algebra_refuses_annihilating_g_with_coefficients_outside_f():
    # Over x d/dx at p = 3, delta^3 = delta, so g = t^9 + x t^3 - (1 + x) t
    # has g(delta) = delta + x delta - (1 + x) delta = 0.  But x is not in F,
    # so g(t) does not commute with t and the quotient is no algebra of the
    # paper: its associators need not vanish even with d = 0.
    Q = quaternion_ring()
    K = Q.base
    x = K.x()
    g = PPolynomial(3, 2, (x, -(K.one() + x)))
    assert g.annihilates(K)
    gt, t = p_poly_as_diffpoly(g, K), DiffPoly.t(K)
    assert gt * t != t * gt
    for ring in (K, Q):
        with pytest.raises(GNotAnnihilating, match="outside F"):
            ExtAlgebra(ring, g, ring.zero())


def test_structure_queries_constant_d():
    # A constant d makes the algebra associative: the nucleus is everything,
    # while the center and Cent(t) stay small.
    alg = p3_algebra("x^2 + 1", "2")
    assert len(alg.nucleus("full")) == 9
    assert basis_str(alg.center()) == "1"
    assert basis_str(alg.centralizer([alg.t()])) == "1, t, t^2"


def _nuclei_by_independent_maps(alg):
    """Every slot from maps the library does not use, cut from every basis
    vector: the top associators for left and middle, the eigenring map
    u |-> (f u) mod f for right, and all three for full."""
    units = alg._units(alg.dim)
    maps = _top_associator_maps(alg)
    maps["right"] = alg._on_coords(lambda u: [alg.element(alg.f * u.rep)])
    out = {slot: alg._common_kernel([fn], units) for slot, fn in maps.items()}
    out["full"] = alg._common_kernel(list(maps.values()), units)
    return out


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# Exponent one over K: the shipped configs, then a constant and a rational d
# at p = 3 for three weights.
_E1_CASES = {path.name: path.read_text() for path in sorted(_CONFIGS.glob("*.cfg"))}
_E1_CASES.update(
    ("p3-%s-%s" % (wid, did), "p = 3\ndelta_of_x = %s\nd = %s\n" % (w, d))
    for wid, w in (("x", "x"), ("1", "1"), ("x2+1", "x^2 + 1"))
    for did, d in (("constant", "2*x^3 + 1"), ("rational", "(x + 1)/(x^2 + 1)"))
)
# Exponent two over K, where the right nucleus reaches past K.
_NUCLEUS_CASES = {
    **_E1_CASES,
    "p2-e2-x": "p = 2\ndelta_of_x = x\nd = x\ng = t^4 + t^2\n",
    "p3-e2-x": "p = 3\ndelta_of_x = x\nd = x\ng = t^9 + 2*t^3\n",
}


@pytest.mark.parametrize("text", list(_NUCLEUS_CASES.values()), ids=list(_NUCLEUS_CASES))
def test_nuclei_match_associator_and_eigenring_maps(text):
    alg = instance_from_text(text).algebra
    oracle = _nuclei_by_independent_maps(alg)
    for which in ("left", "middle", "right", "full"):
        assert [alg.coords(e) for e in alg.nucleus(which)] == oracle[which], which


def test_quaternion_nuclei_match_associator_and_eigenring_maps():
    alg = quaternion_algebra("x+j")
    oracle = _nuclei_by_independent_maps(alg)
    for which in ("left", "middle", "right", "full"):
        assert [alg.coords(e) for e in alg.nucleus(which)] == oracle[which], which


def test_nucleus_builds_only_the_unit_vectors_it_starts_from():
    # At p = 41 (dim 1,681) every slot is K, cut from its p unit vectors;
    # a dim x dim identity alone holds tens of MB.  Memory, not time, is
    # bounded: it does not vary with the host.
    alg = instance_from_text("p = 41\ndelta_of_x = x\nd = x\n").algebra
    for which in ("left", "right", "full"):
        tracemalloc.start()
        try:
            basis = alg.nucleus(which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) == 41, which
        assert peak < 8 * 10 ** 6, (which, peak)


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


_CENTER_CASES = [
    (p, w, None, d)
    for p in (2, 3, 5)
    for w in ("x", "1", "x^2+1", "1/x")
    for d in ("x", "x^%d" % p, "0", "(x+1)/(x^2+1)")
] + [
    (2, w, g, d)
    for w, g in (("x", "t^4 + t^2"), ("1/x", "t^4 + (1/(x^4))*t^2"))
    for d in ("x", "x^2")
] + [
    (3, "(x+1)/x", "t^9 + (1/(x^9))*t^3", d) for d in ("x", "x^3")
]


@pytest.mark.parametrize(
    "p,weight,g_text,d",
    _CENTER_CASES,
    ids=[("p%d-%s-%s-%s" % c).replace(" ", "") for c in _CENTER_CASES],
)
def test_center_from_generators_matches_all_basis_commutators(p, weight, g_text, d):
    text = "p = %d\ndelta_of_x = %s\nd = %s\n" % (p, weight, d)
    alg = instance_from_text(text + ("g = %s\n" % g_text if g_text else "")).algebra
    assert [alg.coords(z) for z in alg.center()] == center_oracle(alg)


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


def test_centralizer_rejects_element_of_another_algebra(i1, i3):
    with pytest.raises(ValueError):
        i3.centralizer([i1.t()])


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


def _digits(code, p, width):
    return [(code // p ** k) % p for k in range(width)]


def brute_force_factor(alg, bound):
    """The enumeration the factor search replaced: one V_g per candidate.

    Denominators run monic by degree then base-p code, nonzero numerators
    by code inside each denominator block, and zero comes last.
    """
    ring, K = alg.ring, alg.base_field
    p = K.p
    for dd in range(bound + 1):
        for dcode in range(p ** dd):
            den = DensePoly(K.field, _digits(dcode, p, dd) + [1])
            for ncode in range(1, p ** (bound + 1)):
                num = DensePoly(K.field, _digits(ncode, p, bound + 1))
                b = ring.embed(RatFunc(num, den))
                if v_g(ring, alg.g, b) == alg.d:
                    return b
    zero = ring.embed(K.zero())
    return zero if v_g(ring, alg.g, zero) == alg.d else None


def _fraction_of_height(K, rng, height):
    p = K.p
    num = DensePoly(K.field, [rng.randrange(p) for _ in range(height)] + [rng.randrange(1, p)])
    den = DensePoly(K.field, [rng.randrange(p) for _ in range(rng.randrange(height + 1))] + [1])
    return RatFunc(num, den)


@pytest.mark.parametrize("p,bounds", [(2, range(4)), (3, range(3))], ids=["p2", "p3"])
@pytest.mark.parametrize("weight", ["x", "1", "x^2 + 1"])
def test_factor_search_matches_enumeration(p, bounds, weight):
    K = instance_from_text("p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)).K
    g = minimal_p_polynomial(K)
    rng = random.Random("%d:%s" % (p, weight))
    for bound in bounds:
        ds = [
            K.zero(),
            _fraction_of_height(K, rng, 2),
            v_g(K, g, _fraction_of_height(K, rng, bound)),
            v_g(K, g, _fraction_of_height(K, rng, bound + 1)),
        ]
        for d in ds:
            alg = ExtAlgebra(K, g, d)
            assert str(alg.linear_right_factor_search(bound)) == str(brute_force_factor(alg, bound))


def _planted_fraction(K, rng, num_deg, den_deg):
    """A b0 with deg num b0 = num_deg and monic den of degree den_deg, before reduction."""
    p = K.p
    num = DensePoly(K.field, [rng.randrange(p) for _ in range(num_deg)] + [rng.randrange(1, p)])
    den = DensePoly(K.field, [rng.randrange(p) for _ in range(den_deg)] + [1])
    return RatFunc(num, den)


_CAP_WEIGHTS = ("x", "1", "x^2 + 1", "x^3 + x + 1", "1/x", "x/(x+1)")


@pytest.mark.parametrize(
    "p,bounds", [(2, (2, 3, 4)), (3, (1, 2, 3)), (5, (1, 2)), (7, (1, 2))], ids=["p2", "p3", "p5", "p7"]
)
def test_degree_cap_keeps_every_witness_on_planted_instances(p, bounds):
    # d = V_g(b0) for planted b0 with deg num b0 above, equal to and below
    # deg den b0, around the bound, over weights with poles and zeros at
    # infinity.  The capped search returns what the uncapped enumeration
    # and the brute-force V_g loop return, and each (p, weight) meets at
    # least one d the cap prunes and one it leaves whole.
    for weight in _CAP_WEIGHTS:
        K = instance_from_text("p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)).K
        g = minimal_p_polynomial(K)
        rng = random.Random("cap:%d:%s" % (p, weight))
        pruned = whole = 0
        for bound in bounds:
            shapes = [(bound + 2, 0), (bound + 1, 0), (bound, 0), (bound + 1, 1), (bound, 1),
                      (bound, bound), (bound - 1, bound), (0, bound), (1, bound + 1)]
            for num_deg, den_deg in shapes * 2:
                alg = ExtAlgebra(K, g, v_g(K, g, _planted_fraction(K, rng, max(num_deg, 0), den_deg)))
                c = alg._constant_scalar_d()
                got = alg.linear_right_factor_search(bound)
                columns = dext._vg_columns(K, alg.z1_split, c, bound)
                assert got == dext._bounded_height_witness(K, columns, bound, bound), (bound, alg.d)
                if p ** (2 * bound + 1) <= 343:
                    assert str(got) == str(brute_force_factor(alg, bound)), (bound, alg.d)
                if dext._denominator_cap(K, c, bound) < bound:
                    pruned += 1
                else:
                    whole += 1
        assert pruned and whole, weight


def test_degree_cap_needs_the_delta_term_in_its_threshold():
    # delta(x) = x^3 + x + 1 raises the pole order at infinity by sigma = 2,
    # so at p = 3 a pole of order 3 does not fix deg b: b0 = (2x + 1)/(x^2 + 1)
    # has a zero at infinity and V_g(b0) a pole of order 3.  A cap that read
    # only D = 3 would try deg v <= bound - 1 and miss it.
    K = instance_from_text("p = 3\ndelta_of_x = x^3 + x + 1\nd = 0\n").K
    g = minimal_p_polynomial(K)
    x, one = K.x(), K.one()
    b0 = (x + x + one) / (x * x + one)
    alg = ExtAlgebra(K, g, v_g(K, g, b0))
    c = alg._constant_scalar_d()
    assert len(c.num_coeffs) - len(c.den_coeffs) == 3
    assert dext._denominator_cap(K, c, 2) == 2
    assert alg.linear_right_factor_search(2) == b0


@pytest.mark.parametrize("p", [2, 3])
def test_factor_search_zero_d_picks_smallest_kernel_vector(p):
    # delta(x) = x^2 + x makes both x and x + 1 logarithmic derivatives, so
    # with d = 0 the first block already has a kernel of dimension 2.
    alg = instance_from_text("p = %d\ndelta_of_x = x^2 + x\nd = 0\n" % p).algebra
    for bound in (1, 2):
        assert str(alg.linear_right_factor_search(bound)) == str(brute_force_factor(alg, bound)) == "1"


def test_factor_search_matches_enumeration_over_quaternions():
    Q = quaternion_ring()
    K = Q.base
    g = minimal_p_polynomial(K)
    x = K.x()
    for c in (x ** 3, v_g(K, g, (x + K.one()) / x)):
        scalar = ExtAlgebra(Q, g, Q.embed(c))
        b = scalar.linear_right_factor_search(1)
        want = ExtAlgebra(K, g, c).linear_right_factor_search(1)
        assert b is not None and b == Q.embed(want)
        assert str(b) == str(brute_force_factor(scalar, 1))
    # V_g of a scalar is scalar, so no candidate reaches a d outside K.
    lone = quaternion_algebra("x*i")
    assert lone.linear_right_factor_search(1) is None
    assert brute_force_factor(lone, 1) is None


def _solved(system, p):
    """The solution set of (columns, rhs), by the row oracle."""
    try:
        return solve_mod_p(padded_rows(*system), p)
    except NoSolution:
        return None


def _first_solved(system, p):
    """solve_columns_mod_p on (columns, rhs), or None when it is inconsistent."""
    try:
        return solve_columns_mod_p(*system, p)
    except NoSolution:
        return None


def _plain(system):
    """(columns, rhs) as coefficient tuples with no trailing zero.

    The library's columns may be bytes and carry zero entries on top, which
    the solver reads as they are.
    """

    def trim(c):
        c = list(c)
        while c and not c[-1]:
            c.pop()
        return tuple(c)

    columns, rhs = system
    return [trim(c) for c in columns], trim(rhs)


_ROW_CASES = [
    (p, w, None, bounds)
    for p, bounds in (
        (2, range(4)), (3, range(3)), (5, range(2)), (7, range(2)),
        # Two-byte slots in the column solver.
        (17, (1,)), (19, (1,)),
    )
    for w in ("x", "1", "x^2 + 1", "1/x", "(x+1)/x")
] + [
    # Declared exponent-two g = z1^p; with weights 1/x and (x+1)/x, a in
    # z1 = t^p - a t has a denominator, which the columns clear, and the
    # chain's level two takes (p-1) p derivations.
    (2, "x", "t^4 + t^2", range(3)),
    (2, "1/x", "t^4 + (1/(x^4))*t^2", range(3)),
    (2, "(x+1)/x", "t^4 + (1/(x^4))*t^2", range(3)),
    (3, "(x+1)/x", "t^9 + (1/(x^9))*t^3", range(2)),
    # g = h(z1) with h not a power of s, z1^2 + z1 and z1^3 + z1; and the
    # exponent-three z1^4.
    (2, "x", "t^4 + t", range(3)),
    (3, "x", "t^9 + 2*t", range(2)),
    (2, "x", "t^8 + t^4", range(3)),
]


@pytest.mark.parametrize(
    "p,weight,g_text,bounds",
    _ROW_CASES,
    ids=[("p%d-%s-%s" % c[:3]).replace(" ", "") for c in _ROW_CASES],
)
def test_fraction_free_rows_match_coords_route(p, weight, g_text, bounds):
    # The coords route, V_g expanded honestly and read in coordinates, and
    # the per-numerator chain are the oracles: per denominator, the three
    # systems have the same solutions (read by the row oracle), so the
    # search returns the same witness.
    text = "p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)
    alg = instance_from_text(text + ("g = %s\n" % g_text if g_text else "")).algebra
    K, g = alg.ring, alg.g
    assert (g.e == 1) == (g_text is None)
    rng = random.Random("rows:%d:%s:%s" % (p, weight, g_text))
    fn = lambda u: K.coords(v_g(K, g, u))
    for bound in bounds:
        ds = [
            K.zero(),
            _fraction_of_height(K, rng, 2),
            v_g(K, g, _fraction_of_height(K, rng, bound)),
            v_g(K, g, _fraction_of_height(K, rng, bound + 1)),
        ]
        for d in ds:
            fast = dext._vg_columns(K, alg.z1_split, d, bound)
            slow = coords_columns(K, fn, K.coords(d), bound)
            chain = _chain_vg_columns(K, g, d, bound)
            for den in dext._fraction_candidates(K, bound):
                want = _solved(slow(den), p)
                assert _solved(fast(den), p) == want == _solved(chain(den), p), (bound, d, den)
                first = None if want is None else (want[0], want[1][0] if want[1] else None)
                assert _first_solved(fast(den), p) == first, (bound, d, den)
                if g.e == 1:
                    assert _plain(fast(den)) == _plain(chain(den)), (bound, d, den)
            got = dext._bounded_height_witness(K, fast, bound, bound)
            assert got == dext._bounded_height_witness(K, slow, bound, bound), (bound, d)
            if got is not None:
                assert v_g(K, g, got) == d


def test_vg_rows_refuses_denominator_above_the_row_bound():
    # The level-one table is built for deg v <= degree; a larger v would
    # need Phi(k) past the table, so columns(v) refuses it.
    K = instance_from_text("p = 3\ndelta_of_x = x\nd = 0\n").K
    columns = dext._vg_columns(K, z1_split(K, minimal_p_polynomial(K)), K.zero(), 2)
    assert columns(DensePoly(K.field, [1, 0, 1]))[0]
    with pytest.raises(ValueError, match="search bound 2"):
        columns(DensePoly(K.field, [0, 0, 0, 1]))


def _chain_vg_columns(K, g, d, degree):
    """_vg_columns with one derivation chain per numerator x^i at every level.

    The reference for dext._vg_columns, which builds level one from a table
    made once per search and reaches e >= 2 as h(V_z1) instead.
    This chain clears V_g = V_(p^e) + sum a_j V_(p^(e-j)) by v^(p^e) and
    the denominators of d, of delta(x) and of the a_j.
    """
    p, e = K.p, g.e
    W, S = K.delta_of_x.num_coeffs, K.delta_of_x.den_coeffs
    dS = _derivative(S, p)
    s_top = (1,)
    for _ in range(2 * (p - 1)):
        s_top = _mul(s_top, S, p)
    s_tops = [s_top]
    for _ in range(1, e):
        s_tops.append(_frobenius(s_tops[-1], p))
    big_b = (1,)
    for a in g.coeffs:
        big_b = _mul(big_b, a.den_coeffs, p)
    dn, dd = d.num_coeffs, d.den_coeffs
    top_scale = _mul(big_b, dd, p)
    a_scales = [
        (j, _mul(_mul(a.num_coeffs, _exquo(big_b, a.den_coeffs, p), p), dd, p))
        for j, a in enumerate(g.coeffs, start=1)
        if a
    ]
    rhs_scale = _mul(dn, big_b, p)

    def delta_power(r, n):
        for k in range(0, 2 * n, 2):
            t = _mul(_derivative(r, p), S, p)
            if k % p and dS:
                t = _add(t, _mul(((-k) % p,), _mul(r, dS, p), p), p)
            r = _mul(W, t, p)
        return r

    def columns(den):
        nums, q = [(0,) * i + (1,) for i in range(degree + 1)], den.coeffs
        levels = [(nums, q)]
        for level, s_top in enumerate(s_tops):
            n = (p - 1) * p ** level
            lift = (1,)
            for _ in range(p - 1):
                lift = _mul(lift, q, p)
            nums = [
                _add(_mul(_frobenius(P, p), s_top, p), delta_power(_mul(lift, P, p), n), p)
                for P in nums
            ]
            q = _mul(_frobenius(q, p), s_top, p)
            levels.append((nums, q))
        lhs = [_mul(P, top_scale, p) for P in nums]
        for j, a_scale in a_scales:
            nums_j, q_j = levels[e - j]
            scale = _mul(a_scale, _exquo(q, q_j, p), p)
            lhs = [_add(c, _mul(scale, P, p), p) for c, P in zip(lhs, nums_j)]
        return lhs, _mul(rhs_scale, q, p)

    return columns


_WRAP_CASES = [
    (p, w, None, bounds)
    for p, bounds in ((3, (3, 4)), (5, (5, 6)), (7, (7,)))
    for w in ("x", "1/x", "(x+1)/x")
] + [
    (3, "(x+1)/x", "t^9 + (1/(x^9))*t^3", (3,)),
    # Two-byte slots in the packed level-one table; (x+1)/x has S' != 0.
    (11, "(x+1)/x", None, (2,)),
    (13, "x", None, (2,)),
]


@pytest.mark.parametrize(
    "p,weight,g_text,bounds",
    _WRAP_CASES,
    ids=[("p%d-%s-%s" % c[:3]).replace(" ", "") for c in _WRAP_CASES],
)
def test_level_one_rows_match_per_monomial_chain_past_p(p, weight, g_text, bounds):
    # Numerators x^i with i >= p, and table entries Phi(k) with k >= p,
    # where the falling factorials (k)_l wrap mod p; weights 1/x and
    # (x+1)/x have S' != 0.
    # At e = 1 both builders clear the same identity by the same factors, so
    # the columns are equal, not only equivalent.  At e = 2 _vg_columns
    # clears h(V_z1(N/v)) = d by (dd B1 q_1)^p T, not by the chain's
    # v^(p^2) L, so the systems are compared by their solutions.  The denominators are every
    # monic one of degree <= 2 and three of degree bound; p = 3 also runs
    # both whole searches.
    text = "p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)
    alg = instance_from_text(text + ("g = %s\n" % g_text if g_text else "")).algebra
    K, g = alg.ring, alg.g
    rng = random.Random("wrap:%d:%s:%s" % (p, weight, g_text))
    for bound in bounds:
        dens = list(dext._fraction_candidates(K, 2)) + [
            DensePoly(K.field, [rng.randrange(p) for _ in range(bound)] + [1]) for _ in range(3)
        ]
        ds = [
            K.zero(),
            _fraction_of_height(K, rng, 2),
            v_g(K, g, _fraction_of_height(K, rng, bound)),
        ]
        for d in ds:
            fast, slow = dext._vg_columns(K, alg.z1_split, d, bound), _chain_vg_columns(K, g, d, bound)
            for den in dens:
                if g.e == 1:
                    assert _plain(fast(den)) == _plain(slow(den)), (bound, d, den)
                else:
                    assert _solved(fast(den), p) == _solved(slow(den), p), (bound, d, den)
            if p == 3:
                assert dext._bounded_height_witness(K, fast, bound, bound) == dext._bounded_height_witness(
                    K, slow, bound, bound
                ), (bound, d)


def test_search_guard_refuses_before_any_work(monkeypatch, drawn_denominators):
    # d is in F, so the search runs; its only factor, t - x^10, lies above 4.
    # Every solution has pole order 10 at infinity, so the degree cap is
    # bound - 10, and the guard counts the denominators to the cap.
    alg = instance_from_text("p = 2\ndelta_of_x = x\nd = x^20 + x^10\n").algebra
    # 31 monic denominators of degree <= 4 over F_2; 63 up to degree 5.
    monkeypatch.setattr(dext, "MAX_SEARCH_DENOMINATORS", 31)
    # Cap -5: no denominator is drawn, so none is counted.
    assert alg.linear_right_factor_search(5) is None and drawn_denominators == []
    # Caps 30 and 10^9 - 10: refused before the first denominator.
    for bound in (40, 10 ** 9):
        with pytest.raises(UnsupportedInstance, match="MAX_SEARCH_DENOMINATORS"):
            alg.linear_right_factor_search(bound)
    assert drawn_denominators == []
    # Cap 4 at bound 14 runs, and v = 1 holds the witness; cap 5 is refused.
    assert alg.linear_right_factor_search(14) == alg.ring.x() ** 10
    assert [str(v) for v in drawn_denominators] == ["1"]
    with pytest.raises(UnsupportedInstance, match="MAX_SEARCH_DENOMINATORS"):
        alg.linear_right_factor_search(15)


def test_degree_cap_draws_only_the_denominators_a_first_witness_can_have(drawn_denominators):
    # d = x^20 + x^10 at p = 2 over x d/dx (sigma = 0): every solution has
    # pole order 10 at infinity.  At bound 10 the cap is 0 and v = 1 holds
    # the witness x^10; at bound 8 the uncapped search draws all 511
    # denominators and finds nothing, as the capped one does with none.
    alg = instance_from_text("p = 2\ndelta_of_x = x\nd = x^20 + x^10\n").algebra
    K = alg.ring
    c = alg._constant_scalar_d()
    assert alg.linear_right_factor_search(10) == K.x() ** 10
    assert [str(v) for v in drawn_denominators] == ["1"]
    del drawn_denominators[:]
    assert alg.linear_right_factor_search(8) is None and drawn_denominators == []
    assert dext._bounded_height_witness(K, dext._vg_columns(K, alg.z1_split, c, 8), 8, 8) is None
    assert len(drawn_denominators) == 511


def test_division_verdict_misses_factor_above_bound():
    # d = x^20 + x^10 is in F, so no theorem answers: the search does.  Its
    # only factor, t - x^10, lies above bound 4.
    alg = instance_from_text("p = 2\ndelta_of_x = x\nd = x^20 + x^10\n").algebra
    K = alg.ring
    assert v_g(K, alg.g, K.x() ** 10) == alg.d
    assert alg.division_verdict(4) == ("unknown (bound exhausted)", None)
    assert alg.division_verdict(10) == ("not division (witness)", K.x() ** 10)


def test_division_verdicts(i1, i2, i3):
    # I1 and I3: d = x is not in F, so f is irreducible (Fact B).
    for alg, bound in ((i1, 4), (i3, 1)):
        assert alg.division_verdict(bound) == ("division (proved)", None)
    # I2 is associative with zero divisors: witness x found.
    verdict, witness = i2.division_verdict(4)
    assert verdict == "not division (witness)" and witness == i2.ring.x()
    # d = x^3 in F at p = 3: bound 0 misses the factor t - x.
    alg = instance_from_text("p = 3\ndelta_of_x = x\nd = x^3\n").algebra
    assert alg.division_verdict(0) == ("unknown (bound exhausted)", None)
    assert alg.division_verdict(1) == ("not division (witness)", alg.ring.x())


_FACT_B_WEIGHTS = ("x", "1", "x^2 + 1", "1/x", "(x+1)/x")


def _no_candidates(K, bound):
    raise AssertionError("a search ran")


@pytest.mark.parametrize("p,count,bound", [(2, 3, 3), (3, 3, 2), (5, 1, 1)], ids=["p2", "p3", "p5"])
def test_division_proved_without_search_for_d_not_in_f(monkeypatch, p, count, bound):
    # The verdict comes before any search.  Oracles: no linear right factor
    # up to a small bound (V_g(K) lies in F, Fact A), and at p <= 3 no zero
    # divisor among sampled elements, probed once per weight.
    rng = random.Random("factb:%d" % p)
    for weight in _FACT_B_WEIGHTS:
        K = instance_from_text("p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)).K
        for i in range(count):
            d = random_ratfunc(K, rng, 2)
            while K.is_constant(d):
                d = random_ratfunc(K, rng, 2)
            alg = ExtAlgebra(K, minimal_p_polynomial(K), d)
            with monkeypatch.context() as m:
                m.setattr(dext, "_fraction_candidates", _no_candidates)
                assert alg.division_verdict(10 ** 9) == ("division (proved)", None)
            assert alg.linear_right_factor_search(bound) is None, (weight, d)
            if p <= 3 and i == 0:
                assert alg.is_division_probe(rng, samples=8), (weight, d)


@pytest.mark.parametrize("p,g_text", [(2, "t^4 + t^2"), (3, "t^9 + 2*t^3")], ids=["p2", "p3"])
def test_division_proved_at_exponent_two_for_d_not_in_f(monkeypatch, p, g_text):
    # g = (t^p - a t)^p is the closed form of p_polynomial_at_exponent, so
    # d = x not in F is proved before any search.  At p = 2 (dim 8 over F)
    # the probe is the oracle: no sampled element is a zero divisor.
    alg = instance_from_text("p = %d\ndelta_of_x = x\nd = x\ng = %s\n" % (p, g_text)).algebra
    assert alg.g == p_polynomial_at_exponent(alg.ring, 2)
    with monkeypatch.context() as m:
        m.setattr(dext, "_fraction_candidates", _no_candidates)
        assert alg.division_verdict(10 ** 9) == ("division (proved)", None)
    if p == 2:
        assert alg.is_division_probe(random.Random("factb-e2"), samples=150)


def test_division_at_exponent_two_searches_for_g_not_closed_form(monkeypatch):
    # t^4 + t annihilates x d/dx over F_2 (delta^2 = delta) but is not
    # (t^2 + t)^2, so Fact B does not apply and d = x not in F reads
    # "unknown".  It needs no search: V_g(K) lies in F (Fact A).  A d in F
    # does get the search.
    text = "p = 2\ndelta_of_x = x\nd = %s\ng = t^4 + t\n"
    alg = instance_from_text(text % "x").algebra
    in_f = instance_from_text(text % "x^2").algebra
    assert alg.g != p_polynomial_at_exponent(alg.ring, 2)
    assert in_f.division_verdict(2) == ("unknown (bound exhausted)", None)
    monkeypatch.setattr(dext, "_fraction_candidates", _no_candidates)
    assert alg.division_verdict(2) == ("unknown (bound exhausted)", None)
    with pytest.raises(AssertionError, match="a search ran"):
        in_f.division_verdict(2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_v_g_of_every_b_is_constant(p):
    # Fact A: g(t) and g(t - b) are central, so V_g(b) is a constant; over
    # the quaternion ring (odd p) V_g(embed b) = embed V_g(b).
    rng = random.Random("factA:%d" % p)
    for weight in _FACT_B_WEIGHTS:
        K = instance_from_text("p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)).K
        g = minimal_p_polynomial(K)
        Q = QuaternionRing(K) if p > 2 else None
        for _ in range(4):
            b = random_ratfunc(K, rng, 3)
            vb = v_g(K, g, b)
            assert K.is_constant(vb), (weight, b)
            if Q is not None:
                assert v_g(Q, g, Q.embed(b)) == Q.embed(vb)


_FACT_A_CASES = [(p, w, None) for p in (2, 3, 5) for w in _FACT_B_WEIGHTS] + [(2, "x", "t^4 + t")]


@pytest.mark.parametrize(
    "p,weight,g_text",
    _FACT_A_CASES,
    ids=[("p%d-%s-%s" % c).replace(" ", "") for c in _FACT_A_CASES],
)
def test_no_linear_factor_for_d_not_in_f_without_search(monkeypatch, p, weight, g_text):
    # V_g(K) lies in F (Fact A), so d not in F has no linear right factor:
    # the search returns None before enumerating a denominator, and at
    # p <= 3 the enumeration agrees at bound 1.
    text = "p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)
    inst = instance_from_text(text + ("g = %s\n" % g_text if g_text else ""))
    K, g = inst.K, inst.g
    rng = random.Random("factA-search:%d:%s:%s" % (p, weight, g_text))
    for _ in range(10):
        d = random_ratfunc(K, rng, 2)
        while K.is_constant(d):
            d = random_ratfunc(K, rng, 2)
        alg = ExtAlgebra(K, g, d)
        with monkeypatch.context() as m:
            m.setattr(dext, "_fraction_candidates", _no_candidates)
            assert alg.linear_right_factor_search(10 ** 9) is None
        if p <= 3:
            assert brute_force_factor(alg, 1) is None, d


@pytest.mark.parametrize(
    "p,bound,weight,g_text",
    [
        (3, 1, "x^2 + 1", None),
        (5, 1, "x^2 + 1", None),
        (3, 2, "x^2 + 1", None),
        # e = 2 over x d/dx, z1 = t^3 - t: g = h(z1) for h = s^3 and s^3 + s.
        (3, 2, "x", "t^9 + 2*t^3"),
        (3, 2, "x", "t^9 + 2*t"),
    ],
    ids=["p3", "p5", "p3-b2", "p3-b2-e2-z1^3", "p3-b2-e2-z1^3+z1"],
)
def test_quaternion_search_on_scalar_constant_matches_k(p, bound, weight, g_text):
    # d = embed(c) with c in F: Q searches V_g(b) = c over K, so it returns
    # the embedded K witness, or None with it.
    text = "p = %d\ndelta_of_x = %s\nd = 0\n" % (p, weight)
    inst = instance_from_text(text + ("g = %s\n" % g_text if g_text else ""))
    K, g = inst.K, inst.g
    Q = QuaternionRing(K)
    rng = random.Random("quaternion-search:%d:%d" % (p, bound) + (":" + g_text if g_text else ""))
    cs = [
        K.zero(),
        K.x() ** p,
        v_g(K, g, _fraction_of_height(K, rng, bound)),
        v_g(K, g, _fraction_of_height(K, rng, bound + 2)),
    ]
    found = 0
    for c in cs:
        want = ExtAlgebra(K, g, c).linear_right_factor_search(bound)
        got = ExtAlgebra(Q, g, Q.embed(c)).linear_right_factor_search(bound)
        assert got == (None if want is None else Q.embed(want)), c
        found += want is not None
    assert found >= 2


def test_minimal_g_load_checks_g_once(monkeypatch):
    # The minimal p-polynomial is checked at x when the field first builds
    # it; the algebra reads the field's remembered z1 and checks g by the
    # split, with no derivation orbit of its own.
    calls = []
    honest = PPolynomial.annihilates
    monkeypatch.setattr(PPolynomial, "annihilates", lambda g, K: calls.append(g) or honest(g, K))
    for text in ("p = 3\ndelta_of_x = x\nd = x\n", "p = 2\ndelta_of_x = 1/x\nd = x^2\n"):
        calls.clear()
        inst = instance_from_text(text)
        assert calls == [inst.g]


def test_verdicts_at_exponent_two_build_no_p_polynomial(monkeypatch, i1, i2):
    # division_verdict and auto_constraints read "h = s^q" off the split
    # the algebra stored when it was built: no p-polynomial is built and no
    # derivation orbit runs, neither for the closed form nor for another g,
    # and neither for the search the other verdicts run.
    e2_const = instance_from_text("p = 2\ndelta_of_x = x\nd = 0\ng = t^4 + t^2\n").algebra
    # d = x is not in F = F_2(x^2), and g = (t^2 + t)^2 is the closed form.
    e2 = instance_from_text("p = 2\ndelta_of_x = x\nd = x\ng = t^4 + t^2\n").algebra
    # g = z1^2 + z1 is not, and d = x^2 is in F, so its verdict searches.
    e2_other = instance_from_text("p = 2\ndelta_of_x = x\nd = x^2\ng = t^4 + t\n").algebra
    work = []
    init, honest = PPolynomial.__init__, PPolynomial.annihilates
    monkeypatch.setattr(PPolynomial, "__init__", lambda g, *args: work.append("build") or init(g, *args))
    monkeypatch.setattr(PPolynomial, "annihilates", lambda g, K: work.append("check") or honest(g, K))
    assert i2.division_verdict(1)[0] == "not division (witness)"
    assert e2_const.division_verdict(1)[0] == "not division (witness)"
    assert e2.division_verdict(1) == ("division (proved)", None)
    assert i1.division_verdict(4) == ("division (proved)", None)
    assert e2_other.division_verdict(2) == ("unknown (bound exhausted)", None)
    assert auto_constraints(e2).c_condition == "V_g(c) = 0"
    with pytest.raises(UnsupportedInstance, match="kernel of V_g"):
        auto_constraints(e2_other)
    assert work == []


def test_division_probe_consistency(i1, i2, rng_seed=0):
    rng = random.Random(rng_seed)
    assert i1.is_division_probe(rng, samples=40)
    assert not i2.is_division_probe(rng, samples=40)


def test_division_probe_guard_refuses_before_any_work(monkeypatch, i3):
    # i3 has m = deg f = 3: samples * 3^5 <= MAX_PROBE_WORK up to 82,304
    # samples.  Over Q each coefficient has c = 4 parts, so the dim-36
    # algebra, also m = 3, runs up to 1,286.
    assert 82_304 * 3 ** 5 <= dext.MAX_PROBE_WORK < 82_305 * 3 ** 5
    assert 1_286 * 3 ** 5 * 4 ** 3 <= dext.MAX_PROBE_WORK < 1_287 * 3 ** 5 * 4 ** 3

    def no_sample(self, rng, coeff_deg=3):
        raise LookupError("sampled")

    monkeypatch.setattr(ExtAlgebra, "random_element", no_sample)
    over_q = quaternion_algebra("x")
    for alg, allowed in ((i3, 82_304), (over_q, 1_286)):
        with pytest.raises(LookupError):
            alg.is_division_probe(random.Random(0), samples=allowed)
        for samples in (allowed + 1, 10 ** 9):
            with pytest.raises(UnsupportedInstance, match="MAX_PROBE_WORK"):
                alg.is_division_probe(random.Random(0), samples=samples)
    # The suite's 40 samples run up to p = 13 and are refused at p = 17.
    p13 = instance_from_text("p = 13\ndelta_of_x = x\nd = x\n").algebra
    with pytest.raises(LookupError):
        p13.is_division_probe(random.Random(0), samples=40)
    p17 = instance_from_text("p = 17\ndelta_of_x = x\nd = x\n").algebra
    with pytest.raises(UnsupportedInstance, match="56794280"):
        p17.is_division_probe(random.Random(0), samples=40)


def _probe_on(alg, a):
    """The probe's answer with a as its one sample: True when a passes."""
    alg.random_element = lambda rng, coeff_deg=3: a
    try:
        return alg.is_division_probe(None, samples=1)
    finally:
        del alg.random_element


@pytest.mark.parametrize("text", list(_E1_CASES.values()), ids=list(_E1_CASES))
def test_division_probe_matches_left_multiplication_oracle(text):
    # At e = 1 over K the probe's m x m matrix over K of v |-> (v a) mod f
    # is singular exactly when the dim x dim matrix over F of u |-> a u is,
    # sample by sample, whether d is in F (associative) or not (division).
    # A right factor t - b of f, f = q (t - b), plants the zero divisors
    # t - b and q.
    alg = instance_from_text(text).algebra
    assert alg.ring.is_commutative and alg.g.e == 1
    rng = random.Random("probe-oracle:" + text)
    samples = [a for a in (alg.random_element(rng, 2) for _ in range(12)) if a]
    b = alg.linear_right_factor_search(1)
    if b is not None:
        lin = DiffPoly(alg.ring, (-b, alg.ring.one()))
        samples += [alg.element(lin), alg.element(alg.f.right_divmod(lin)[0])]
    answers = [_probe_on(alg, a) for a in samples]
    assert answers == [not left_multiplication_singular(alg, a) for a in samples]
    if b is not None:
        assert answers[-2:] == [False, False]


def _quaternion_d0():
    Q = quaternion_ring()
    return ExtAlgebra(Q, minimal_p_polynomial(Q.base), Q.zero())


def _z1_minus(alg, r):
    """The element z1 - r, z1 = t^p - a t the minimal p-polynomial, r in K."""
    K = alg.ring
    z1 = p_poly_as_diffpoly(minimal_p_polynomial(K), K)
    return alg.element(z1 - DiffPoly.constant(K, r))


# (instance, planted zero divisors): at e = 2 with d in F, u = z1 - d^(1/p)
# is nilpotent (u^p = f); with g = t^4 + t = z1^2 + z1 and d = x^2 + x,
# z1 - x is a right factor of f; over Q with d = 0, t is one.
_ZERO_DIVISOR_CASES = {
    "e2-p2-x": (lambda: instance_from_text("p = 2\ndelta_of_x = x\nd = x\ng = t^4 + t^2\n").algebra, ()),
    "e2-p2-x2": (
        lambda: instance_from_text("p = 2\ndelta_of_x = x\nd = x^2\ng = t^4 + t^2\n").algebra,
        (lambda alg: _z1_minus(alg, alg.ring.x()),),
    ),
    "e2-p2-t4+t": (
        lambda: instance_from_text("p = 2\ndelta_of_x = x\nd = x^2 + x\ng = t^4 + t\n").algebra,
        (lambda alg: _z1_minus(alg, alg.ring.x()),),
    ),
    "e2-p3-x3": (
        lambda: instance_from_text("p = 3\ndelta_of_x = x\nd = x^3\ng = t^9 + 2*t^3\n").algebra,
        (lambda alg: _z1_minus(alg, alg.ring.x()),),
    ),
    "q-x+j": (lambda: quaternion_algebra("x+j"), ()),
    "q-x": (lambda: quaternion_algebra("x"), ()),
    "q-d0": (_quaternion_d0, (lambda alg: alg.t(),)),
}


@pytest.mark.parametrize("name", list(_ZERO_DIVISOR_CASES))
def test_division_probe_singular_samples_exhibit_zero_divisors(name):
    # At e = 2 and over Q a left and a right zero divisor need not go
    # together, so the probe is checked against itself: a sample it finds
    # singular must have a nonzero v with v a = 0 in S_f.  The rows t^j a
    # come from element products, and v from a left kernel vector of them.
    make, planted = _ZERO_DIVISOR_CASES[name]
    alg = make()
    m = alg.f.degree()
    rng = random.Random("probe-zero-divisors:" + name)
    samples = [alg.random_element(rng, 2) for _ in range(4)]
    samples = [a for a in samples if a] + [plant(alg) for plant in planted]
    found = []
    for a in samples:
        rows, tj = [], alg.one()
        for _ in range(m):
            rows.append([(tj * a).rep.coeff(k) for k in range(m)])
            tj = alg.t() * tj
        c = left_kernel_vector(alg.ring, rows)
        found.append(c is not None)
        assert _probe_on(alg, a) == (c is None)
        if c is not None:
            v = alg.element(DiffPoly(alg.ring, c))
            assert v and not v * a
    assert found[len(found) - len(planted):] == [True] * len(planted)


def test_shift_isomorphism_frozen(i1):
    K = i1.ring
    x = K.x()
    iso = shift_isomorphism(i1, x)
    # Target modulus: d + V_g(x) = x + x^2.
    assert iso.target.d == x + x * x
    # t maps to t - x.
    img = iso(i1.t())
    assert img.rep == DiffPoly(K, (-x, K.one()))


def test_shift_isomorphism_multiplicative(i1, i3):
    rng = random.Random(1234)
    for alg in (i1, i3):
        a = alg.ring.random_element(rng, 2)
        iso = shift_isomorphism(alg, a)
        for _ in range(60):
            u = alg.random_element(rng, 2)
            v = alg.random_element(rng, 2)
            assert iso(u * v) == iso(u) * iso(v)
            assert iso(u + v) == iso(u) + iso(v)


def test_shift_isomorphism_inverse(i1):
    rng = random.Random(5)
    x = i1.ring.x()
    iso = shift_isomorphism(i1, x)
    back = shift_isomorphism(iso.target, -x)
    assert back.target == i1
    for _ in range(30):
        u = i1.random_element(rng, 2)
        assert back(iso(u)) == u


def test_shift_by_log_derivative_is_endo(i1):
    # V_g(1) = 0, so shifting by 1 maps the algebra to itself.
    one = i1.ring.one()
    iso = shift_isomorphism(i1, one)
    assert iso.target == i1
