"""Automorphisms of the quotient algebras.

A descriptor (tau, c, eps) denotes the candidate map

    H(sum d_i t^i) = sum tau(d_i) (eps*t + c)^i,

computed on representatives of degree below m = deg f.  A descriptor forms
the images (eps*t + c)^i, i <= m, once, when it is made, so applying it is
a K-linear combination of that table with no twisted product and no
reduction.  Such a map is a (unital) algebra automorphism precisely when
two checks pass:

* the commutation constraint  c*tau(z) + eps*delta(tau(z)) = tau(z)*c + tau(delta(z))
  for z in a generating set of the coefficient ring, and
* H(f) = f, so the map descends to the quotient.

For tau = id and eps = 1 over a commutative base, the second check reduces
to V_g(c) = 0, which holds exactly for logarithmic derivatives
c = delta(u)/u; log_derivative_witness exhibits such a u by one exact
solve.  Those shifts form a subgroup: composing shifts adds the c values,
the identity is c = 0, and each nonidentity shift has order p.

Over the derived field K = F_p(x), with g of the closed form
(t^p - a t)^(p^(e-1)) (every g at exponent one), tau = id and eps = 1 are
forced, so the shifts are all the descriptors; auto_constraints states
these theorems with their proofs and computes nothing.

Inner automorphisms by an invertible nuclear element a come out in the same
normal form: conjugation by a equals the descriptor (i_a, a^(-1) delta(a), 1),
which collapses to (id, a^(-1) delta(a), 1) when a is central, as every a
over a commutative base is.
inner_auto re-checks that normal form against literal conjugation on the
basis; a disagreement is an arithmetic fault, InternalInvariantViolation.

The shift t -> t - a is the descriptor (id, -a, 1) onto its target, the
algebra with d + V_g(a): the checks read H(f) = target.f, and eq1 admits
only central a over the quaternion ring.  Its inverse is the shift by -a.
"""

from __future__ import annotations

from collections import namedtuple

from .dext import AlgebraElement, ExtAlgebra, _padded_rows
from .diffpoly import DiffPoly, _substitute_powers, _substitution_powers, v_g
from .errors import (
    ConditionFailed,
    InternalInvariantViolation,
    NotInvertible,
    NotNuclear,
    UnsupportedInstance,
)
from .linalg import solve_mod_p
from .scalars import DensePoly, RatFunc, _add, _derivative, _mul, _neg

__all__ = [
    "AutoDescriptor",
    "build_auto",
    "apply_auto",
    "auto_order",
    "compose_shift_autos",
    "is_log_derivative",
    "log_derivative_witness",
    "inner_auto",
    "shift_isomorphism",
    "auto_constraints",
    "AutoConstraintReport",
]


class AutoDescriptor:
    """Validated map data: coefficient map tau, shift c, stretch eps.

    The map goes from algebra to target (keyword-only, default algebra; only
    shift_isomorphism sets another).  powers holds the images (eps*t + c)^i,
    i <= deg f, formed from the other fields when the descriptor is made;
    the checks compute H(f) with them and apply_auto combines them.  It is
    not a constructor argument and takes no part in equality, hashing or repr.
    The fields cannot be assigned, so the hash stays valid.
    """

    __slots__ = ("algebra", "tau", "tau_name", "c", "eps", "target", "powers")

    def __init__(self, algebra: ExtAlgebra, tau, tau_name: str, c, eps, *, target=None):
        powers = tuple(_substitution_powers(algebra.ring, c, eps, algebra.f.degree() + 1))
        target = algebra if target is None else target
        for name, value in zip(self.__slots__, (algebra, tau, tau_name, c, eps, target, powers)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("AutoDescriptor is immutable")

    def __delattr__(self, name):
        raise AttributeError("AutoDescriptor is immutable")

    def __call__(self, u: AlgebraElement) -> AlgebraElement:
        return apply_auto(self, u)

    def __eq__(self, other):
        return (
            isinstance(other, AutoDescriptor)
            and other.algebra == self.algebra
            and other.target == self.target
            and other.tau_name == self.tau_name
            and other.c == self.c
            and other.eps == self.eps
        )

    def __hash__(self):
        return hash((self.tau_name, self.c, self.eps))

    def __repr__(self):
        return "AutoDescriptor(tau=%s, c=%s, eps=%s)" % (self.tau_name, self.c, self.eps)


def _checked_descriptor(algebra: ExtAlgebra, tau, c, eps, tau_name: str, target: ExtAlgebra):
    """(tau, c, eps) from algebra to target, once eq1 and H(f) = target.f hold."""
    ring = algebra.ring
    # Generators: x spans the coefficient ring over the constants together
    # with products, so checking the ring basis covers everything linear.
    for z in ring.constant_basis():
        tz = tau(z)
        lhs = c * tz + eps * ring.delta(tz)
        rhs = tz * c + tau(ring.delta(z))
        if lhs != rhs:
            raise ConditionFailed(
                "eq1",
                "commutation constraint fails on %s: %s != %s" % (z, lhs, rhs),
            )
    H = AutoDescriptor(algebra, tau, tau_name, c, eps, target=target)
    image_f = _substitute_powers(algebra.f, tau, H.powers)
    if image_f != target.f:
        diff = image_f - target.f
        raise ConditionFailed(
            "fixes_f", "candidate moves the modulus by %s" % (diff,)
        )
    return H


def build_auto(algebra: ExtAlgebra, tau, c, eps, tau_name: str = "id") -> AutoDescriptor:
    """Validate (tau, c, eps) for the algebra and return the descriptor.

    Raises ConditionFailed("eq1", ...) when the coefficient commutation
    constraint fails on a generator, ConditionFailed("fixes_f", ...) when
    the candidate does not fix the modulus.
    """
    return _checked_descriptor(algebra, tau, c, eps, tau_name, algebra)


def apply_auto(H: AutoDescriptor, u: AlgebraElement) -> AlgebraElement:
    """H(u) = sum tau(u_i) (eps*t + c)^i in H.target, from the power table.

    The representative has degree below m = deg f, and so has every power
    used, so the image needs neither a twisted product nor a reduction.
    """
    if u.algebra != H.algebra:
        raise ValueError("element belongs to a different algebra")
    return AlgebraElement(H.target, _substitute_powers(u.rep, H.tau, H.powers))


def auto_order(H: AutoDescriptor, bound: int = 64) -> int | None:
    """Order of H in the automorphism group, or None past the bound.

    Computed honestly by iterating on the basis; identity is order 1.
    """
    basis = H.algebra.basis()
    images = list(basis)
    for k in range(1, bound + 1):
        images = [apply_auto(H, u) for u in images]
        if images == basis:
            return k
    return None


def compose_shift_autos(H1: AutoDescriptor, H2: AutoDescriptor) -> AutoDescriptor:
    """Composition inside the shift family (tau = id, eps = 1): c values add."""
    ring = H1.algebra.ring
    if H1.tau_name != "id" or H2.tau_name != "id":
        raise UnsupportedInstance("composition is implemented for shift descriptors")
    if H1.eps != ring.one() or H2.eps != ring.one():
        raise UnsupportedInstance("composition is implemented for eps = 1")
    if H1.algebra != H2.algebra:
        raise ValueError("descriptors act on different algebras")
    return build_auto(H1.algebra, H1.tau, H1.c + H2.c, H1.eps)


def is_log_derivative(algebra: ExtAlgebra, c) -> bool:
    """Whether c = delta(u)/u for some nonzero u, i.e. V_g(c) = 0."""
    return not v_g(algebra.ring, algebra.g, c)


def log_derivative_witness(algebra: ExtAlgebra, c):
    """A nonzero u with delta(u)/u = c, or None when no such u exists.

    With c = cn/cd and delta(x) = W/S in lowest terms, delta(u) = c u reads
    cd W u' = cn S u: one homogeneous F_p-linear system in the coefficients
    of a polynomial u of degree <= (p - 1) deg(cd W S), whose first kernel
    vector is the witness.

    Why that degree suffices.  Scaling u by F leaves delta(u)/u unchanged,
    and pi^p is in F for every polynomial pi, so if any witness exists, one
    is a polynomial whose irreducible factors have multiplicity m < p.  At
    such a factor pi not dividing cd W S, w is a unit and pi' is prime to
    pi, so w u'/u = w m pi'/pi + (regular at pi) has a simple pole, while c
    has none.  So every factor of u divides cd W S, and deg u is at most
    (p - 1) deg(cd W S).
    """
    K = algebra.base_field
    p = K.p
    W, S = K.delta_of_x.num_coeffs, K.delta_of_x.den_coeffs
    cd_w, cn_s = _mul(c.den_coeffs, W, p), _mul(c.num_coeffs, S, p)
    columns = []
    for i in range((p - 1) * (len(cd_w) + len(S) - 2) + 1):
        xi = (0,) * i + (1,)
        columns.append(_add(_mul(cd_w, _derivative(xi, p), p), _neg(_mul(cn_s, xi, p), p), p))
    _, kernel = solve_mod_p(dict.fromkeys(_padded_rows(columns + [()])), p)
    if not kernel:
        return None
    u = RatFunc(DensePoly(K.field, kernel[0]), DensePoly.one(K.field))
    if K.log_derivative(u) != c:
        raise InternalInvariantViolation("log-derivative solve returned u with delta(u)/u != c")
    return u


def inner_auto(algebra: ExtAlgebra, a) -> AutoDescriptor:
    """Conjugation u |-> (a^(-1) o u) o a as a descriptor.

    a must be an invertible element of the nucleus; in these quotients the
    nucleus sits inside the coefficient ring, so a is taken as (or reduced
    to) a coefficient.  Raises NotNuclear or NotInvertible accordingly.

    A coefficient a is always left and middle nuclear, because f is monic of
    degree m: for u, v of degree below m the products a u and u a need no
    reduction, and a r = (a u v) mod f when u v = q f + r.  So a is nuclear
    exactly when it is right nuclear, that is when (f a) mod f = 0.
    """
    ring = algebra.ring
    if isinstance(a, AlgebraElement):
        if a.algebra != algebra:
            raise ValueError("element belongs to a different algebra")
        if a.rep.degree() > 0:
            # Positive degree puts it outside the coefficient ring; the
            # nucleus of a nonassociative quotient never reaches there.
            if not algebra.is_associative():
                raise NotNuclear("element of positive degree is not nuclear here")
            raise NotNuclear(
                "conjugation by elements outside the coefficient ring is not supported"
            )
        a = a.rep.coeff(0)
    if not a:
        raise NotInvertible("zero is not invertible")
    a_inv = ring.invert(a)  # both coefficient rings are division rings
    if (algebra.f * DiffPoly.constant(ring, a)).mod_right(algebra.f):
        raise NotNuclear("%s fails an associator test" % (a,))

    c = a_inv * ring.delta(a)
    if ring.as_scalar(a) is not None:
        # A central a: conjugation fixes every coefficient.
        tau = lambda z: z
        name = "id"
    else:
        tau = lambda z: a_inv * z * a
        name = "conj"
    H = build_auto(algebra, tau, c, ring.one(), tau_name=name)
    # Cross-check the normal form against literal conjugation on the basis.
    ainv_el = algebra.scalar(a_inv)
    a_el = algebra.scalar(a)
    for u in algebra.basis():
        if apply_auto(H, u) != (ainv_el * u) * a_el:
            raise InternalInvariantViolation(
                "normal form disagrees with conjugation by %s" % (a,)
            )
    return H


def shift_isomorphism(algebra: ExtAlgebra, a) -> AutoDescriptor:
    """The checked map h(t) |-> h(t - a) onto the algebra with d + V_g(a).

    It is the descriptor (id, -a, 1) with that target.  Raises
    ConditionFailed("eq1", ...) when a does not commute with the
    coefficient ring.  Its inverse is shift_isomorphism(H.target, -a).
    """
    ring = algebra.ring
    target = ExtAlgebra(ring, algebra.g, algebra.d + v_g(ring, algebra.g, a))
    return _checked_descriptor(algebra, lambda z: z, -a, ring.one(), "id", target)


class AutoConstraintReport(
    namedtuple("AutoConstraintReport", "algebra tau_forced eps_forced c_condition facts")
):
    """What the automorphism descriptors of the instance must look like.

    For the instances over K with g of closed form: tau is the identity,
    eps is 1, and the admissible shifts c are exactly the kernel of V_g, i.e.
    the logarithmic derivatives (proofs in auto_constraints).
    ``contains`` is the membership test for c.  An immutable record.
    """

    __slots__ = ()

    def contains(self, c) -> bool:
        return is_log_derivative(self.algebra, c)

    def descriptor_valid(self, c) -> bool:
        try:
            build_auto(self.algebra, lambda z: z, c, self.algebra.ring.one())
        except ConditionFailed:
            return False
        return True


def auto_constraints(algebra: ExtAlgebra) -> AutoConstraintReport:
    """The constraints on a descriptor (tau, c, eps) of a commutative instance.

    The report states three theorems; nothing is sampled or searched.  Over
    K = F_p(x), whose constants are F = F_p(x^p):

    * tau = id.  tau is F-linear and x^p is in F, so tau(x) is a root of
      X^p - x^p = (X - x)^p, hence tau(x) = x, and K = F(x).
    * eps = 1.  With tau = id the commutation constraint at z = x reads
      c x + eps delta(x) = x c + delta(x), i.e. (eps - 1) delta(x) = 0, and
      delta(x) != 0.
    * V_g(c) = 0.  g(t + c) = g(t) + V_g(c), so the shift t -> t + c
      takes f = g(t) - d to f + V_g(c), and fixes f iff V_g(c) = 0.  At
      e = 1, g = z1 = t^p - a t and the kernel of V_z1 is the logarithmic
      derivatives.  For the closed form g = z1^q, q = p^(e-1), the shift
      takes z1 to z1 + V_z1(c), a sum of central elements, so V_g(c) =
      V_z1(c)^q and the kernel is the same.

    None of the three proofs needs e = 1, so all three facts hold word for
    word for g = p_polynomial_at_exponent(K, e).  Another annihilating g
    of exponent e is h(z1) for a p-polynomial h, so V_g = h(V_z1), whose
    kernel can exceed the logarithmic derivatives; such a g is refused.

    Scope: the report constrains the descriptors.  By the paper these are
    all of Aut(S_f) when d is not in F; that claim is checked at e = 1
    only.  For associative instances (d in F) Aut also holds inner maps
    that are not descriptors.

    Raises UnsupportedInstance over the quaternion ring, whose
    automorphisms these arguments do not classify (conjugation by i is one
    with tau != id), and for a g not of closed form.
    """
    ring = algebra.ring
    if not ring.is_commutative:
        raise UnsupportedInstance("constraint analysis needs a commutative base")
    if not algebra._g_is_closed_form():
        raise UnsupportedInstance(
            "constraint analysis covers g = (t^p - a t)^(p^(e-1)); for g = %s the "
            "kernel of V_g can exceed the logarithmic derivatives" % algebra.g
        )
    return AutoConstraintReport(
        algebra=algebra,
        tau_forced="id",
        eps_forced="1",
        c_condition="V_g(c) = 0",
        facts=(
            "p-th roots are unique in K, so tau fixes x and tau = id",
            "delta(x) != 0 forces eps = 1 in the commutation constraint",
            "admissible c form the kernel of V_g (logarithmic derivatives)",
        ),
    )
