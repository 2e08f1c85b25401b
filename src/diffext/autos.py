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

The AutoDescriptor constructor runs both checks, so every descriptor is a
checked map, and it is known by its data: tau's images of the ring basis,
c and eps.

The commutation constraint makes H a ring endomorphism of R = A[t; delta],
and the descriptors compose by one law on the triples:

    H1 o H2 = (tau1 tau2, tau1(eps2) c1 + tau1(c2), tau1(eps2) eps1).

Proof: H1(k u) = tau1(k) H1(u) for a coefficient k (see apply_auto), so

    H1(H2(t)) = H1(eps2 t + c2) = tau1(eps2) (eps1 t + c1) + tau1(c2),

and H1(H2(k)) = tau1(tau2(k)); a ring endomorphism of R is fixed by its
images of the coefficients and of t.  On representatives of degree below
m no reduction intervenes, so compose_autos(H1, H2) is H1 o H2 on the
quotients too: H2 takes f_A to f_B and H1 takes f_B to f_C, and the
constructor re-checks both.

auto_order reads the order off the same law: H^(n+1) = H o H^n, and H^n
is the identity exactly when tau^n fixes the ring basis (which holds the
generators), c_n = 0 and eps_n = 1, since H^n(t) = eps_n t + c_n and t
lies below m.  Over K the order divides r p with r = ord(tau) <= p + 1
(proof in auto_order), so the search to n = p(p + 1) is exact there.

For tau = id and eps = 1 over a commutative base, the second check reduces
to V_g(c) = 0: the valid shifts are the kernel of V_g.  The logarithmic
derivatives c = delta(u)/u, the shifts that are inner, are the kernel of
V_z1 for the minimal z1 = t^p - a t (Jacobson's criterion), decided by
is_log_derivative; log_derivative_witness exhibits such a u by one exact
solve.  The algebra's split g = h(z1) gives V_g = h(V_z1), so every
logarithmic derivative is a valid shift, and the two kernels agree when
g = z1^(p^(e-1)).  Otherwise they can differ: at p = 2, delta = d/dx and
g = t^4 + t^2 = z1^2 + z1 with z1 = t^2, c = 1 has V_z1(1) = 1 and
V_g(1) = 0, a valid shift that is not inner.  The shifts form a subgroup:
by the law, composing shifts adds the c values, the identity is c = 0,
and each nonidentity shift has order p.

Over the derived field K = F_p(x), with g of the closed form
(t^p - a t)^(p^(e-1)) (every g at exponent one), tau = id and eps = 1 are
forced, so the shifts are all the descriptors; auto_constraints states
these theorems with their proofs and computes nothing.

Inner automorphisms by an invertible nuclear element a come out in the same
normal form: conjugation by a equals the descriptor (i_a, a^(-1) delta(a), 1),
which collapses to (id, a^(-1) delta(a), 1) when a is central, as every a
over a commutative base is.  A coefficient a is nuclear exactly when
a d = d a, by the identity (f a) mod f = a d - d a in ExtAlgebra.nucleus.
inner_auto re-checks that normal form against literal conjugation on the
left K-basis, enough since both maps are left K-linear; a disagreement is
an arithmetic fault, InternalInvariantViolation.  By the law, conjugation
by b after conjugation by a is conjugation by a b.

The shift t -> t - a is the descriptor (id, -a, 1) onto its target, the
algebra with d + V_g(a): the checks read H(f) = target.f, and eq1 admits
only central a over the quaternion ring.  Its inverse is the shift by -a.
"""

from __future__ import annotations

from collections import namedtuple

from .dext import AlgebraElement, ExtAlgebra
from .diffpoly import _substitute_powers, _substitution_powers, v_g
from .errors import (
    ConditionFailed,
    InternalInvariantViolation,
    NotInvertible,
    NotNuclear,
    UnsupportedInstance,
)
from .linalg import solve_columns_mod_p
from .scalars import DensePoly, RatFunc, _add, _derivative, _mul, _neg
from .towers import PPolynomial

__all__ = [
    "AutoDescriptor",
    "build_auto",
    "apply_auto",
    "auto_order",
    "compose_autos",
    "is_log_derivative",
    "log_derivative_witness",
    "inner_auto",
    "shift_isomorphism",
    "auto_constraints",
    "AutoConstraintReport",
]


class AutoDescriptor:
    """The checked map H = (tau, c, eps) from algebra to target.

    The constructor runs the two checks of the module docstring.  It raises
    ConditionFailed("eq1", ...) when the commutation constraint fails on a
    generator and ConditionFailed("fixes_f", ...) when H(f) != target.f, so
    every descriptor is a map the checks have seen.  target (keyword-only,
    default algebra) is set only by shift_isomorphism.  powers holds the
    images (eps*t + c)^i, i <= deg f, formed from c and eps; the fixes_f
    check and apply_auto combine them.  It is not a constructor argument and
    takes no part in equality, hashing or repr.  images holds tau on the
    ring basis, which contains the generators (x, and i and j over the
    quaternion ring), so it fixes the ring map tau: equality compares it,
    and repr prints tau as "id" or by its images of the generators.  The
    hash reads c and eps only.  The fields cannot be assigned, so the hash
    stays valid.
    """

    __slots__ = ("algebra", "tau", "c", "eps", "target", "powers", "images")

    def __init__(self, algebra: ExtAlgebra, tau, c, eps, *, target=None):
        ring = algebra.ring
        target = algebra if target is None else target
        # Generators: x spans the coefficient ring over the constants together
        # with products, so checking the ring basis covers everything linear.
        images = tuple(tau(z) for z in algebra._ring_basis)
        for z, tz in zip(algebra._ring_basis, images):
            lhs = c * tz + eps * ring.delta(tz)
            rhs = tz * c + tau(ring.delta(z))
            if lhs != rhs:
                raise ConditionFailed(
                    "eq1",
                    "commutation constraint fails on %s: %s != %s" % (z, lhs, rhs),
                )
        powers = tuple(_substitution_powers(ring, c, eps, algebra.f.degree() + 1))
        image_f = _substitute_powers(algebra.f, tau, powers)
        if image_f != target.f:
            raise ConditionFailed("fixes_f", "candidate moves the modulus by %s" % (image_f - target.f,))
        for name, value in zip(self.__slots__, (algebra, tau, c, eps, target, powers, images)):
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
            and other.images == self.images
            and other.c == self.c
            and other.eps == self.eps
        )

    def __hash__(self):
        return hash((self.c, self.eps))

    def __repr__(self):
        ring, basis = self.algebra.ring, self.algebra._ring_basis
        tau = "id"
        if self.images != tuple(basis):
            # The generators: x = basis[1], and i = basis[p], j = basis[2p] over Q.
            gens = [1] if ring.is_commutative else [1, ring.p, 2 * ring.p]
            tau = "(%s)" % ", ".join("%s -> %s" % (basis[k], self.images[k]) for k in gens)
        return "AutoDescriptor(tau=%s, c=%s, eps=%s)" % (tau, self.c, self.eps)


def build_auto(algebra: ExtAlgebra, tau, c, eps) -> AutoDescriptor:
    """The descriptor (tau, c, eps) of the algebra onto itself.

    Raises ConditionFailed("eq1", ...) when the coefficient commutation
    constraint fails on a generator, ConditionFailed("fixes_f", ...) when
    the candidate does not fix the modulus.
    """
    return AutoDescriptor(algebra, tau, c, eps)


def apply_auto(H: AutoDescriptor, u: AlgebraElement) -> AlgebraElement:
    """H(u) = sum tau(u_i) (eps*t + c)^i in H.target, from the power table.

    The representative has degree below m = deg f, and so has every power
    used, so the image needs neither a twisted product nor a reduction.
    For the same reason H(k u) = sum tau(k u_i) (eps t + c)^i = tau(k) H(u)
    for every coefficient k, and tau maps K, the center of the coefficient
    ring, to itself: H is left K-linear when tau fixes K, as the identity
    and a conjugation do.  tau need not fix K: x -> 1/x on D_(x + 1/x) at
    p = 2 fixes every t^i and moves x.
    """
    if u.algebra != H.algebra:
        raise ValueError("element belongs to a different algebra")
    return AlgebraElement(H.target, _substitute_powers(u.rep, H.tau, H.powers))


def _compose_law(H1: AutoDescriptor, c2, eps2):
    """(c, eps) of H1 o H2, from H2's c2 and eps2: the law of the module docstring."""
    e = H1.tau(eps2)
    return e * H1.c + H1.tau(c2), e * H1.eps


def compose_autos(H1: AutoDescriptor, H2: AutoDescriptor) -> AutoDescriptor:
    """The descriptor of H1 o H2, by the law of the module docstring.

    H2 maps A onto B and H1 maps B onto C; the composite maps A onto C.
    The constructor re-runs both checks on it.  Raises ValueError when H1
    does not act on H2's target.
    """
    if H2.target != H1.algebra:
        raise ValueError("the second map goes onto %r, the first acts on %r" % (H2.target, H1.algebra))
    c, eps = _compose_law(H1, H2.c, H2.eps)
    return AutoDescriptor(H2.algebra, lambda z: H1.tau(H2.tau(z)), c, eps, target=H1.target)


def auto_order(H: AutoDescriptor) -> int | None:
    """Order of H in the automorphism group, or None past n = p(p + 1).

    Read off the triples: H^(n+1) = H o H^n by the law of the module
    docstring, with tau^n kept as its images of the ring basis, and H^n is
    the identity exactly when tau^n fixes that basis, c_n = 0 and
    eps_n = 1.  No descriptor is applied or built.  Raises ValueError for
    a map onto another algebra (a shift_isomorphism with V_g(a) != 0),
    which is no automorphism.

    Over K the search bound p(p + 1) is past every order, so the answer is
    exact.  A ring automorphism tau of K = F_p(x) is a Moebius map, an
    element of PGL_2(F_p), whose order is p or divides p - 1 or p + 1, so
    r = ord(tau) <= p + 1.  H^r = (id, c', eps') fixes K, so the commutation
    constraint at x reads (eps' - 1) delta(x) = 0 and forces eps' = 1: H^r
    is a shift, of order 1 or p, and the order of H divides r p.  A tau that
    is no automorphism of K leaves H with no order, and None.  A bound of p
    is too small: at p = 3, delta(x) = x and d = x^2, tau: x -> -x with
    c = eps = 1 has order 6.  Only over the quaternion ring, where a
    conjugation can have infinite order (by 1 + i), can a map of finite
    order read None.
    """
    alg = H.algebra
    if H.target != alg:
        raise ValueError("the descriptor maps onto the algebra with d = %s, not onto its own" % H.target.d)
    ring, basis = alg.ring, tuple(alg._ring_basis)
    images, c, eps = basis, ring.zero(), ring.one()  # H^0
    for n in range(1, ring.p * (ring.p + 1) + 1):
        images = tuple(H.tau(z) for z in images)
        c, eps = _compose_law(H, c, eps)
        if images == basis and not c and eps == ring.one():
            return n
    return None


def is_log_derivative(algebra: ExtAlgebra, c) -> bool:
    """Whether c = delta(u)/u for some nonzero u, i.e. V_z1(c) = 0.

    z1 = t^p + a1 t is the minimal p-polynomial, read from the algebra's
    split (a1, h) of towers.z1_split.  This is Jacobson's criterion, and
    log_derivative_witness exhibits the u.  The valid shifts, V_g(c) = 0,
    are a larger set when g is not z1^(p^(e-1)); build_auto decides those.
    """
    z1 = PPolynomial(algebra.ring.p, 1, algebra.z1_split[:1])
    return not v_g(algebra.ring, z1, c)


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
    _, kernel = solve_columns_mod_p(columns, (), p)
    if kernel is None:
        return None
    u = RatFunc(DensePoly(K.field, kernel), DensePoly.one(K.field))
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
    exactly when it is right nuclear, that is when a d = d a, by the
    identity (f a) mod f = a d - d a in ExtAlgebra.nucleus.

    The normal form is re-checked against literal conjugation on the left
    K-basis (ExtAlgebra.k_basis), which suffices because both maps are left
    K-linear.  The descriptor is, since H(k u) = tau(k) H(u) (see
    apply_auto) and its tau, the identity or a conjugation, fixes K.
    Literal conjugation is, because K lies in the left nucleus and in the
    center of the coefficient ring: a^(-1) (k u) = k (a^(-1) u) and
    (k w) a = k (w a) for k in K.
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
    if a * algebra.d != algebra.d * a:
        raise NotNuclear("%s fails an associator test" % (a,))

    c = a_inv * ring.delta(a)
    if ring.as_scalar(a) is not None:
        # A central a: conjugation fixes every coefficient.
        tau = lambda z: z
    else:
        tau = lambda z: a_inv * z * a
    H = build_auto(algebra, tau, c, ring.one())
    # Cross-check the normal form against literal conjugation on the K-basis.
    ainv_el = algebra.scalar(a_inv)
    a_el = algebra.scalar(a)
    for u in algebra.k_basis():
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
    return AutoDescriptor(algebra, lambda z: z, -a, ring.one(), target=target)


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
    of exponent e is h(z1) for a p-polynomial h over F, so V_g = h(V_z1),
    whose kernel can exceed the logarithmic derivatives; such a g is
    refused.  The algebra stores that split, computed once by
    towers.z1_split when it is built, and the closed form is h = s^(p^(e-1)).

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
    if any(algebra.z1_split[1][1:]):  # h is not s^(p^(e-1))
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
