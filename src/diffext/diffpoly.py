"""Differential polynomials A[t; delta] and their twisted arithmetic.

Elements are dense coefficient lists over a coefficient ring A (the derived
field K, or the quaternion ring over it), lowest power of t first.  The
variable does not commute with coefficients; the defining relation is

    t * a = a * t + delta(a),

and everything else follows from it.  Multiplication iterates the rule, so
one code path is correct over commutative and noncommutative A alike: u v
is sum u_i (t^i v), each t^i v one t-step from the last, taken on
coefficient tuples, and every u_i (t^i v)_j is accumulated into one
coefficient list, with no polynomial built per power.  The same
accumulation step serves the substitution tables below and the product of
a quotient algebra (dext.AlgebraElement), which steps (t^i v) mod f
instead; the tests keep the product that scales and adds whole
polynomials as their oracle (tests/oracles.py).

Division here always means right division: g = q*f + r with deg r < deg f,
which exists and is unique for every nonzero f: both coefficient rings are
division rings, so the leading coefficient of f is invertible.  Left
division is never needed and never implemented.  A t-step derives only the
nonzero coefficients.

``DiffPoly(ring, coeffs)`` is the one constructor; it trims trailing zero
coefficients.  The t-step, the products and right division work on
coefficient tuples and lists and wrap only their result.

Substitution, sum tau(h_i) (eps*t + c)^i, combines a table of the powers,
each one left step from the last: (eps t + c) P = eps (t P) + c P, and
both the step and the combination accumulate into one coefficient list.
The automorphisms and shift isomorphisms of the quotients keep their
tables and apply them with no twisted product.

The map b |-> V(b) defined by (t - b)^(p^e) = t^(p^e) - V(b) is additive in
b; for a p-polynomial g(t) = t^(p^e) + a_1 t^(p^(e-1)) + ... + a_e t the
combination V_g(b) = V_(p^e)(b) + a_1 V_(p^(e-1))(b) + ... + a_e b satisfies
g(t - b) = g(t) - V_g(b).  The levels come from one p-step per level, which
serves both v_g and the cross-check in v_p_tower.  With c = V_(p^k)(b),

    (t - b)^(p^(k+1)) = (t^(p^k) - c)^p,

and t^(p^k) a = a t^(p^k) + delta^(p^k)(a), so the step at level k is the
level-0 step for the derivation delta^(p^k), not for delta.  It equals the
level-0 step iterated only where delta^(p^k) acts like delta (as for
delta = x d/dx).  Which route the step takes is a property of the
coefficient ring:

* commutative (the derived field): Jacobson's formula (t + c)^p = t^p + c^p
  + delta^(p-1)(c), for the derivation delta^(p^k), gives
  V_(p^(k+1))(b) = c^p + delta^((p-1) p^k)(c), which costs (p-1) p^k
  derivations and one Frobenius power and no twisted product;
* noncommutative (the quaternion ring): V_3 already has commutator terms,
  so the step reads the constant term off the twisted power (T - c)^p of
  degree p in the level ring below, T = t^(p^k), which square-and-multiply
  forms in two products at p = 3.  It is the expansion v_p_tower forms, so
  over the quaternion ring the level check stands alone.

v_p_tower checks the same levels by expansion.  Level 0 expands (t - b)^p
in full; level k >= 1 expands (T - c)^p in A[T; delta^(p^k)], T = t^(p^k),
where Hochschild's delta^p = a delta gives delta^(p^k) = a^((p^k - 1)/(p -
1)) delta, so the level ring is A with that scaled derivation and the
t-step and powering of DiffPoly do the work.  Each level checks that every
middle coefficient vanishes; over the derived field it also compares its
constant term with the p-step, so it cross-checks the twisted expansion
against the closed form.  Over the quaternion ring the p-step is that same
expansion, and the level check stands alone.  Every level works on
polynomials of degree p, where the full power (t - b)^(p^e) has degree
p^e; the tests keep that dense expansion as their oracle
(tests/oracles.py), over both rings.
"""

from __future__ import annotations

from functools import partial

from .errors import InternalInvariantViolation
from .scalars import _power, _terms_str
from .towers import PPolynomial, _hochschild_constant

__all__ = [
    "DiffPoly",
    "v_p_tower",
    "v_g",
    "p_poly_as_diffpoly",
    "is_right_invariant",
    "substitute",
]


def _t_step(ring, coeffs) -> list:
    """The coefficients of t * (sum c_i t^i), one entry longer: t c = c t +
    delta(c) applied to each nonzero c_i.  The top coefficient moves up one
    power unchanged."""
    zero = ring.zero()
    out = [ring.delta(c) if c else zero for c in coeffs] + [zero]
    for i, c in enumerate(coeffs):
        if c:
            old = out[i + 1]
            out[i + 1] = old + c if old else c
    return out


def _add_scaled(acc, a, coeffs):
    """acc[j] += a * coeffs[j] in place for each nonzero coeffs[j]: the one
    accumulation step of the products and substitutions."""
    for j, c in enumerate(coeffs):
        if c:
            term = a * c
            old = acc[j]
            acc[j] = old + term if old else term


def _left_combination(ring, coeffs, first, step, width) -> list:
    """sum_i coeffs[i] s_i with s_0 = first and s_i = step(s_(i-1)), as a
    list of width coefficients: a twisted product when step is the t-step,
    and a product in a quotient when it is the reduced t-step."""
    acc = [ring.zero()] * width
    s = first
    for i, a in enumerate(coeffs):
        if i:
            s = step(s)
        if a:
            _add_scaled(acc, a, s)
    return acc


class DiffPoly:
    """Polynomial in t over a coefficient ring with a derivation."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def constant(cls, ring, a):
        return cls(ring, (a,))

    @classmethod
    def t(cls, ring):
        return cls(ring, (ring.zero(), ring.one()))

    def degree(self) -> int:
        """Degree in t; -1 denotes the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            return self.ring.zero()
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, DiffPoly)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return DiffPoly(self.ring, out)

    def __neg__(self):
        return DiffPoly(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # sum_i a_i (t^i other), each t^i other one t-step from the last.
        ring = self.ring
        width = len(self.coeffs) + len(other.coeffs) - 1
        return DiffPoly(ring, _left_combination(ring, self.coeffs, other.coeffs, partial(_t_step, ring), width))

    def __pow__(self, n: int):
        return _power(self, n, DiffPoly.constant(self.ring, self.ring.one()))

    def right_divmod(self, f):
        """q, r with self = q*f + r and deg r < deg f (right division).

        Each quotient term c t^k removes (c t^k) f = c (t^k f), a left
        scaling of one rung of the ladder f, t f, ..., t^K f with K = deg
        self - deg f.  The ladder holds coefficient tuples, each one t-step
        (_t_step) from the last, built once; every rung has the leading
        coefficient of f, so the top coefficient cancels exactly and only
        the lower ones are subtracted, as c times the rung's coefficients.
        Subtracting c f_j, rather than adding (-c) f_j, reuses the products
        the fraction memos already hold.
        """
        if not f:
            raise ZeroDivisionError("right division by the zero polynomial")
        ring = self.ring
        if self.degree() < f.degree():
            return DiffPoly.zero(ring), self
        inv_lc = ring.invert(f.lc())
        df = f.degree()
        ladder = [f.coeffs]
        for _ in range(self.degree() - df):
            ladder.append(_t_step(ring, ladder[-1]))
        r = list(self.coeffs)
        q = [ring.zero()] * len(ladder)
        for k in range(len(ladder) - 1, -1, -1):
            if not r[k + df]:
                continue
            q[k] = r[k + df] * inv_lc
            for j, fj in enumerate(ladder[k][:-1]):
                if fj:
                    r[j] = r[j] - q[k] * fj
        return DiffPoly(ring, q), DiffPoly(ring, r[:df])

    def __str__(self):
        cs = self.coeffs
        # Zeros are skipped here as well, before a unit is formatted for each.
        terms = [(cs[i], "t^%d" % i if i > 1 else "t") for i in range(len(cs) - 1, 0, -1) if cs[i]]
        if cs and cs[0]:
            s = str(cs[0])
            # A fraction that stands alone keeps its parentheses: t + (1/(x)).
            terms.append(("(%s)" % s if "/" in s else s, ""))
        return _terms_str(terms)

    def __repr__(self):
        return "DiffPoly(%s)" % str(self)


def p_poly_as_diffpoly(g: PPolynomial, ring) -> DiffPoly:
    """g(t) as an element of the twisted ring, coefficients embedded."""
    coeffs = [ring.zero()] * g.degree() + [ring.one()]
    for i, c in enumerate(g.coeffs, start=1):
        coeffs[g.p ** (g.e - i)] = ring.embed(c)
    return DiffPoly(ring, coeffs)


def _p_step(ring, c, level: int):
    """V_(p^(k+1)) from c = V_(p^k), k = level: minus the constant term of
    (t^(p^k) - c)^p.

    Over a commutative ring this is Jacobson's c^p + (delta^(p^k))^(p-1)(c),
    (p-1) p^k derivations and one Frobenius power: c ** p spreads the
    numerator's and the denominator's coefficients and takes no product.
    Otherwise it is read off the twisted power (T - c)^p of degree p in
    A[T; delta^(p^k)], T = t^(p^k) (see _LevelRing and v_p_tower), not off
    the dense (t^(p^k) - c)^p of degree p^(k+1).
    """
    p = ring.p
    if ring.is_commutative:
        d = c
        for _ in range((p - 1) * p ** level):
            d = ring.delta(d)
        return c ** p + d
    level_ring = _LevelRing(ring, level) if level else ring
    return -(DiffPoly(level_ring, (-c, ring.one())) ** p).coeff(0)


class _LevelRing:
    """The coefficient ring A with the derivation delta^(p^k) of level k >= 1.

    delta^(p^k) = embed(a^((p^k - 1)/(p - 1))) delta, where a = delta^(p-1)(w)/w
    for w = delta(x) (towers.p_polynomial_at_exponent proves it).  The
    factor is central, so the scaled map is a derivation of A, and A[T;
    delta^(p^k)] is the twisted ring DiffPoly builds over this adapter.
    """

    __slots__ = ("ring", "scale")

    def __init__(self, ring, level: int):
        p = ring.p
        a = _hochschild_constant(ring.base_field)
        self.ring = ring
        self.scale = ring.embed(a ** ((p ** level - 1) // (p - 1)))

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def delta(self, c):
        return self.scale * self.ring.delta(c)


def v_p_tower(ring, b, e: int):
    """V at level p^e: (t - b)^(p^e) = t^(p^e) - V, expanded level by level.

    Level k expands (T - c)^p with c = V_(p^k)(b) in A[T; delta^(p^k)]
    (level 0 is (t - b)^p in A[t; delta]), checks that it comes out as
    T^p - c' with every middle coefficient exactly zero, and compares c'
    with the p-step of level k, which over a commutative ring is the closed
    form with (p-1) p^k derivations and does not read a: an independent
    route.  A nonzero middle coefficient or a disagreement means the
    coefficient arithmetic is broken, and raises.  Over a noncommutative
    ring (the quaternion ring) the p-step is this same expansion, so there
    is nothing to compare: the level check stands alone, and the tests
    compare it with the dense expansion (tests/oracles.py).

    Why the levels prove the full expansion.  In A[t; delta], t^(p^k) a =
    a t^(p^k) + delta^(p^k)(a), because the binomials p^k choose i vanish
    for 0 < i < p^k.  So T |-> t^(p^k) is a ring map from A[T; delta^(p^k)]
    to A[t; delta]; it sends sum c_i T^i to sum c_i t^(i p^k), so it is
    injective and reads coefficients off one for one.  If (t - b)^(p^k) =
    T - c, then (t - b)^(p^(k+1)) = (T - c)^p is the image of the level-k
    expansion: its coefficient at t^(i p^k) is that of T^i, and every other
    one is zero.  By induction on k, the levels all pass exactly when
    (t - b)^(p^j) = t^(p^j) - V_(p^j)(b) for every j <= e, the full
    statement at e with the same at each lower level.
    """
    if e < 1:
        raise ValueError("tower exponent must be >= 1")
    p = ring.p
    one = ring.one()
    level_ring, v = ring, b
    for level in range(e):
        if level:
            level_ring = _LevelRing(ring, level)
        power = DiffPoly(level_ring, (-v, one)) ** p
        deg, stride = p ** (level + 1), p ** level
        for i in range(1, p):
            if power.coeff(i):
                raise InternalInvariantViolation(
                    "(t - b)^%d has a nonzero coefficient at t^%d" % (deg, i * stride)
                )
        if power.coeff(p) != one:
            raise InternalInvariantViolation("(t - b)^%d is not monic" % deg)
        # Over Q the p-step reads this same expansion, so it is not formed twice.
        if ring.is_commutative and _p_step(ring, v, level) != -power.coeff(0):
            raise InternalInvariantViolation("tower iteration disagrees with expansion")
        v = -power.coeff(0)
    return v


def v_g(ring, g: PPolynomial, b):
    """V_g(b) = V_(p^e)(b) + a_1 V_(p^(e-1))(b) + ... + a_e b."""
    # Collect V at levels p^1..p^e, one p-step per level.
    levels = [b]  # levels[k] = V_(p^k)(b), with level 0 the identity
    for level in range(g.e):
        levels.append(_p_step(ring, levels[-1], level))
    acc = levels[g.e]
    for i, ai in enumerate(g.coeffs, start=1):
        if ai:
            acc = acc + ring.embed(ai) * levels[g.e - i]
    return acc


def is_right_invariant(f: DiffPoly) -> bool:
    """Whether R*f is a two-sided ideal, i.e. f*r lies in R*f for all r.

    The set of r with f*r in R*f is closed under addition and
    multiplication and contains all constants of the base field, so it
    suffices to check t and a basis of the coefficient ring over those
    constants.
    """
    ring = f.ring
    t = DiffPoly.t(ring)
    if (f * t).right_divmod(f)[1]:
        return False
    for b in ring.constant_basis():
        if (f * DiffPoly.constant(ring, b)).right_divmod(f)[1]:
            return False
    return True


def substitute(h: DiffPoly, tau, c, eps) -> DiffPoly:
    """sum tau(h_i) * (eps*t + c)^i, the raw coefficient-and-variable map.

    tau is a callable on coefficients; c and eps are coefficients.  No
    reduction happens here; callers reduce mod f when they work in a
    quotient.
    """
    return _substitute_powers(h, tau, _substitution_powers(h.ring, c, eps, len(h.coeffs)))


def _substitution_powers(ring, c, eps, n):
    """The table (eps*t + c)^i for i < n.

    Each power is one left step from the last: (eps t + c) P = eps (t P) +
    c P: one t-step, scaled by eps unless eps = 1, and c P accumulated
    into it, with no twisted product.
    """
    one = ring.one()
    power = DiffPoly.constant(ring, one)
    out = [power]
    for _ in range(1, n):
        acc = _t_step(ring, power.coeffs)
        if eps != one:
            acc = [eps * a if a else a for a in acc]
        if c:
            _add_scaled(acc, c, power.coeffs)
        power = DiffPoly(ring, acc)
        out.append(power)
    return out


def _substitute_powers(h: DiffPoly, tau, powers) -> DiffPoly:
    """sum tau(h_i) * powers[i]: substitute with a table of images of t^i,
    each of degree at most i."""
    acc = [h.ring.zero()] * len(h.coeffs)
    for a, power in zip(h.coeffs, powers):
        ta = tau(a)
        if ta:
            _add_scaled(acc, ta, power.coeffs)
    return DiffPoly(h.ring, acc)
