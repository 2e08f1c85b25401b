"""Differential polynomials A[t; delta] and their twisted arithmetic.

Elements are dense coefficient lists over a coefficient ring A (the derived
field, or the matrix adapter), lowest power of t first.  The variable does
not commute with coefficients; the defining relation is

    t * a = a * t + delta(a),

and everything else follows from it.  Multiplication iterates the rule, so
one code path is correct over commutative and noncommutative A alike.

Division here always means right division: g = q*f + r with deg r < deg f,
which exists and is unique whenever the leading coefficient of f is
invertible.  Left division is never needed and never implemented.

The map b |-> V(b) defined by (t - b)^(p^e) = t^(p^e) - V(b) is additive in
b; for a p-polynomial g(t) = t^(p^e) + a_1 t^(p^(e-1)) + ... + a_e t the
combination V_g(b) = V_(p^e)(b) + a_1 V_(p^(e-1))(b) + ... + a_e b satisfies
g(t - b) = g(t) - V_g(b).  These operators are computed by honest expansion;
the closed forms (V_2(b) = b^2 + delta(b) and so on) live in the tests as
independent oracles.
"""

from __future__ import annotations

from .errors import (
    InternalInvariantViolation,
    NonInvertibleLeadingCoefficient,
    NoSolution,
    NotInner,
)
from .linalg import Matrix
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
        """t * self, from the defining relation applied to each coefficient."""
        ring = self.ring
        out = [ring.delta(c) for c in self.coeffs] + [ring.zero()]
        for i, c in enumerate(self.coeffs):
            out[i + 1] = out[i + 1] + c
        return DiffPoly(ring, out)

    def scale_left(self, a):
        """a * self for a coefficient a (left multiplication)."""
        if not a:
            return DiffPoly.zero(self.ring)
        return DiffPoly(self.ring, tuple(a * c for c in self.coeffs))

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
        if n < 0:
            raise ValueError("negative power of a differential polynomial")
        out = DiffPoly.constant(self.ring, self.ring.one())
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def right_divmod(self, f):
        """q, r with self = q*f + r and deg r < deg f (right division)."""
        if not f:
            raise ZeroDivisionError("right division by the zero polynomial")
        ring = self.ring
        try:
            inv_lc = ring.invert(f.lc())
        except ZeroDivisionError:
            raise NonInvertibleLeadingCoefficient(
                "leading coefficient %s has no inverse" % (f.lc(),)
            ) from None
        df = f.degree()
        r = self
        q = DiffPoly.zero(ring)
        while r and r.degree() >= df:
            k = r.degree() - df
            c = r.lc() * inv_lc
            # Subtract (c t^k) * f; the twisted product keeps lower terms honest.
            mono = DiffPoly(ring, (ring.zero(),) * k + (c,))
            q = q + mono
            r = r - mono * f
        return q, r

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


def v_p_tower(ring, b, e: int):
    """V at level p^e: expand (t - b)^(p^e) and read off the constant term.

    The expansion must come out as t^(p^e) - V with every middle coefficient
    exactly zero; a nonzero middle coefficient means the coefficient
    arithmetic is broken, and raises.  The result is cross-checked against
    e-fold iteration of the p-step.
    """
    p = ring.char
    if e < 1:
        raise ValueError("tower exponent must be >= 1")
    lin = DiffPoly(ring, (-b, ring.one()))
    power = lin ** (p ** e)
    deg = p ** e
    for i in range(1, deg):
        if power.coeff(i):
            raise InternalInvariantViolation(
                "(t - b)^%d has a nonzero coefficient at t^%d" % (deg, i)
            )
    if power.coeff(deg) != ring.one():
        raise InternalInvariantViolation("(t - b)^%d is not monic" % deg)
    v = -power.coeff(0)
    # Independent route: iterate the single-p step e times.
    it = b
    for _ in range(e):
        step = DiffPoly(ring, (-it, ring.one())) ** p
        it = -step.coeff(0)
    if it != v:
        raise InternalInvariantViolation("tower iteration disagrees with expansion")
    return v


def v_g(ring, g: PPolynomial, b):
    """V_g(b) = V_(p^e)(b) + a_1 V_(p^(e-1))(b) + ... + a_e b."""
    p = ring.char
    # Collect V at levels p^1..p^e by iterating the p-step once per level.
    levels = [b]  # levels[k] = V_(p^k)(b), with level 0 the identity
    cur = b
    for _ in range(g.e):
        step = DiffPoly(ring, (-cur, ring.one())) ** p
        cur = -step.coeff(0)
        levels.append(cur)
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
    ring = h.ring
    image_t = DiffPoly(ring, (c, eps))
    acc = DiffPoly.zero(ring)
    power = DiffPoly.constant(ring, ring.one())
    for i, a in enumerate(h.coeffs):
        if i > 0:
            power = power * image_t
        ta = tau(a)
        if ta:
            acc = acc + power.scale_left(ta)
    return acc


def find_inner_constant(ring, g: PPolynomial):
    """Constant d0 with g(delta)(b) = d0*b - b*d0 for all b; NotInner if none.

    Writing d0 in the basis of the coefficient ring over its constants
    turns both the commutator condition (on basis elements) and the
    constancy condition delta(d0) = 0 into one F-linear system.
    """
    basis = ring.constant_basis()
    n = len(basis)
    base_field = ring.base_field
    rows = []
    rhs = []
    for b in basis:
        target = g.apply_operator(ring, b)
        target_coords = ring.coords(target)
        # Column j: coords of basis[j]*b - b*basis[j].
        cols = [ring.coords(ej * b - b * ej) for ej in basis]
        for k in range(len(target_coords)):
            rows.append([cols[j][k] for j in range(n)])
            rhs.append(target_coords[k])
    # Constancy: delta(d0) = 0, expanded over the same unknowns.
    zero = base_field.zero()
    for j, ej in enumerate(basis):
        dcoords = ring.coords(ring.delta(ej))
        for k in range(len(dcoords)):
            if dcoords[k]:
                rows.append([dcoords[k] if jj == j else zero for jj in range(n)])
                rhs.append(zero)
    try:
        sol, _ = Matrix(base_field, rows).solve(tuple(rhs))
    except NoSolution:
        raise NotInner("g(delta) is not an inner derivation by a constant") from None
    d0 = ring.from_coords(sol)
    if ring.delta(d0):
        raise InternalInvariantViolation("solver returned a non-constant d0")
    return d0

