"""The differential field K = F_p(x) and its subfield of constants.

A ``DerivedField`` is F_p(x) together with the derivation delta = w * d/dx
for a nonzero rational function w.  Its constants form the subfield
F = F_p(x^p), and K is an F-vector space with basis 1, x, ..., x^(p-1).
F is never materialized as a separate type: its elements are ordinary
rational functions whose reduced numerator and denominator have only
exponents divisible by p (``is_constant``, exact since ker delta is
F_p(x^p)), and the solvers assert that property wherever an F-scalar is
required.

``minimal_p_polynomial`` gives the monic p-polynomial of least exponent,

    g(t) = t^p - a t,   a = delta^(p-1)(w)/w constant,

with g(delta) = 0 as an F-linear operator on K.  This is Hochschild's
formula (w d/dx)^p = delta^(p-1)(w) d/dx (Trans. AMS 79, 1955), and it
costs p - 1 derivations; ``p_polynomial_at_exponent`` gives the exponent-e
polynomial t^(p^e) - a^(p^(e-1)) t^(p^(e-1)) the same way.  Each field
remembers a, so it is derived once per field; a field does not remember
its minimal p-polynomial, which an instance builds once, at load, and
which each call re-checks at x.

``z1_split`` writes a p-polynomial g over F as h(z1), z1 = t^p - a t, for
a p-polynomial h over F, or refuses it with GNotAnnihilating.  It is the
one check an algebra makes of its g, and its h is what the algebra's
verdicts and factor search read.

``DerivedField.delta`` remembers its answers, per field, keyed by the
canonical numerator and denominator tuples, because the twisted
arithmetic derives the same coefficients again and again.  The memo is
emptied when it holds _DELTA_MEMO_ENTRIES arguments.  ``coords``, the map
K -> F^p that checks every structure constant and reads every coordinate
vector, keeps a second memo next to it with the same key, emptied at
_COORDS_MEMO_ENTRIES arguments: a structure table splits each distinct
fraction once.  Both memos hold fractions over the field's PrimeField,
never over the DerivedField itself, so they close no reference cycle.
``from_coords`` sums over the basis 1, x, ..., x^(p-1), which the field
builds once, when first asked.

``QuaternionRing`` is the quaternion division algebra Q = (x^p, n)_K for
odd p, with delta acting on the four parts of an element (``Quaternion``).
It is the paper's second setting, a central division algebra over K, and
the noncommutative coefficient ring of the twisted arithmetic.  Both rings
answer ``as_scalar``: the c in K with embed(c) = a, or None.  Their
centers are embed(K), since K is commutative and Q is central over K, so
d is a central constant exactly when as_scalar(d) is a constant.
"""

from __future__ import annotations

from operator import add, sub

from .errors import (
    GNotAnnihilating,
    InternalInvariantViolation,
    NoSolution,
    ZeroDerivation,
)
from .scalars import (
    RatFunc,
    RationalFunctionField,
    _add,
    _cancel,
    _derivative,
    _exquo,
    _frobenius,
    _mul,
    _neg,
    _ratfunc,
    _terms_str,
    _trim,
    random_ratfunc,
)

__all__ = [
    "DerivedField",
    "PPolynomial",
    "minimal_p_polynomial",
    "p_polynomial_at_exponent",
    "QuaternionRing",
]

# Most arguments a DerivedField remembers in its delta memo before it
# empties it.  Not an option: it caps the memo's memory.  The measured
# sizes and hit rates are in the README's design notes.
_DELTA_MEMO_ENTRIES = 2 ** 14

# Most arguments a DerivedField remembers in its coordinate memo before it
# empties it.  Not an option either: one p = 13 structure table splits at
# most 4,305 distinct fractions, and the cap holds them.
_COORDS_MEMO_ENTRIES = 2 ** 13


class DerivedField(RationalFunctionField):
    """F_p(x) with the derivation a |-> delta_of_x * da/dx."""

    __slots__ = ("delta_of_x", "_delta_memo", "_coords_memo", "_basis", "_a")

    def __init__(self, p: int, delta_of_x: RatFunc):
        super().__init__(p)
        if delta_of_x.field.p != p:
            raise ValueError("delta_of_x lives in the wrong characteristic")
        if not delta_of_x:
            raise ZeroDerivation("the derivation must be nonzero")
        # Re-homed onto this field, so that arithmetic with the weight uses
        # this field's fraction memos rather than those of the field it was
        # parsed over.
        self.delta_of_x = _ratfunc(self.field, delta_of_x.num_coeffs, delta_of_x.den_coeffs)
        # (num.coeffs, den.coeffs) -> delta(num/den); see delta.
        self._delta_memo = {}
        # (num.coeffs, den.coeffs) -> coords(num/den); see coords.
        self._coords_memo = {}
        self._basis = None  # see _powers
        self._a = None  # see _hochschild_constant

    # -- coefficient-ring protocol used by the twisted polynomial layer --

    is_commutative = True

    @property
    def base_field(self) -> "DerivedField":
        """The field the coordinates over the constants live in: K itself."""
        return self

    @property
    def dim_over_constants(self) -> int:
        return self.p

    def embed(self, c: RatFunc) -> RatFunc:
        return c

    def as_scalar(self, a: RatFunc) -> RatFunc:
        """The c in K with embed(c) = a: a itself."""
        return a

    def invert(self, a: RatFunc) -> RatFunc:
        return a.inverse()

    def delta(self, a: RatFunc) -> RatFunc:
        """delta(a), remembered per field for the arguments seen so far.

        The memo is keyed by the canonical (numerator, denominator)
        coefficient tuples.  The field fixes p and delta(x), so the key is
        complete; a memo shared between fields would not be.
        """
        memo = self._delta_memo
        key = (a.num_coeffs, a.den_coeffs)
        out = memo.get(key)
        if out is None:
            if len(memo) >= _DELTA_MEMO_ENTRIES:
                memo.clear()
            out = memo[key] = self._quotient_rule(a)
        return out

    def _quotient_rule(self, a: RatFunc) -> RatFunc:
        """Quotient rule, reduced through g = gcd(v, v'); 0 on constants.

        For a = u/v in lowest terms write v = g v1 and v' = g s.  Then

            delta(u/v) = w (u'v - uv') / v^2 = w (u' v1 - u s) / (v v1).

        When g = 1 this is u'v - uv' over v^2, already reduced: a common
        factor of v and u'v - uv' would divide u v', and u and v' are both
        coprime to v.  Otherwise let pi^m exactly divide v.  If p does not
        divide m, pi^(m-1) exactly divides v' and g, so pi divides v1 once
        and not s, and pi does not divide u' v1 - u s.  If p divides m, then
        (pi^m)' = 0, so pi^m divides v' and g, and not v1.  So only the
        factors of multiplicity divisible by p can cancel, each at most to
        its power in g, and one gcd of the numerator with g finishes the
        reduction.  The product with w is Henrici's.
        """
        if self.is_constant(a):
            return self.zero()
        p = self.p
        field = self.field
        u, v = a.num_coeffs, a.den_coeffs
        du, dv = _derivative(u, p), _derivative(v, p)
        # g = gcd(v, v') is v itself when v' = 0 (v a p-th power, or 1), and
        # 1 when v' is a nonzero constant; only otherwise is a gcd taken, and
        # it and the cofactors come from the field's cancel memo.
        if not dv:
            g, v1, s = v, (1,), ()
        elif len(dv) > 1:
            g, v1, s = _cancel(field, v, dv)
        else:
            g, v1, s = (1,), v, dv
        num = _add(_mul(du, v1, p), _neg(_mul(u, s, p), p), p)
        den = _mul(v, v1, p)
        if len(g) > 1:
            h, num1, _ = _cancel(field, num, g)
            if len(h) > 1:
                num, den = num1, _exquo(den, h, p)
        return _ratfunc(field, num, den) * self.delta_of_x

    def is_constant(self, a: RatFunc) -> bool:
        """Whether delta(a) = 0, read off the exponents of a.

        delta = w d/dx with w nonzero, so ker delta = F_p(x^p).  A constant
        U(x^p)/V(x^p) with U, V coprime in F_p[y] is already in canonical
        form (a Bezout identity for U, V survives y -> x^p), so a is
        constant iff every exponent with a nonzero coefficient in its
        numerator and denominator is divisible by p: iff the zeros off the
        exponents k p are all the entries there.  The top exponent of each
        part has a nonzero coefficient, so it settles most non-constants.
        """
        p = self.p
        for cs in (a.num_coeffs, a.den_coeffs):
            n = len(cs)
            if n > 1:
                if (n - 1) % p:
                    return False
                on = cs[::p]
                if cs.count(0) - on.count(0) != n - len(on):
                    return False
        return True

    def constant_basis(self):
        """F-basis 1, x, ..., x^(p-1) of K."""
        return list(self._powers())

    def _powers(self):
        """The tuple 1, x, ..., x^(p-1), built once per field."""
        if self._basis is None:
            x = self.x()
            self._basis = tuple(x ** j for j in range(self.p))
        return self._basis

    def coords(self, a: RatFunc):
        """Coordinates of a over F in the basis 1, x, ..., x^(p-1).

        Remembered per field, keyed like delta's memo by the canonical
        (numerator, denominator) coefficient tuples; a miss runs _split.
        """
        memo = self._coords_memo
        key = (a.num_coeffs, a.den_coeffs)
        out = memo.get(key)
        if out is None:
            if len(memo) >= _COORDS_MEMO_ENTRIES:
                memo.clear()
            out = memo[key] = self._split(a)
        return out

    def _split(self, a: RatFunc):
        """The p coordinates of a over F, computed.

        Writes a = u/v as (u v^(p-1)) / v^p.  The denominator v^p = v(y)
        with y = x^p is constant, and the numerator splits by exponent
        residue mod p as sum_j U_j(y) x^j, so coordinate j is U_j(y)/v(y).
        Each is reduced in F_p[y], on polynomials p times shorter than
        their spreads, then spread by y -> x^p: spreading keeps U_j, v
        coprime and v monic, so the result is the canonical form of
        U_j(x^p)/v(x^p).  The coordinates whose gcd is 1 share one spread
        denominator.  Round-trips exactly: a == sum c_j x^j.
        """
        p, field = self.p, self.field
        u, v = a.num_coeffs, a.den_coeffs
        vp = v
        if len(v) > 1:
            # v^(p-1) = v^p / v, an exact division by the monic v.
            vp = _frobenius(v, p)
            u = _mul(u, _exquo(vp, v, p), p)
        out = []
        for j in range(p):
            cs = _trim(list(u[j::p]))
            den = vp if cs else (1,)
            if len(cs) > 1 and len(v) > 1:
                g, c1, v1 = _cancel(field, cs, v)
                if len(g) > 1:
                    cs, den = c1, _frobenius(v1, p)
            out.append(_ratfunc(field, _frobenius(cs, p), den))
        return tuple(out)

    def from_coords(self, cs) -> RatFunc:
        """sum c_j x^j over the basis the field keeps."""
        acc = self.zero()
        for c, b in zip(cs, self._powers()):
            if c:
                acc = acc + c * b
        return acc

    def log_derivative(self, a: RatFunc) -> RatFunc:
        """delta(a)/a for nonzero a."""
        if not a:
            raise ZeroDivisionError("logarithmic derivative of zero")
        return self.delta(a) / a

    def random_element(self, rng, max_degree: int) -> RatFunc:
        return random_ratfunc(self, rng, max_degree)

    def __eq__(self, other):
        return (
            isinstance(other, DerivedField)
            and other.p == self.p
            and other.delta_of_x == self.delta_of_x
        )

    def __hash__(self):
        return hash(("DerivedField", self.p, self.delta_of_x))

    def __repr__(self):
        return "DerivedField(p=%d, delta(x)=%s)" % (self.p, self.delta_of_x)


class PPolynomial:
    """Monic p-polynomial t^(p^e) + a_1 t^(p^(e-1)) + ... + a_e t.

    The coefficients are constants of the derivation it describes.  Stored
    as the exponent e plus the tuple (a_1, ..., a_e).
    """

    __slots__ = ("p", "e", "coeffs")

    def __init__(self, p: int, e: int, coeffs):
        coeffs = tuple(coeffs)
        if e < 1 or len(coeffs) != e:
            raise ValueError("a p-polynomial of exponent e needs e lower coefficients")
        self.p = p
        self.e = e
        self.coeffs = coeffs

    def degree(self) -> int:
        return self.p ** self.e

    def apply_operator(self, ring, a):
        """Evaluate g(delta) at a, i.e. delta^(p^e)(a) + sum a_i delta^(p^(e-i))(a).

        ring is any coefficient ring (the derived field or the quaternion
        ring); the constant coefficients a_i enter through ring.embed.
        """
        # Iterate delta once, reusing prefixes of the orbit.
        orbit = [a]
        for _ in range(self.degree()):
            orbit.append(ring.delta(orbit[-1]))
        acc = orbit[self.p ** self.e]
        for i, ai in enumerate(self.coeffs, start=1):
            if ai:
                acc = acc + ring.embed(ai) * orbit[self.p ** (self.e - i)]
        return acc

    def annihilates(self, K: DerivedField) -> bool:
        """Whether g(delta) = 0 on K, read off its value at x.

        g(delta) is a derivation: each delta^(p^k) is one (the binomials
        p^k choose j vanish for 0 < j < p^k), and so is a sum of multiples
        of derivations.  A derivation of F_p(x) is fixed by its value at x.
        """
        return not self.apply_operator(K, K.x())

    def __eq__(self, other):
        return (
            isinstance(other, PPolynomial)
            and other.p == self.p
            and other.e == self.e
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.e, self.coeffs))

    def __str__(self):
        p, e = self.p, self.e
        powers = ["t^%d" % p ** (e - i) for i in range(e)] + ["t"]
        return _terms_str(zip(("1",) + self.coeffs, powers))

    def __repr__(self):
        return "PPolynomial(%s)" % str(self)


def p_polynomial_at_exponent(K: DerivedField, e: int) -> PPolynomial:
    """The monic exponent-e p-polynomial t^(p^e) - a^(p^(e-1)) t^(p^(e-1)).

    Here a = delta^(p-1)(w)/w for w = delta(x).  delta^p is a derivation
    (the binomials p choose i vanish), so it is fixed by its value
    delta^(p-1)(w) at x, and delta^p = a delta.  It commutes with delta,
    and [delta, a delta] = delta(a) delta, so a is constant.  Induction on
    k then gives delta^(p^k) = a^(m_k) delta with m_k = (p^k - 1)/(p - 1):
    the p-th power of a^(m_k) delta is a^(p m_k) a delta, and
    p m_k + 1 = m_(k+1).  As m_e = p^(e-1) + m_(e-1), g(delta) = 0.

    This is the answer of the linear solve sum a_i delta^(p^(e-i)) =
    -delta^(p^e) over F with its free variables at zero: every power is a
    multiple of delta, so when a != 0 the unknown a_1 is the first pivot,
    a_1 = -a^(m_e - m_(e-1)) = -a^(p^(e-1)) and every other a_i is 0, and
    when a = 0 every a_i is 0.  Exponent 0 admits only g = t, whose
    operator is delta itself, so it annihilates nothing but the zero
    derivation: NoSolution.  The result is re-checked at x (see
    PPolynomial.annihilates).
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        if K.delta(K.x()):
            raise NoSolution("exponent 0 forces g = t, and the derivation is nonzero")
        raise InternalInvariantViolation("zero derivation escaped the constructor")
    a = _hochschild_constant(K)
    g = PPolynomial(K.p, e, (-(a ** (K.p ** (e - 1))),) + (K.zero(),) * (e - 1))
    if not g.annihilates(K):
        raise InternalInvariantViolation("the closed-form p-polynomial fails at x")
    return g


def _hochschild_constant(K: DerivedField) -> RatFunc:
    """a = delta^(p-1)(w)/w for w = delta(x), remembered per field.

    p - 1 derivations the first time; the closed forms and the split read
    it, and only p_polynomial_at_exponent re-checks the polynomial it
    gives.
    """
    if K._a is None:
        w = d = K.delta_of_x
        for _ in range(K.p - 1):
            d = K.delta(d)
        a = d / w
        if not K.is_constant(a):
            raise InternalInvariantViolation("delta^(p-1)(w)/w is not constant: %s" % a)
        K._a = a
    return K._a


def minimal_p_polynomial(K: DerivedField) -> PPolynomial:
    """Least-exponent monic p-polynomial annihilating delta: t^p - a t.

    Exponent 0 would need delta = 0, which the field refuses, so the
    exponent-one polynomial of ``p_polynomial_at_exponent`` is minimal.
    """
    return p_polynomial_at_exponent(K, 1)


def z1_split(K: DerivedField, g: PPolynomial):
    """(a1, [h_(e-1), ..., h_0]) with g = h(z1), h = sum_k h_k s^(p^k).

    z1 = t^p + a1 t is the minimal p-polynomial t^p - a t (a1 = -a), and
    h is a monic p-polynomial of exponent e - 1 over F, so g = z1^q with
    q = p^(e-1) exactly when h_k = 0 for every k < e - 1.  In F[t], which
    is commutative, h_k z1^(p^k) = h_k (t^(p^(k+1)) + a1^(p^k) t^(p^k)),
    so dividing g by z1 under composition, top term first, leaves a
    remainder c t.  With g_k the coefficient of t^(p^k) in g, the division
    reads, top-down,

        h_(e-1) = 1,    h_(k-1) = g_k - h_k a1^(p^k)    (e > k >= 1),

    and c = g_0 - h_0 a1.  delta commutes with F, so t |-> delta is a ring
    map on F[t], and g(delta) = h(z1(delta)) + c delta = c delta.  So the
    test c = 0 is exactly g(delta) = 0, read with e - 1 products and no
    derivation past the p - 1 that give a (``_hochschild_constant``): a
    declared g builds no minimal p-polynomial.

    Raises GNotAnnihilating when c != 0, and, before any work, when a
    coefficient of g is not in F: then g(t) is not central in K[t; delta]
    even when g(delta) = 0 (p = 3, delta = x d/dx, g = t^9 + x t^3 -
    (1 + x) t).
    """
    if not all(K.is_constant(c) for c in g.coeffs):
        raise GNotAnnihilating("g = %s has a coefficient outside F = F_p(x^p)" % g)
    a1 = -_hochschild_constant(K)
    hs = [K.one()]
    for j, g_k in enumerate(g.coeffs[:-1]):
        hs.append(g_k - hs[-1] * a1 ** (K.p ** (g.e - 1 - j)))
    if hs[-1] * a1 != g.coeffs[-1]:
        raise GNotAnnihilating("g = %s does not annihilate the derivation" % g)
    return a1, hs


class Quaternion:
    """An element a + b i + c j + e ij of a QuaternionRing: four parts in K."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: "QuaternionRing", parts):
        self.ring = ring
        self.parts = tuple(parts)

    def __add__(self, other):
        return Quaternion(self.ring, map(add, self.parts, other.parts))

    def __sub__(self, other):
        return Quaternion(self.ring, map(sub, self.parts, other.parts))

    def __neg__(self):
        return Quaternion(self.ring, [-c for c in self.parts])

    def __mul__(self, other):
        """The product from i^2 = s, j^2 = n and ij = -ji, with s = x^p.

        So (ij)^2 = -s n, i (ij) = s j = -(ij) i and (ij) j = n i = -j (ij).
        """
        a1, b1, c1, e1 = self.parts
        a2, b2, c2, e2 = other.parts
        s, n = self.ring.i_square, self.ring.j_square
        return Quaternion(self.ring, (
            a1 * a2 + s * (b1 * b2) + n * (c1 * c2 - s * (e1 * e2)),
            a1 * b2 + b1 * a2 + n * (e1 * c2 - c1 * e2),
            a1 * c2 + c1 * a2 + s * (b1 * e2 - e1 * b2),
            a1 * e2 + e1 * a2 + b1 * c2 - c1 * b2,
        ))

    def __bool__(self):
        return any(self.parts)

    def inverse(self):
        """self^(-1), as RatFunc.inverse gives it over K (linalg.Matrix reads it)."""
        return self.ring.invert(self)

    def __eq__(self, other):
        return isinstance(other, Quaternion) and other.parts == self.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return _terms_str(zip(self.parts, ("", "i", "j", "ij")))

    def __repr__(self):
        return "Quaternion(%s)" % self


class QuaternionRing:
    """The quaternion algebra Q = (x^p, n)_K over a derived field K, p odd.

    An element is a + b i + c j + e ij with a, b, c, e in K, where i^2 =
    x^p, j^2 = n and ij = -ji, and n is the least quadratic non-residue mod
    p, worked out from p.  delta acts on the four parts, and is a
    derivation of Q because x^p and n are constants.  The conjugate of q is
    a - b i - c j - e ij, and q times it is the reduced norm

        N(q) = a^2 - x^p b^2 - n c^2 + n x^p e^2,

    so q^(-1) = conj(q) / N(q) whenever N(q) != 0.

    Q is a division ring.  The quaternion algebra (s, n)_K is split iff s
    is a norm from K(sqrt n), and (s u^2, n)_K is (s, n)_K, so x^p =
    x (x^((p-1)/2))^2 gives (x^p, n)_K = (x, n)_K.  A norm a^2 - n c^2
    from K(sqrt n) = F_(p^2)(x) has even valuation at x = 0: if v(a) !=
    v(c) it is twice the smaller one, and if v(a) = v(c) = k its x^(2k)
    coefficient is a_k^2 - n c_k^2, which is not 0 since n is not a square
    in F_p.  x has valuation 1, so it is not a norm; (x, n)_K is not split,
    and a quaternion algebra that is not split is a division ring.  So
    N(q) = 0 only for q = 0.

    The center of Q is K, embedded as the parts (c, 0, 0, 0), so as_scalar
    decides centrality.  Coordinates over F = F_p(x^p) are the four parts'
    K-coordinates one after another: 4p of them, the first p those of K.
    """

    __slots__ = ("base", "j_square", "i_square")

    is_commutative = False

    def __init__(self, base: DerivedField):
        p = base.p
        if p == 2:
            raise ValueError("the quaternion ring (x^p, n)_K needs an odd p")
        self.base = base
        self.j_square = base.from_int(
            next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
        )
        self.i_square = base.x() ** p

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def base_field(self) -> DerivedField:
        """The field the coordinates over the constants live in."""
        return self.base

    @property
    def dim_over_constants(self) -> int:
        return 4 * self.base.p

    def of(self, a, b, c, e) -> Quaternion:
        """a + b i + c j + e ij."""
        return Quaternion(self, (a, b, c, e))

    def zero(self) -> Quaternion:
        return self.embed(self.base.zero())

    def one(self) -> Quaternion:
        return self.embed(self.base.one())

    def embed(self, c: RatFunc) -> Quaternion:
        zero = self.base.zero()
        return Quaternion(self, (c, zero, zero, zero))

    def as_scalar(self, a: Quaternion):
        """The c in K with a = embed(c), or None when a is not central."""
        return None if any(a.parts[1:]) else a.parts[0]

    def delta(self, a: Quaternion) -> Quaternion:
        return Quaternion(self, [self.base.delta(c) for c in a.parts])

    def is_constant(self, a: Quaternion) -> bool:
        return all(self.base.is_constant(c) for c in a.parts)

    def norm(self, a: Quaternion) -> RatFunc:
        """The reduced norm a^2 - x^p b^2 - n c^2 + n x^p e^2."""
        a0, b, c, e = a.parts
        s, n = self.i_square, self.j_square
        return a0 * a0 - s * (b * b) - n * (c * c) + (n * s) * (e * e)

    def invert(self, a: Quaternion) -> Quaternion:
        """conj(a) / N(a); ZeroDivisionError for a = 0, the only q with N(q) = 0."""
        m = self.norm(a)
        if not m:
            raise ZeroDivisionError("zero is not invertible")
        m = m.inverse()
        a0, b, c, e = a.parts
        return Quaternion(self, (a0 * m, -(b * m), -(c * m), -(e * m)))

    def constant_basis(self):
        """u x^j for u in 1, i, j, ij and j < p: an F-basis of Q."""
        zero = self.base.zero()
        out = []
        for k in range(4):
            for xj in self.base.constant_basis():
                parts = [zero] * 4
                parts[k] = xj
                out.append(Quaternion(self, parts))
        return out

    def coords(self, a: Quaternion):
        return tuple(c for part in a.parts for c in self.base.coords(part))

    def from_coords(self, cs) -> Quaternion:
        p = self.base.p
        return Quaternion(self, [self.base.from_coords(cs[k : k + p]) for k in range(0, 4 * p, p)])

    def random_element(self, rng, max_degree: int) -> Quaternion:
        return Quaternion(self, [random_ratfunc(self.base, rng, max_degree) for _ in range(4)])

    def __eq__(self, other):
        return isinstance(other, QuaternionRing) and other.base == self.base

    def __hash__(self):
        return hash(("QuaternionRing", self.base))

    def __repr__(self):
        return "QuaternionRing(%r)" % (self.base,)
