"""Exact arithmetic for prime fields, dense polynomials, and rational functions.

Representation choices, which everything above this module relies on:

* Elements of F_p are Python ints in ``range(p)``; ``PrimeField`` is a tiny
  context object holding the modulus.
* ``DensePoly`` stores coefficients lowest degree first in a tuple whose last
  entry is nonzero; the zero polynomial is the empty tuple.  ``degree()`` is
  -1 for zero.
* ``RatFunc`` is always canonical: numerator and denominator coprime, the
  denominator monic, zero stored as 0/1.  Canonical form makes ``==`` a
  plain structural comparison, which the linear algebra and all the exact
  identity checks depend on.

All values are immutable; operations return fresh objects.

``_power`` is the one square-and-multiply routine: the ``__pow__`` of
``DensePoly``, ``DiffPoly`` and ``KMatrix`` call it directly.  ``RatFunc``
powers go through it on the numerator and the denominator separately: the
powers of a canonical fraction's parts are coprime with a monic
denominator, so num^n / den^n needs no gcd.  ``_power`` is private, so it
stays out of ``__all__``.
"""

from __future__ import annotations

__all__ = [
    "PrimeField",
    "DensePoly",
    "poly_gcd",
    "RatFunc",
    "ratfunc_canonical",
    "RationalFunctionField",
    "random_poly",
    "random_ratfunc",
]


def _power(base, n: int, one):
    """base ** n by square-and-multiply, for any associative product.

    Squares only while higher bits remain, so n >= 1 costs
    (bit_length - 1) squarings and (popcount - 1) other products; n = 0
    returns ``one``.
    """
    if n < 0:
        raise ValueError("negative exponent %d" % n)
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return one if out is None else out
        base = base * base


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic context for F_p with p prime, p <= 2**16."""

    MAX_MODULUS = 1 << 16

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p > self.MAX_MODULUS:
            raise ValueError("modulus must be a prime in [2, 2**16], got %r" % (p,))
        if not _is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        # Fermat: a^(p-2) is the inverse since p is prime.
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class DensePoly:
    """Univariate polynomial over F_p, dense coefficient tuple, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        cs = [c % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: PrimeField) -> "DensePoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "DensePoly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: PrimeField) -> "DensePoly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "DensePoly":
        return cls(field, (c,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.lc() == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, DensePoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.field.p
        return DensePoly(self.field, out)

    def __neg__(self):
        p = self.field.p
        return DensePoly(self.field, tuple(-c % p for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self or not other:
            return DensePoly.zero(self.field)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return DensePoly(self.field, out)

    def scale(self, c: int) -> "DensePoly":
        c %= self.field.p
        if c == 0:
            return DensePoly.zero(self.field)
        p = self.field.p
        return DensePoly(self.field, tuple(a * c % p for a in self.coeffs))

    def __divmod__(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        inv_lc = field.inv(other.lc())
        rem = list(self.coeffs)
        dn = other.degree()
        q = [0] * max(len(rem) - dn, 0)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k] * inv_lc % field.p
            if c == 0:
                continue
            q[k - dn] = c
            for i, oc in enumerate(other.coeffs):
                rem[k - dn + i] = (rem[k - dn + i] - c * oc) % field.p
        return DensePoly(field, q), DensePoly(field, rem[:dn])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        return _power(self, n, DensePoly.one(self.field))

    def monic(self) -> "DensePoly":
        if not self:
            return self
        return self.scale(self.field.inv(self.lc()))

    def formal_derivative(self) -> "DensePoly":
        p = self.field.p
        return DensePoly(
            self.field, tuple(i * c % p for i, c in enumerate(self.coeffs) if i > 0)
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else "%d*x" % c)
            else:
                parts.append("x^%d" % i if c == 1 else "%d*x^%d" % (c, i))
        return " + ".join(parts)

    def __repr__(self):
        return "DensePoly(p=%d, %s)" % (self.field.p, str(self))


def poly_gcd(a: DensePoly, b: DensePoly) -> DensePoly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while b:
        a, b = b, a % b
    return a.monic()


def _needs_parens(s: str) -> bool:
    # Top-level + or / means the string cannot be juxtaposed with '*t^i'.
    return ("+" in s) or ("/" in s) or ("-" in s) or (" " in s)


class RatFunc:
    """Rational function over F_p in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num: DensePoly, den: DensePoly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num = num
            self.den = DensePoly.one(num.field)
            return
        if den.degree() > 0:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num // g
                den = den // g
        # Monic denominator pins down the representative uniquely.
        c = den.lc()
        if c != 1:
            inv = den.field.inv(c)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, field: PrimeField) -> "RatFunc":
        return cls(DensePoly.zero(field), DensePoly.one(field))

    @classmethod
    def one(cls, field: PrimeField) -> "RatFunc":
        return cls(DensePoly.one(field), DensePoly.one(field))

    @classmethod
    def x(cls, field: PrimeField) -> "RatFunc":
        return cls(DensePoly.x(field), DensePoly.one(field))

    @classmethod
    def from_poly(cls, num: DensePoly) -> "RatFunc":
        return cls(num, DensePoly.one(num.field))

    @classmethod
    def from_int(cls, field: PrimeField, n: int) -> "RatFunc":
        return cls(DensePoly.constant(field, n), DensePoly.one(field))

    @property
    def field(self) -> PrimeField:
        return self.num.field

    def is_poly(self) -> bool:
        return self.den.degree() == 0

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self or not other:
            return RatFunc.zero(self.field)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        if not self:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        # Powers of coprime polynomials stay coprime, and a power of a monic
        # polynomial is monic: num^n / den^n is canonical as it stands (zero
        # included, as 0/1 gives 0/1 for n > 0 and 1/1 for n = 0).
        out = object.__new__(RatFunc)
        out.num = self.num ** n
        out.den = self.den ** n
        return out

    def __str__(self):
        if self.den.degree() == 0:
            return str(self.num)
        ns = str(self.num)
        if _needs_parens(ns):
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, str(self.den))

    def __repr__(self):
        return "RatFunc(p=%d, %s)" % (self.field.p, str(self))


def ratfunc_canonical(num: DensePoly, den: DensePoly) -> RatFunc:
    """Canonical fraction num/den; the constructor does the reduction."""
    return RatFunc(num, den)


class RationalFunctionField:
    """The field K = F_p(x), used as a factory and comparison context."""

    __slots__ = ("field",)

    def __init__(self, p: int):
        self.field = PrimeField(p)

    @property
    def p(self) -> int:
        return self.field.p

    def zero(self) -> RatFunc:
        return RatFunc.zero(self.field)

    def one(self) -> RatFunc:
        return RatFunc.one(self.field)

    def x(self) -> RatFunc:
        return RatFunc.x(self.field)

    def from_int(self, n: int) -> RatFunc:
        return RatFunc.from_int(self.field, n)

    def poly(self, *coeffs: int) -> RatFunc:
        """Polynomial with the given coefficients, lowest degree first."""
        return RatFunc.from_poly(DensePoly(self.field, coeffs))

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.p == self.p

    def __hash__(self):
        return hash(("RationalFunctionField", self.p))

    def __repr__(self):
        return "RationalFunctionField(p=%d)" % self.p


def random_poly(field, rng, max_degree, *, nonzero=False, monic=False):
    """Uniform coefficients up to a uniformly chosen degree bound."""
    while True:
        d = rng.randrange(max_degree + 1)
        coeffs = [rng.randrange(field.p) for _ in range(d + 1)]
        poly = DensePoly(field, coeffs)
        if monic and poly:
            poly = DensePoly(field, poly.coeffs[:-1] + (1,))
        if poly or not (nonzero or monic):
            return poly


def random_ratfunc(K, rng, max_degree, *, nonzero=False):
    """Random reduced fraction with numerator and denominator degree bounded."""
    field = K.field if isinstance(K, RationalFunctionField) else K
    num = random_poly(field, rng, max_degree, nonzero=nonzero)
    den = random_poly(field, rng, max_degree, monic=True)
    return RatFunc(num, den)
