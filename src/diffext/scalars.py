"""Exact arithmetic for prime fields, dense polynomials, and rational functions.

Representation choices, which everything above this module relies on:

* Elements of F_p are Python ints in ``range(p)``; ``PrimeField`` is the
  context object: it holds the modulus and the field's two fraction memos
  (below).
* ``DensePoly`` stores coefficients lowest degree first in a tuple whose last
  entry is nonzero; the zero polynomial is the empty tuple.  ``degree()`` is
  -1 for zero.
* ``RatFunc`` is always canonical: numerator and denominator coprime, the
  denominator monic, zero stored as 0/1.  Canonical form makes ``==`` a
  plain structural comparison, which the linear algebra and all the exact
  identity checks depend on.  A fraction stores its field and the two
  coefficient tuples, ``num_coeffs`` and ``den_coeffs``, so each result is
  one object; ``num`` and ``den`` are ``DensePoly`` views of the tuples,
  built only when a caller asks for them.

All values are immutable, so an operation may hand back one of its operands.

Each type has two constructors:

* the public ones, ``DensePoly(field, coeffs)`` and ``RatFunc(num, den)``,
  take anything: they reduce coefficients mod p and trim, or take the gcd
  and make the denominator monic.  Every caller outside this module uses
  them, and the tests use ``RatFunc(num, den)`` as the oracle;
* the private ``_poly(field, coeffs)`` and ``_ratfunc(field, num, den)``
  wrap coefficient tuples as they are.  Their callers must already hold
  the invariant: a tuple of ints in ``range(p)`` with no trailing zero and,
  for a fraction, coprime parts with a monic denominator and zero as
  () over (1,).  The operators of both types build their results this way.

The arithmetic runs on coefficient tuples in private kernels (``_add``,
``_mul``, ``_divmod``, ``_exquo``, ``_gcd``, ``_derivative``,
``_frobenius``) that take p as an argument and reduce mod p once per output
entry.  Divisors of degree <= 1 take short paths: division by a linear
divisor is synthetic (Horner at its root), and Euclid stops at a divisor
of degree <= 1, which decides the gcd with one Horner pass.  ``_exquo``
is the quotient by a monic divisor known to divide, with no inverse and
no remainder when the divisor is constant or linear; every exact division
in the fraction arithmetic goes through it.  Larger divisors take the
general Euclid and long division.  Fraction sums and products are
Henrici's (Knuth, TAOCP vol. 2, 4.5.1): a sum takes gcd(b, d) and, only
when that is not 1, one more gcd of the new numerator with it; a product
cancels the cross gcds gcd(a, d) and gcd(c, b), and neither needs a final
gcd.

Each ``PrimeField`` remembers the sums and the products of nonzero
fractions on it, in two memos keyed by the operands' four coefficient
tuples (a, b, c, d).  The field fixes p, so the key is complete.  A memo
value is the result's (numerator, denominator) tuple pair, never a
``RatFunc``: a fraction points back at its field, and a fraction in the
field's memo would make every field cyclic garbage.  A repeat costs one
lookup and one ``_ratfunc`` wrap.  Differences and quotients, and every
layer above that adds or multiplies fractions, reach the memos through
the two operators.  A memo is emptied when it holds
``_FRACTION_MEMO_ENTRIES`` pairs.  A miss runs Henrici's code
(``_henrici_sum``, ``_henrici_product``), and every gcd it takes still
goes through ``poly_gcd``, the tuples wrapped in ``DensePoly`` views for
it.

``_power`` is the one square-and-multiply routine: the ``__pow__`` of
``DensePoly`` and ``DiffPoly`` call it directly.  ``RatFunc``
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


# Most operand pairs a PrimeField remembers in each fraction memo before it
# empties it.  Not an option: it caps the memos' memory.  The measured hit
# rates and sizes are in the README's design notes.
_FRACTION_MEMO_ENTRIES = 2 ** 11


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

    __slots__ = ("p", "_add_memo", "_mul_memo")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p > self.MAX_MODULUS:
            raise ValueError("modulus must be a prime in [2, 2**16], got %r" % (p,))
        if not _is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        # (a, b, c, d) -> (num, den) of a/b + c/d and of (a/b)(c/d), all
        # coefficient tuples; see RatFunc.__add__ and __mul__.
        self._add_memo = {}
        self._mul_memo = {}

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


# -- coefficient-tuple kernels ---------------------------------------------
#
# Inputs are sequences of ints in range(p) with no trailing zero; outputs are
# tuples of the same kind.  Intermediate sums are left unreduced and reduced
# once at the end: Python ints do not overflow.


def _trim(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _add(a, b, p: int) -> tuple:
    """Sum of coefficient tuples; only equal lengths can cancel the top."""
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    if len(a) == len(b):
        return _trim(out)
    return tuple(out) + tuple(a[len(b) :])


def _neg(a, p: int) -> tuple:
    return tuple([-c % p for c in a])


def _mul(a, b, p: int) -> tuple:
    """Product of coefficient tuples.

    F_p has no zero divisors, so the top coefficient of a nonzero product is
    nonzero and there is nothing to trim.
    """
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return tuple(b) if c == 1 else tuple([c * y % p for y in b])
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, ai in enumerate(a):
        if ai:
            out[i : i + nb] = [o + ai * y for o, y in zip(out[i : i + nb], b)]
    return tuple([c % p for c in out])


def _synthetic(a, r, p: int):
    """Synthetic division by x - r: the quotient as a list, and a(r).

    One Horner pass at r; the running values are the quotient's entries.
    """
    q = [0] * (len(a) - 1)
    c = 0
    for k in range(len(a) - 1, 0, -1):
        c = (a[k] + r * c) % p
        q[k - 1] = c
    return q, ((a[0] + r * c) % p if a else 0)


def _divmod(a, b, p: int):
    """(quotient, remainder) of coefficient tuples for nonzero b."""
    db = len(b) - 1
    if len(a) <= db:
        return (), tuple(a)
    inv = pow(b[-1], -1, p)
    if not db:
        return tuple([c * inv % p for c in a]), ()
    if db == 1:
        # b = b1 (x - r): the quotient by x - r scaled by 1/b1, and a(r).
        q, c = _synthetic(a, -b[0] * inv % p, p)
        if inv != 1:
            q = [y * inv % p for y in q]
        return tuple(q), (c,) if c else ()
    rem = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k] * inv % p
        if c:
            q[k - db] = c
            lo = k - db
            rem[lo:k] = [r - c * y for r, y in zip(rem[lo:k], b)]
    return tuple(q), _trim([r % p for r in rem[:db]])


def _exquo(a, b, p: int) -> tuple:
    """a / b for a monic b that divides a exactly: the quotient alone.

    A constant b is 1 and a linear b is x - r, so neither needs an inverse
    or a remainder; a larger b takes the general long division.
    """
    db = len(b) - 1
    if not db:
        return tuple(a)
    if db == 1:
        return tuple(_synthetic(a, -b[0] % p, p)[0])
    return _divmod(a, b, p)[0]


def _derivative(a, p: int) -> tuple:
    """Formal derivative of a coefficient tuple."""
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _frobenius(a, p: int) -> tuple:
    """a^p: every c in F_p has c^p = c, so only the exponents are multiplied."""
    if not a:
        return ()
    out = [0] * (p * (len(a) - 1) + 1)
    out[::p] = a
    return tuple(out)


def _gcd(a, b, p: int) -> tuple:
    """Monic gcd of coefficient tuples by Euclid on lists; () for two zeros.

    Each step makes the divisor monic with one inverse, so the remainder
    loop needs no inverse and no product with one.  Euclid stops at a
    divisor of degree <= 1: a constant divisor makes the gcd 1, and a
    linear one b1 (x - r) makes it x - r when a(r) = 0 and 1 otherwise,
    which one Horner pass decides.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = list(a), list(b)
    while len(b) > 2:
        if b[-1] != 1:
            inv = pow(b[-1], -1, p)
            b = [c * inv % p for c in b]
        db = len(b) - 1
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k] % p
            if c:
                lo = k - db
                a[lo:k] = [r - c * y for r, y in zip(a[lo:k], b)]
        a, b = b, [r % p for r in a[:db]]
        while b and not b[-1]:
            b.pop()
    if b:
        if len(b) == 1:
            return (1,)
        r = -b[0] * pow(b[1], -1, p) % p
        c = 0
        for y in reversed(a):
            c = (c * r + y) % p
        return (1,) if c else ((-r) % p, 1)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return tuple(a)


def _poly(field: PrimeField, coeffs: tuple) -> "DensePoly":
    """Trusted constructor: coeffs is already a tuple of ints in range(p)
    with no trailing zero, so nothing is reduced or trimmed."""
    out = object.__new__(DensePoly)
    out.field = field
    out.coeffs = coeffs
    return out


class DensePoly:
    """Univariate polynomial over F_p, dense coefficient tuple, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        cs = [c % field.p for c in coeffs]
        self.field = field
        self.coeffs = _trim(cs)

    @classmethod
    def zero(cls, field: PrimeField) -> "DensePoly":
        return _poly(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "DensePoly":
        return _poly(field, (1,))

    @classmethod
    def x(cls, field: PrimeField) -> "DensePoly":
        return _poly(field, (0, 1))

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
            and other.coeffs == self.coeffs
            and other.field.p == self.field.p
        )

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __add__(self, other):
        return _poly(self.field, _add(self.coeffs, other.coeffs, self.field.p))

    def __neg__(self):
        return _poly(self.field, _neg(self.coeffs, self.field.p))

    def __sub__(self, other):
        p = self.field.p
        return _poly(self.field, _add(self.coeffs, _neg(other.coeffs, p), p))

    def __mul__(self, other):
        return _poly(self.field, _mul(self.coeffs, other.coeffs, self.field.p))

    def scale(self, c: int) -> "DensePoly":
        p = self.field.p
        c %= p
        if c == 0:
            return DensePoly.zero(self.field)
        return _poly(self.field, tuple([a * c % p for a in self.coeffs]))

    def __divmod__(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.coeffs, other.coeffs, self.field.p)
        return _poly(self.field, q), _poly(self.field, r)

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
        return _poly(self.field, _derivative(self.coeffs, self.field.p))

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
    return _poly(a.field, _gcd(a.coeffs, b.coeffs, a.field.p))


def _needs_parens(s: str) -> bool:
    # Top-level + or / means the string cannot be juxtaposed with '*t^i'.
    return ("+" in s) or ("/" in s) or ("-" in s) or (" " in s)


def _ratfunc(field: PrimeField, num: tuple, den: tuple) -> "RatFunc":
    """Trusted constructor from coefficient tuples: num and den are coprime,
    den is monic, and zero is () over (1,), so no gcd is taken and nothing
    is normalised."""
    out = object.__new__(RatFunc)
    out.field = field
    out.num_coeffs = num
    out.den_coeffs = den
    return out


def _henrici_sum(field: PrimeField, a, b, c, d) -> tuple:
    """(num, den) of a/b + c/d for nonzero canonical fractions.

    Henrici's sum (Knuth, TAOCP vol. 2, 4.5.1): one gcd of the
    denominators and, only when that is not 1, one gcd of the new
    numerator with it.
    """
    p = field.p
    # A constant denominator is 1: (a d + c)/d shares no factor with d.
    if len(b) == 1:
        return _add(_mul(a, d, p), c, p), d
    if len(d) == 1:
        return _add(a, _mul(c, b, p), p), b
    # gcd(b, b) = b for a monic b.
    g = b if b == d else poly_gcd(_poly(field, b), _poly(field, d)).coeffs
    if len(g) == 1:
        # Coprime denominators: a d + c b is coprime to b d.
        return _add(_mul(a, d, p), _mul(c, b, p), p), _mul(b, d, p)
    b1 = _exquo(b, g, p)
    t = _add(_mul(a, _exquo(d, g, p), p), _mul(c, b1, p), p)
    if not t:
        return (), (1,)
    # A common factor of t and b1 d can only come from g; a constant t has
    # none.
    if len(t) > 1:
        g2 = poly_gcd(_poly(field, t), _poly(field, g)).coeffs
        if len(g2) > 1:
            t, d = _exquo(t, g2, p), _exquo(d, g2, p)
    return t, _mul(b1, d, p)


def _henrici_product(field: PrimeField, a, b, c, d) -> tuple:
    """(num, den) of (a/b)(c/d) for nonzero canonical fractions.

    Henrici's product: cancel gcd(a, d) and gcd(c, b) first, so the
    product comes out canonical with no gcd of the product.
    """
    p = field.p
    # A constant has gcd 1 with anything, so a constant side skips its gcd.
    if len(a) > 1 and len(d) > 1:
        g = poly_gcd(_poly(field, a), _poly(field, d)).coeffs
        if len(g) > 1:
            a, d = _exquo(a, g, p), _exquo(d, g, p)
    if len(c) > 1 and len(b) > 1:
        g = poly_gcd(_poly(field, c), _poly(field, b)).coeffs
        if len(g) > 1:
            c, b = _exquo(c, g, p), _exquo(b, g, p)
    return _mul(a, c, p), _mul(b, d, p)


class RatFunc:
    """Rational function over F_p in canonical reduced form."""

    __slots__ = ("field", "num_coeffs", "den_coeffs")

    def __init__(self, num: DensePoly, den: DensePoly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        field = num.field
        n, d = num.coeffs, den.coeffs
        if not n:
            d = (1,)
        else:
            p = field.p
            if len(n) > 1 and len(d) > 1:
                g = poly_gcd(num, den).coeffs
                if len(g) > 1:
                    n, d = _exquo(n, g, p), _exquo(d, g, p)
            # Monic denominator pins down the representative uniquely.
            c = d[-1]
            if c != 1:
                inv = (pow(c, -1, p),)
                n, d = _mul(inv, n, p), _mul(inv, d, p)
        self.field = field
        self.num_coeffs = n
        self.den_coeffs = d

    @classmethod
    def zero(cls, field: PrimeField) -> "RatFunc":
        return _ratfunc(field, (), (1,))

    @classmethod
    def one(cls, field: PrimeField) -> "RatFunc":
        return _ratfunc(field, (1,), (1,))

    @classmethod
    def x(cls, field: PrimeField) -> "RatFunc":
        return _ratfunc(field, (0, 1), (1,))

    @classmethod
    def from_poly(cls, num: DensePoly) -> "RatFunc":
        return cls(num, DensePoly.one(num.field))

    @classmethod
    def from_int(cls, field: PrimeField, n: int) -> "RatFunc":
        return cls(DensePoly.constant(field, n), DensePoly.one(field))

    @property
    def num(self) -> DensePoly:
        return _poly(self.field, self.num_coeffs)

    @property
    def den(self) -> DensePoly:
        return _poly(self.field, self.den_coeffs)

    def is_poly(self) -> bool:
        return len(self.den_coeffs) == 1

    def __bool__(self):
        return bool(self.num_coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and other.num_coeffs == self.num_coeffs
            and other.den_coeffs == self.den_coeffs
            and other.field.p == self.field.p
        )

    def __hash__(self):
        return hash((self.field.p, self.num_coeffs, self.den_coeffs))

    def __add__(self, other):
        """Henrici's sum, remembered per field (see ``_henrici_sum``)."""
        a, b = self.num_coeffs, self.den_coeffs
        c, d = other.num_coeffs, other.den_coeffs
        if not a:
            return other
        if not c:
            return self
        field = self.field
        memo = field._add_memo
        key = (a, b, c, d)
        out = memo.get(key)
        if out is None:
            if len(memo) >= _FRACTION_MEMO_ENTRIES:
                memo.clear()
            out = memo[key] = _henrici_sum(field, a, b, c, d)
        return _ratfunc(field, out[0], out[1])

    def __neg__(self):
        field = self.field
        return _ratfunc(field, _neg(self.num_coeffs, field.p), self.den_coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Henrici's product, remembered per field (see ``_henrici_product``)."""
        a, b = self.num_coeffs, self.den_coeffs
        c, d = other.num_coeffs, other.den_coeffs
        field = self.field
        if not a or not c:
            return RatFunc.zero(field)
        memo = field._mul_memo
        key = (a, b, c, d)
        out = memo.get(key)
        if out is None:
            if len(memo) >= _FRACTION_MEMO_ENTRIES:
                memo.clear()
            out = memo[key] = _henrici_product(field, a, b, c, d)
        return _ratfunc(field, out[0], out[1])

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by the zero rational function")
        return self * other.inverse()

    def inverse(self) -> "RatFunc":
        """den/num scaled to a monic denominator; coprime as it stands."""
        num = self.num_coeffs
        if not num:
            raise ZeroDivisionError("inverse of the zero rational function")
        field = self.field
        inv = (field.inv(num[-1]),)
        return _ratfunc(field, _mul(inv, self.den_coeffs, field.p), _mul(inv, num, field.p))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        # Powers of coprime polynomials stay coprime, and a power of a monic
        # polynomial is monic: num^n / den^n is canonical as it stands (zero
        # included, as 0/1 gives 0/1 for n > 0 and 1/1 for n = 0).
        return _ratfunc(self.field, (self.num ** n).coeffs, (self.den ** n).coeffs)

    def __str__(self):
        if self.den.degree() == 0:
            return str(self.num)
        ns = str(self.num)
        if _needs_parens(ns):
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, str(self.den))

    def __repr__(self):
        return "RatFunc(p=%d, %s)" % (self.field.p, str(self))


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
        coeffs = _trim([rng.randrange(field.p) for _ in range(d + 1)])
        if monic and coeffs:
            coeffs = coeffs[:-1] + (1,)
        if coeffs or not (nonzero or monic):
            return _poly(field, coeffs)


def random_ratfunc(K, rng, max_degree, *, nonzero=False):
    """Random reduced fraction with numerator and denominator degree bounded."""
    num = random_poly(K.field, rng, max_degree, nonzero=nonzero)
    den = random_poly(K.field, rng, max_degree, monic=True)
    return RatFunc(num, den)
