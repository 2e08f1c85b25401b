"""Exact arithmetic for prime fields, dense polynomials, and rational functions.

Representation choices, which everything above this module relies on:

* Elements of F_p are Python ints in ``range(p)``; ``PrimeField`` is the
  context object: it holds the modulus and the field's two fraction memos
  (below).
* ``DensePoly`` is a read-only view of a coefficient tuple, lowest degree
  first, whose last entry is nonzero; the zero polynomial is the empty
  tuple.  ``degree()`` is -1 for zero.  It has no arithmetic: every
  polynomial operation runs on the tuples, in the kernels below, and a
  view only carries a tuple in and out of the public API (``RatFunc``,
  ``poly_gcd``, ``random_poly``, printing).
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
  () over (1,).  ``RatFunc``'s operators build their results this way.

The arithmetic runs on coefficient tuples in private kernels (``_add``,
``_neg``, ``_mul``, ``_remainder``, ``_exquo``, ``_gcd``,
``_derivative``) that take p as an argument and reduce mod p once per
output entry; ``_frobenius`` takes the power of p instead and only moves
coefficients, and ``_pow`` builds every polynomial power from such
spreads.  ``_exquo`` is the quotient by a monic divisor known to divide,
and every exact division in the fraction arithmetic goes through it: a
constant divisor is 1, a linear one is synthetic (Horner at its root,
``_synthetic``), with no inverse and no remainder, and a larger one takes
the quotient loop of ``_remainder``, the long division on packed ints
like the products, after both operands are cut to the entries that
decide the quotient.  Every Euclid step takes its remainder from
``_remainder``, and Euclid stops at a divisor of degree <= 1, which
decides the gcd with one Horner pass.
Fraction sums and products are Henrici's (Knuth, TAOCP vol. 2, 4.5.1): a
sum takes gcd(b, d) and, only when that is not 1, one more gcd of the new
numerator with it; a product cancels the cross gcds gcd(a, d) and
gcd(c, b), and neither needs a final gcd.

Each ``PrimeField`` remembers the sums and the products of nonzero
fractions on it, in two memos keyed by the operands' four coefficient
tuples (a, b, c, d).  The field fixes p, so the key is complete.  A memo
value is the result's (numerator, denominator) tuple pair, never a
``RatFunc``: a fraction points back at its field, and a fraction in the
field's memo would make every field cyclic garbage.  A repeat costs one
lookup and one ``_ratfunc`` wrap.  Differences and quotients, and every
layer above that adds or multiplies fractions, reach the memos through
the two operators; a difference looks up a/b + (-c)/d without building
-c/d.  A miss runs Henrici's code (``_henrici_sum``,
``_henrici_product``), which meets the same few denominators again and
again with new numerators, so a third memo on the field remembers each
cancellation: ``_cancel`` maps an ordered pair (u, v) to (g, u/g, v/g),
g the monic gcd, again as tuples.  Every gcd taken only to be divided
out, here, in the ``RatFunc`` constructor and in ``towers`` (the
quotient rule and the coordinates over the constants), is read from it;
``poly_gcd``, on ``DensePoly`` views of the tuples, runs only on a miss.
Each memo is emptied when it holds ``_FRACTION_MEMO_ENTRIES`` entries.

Polynomial powers read n in base p (``_pow``).  Over F_p, (a^d)^(p^k)
is the ``_frobenius`` spread of a^d by p^k, so a^n is the product over
the nonzero digits d_k of n of the spreads of a^(d_k): a^p costs no
product, and a^n one per nonzero digit past the first, besides the small
powers a^(d_k) with d_k < p.  A monomial c x^m is c^n x^(mn) and costs
none.  Every polynomial power in the library goes through ``_pow``.  A
``RatFunc`` power raises its numerator and its denominator separately,
since the powers of a canonical fraction's parts are coprime with a
monic denominator, so num^n / den^n needs no gcd.  ``_power`` is the
square-and-multiply routine: the small powers a^(d_k) use it, and so do
``DiffPoly`` powers, where Frobenius does not hold.  It is private, so it
stays out of ``__all__``.

Printing: ``DensePoly`` and ``RatFunc`` print themselves, and every sum
of ring terms above them (a ``DiffPoly``, a ``PPolynomial``, a
quaternion) is written by ``_terms_str``, which holds the notation: zero
terms left out, a unit alone for a coefficient 1, parentheses where
``_needs_parens`` asks for them.  The parser reads back every such
string over K.
"""

from __future__ import annotations

import operator

__all__ = [
    "PrimeField",
    "DensePoly",
    "poly_gcd",
    "RatFunc",
    "RationalFunctionField",
    "random_poly",
    "random_ratfunc",
]


def _power(base, n: int, one, mul=operator.mul):
    """base ** n by square-and-multiply, for any associative product mul.

    Squares only while higher bits remain, so n >= 1 costs
    (bit_length - 1) squarings and (popcount - 1) other products; n = 0
    returns ``one``.
    """
    if n < 0:
        raise ValueError("negative exponent %d" % n)
    out = None
    while True:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if not n:
            return one if out is None else out
        base = mul(base, base)


# Most entries a PrimeField remembers in each fraction memo before it
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

    __slots__ = ("p", "_add_memo", "_mul_memo", "_cancel_memo")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p > self.MAX_MODULUS:
            raise ValueError("modulus must be a prime in [2, 2**16], got %r" % (p,))
        if not _is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        # (a, b, c, d) -> (num, den) of a/b + c/d and of (a/b)(c/d), and
        # (u, v) -> (g, u/g, v/g) for g = gcd(u, v), all coefficient tuples;
        # see RatFunc.__add__ and __mul__, and _cancel.
        self._add_memo = {}
        self._mul_memo = {}
        self._cancel_memo = {}

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
#
# Products are by Kronecker substitution (von zur Gathen and Gerhard, Modern
# Computer Algebra, 8.4): each operand is packed into one int, w bytes per
# coefficient, the two ints are multiplied once, and slot k of the product
# is the unreduced coefficient of x^k.  That is exact while no slot sum
# overflows its slot.  An entry of a product of lengths n <= m is a sum of
# at most n products of two coefficients, so it is at most n (p-1)^2, and w
# is the fewest bytes that hold that bound:
#
# * w = 1 while n (p-1)^2 <= 255 (p <= 11), where bytes.translate with the
#   table _residues(p) unpacks and reduces every slot at C level;
# * otherwise, while w (p-1) <= 255, byte j of every slot is taken at once
#   (a stride-w slice) and translated by _byte_residues(p, j), which maps b to
#   b 256^j mod p.  Slot k of the sum of those w one-byte ints is then at
#   most w (p-1), and one more translate reduces it: still C level;
# * past that (p > 127 at w = 2), each slot is read as one little-endian
#   int and reduced mod p, slot by slot, on every host; w (p-1) > 255
#   needs p >= 89.
#
# The slots hold the coefficients as they are, so the input contract is
# strict here: every coefficient must already lie in range(p).  An entry in
# [p, 255] overflows a slot silently.  Long division (_remainder), and with
# it Euclid, packs its operands the same way, with a slot bound of its own.

# p -> the 256-byte table that maps each byte to its residue mod p, and
# (p, j) -> the one that maps b to b 256^j mod p, built on first use:
# building tables at import measurably slows `import diffext`.  Only primes
# below 256 use them, and j < w, so it holds a few constant tables per such
# prime, never a result.  _residues(p) keeps the plain key: every one-byte
# product looks it up.
_RESIDUE_TABLES = {}


def _residues(p: int) -> bytes:
    table = _RESIDUE_TABLES.get(p)
    if table is None:
        table = _RESIDUE_TABLES[p] = (bytes(range(p)) * (256 // p + 1))[:256]
    return table


def _byte_residues(p: int, j: int) -> bytes:
    table = _RESIDUE_TABLES.get((p, j))
    if table is None:
        m = pow(256, j, p)
        table = _RESIDUE_TABLES[p, j] = bytes([b * m % p for b in range(256)])
    return table


def _pack(a, w: int, p: int) -> int:
    """a packed w bytes per coefficient, lowest degree in the lowest slot.

    A coefficient takes the bytes of p - 1: one below 256, two below 65537,
    and w must hold them.
    """
    if w == 1:
        return int.from_bytes(bytes(a), "little")
    buf = bytearray(w * len(a))
    if p < 256:
        buf[::w] = bytes(a)
    else:
        for j in range(((p - 1).bit_length() + 7) // 8):
            buf[j::w] = bytes([c >> 8 * j & 255 for c in a])
    return int.from_bytes(buf, "little")


def _unpack(n: int, w: int, size: int, p: int) -> list:
    """The first size w-byte slots of n, each reduced mod p (see above)."""
    raw = n.to_bytes(w * size, "little")
    if w * (p - 1) > 255:
        return [int.from_bytes(raw[i : i + w], "little") % p for i in range(0, w * size, w)]
    total = 0
    for j in range(w):
        total += int.from_bytes(raw[j::w].translate(_byte_residues(p, j)), "little")
    return list(total.to_bytes(size, "little").translate(_residues(p)))


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
    """Product of coefficient tuples, by Kronecker substitution (see above).

    F_p has no zero divisors, so the top coefficient of a nonzero product is
    nonzero and there is nothing to trim.
    """
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    na, nb = len(a), len(b)
    if na == 1:
        c = a[0]
        return tuple(b) if c == 1 else tuple([c * y % p for y in b])
    top = na * (p - 1) ** 2
    if top < 256:
        prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
        return tuple(prod.to_bytes(na + nb - 1, "little").translate(_residues(p)))
    w = (top.bit_length() + 7) // 8
    return tuple(_unpack(_pack(a, w, p) * _pack(b, w, p), w, na + nb - 1, p))


def _shifted_sums(polys, columns, p: int) -> list:
    """[sum of c x^s polys[k] over (c, s, k) in terms, for terms in columns].

    Each column is a list of terms (c, s, k) with c in range(1, p), and each
    result is a coefficient tuple.  The polynomials are packed once, as in
    _mul, and a column is one sum of shifted multiples of the packed ints:
    a slot of it is at most the column's sum of c, times p - 1.
    """
    top = (p - 1) * max([1] + [sum([c for c, _, _ in terms]) for terms in columns])
    w = (top.bit_length() + 7) // 8
    packed = [_pack(P, w, p) for P in polys]
    out = []
    for terms in columns:
        n = 0
        for c, s, k in terms:
            n += c * packed[k] << 8 * w * s
        out.append(_unpacked(n, w, p))
    return out


def _unpacked(n: int, w: int, p: int) -> tuple:
    """Coefficient tuple of n, a sum of polynomials packed w bytes per slot.

    Each slot is reduced mod p, so no slot of n may reach 256^w.
    """
    size = -(-n.bit_length() // (8 * w))
    if w == 1:
        return tuple(n.to_bytes(size, "little").translate(_residues(p)).rstrip(b"\0"))
    return _trim(_unpack(n, w, size, p))


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


def _remainder(a, b, p: int, q=None, exact=False):
    """a mod b by long division on packed ints, for len(a) >= len(b) >= 3.

    a and b are sequences of ints in range(p) with no trailing zero, and so
    is the result: bytes at one-byte slots, which Euclid packs again with
    no conversion, and a tuple at wider ones.  When a list q of length
    len(a) - len(b) + 1 is given, the quotient's entries go into it; when
    ``exact`` is set as well, the caller wants q alone, and the remainder's
    slots are never read out (None is returned).  Both operands are packed
    as in _mul:

    * at p = 2 every slot holds 0 or 1, so a step is a ^= b x^k and the
      next leading slot is read off a.bit_length(); nothing is reduced;
    * at odd p a step adds (p - c) b x^k for the quotient entry c, which
      leaves the leading slot at a multiple of p.  A slot holds its
      coefficient plus at most (p-1)^2 from each step that reaches it, and
      at most min(steps, len(b)) steps do, so the slot width is the fewest
      bytes that hold (p-1)(1 + min(steps, len(b)) (p-1)), as _mul picks
      it from the operand length.  Only the remainder's slots are reduced,
      once, at the end: by one bytes.translate at one byte, and by
      _unpacked when wider.
    """
    db = len(b) - 1
    steps = len(a) - db
    if p == 2:
        rem, div = _pack(a, 1, 2), _pack(b, 1, 2)
        k = steps - 1
        while k >= 0:
            if q is not None:
                q[k] = 1
            rem ^= div << 8 * k
            k = ((rem.bit_length() - 1) >> 3) - db
        if exact:
            return None
        return rem.to_bytes(db, "little").rstrip(b"\0")
    top = (p - 1) * (1 + (p - 1) * (steps if steps <= db else db + 1))
    w = (top.bit_length() + 7) // 8
    rem, div = _pack(a, w, p), _pack(b, w, p)
    bits, mask = 8 * w, (1 << 8 * w) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    shift, lead = bits * steps, bits * (len(a) - 1)
    for k in range(steps - 1, -1, -1):
        shift -= bits
        c = (rem >> lead & mask) * inv % p
        lead -= bits
        if c:
            if q is not None:
                q[k] = c
            rem += (p - c) * div << shift
    if exact:
        return None
    if w == 1:
        return rem.to_bytes(len(a), "little")[:db].translate(_residues(p)).rstrip(b"\0")
    return _unpacked(rem & (1 << bits * db) - 1, w, p)


def _exquo(a, b, p: int) -> tuple:
    """a / b for a monic b that divides a exactly: the quotient alone.

    Step k of the long division reads slot k + deg b and adds multiples of
    b x^k, so with s = len(a) - deg b steps only the top s entries of a and
    of b reach a slot that is read: both are cut to those first, which
    leaves a divisor of degree s - 1.  A constant b is then 1 and a linear
    b is x - r, so neither needs an inverse or a remainder; a larger b runs
    the quotient loop of the packed long division, and no remainder is
    formed.
    """
    db = len(b) - 1
    steps = len(a) - db
    if steps <= 0:
        return ()
    if db >= steps:
        cut = db - steps + 1
        a, b, db = a[cut:], b[cut:], steps - 1
    if not db:
        return tuple(a)
    if db == 1:
        return tuple(_synthetic(a, -b[0] % p, p)[0])
    q = [0] * steps
    _remainder(a, b, p, q, exact=True)
    return tuple(q)


def _derivative(a, p: int) -> tuple:
    """Formal derivative of a coefficient tuple."""
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _frobenius(a, n: int) -> tuple:
    """a^n for a power n of p: every c in F_p has c^n = c, so only the
    exponents are multiplied."""
    if not a:
        return ()
    out = [0] * (n * (len(a) - 1) + 1)
    out[::n] = a
    return tuple(out)


def _pow(a, n: int, p: int) -> tuple:
    """a^n for a coefficient tuple and n >= 0, from the base-p digits of n.

    With n = sum d_k p^k, a^n is the product of the _frobenius spreads of
    a^(d_k) by p^k, each a^(d_k) by square-and-multiply; n < p is one
    digit, with no spread.  A monomial c x^m is c^n x^(mn), with no product.
    """
    if not a:
        return () if n else (1,)
    if len(a) - a.count(0) == 1:
        return (0,) * ((len(a) - 1) * n) + (pow(a[-1], n, p),)
    mul = lambda u, v: _mul(u, v, p)
    if n < p:
        return _power(a, n, (1,), mul)
    out, spread = None, 1
    while n:
        n, digit = divmod(n, p)
        if digit:
            term = _frobenius(_power(a, digit, None, mul), spread)
            out = term if out is None else _mul(out, term, p)
        spread *= p
    return (1,) if out is None else out


def _gcd(a, b, p: int) -> tuple:
    """Monic gcd of coefficient tuples by Euclid; () for two zeros.

    Each remainder comes from the packed long division, ``_remainder``.
    Euclid stops at a divisor of degree <= 1: a constant divisor makes the
    gcd 1, and a linear one b1 (x - r) makes it x - r when a(r) = 0 and 1
    otherwise, which one Horner pass decides.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 2:
        a, b = b, _remainder(a, b, p)
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
    """Univariate polynomial over F_p: a read-only view of a coefficient
    tuple, low degree first.  The arithmetic runs on the tuples."""

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
    def constant(cls, field: PrimeField, c: int) -> "DensePoly":
        return cls(field, (c,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

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


def _cancel(field: PrimeField, u: tuple, v: tuple) -> tuple:
    """(g, u/g, v/g) for g the monic gcd of coefficient tuples u and v, not
    both zero, remembered per field and ordered pair.

    A miss takes the gcd through ``poly_gcd`` and the cofactors by
    ``_exquo``; a gcd of 1 leaves u and v as they are.
    """
    memo = field._cancel_memo
    key = (u, v)
    out = memo.get(key)
    if out is None:
        if len(memo) >= _FRACTION_MEMO_ENTRIES:
            memo.clear()
        g = poly_gcd(_poly(field, u), _poly(field, v)).coeffs
        if len(g) > 1:
            p = field.p
            u, v = _exquo(u, g, p), _exquo(v, g, p)
        out = memo[key] = (g, u, v)
    return out


def _needs_parens(s: str) -> bool:
    # Top-level + or / means the string cannot be juxtaposed with '*t^i'.
    return ("+" in s) or ("/" in s) or ("-" in s) or (" " in s)


def _terms_str(terms) -> str:
    """The sum of (coefficient, unit) pairs, in the order given.

    The one notation for a printed sum of ring terms (``DiffPoly``,
    ``PPolynomial``, ``Quaternion``).  A coefficient is a ring element or
    the string it prints as.  A zero coefficient drops its term, unprinted;
    one that prints as 1 leaves the unit alone; an empty unit leaves the
    coefficient alone; any other coefficient stands before ``*unit``, in
    parentheses when ``_needs_parens`` says so.  The empty sum is 0.
    """
    out = []
    for c, unit in terms:
        if not c:
            continue
        s = str(c)
        if not unit:
            out.append(s)
        elif s == "1":
            out.append(unit)
        else:
            out.append(("(%s)*%s" if _needs_parens(s) else "%s*%s") % (s, unit))
    return " + ".join(out) or "0"


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
    g, b1, d1 = (b, (1,), (1,)) if b == d else _cancel(field, b, d)
    t = _add(_mul(a, d1, p), _mul(c, b1, p), p)
    if not t:
        return (), (1,)
    # With coprime denominators a d + c b is coprime to b d.  Otherwise a
    # common factor of t and b1 d can only come from g; a constant t has
    # none.
    if len(g) > 1 and len(t) > 1:
        g2, t1, _ = _cancel(field, t, g)
        if len(g2) > 1:
            t, d = t1, _exquo(d, g2, p)
    return t, _mul(b1, d, p)


def _henrici_product(field: PrimeField, a, b, c, d) -> tuple:
    """(num, den) of (a/b)(c/d) for nonzero canonical fractions.

    Henrici's product: cancel gcd(a, d) and gcd(c, b) first, so the
    product comes out canonical with no gcd of the product.
    """
    p = field.p
    # A constant has gcd 1 with anything, so a constant side skips its gcd.
    if len(a) > 1 and len(d) > 1:
        _, a, d = _cancel(field, a, d)
    if len(c) > 1 and len(b) > 1:
        _, c, b = _cancel(field, c, b)
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
                _, n, d = _cancel(field, n, d)
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
    def from_int(cls, field: PrimeField, n: int) -> "RatFunc":
        return cls(DensePoly.constant(field, n), DensePoly.one(field))

    @property
    def num(self) -> DensePoly:
        return _poly(self.field, self.num_coeffs)

    @property
    def den(self) -> DensePoly:
        return _poly(self.field, self.den_coeffs)

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
        return self._plus(other.num_coeffs, other.den_coeffs)

    def _plus(self, c, d):
        """self + c/d for a canonical c/d on self's field, through the add
        memo."""
        a, b = self.num_coeffs, self.den_coeffs
        field = self.field
        if not a:
            return _ratfunc(field, c, d)
        if not c:
            return self
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
        """self + (-other), keyed (a, b, -c, d) in the add memo; -other is
        never built, and at p = 2 -c is c."""
        c, p = other.num_coeffs, self.field.p
        return self._plus(c if p == 2 else _neg(c, p), other.den_coeffs)

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
        inv = (pow(num[-1], -1, field.p),)
        return _ratfunc(field, _mul(inv, self.den_coeffs, field.p), _mul(inv, num, field.p))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        # Powers of coprime polynomials stay coprime, and a power of a monic
        # polynomial is monic: num^n / den^n is canonical as it stands (zero
        # included, as 0/1 gives 0/1 for n > 0 and 1/1 for n = 0).
        p = self.field.p
        return _ratfunc(self.field, _pow(self.num_coeffs, n, p), _pow(self.den_coeffs, n, p))

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
