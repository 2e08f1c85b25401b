"""The differential field K = F_p(x) and its subfield of constants.

A ``DerivedField`` is F_p(x) together with the derivation delta = w * d/dx
for a nonzero rational function w.  Its constants form the subfield
F = F_p(x^p), and K is an F-vector space with basis 1, x, ..., x^(p-1).
F is never materialized as a separate type: its elements are ordinary
rational functions that happen to satisfy delta(a) = 0, and the solvers
assert that property wherever an F-scalar is required.

``minimal_p_polynomial`` finds the monic p-polynomial of least exponent e,

    g(t) = t^(p^e) + a_1 t^(p^(e-1)) + ... + a_e t,   a_i constant,

with g(delta) = 0 as an F-linear operator on K.  The iterated powers
delta^(p^k) are themselves F-linear, so each is a p x p matrix over F in
the coordinate basis and the coefficients come out of one linear solve.

``MatrixRingAdapter`` wraps n x n matrices over K with the entrywise
derivation.  It exists to exercise the noncommutative code paths (the
commutator terms in the twisted arithmetic); it is not a division ring.
"""

from __future__ import annotations

from .errors import (
    InternalInvariantViolation,
    NoSolution,
    NotFound,
    ZeroDerivation,
)
from .linalg import Matrix
from .scalars import DensePoly, RatFunc, RationalFunctionField

__all__ = [
    "DerivedField",
    "PPolynomial",
    "minimal_p_polynomial",
    "p_polynomial_at_exponent",
    "MatrixRingAdapter",
    "KMatrix",
]


class DerivedField(RationalFunctionField):
    """F_p(x) with the derivation a |-> delta_of_x * da/dx."""

    __slots__ = ("delta_of_x",)

    def __init__(self, p: int, delta_of_x: RatFunc):
        super().__init__(p)
        if delta_of_x.field.p != p:
            raise ValueError("delta_of_x lives in the wrong characteristic")
        if not delta_of_x:
            raise ZeroDerivation("the derivation must be nonzero")
        self.delta_of_x = delta_of_x

    # -- coefficient-ring protocol used by the twisted polynomial layer --

    @property
    def char(self) -> int:
        return self.p

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

    def invert(self, a: RatFunc) -> RatFunc:
        return a.inverse()

    def delta(self, a: RatFunc) -> RatFunc:
        """Quotient rule: delta(u/v) = (u'v - uv') * w / v^2."""
        u, v = a.num, a.den
        du, dv = u.formal_derivative(), v.formal_derivative()
        num = du * v - u * dv
        return RatFunc(num, v * v) * self.delta_of_x

    def is_constant(self, a: RatFunc) -> bool:
        return not self.delta(a)

    def constant_basis(self):
        """F-basis 1, x, ..., x^(p-1) of K."""
        x = self.x()
        return [x ** j for j in range(self.p)]

    def coords(self, a: RatFunc):
        """Coordinates of a over F in the basis 1, x, ..., x^(p-1).

        Writes a = u/v as (u * v^(p-1)) / v^p; the denominator is now a
        p-th power, hence constant, and the numerator splits by exponent
        residue mod p.  Round-trips exactly: a == sum c_j x^j.
        """
        p = self.p
        u, v = a.num, a.den
        w = u * v ** (p - 1)
        vp = v ** p
        out = []
        for j in range(p):
            part = DensePoly(
                self.field,
                [c if (k % p) == j else 0 for k, c in enumerate(w.coeffs)],
            )
            # Dividing by x^j leaves exponents that are multiples of p.
            shifted = DensePoly(self.field, part.coeffs[j:]) if part else part
            cj = RatFunc(shifted, vp)
            out.append(cj)
        return tuple(out)

    def from_coords(self, cs) -> RatFunc:
        x = self.x()
        acc = self.zero()
        for j, c in enumerate(cs):
            if c:
                acc = acc + c * x ** j
        return acc

    def log_derivative(self, a: RatFunc) -> RatFunc:
        """delta(a)/a for nonzero a."""
        if not a:
            raise ZeroDivisionError("logarithmic derivative of zero")
        return self.delta(a) / a

    def random_element(self, rng, max_degree: int) -> RatFunc:
        from .scalars import random_ratfunc

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

    def terms(self):
        """Pairs (power of t, coefficient), highest first, monic lead included."""
        field = self.coeffs[0].field if self.coeffs else None
        lead = RatFunc.one(field) if field is not None else None
        out = [(self.p ** self.e, lead)]
        for i, a in enumerate(self.coeffs, start=1):
            out.append((self.p ** (self.e - i), a))
        return out

    def apply_operator(self, ring, a):
        """Evaluate g(delta) at a, i.e. delta^(p^e)(a) + sum a_i delta^(p^(e-i))(a).

        ring is any coefficient ring (the derived field or the matrix
        adapter); the constant coefficients a_i enter through ring.embed.
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
        return all(not self.apply_operator(K, b) for b in K.constant_basis())

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
        parts = ["t^%d" % self.p ** self.e]
        for i, a in enumerate(self.coeffs, start=1):
            if not a:
                continue
            power = self.p ** (self.e - i)
            tpart = "t" if power == 1 else "t^%d" % power
            s = str(a)
            if s == "1":
                parts.append(tpart)
            else:
                if ("+" in s) or ("/" in s) or (" " in s):
                    s = "(%s)" % s
                parts.append("%s*%s" % (s, tpart))
        return " + ".join(parts)

    def __repr__(self):
        return "PPolynomial(%s)" % str(self)


def _operator_matrix(K: DerivedField, op):
    """Matrix of an F-linear operator on K in the basis 1, x, ..., x^(p-1)."""
    cols = [K.coords(op(b)) for b in K.constant_basis()]
    return [tuple(col[i] for col in cols) for i in range(K.p)]


def _delta_power_matrices(K: DerivedField, max_k: int):
    """Matrices of delta^(p^k) over F for k = 0..max_k."""

    def delta_pow(k):
        def op(a, k=k):
            for _ in range(k):
                a = K.delta(a)
            return a

        return op

    return [_operator_matrix(K, delta_pow(K.p ** k)) for k in range(max_k + 1)]


def _annihilator_at(K: DerivedField, mats, e: int) -> PPolynomial:
    # Unknowns a_1..a_e: sum a_i * M_(e-i) = -M_e, solved entrywise.
    rows = []
    rhs = []
    for i in range(K.p):
        for j in range(K.p):
            rows.append([mats[e - i_][i][j] for i_ in range(1, e + 1)])
            rhs.append(-mats[e][i][j])
    sol, _ = Matrix(K, rows).solve(tuple(rhs))
    for c in sol:
        if not K.is_constant(c):
            raise NoSolution("p-polynomial coefficients drifted out of F")
    g = PPolynomial(K.p, e, sol)
    if not g.annihilates(K):
        raise NoSolution("solver produced a non-annihilating p-polynomial")
    return g


def p_polynomial_at_exponent(K: DerivedField, e: int) -> PPolynomial:
    """Monic exponent-e p-polynomial annihilating delta; NoSolution if none.

    Exponent 0 admits only g = t, whose operator is delta itself, so it
    annihilates nothing but the zero derivation.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        if K.delta(K.x()):
            raise NoSolution("exponent 0 forces g = t, and the derivation is nonzero")
        raise InternalInvariantViolation("zero derivation escaped the constructor")
    return _annihilator_at(K, _delta_power_matrices(K, e), e)


def minimal_p_polynomial(K: DerivedField, max_e: int = 3) -> PPolynomial:
    """Least-exponent monic p-polynomial annihilating delta.

    Tries e = 1, 2, ..., max_e; raises NotFound past the bound.  Minimality
    is by construction (smallest solvable e wins); the returned polynomial
    is re-verified on the coordinate basis.
    """
    mats = _delta_power_matrices(K, max_e)
    for e in range(1, max_e + 1):
        try:
            return _annihilator_at(K, mats, e)
        except NoSolution:
            continue
    raise NotFound("no annihilating p-polynomial with exponent <= %d" % max_e)


class KMatrix:
    """Square matrix over F_p(x); element of the adapter ring."""

    __slots__ = ("K", "n", "entries")

    def __init__(self, K: RationalFunctionField, n: int, entries):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("expected an %d x %d matrix" % (n, n))
        self.K = K
        self.n = n
        self.entries = entries

    def _zip(self, other, op):
        return KMatrix(
            self.K,
            self.n,
            [
                [op(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return KMatrix(self.K, self.n, [[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        n = self.n
        zero = self.K.zero()
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return KMatrix(self.K, n, out)

    def __pow__(self, m: int):
        out = KMatrix.scalar(self.K, self.n, self.K.one())
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __bool__(self):
        return any(any(e for e in r) for r in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, KMatrix)
            and other.n == self.n
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.n, self.entries))

    @classmethod
    def scalar(cls, K, n, c: RatFunc):
        zero = K.zero()
        return cls(K, n, [[c if i == j else zero for j in range(n)] for i in range(n)])

    def __str__(self):
        return "[%s]" % "; ".join(", ".join(str(e) for e in r) for r in self.entries)

    __repr__ = __str__


class MatrixRingAdapter:
    """n x n matrices over a derived field, derivation applied entrywise."""

    __slots__ = ("base", "n")

    is_commutative = False

    def __init__(self, base: DerivedField, n: int):
        if n < 1:
            raise ValueError("matrix size must be positive")
        self.base = base
        self.n = n

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def char(self) -> int:
        return self.base.p

    @property
    def base_field(self) -> DerivedField:
        """The field the coordinates over the constants live in."""
        return self.base

    @property
    def dim_over_constants(self) -> int:
        return self.n * self.n * self.base.p

    def zero(self) -> KMatrix:
        return KMatrix.scalar(self.base, self.n, self.base.zero())

    def one(self) -> KMatrix:
        return KMatrix.scalar(self.base, self.n, self.base.one())

    def embed(self, c: RatFunc) -> KMatrix:
        return KMatrix.scalar(self.base, self.n, c)

    def of(self, rows) -> KMatrix:
        return KMatrix(self.base, self.n, rows)

    def delta(self, a: KMatrix) -> KMatrix:
        return KMatrix(
            self.base, self.n, [[self.base.delta(e) for e in r] for r in a.entries]
        )

    def is_constant(self, a: KMatrix) -> bool:
        return all(self.base.is_constant(e) for r in a.entries for e in r)

    def invert(self, a: KMatrix) -> KMatrix:
        try:
            inv = Matrix(self.base, a.entries).inverse()
        except NoSolution:
            raise ZeroDivisionError("matrix is not invertible") from None
        return KMatrix(self.base, self.n, inv.rows)

    def constant_basis(self):
        """Units E_kl x^j: an F-basis of the matrix ring."""
        out = []
        zero = self.base.zero()
        for k in range(self.n):
            for l in range(self.n):
                for xj in self.base.constant_basis():
                    rows = [[zero] * self.n for _ in range(self.n)]
                    rows[k][l] = xj
                    out.append(KMatrix(self.base, self.n, rows))
        return out

    def coords(self, a: KMatrix):
        out = []
        for k in range(self.n):
            for l in range(self.n):
                out.extend(self.base.coords(a.entries[k][l]))
        return tuple(out)

    def from_coords(self, cs) -> KMatrix:
        p = self.base.p
        it = iter(cs)
        rows = []
        for k in range(self.n):
            row = []
            for l in range(self.n):
                row.append(self.base.from_coords([next(it) for _ in range(p)]))
            rows.append(row)
        return KMatrix(self.base, self.n, rows)

    def random_element(self, rng, max_degree: int) -> KMatrix:
        from .scalars import random_ratfunc

        return KMatrix(
            self.base,
            self.n,
            [
                [random_ratfunc(self.base, rng, max_degree) for _ in range(self.n)]
                for _ in range(self.n)
            ],
        )

    def __repr__(self):
        return "MatrixRingAdapter(n=%d, base=%r)" % (self.n, self.base)
