"""Nonassociative quotient algebras of a twisted polynomial ring.

Fix a derived field K, or the quaternion ring Q over it, as the coefficient
ring A with derivation delta, let g be a p-polynomial over F annihilating
delta (checked once, by the split g = h(z1) of towers.z1_split, which the
algebra keeps), and pick d in A.  The
quotient of A[t; delta] by the left ideal generated by f = g(t) - d carries
the product

    u o v = (u * v) mod f      (right division remainder),

on representatives of degree below m = deg f, formed as sum u_i ((t^i v)
mod f) with one reduced t-step per power, (t s) mod f = t s - s_(m-1) f
(see AlgebraElement.__mul__): no coefficient above t^(m-1) and no
quotient is formed.  The result is an algebra over
the constant subfield F which is associative exactly when d is a central
constant, equivalently when f is right-invariant.  Maps between these
algebras, the automorphisms and the shifts t -> t - a, are descriptors in
the autos layer.

Nuclei, center and centralizers are common kernels of F-linear maps on
coordinates, all computed by one routine: a running F-basis is cut down one
map at a time, then put in the canonical free-column form.  Every map is an
element-level product read back in coordinates, and the nuclei come from
Petit's theory of these algebras (see ExtAlgebra.nucleus).  Over both
coefficient rings z = g(t) is central, so associativity is "d is a central
constant" (ring.as_scalar) and the right nucleus is the centralizer of d.
Both rings are division rings, so left = middle = A when the quotient is
not associative, with no map.  Over the derived field the full nucleus is
K, and so is the right nucleus at e = 1; the right nucleus at e >= 2, and
over Q the right and full nuclei, are the kernel of the commutator with d.
The table of structure constants over F is built only on request, from the
action of t and of the ring basis, never from the dim^2 basis products: left
scaling by a coefficient commutes with the reduction mod the monic f, and
for deg u < m one t-step reduces as (t u) mod f = t u - u_(m-1) f, so each
basis element needs m - 1 t-steps, and each row is a left-multiplication
matrix over F applied block by block (see structure_constants).  The
table, the probe rows and the algebra product share that one reduced
t-step (ExtAlgebra._t_mod_f), which touches only the nonzero lower
coefficients of f (two for t^p - a t - d), and the coordinates are
reduced in y = x^p (see towers.DerivedField.coords).
Every entry is still checked to lie in F, and tables above
MAX_TABLE_ENTRIES coordinates are refused before any work.

Linear right factors t - b of f are the solutions of V_g(b) = d.  The
candidates are scalars, and V_g(K) lies in F (Fact A, see
linear_right_factor_search), so only a d = embed(c) with c in F is
searched, on c, the same way over both rings.  The search runs over
fractions N/v of bounded height, one monic denominator v at a time.  V_g
is additive and commutes with F_p-scalars, so the numerators that work for
one v form an affine F_p-space, found by one linear solve over F_p on ints
(linalg.solve_columns_mod_p, on the columns of the unknowns); the
smallest-code solution is the witness a plain
enumeration of the numerators would meet first.  At e = 1 a pole of c at
infinity of order D above p sigma, sigma the most a delta raises the pole
order there, fixes the pole order D/p of every solution, since b^p
dominates V_z1(b); the first witness is in lowest terms, so only the v of
degree at most bound - D/p are tried, none when D/p > bound (see
linear_right_factor_search).  The system comes without a fraction: u^p
is a constant for every polynomial u, so Jacobson's p-step on a pair
reads

    V_p(P/u) = (P^p + delta^(p-1)(u^(p-1) P)) / u^p,

so V_z1(N/v), for z1 = t^p - a t, is a polynomial over v^p times a fixed
one.  Every annihilating g is h(z1) for a p-polynomial h over F, the split
the algebra keeps, so V_g = h(V_z1), and h acts on such a fraction by
Frobenius spreads.  V_g(N/v) = d
becomes a polynomial identity, cleared by v^(p^e) and by the denominators
of d, of delta(x), of a and of the coefficients of h, whose coefficients
are F_p-linear in those of N (see _vg_columns).  The honest
route, which reads the images fn(x^i/v) in coordinates and clears them of
denominators one coordinate at a time, is the tests' reference
(tests/oracles.py).  The columns feed the one bounded-height search,
_bounded_height_witness, which refuses a search of more than
MAX_SEARCH_DENOMINATORS denominators before any work.  A d that is not
a constant scalar needs no search (Fact A); over the derived field with g
the closed form (t^p - a t)^(p^(e-1)), h = s^(p^(e-1)) in the split and
every g at e = 1, f is moreover irreducible (see division_verdict).
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .diffpoly import DiffPoly, _left_combination, _t_step, p_poly_as_diffpoly, v_g
from .errors import InternalInvariantViolation, NoSolution, UnsupportedInstance
from .linalg import Matrix, solve_columns_mod_p
from .scalars import (
    DensePoly, RatFunc, _add, _derivative, _exquo, _frobenius, _mul, _pack, _poly, _pow, _residues,
    _shifted_sums, _unpacked,
)
from .towers import PPolynomial, z1_split

__all__ = ["ExtAlgebra", "AlgebraElement", "NUCLEUS_SLOTS"]

# The slots nucleus() accepts; the --which choices of diffext nucleus.
NUCLEUS_SLOTS = ("left", "middle", "right", "full")

# Largest structure table, in coordinates (dim^3), that structure_constants
# builds.  Not an option: it keeps `diffext build` from running for minutes
# and filling memory.  An exponent-one instance over K has dim = p^2: p = 13
# (169^3, about 4.8 million) is built, p = 17 (about 24 million) is refused.
MAX_TABLE_ENTRIES = 10 ** 7

# Most monic denominators, sum of p^k over k <= den_bound (the degree cap, or
# the bound where no cap applies), that one bounded-height search tries.  Not
# an option: it keeps `diffext divcheck --bound N` from running for hours.  A fraction-free system over the derived
# field, with its column solve, costs about 0.1 to 0.15 ms per denominator at
# bounds 5 to 15 (shared 2-CPU machine, Python 3.11), so the largest search
# allowed runs under a minute: p = 2 up to bound 15 (9.7 s exhaustive,
# median of 3 runs), p = 3 up to 10 (10.7 s), p = 5 up to 7 (13.8 s), p = 7
# up to 5 (2.7 s).
MAX_SEARCH_DENOMINATORS = 10 ** 5

# Most work, samples x m^5 x c^3 with m = deg f and c = 1 over K, 4 over
# Q (the parts of a coefficient), that one is_division_probe call does: each
# sample is one m x m elimination over the coefficient ring, whose entries
# grow with m.  Not an option: it keeps `diffext verify --suite division`
# from running for minutes.  Seconds per sample at delta(x) = x, d = x on a
# 2-CPU machine with Python 3.11: over K 0.0006 at p = 3, 0.0047 at p = 5,
# 0.041 at p = 7, 0.26 at p = 11, 1.1 at p = 13 and 4.0 at p = 17; over Q
# 0.015 at p = 3, 0.29 at p = 5 and 2.2 at p = 7.  So the suite's 40 samples
# run up to p = 13 over K (about 45 s) and are refused from p = 17, and over
# Q p = 7 runs up to 18 samples (about 40 s).
MAX_PROBE_WORK = 2 * 10 ** 7


class AlgebraElement:
    """Element of the quotient, stored as its representative of low degree.

    A sum, a difference and a product (see __mul__) of representatives
    stay below deg f; a representative of degree deg f or more, as
    element() may be given, is reduced by right division
    (DiffPoly.right_divmod).
    """

    __slots__ = ("algebra", "rep")

    def __init__(self, algebra: "ExtAlgebra", rep: DiffPoly):
        if rep.degree() >= algebra.f.degree():
            rep = rep.right_divmod(algebra.f)[1]
        self.algebra = algebra
        self.rep = rep

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.rep - other.rep)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.rep)

    def __mul__(self, other):
        """u o v = sum u_i ((t^i v) mod f): left scaling commutes with the
        reduction, and each (t^i v) mod f is one reduced t-step
        (ExtAlgebra._t_mod_f) from the last, so no coefficient above
        t^(m-1) and no quotient is formed."""
        self._check(other)
        alg = self.algebra
        ring = alg.ring
        acc = _left_combination(ring, self.rep.coeffs, alg._padded(other.rep), alg._t_mod_f, alg.f.degree())
        return AlgebraElement(alg, DiffPoly(ring, acc))

    def _check(self, other):
        if other.algebra != self.algebra:
            raise ValueError("elements of different algebras")

    def __bool__(self):
        return bool(self.rep)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra == self.algebra
            and other.rep == self.rep
        )

    def __hash__(self):
        return hash(self.rep)

    def degree(self) -> int:
        return self.rep.degree()

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return "AlgebraElement(%s)" % str(self.rep)


class ExtAlgebra:
    """Quotient algebra (A, delta, d) of A[t; delta] modulo g(t) - d."""

    def __init__(self, ring, g: PPolynomial, d):
        if g.p != ring.p:
            raise ValueError("p-polynomial characteristic mismatch")
        # The nuclei, is_associative and division_verdict use that z = g(t)
        # is central, which needs g over F and g(delta) = 0: g = h(z1), the
        # split (a1, [h_(e-1), ..., h_0]) of towers.z1_split, which the
        # verdicts and the factor search read.  The derivation acts on the
        # parts of a quaternion, so the base field decides.
        self.z1_split = z1_split(ring.base_field, g)
        self.ring = ring
        self.g = g
        self.d = d
        gt = p_poly_as_diffpoly(g, ring)
        self.f = gt - DiffPoly.constant(ring, d)
        if not self.f.is_monic() or self.f.degree() != g.degree():
            raise InternalInvariantViolation("modulus must stay monic of degree p^e")
        self._ring_basis = ring.constant_basis()
        self._table = None

    # -- bookkeeping ---------------------------------------------------

    @property
    def base_field(self):
        """The coefficient structure whose elements appear in coordinates."""
        return self.ring.base_field

    @property
    def dim(self) -> int:
        """Dimension over the constant subfield F."""
        return self.f.degree() * self.ring.dim_over_constants

    def __eq__(self, other):
        return other is self or (
            isinstance(other, ExtAlgebra)
            and other.ring == self.ring
            and other.g == self.g
            and other.d == self.d
        )

    def __hash__(self):
        return hash((self.g, self.d))

    def __repr__(self):
        return "ExtAlgebra(g=%s, d=%s)" % (self.g, self.d)

    # -- elements -------------------------------------------------------

    def element(self, rep: DiffPoly) -> AlgebraElement:
        return AlgebraElement(self, rep)

    def scalar(self, a) -> AlgebraElement:
        """Embed a coefficient-ring element as a degree-0 class."""
        return AlgebraElement(self, DiffPoly.constant(self.ring, a))

    def one(self) -> AlgebraElement:
        return self.scalar(self.ring.one())

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, DiffPoly.zero(self.ring))

    def t(self) -> AlgebraElement:
        return AlgebraElement(self, DiffPoly.t(self.ring))

    def basis(self):
        """F-basis: ring basis element times t^i, i below deg f."""
        return self._monomials(self._ring_basis)

    def k_basis(self):
        """Basis as a left K-module: u t^i, i below deg f, for u in 1 over K
        and in 1, i, j, ij over Q.

        Those u are the ring basis elements with no power of x, every p-th
        of constant_basis(); K is central in the ring, and k (u t^i) = (k u)
        t^i needs no reduction, so two left K-linear maps on the algebra
        agree when they agree here.
        """
        return self._monomials(self._ring_basis[:: self.ring.p])

    def _monomials(self, coeffs):
        zero = self.ring.zero()
        return [
            AlgebraElement(self, DiffPoly(self.ring, (zero,) * i + (b,)))
            for i in range(self.f.degree())
            for b in coeffs
        ]

    def coords(self, u: AlgebraElement):
        """Coordinates over F, ordered to match basis()."""
        return self._rep_coords(self._padded(u.rep))

    def _rep_coords(self, cs):
        """Coordinates of a list of deg f coefficients; no reduction."""
        out = []
        for a in cs:
            out.extend(self.ring.coords(a))
        return tuple(out)

    def _padded(self, rep: DiffPoly):
        """The coefficients of rep, of degree below m = deg f, as m entries."""
        return rep.coeffs + (self.ring.zero(),) * (self.f.degree() - len(rep.coeffs))

    def _t_mod_f(self, s):
        """(t s) mod f = t s - s_(m-1) f for the m = deg f coefficients s of
        an element, as m coefficients.

        t s has degree at most m with s_(m-1) at t^m, and f is monic, so one
        quotient term s_(m-1) removes it; that subtracts s_(m-1) f_k only at
        the nonzero f_k below t^m (two for t^p - a t - d).  The algebra
        product, the structure table and the probe rows all step this way.
        """
        out = _t_step(self.ring, s)
        top = out.pop()
        if top:
            for k, fk in enumerate(self.f.coeffs[:-1]):
                if fk:
                    out[k] = out[k] - top * fk
        return out

    def from_coords(self, cs) -> AlgebraElement:
        n = self.ring.dim_over_constants
        coeffs = []
        for i in range(self.f.degree()):
            coeffs.append(self.ring.from_coords(cs[i * n : (i + 1) * n]))
        return AlgebraElement(self, DiffPoly(self.ring, coeffs))

    def random_element(self, rng, coeff_deg=3) -> AlgebraElement:
        coeffs = [
            self.ring.random_element(rng, coeff_deg)
            for _ in range(self.f.degree())
        ]
        return AlgebraElement(self, DiffPoly(self.ring, coeffs))

    # -- structure constants ---------------------------------------------

    def structure_constants(self):
        """dim x dim table of F-coordinate vectors of the basis products.

        Entry (I, J) is coords(e_I e_J), both indices in the order of
        basis(): e_I = b_a t^i is at I = i n + a, where b_a is the a-th of
        the n ring basis elements and i < m = deg f.  Two facts about the
        monic f give the table without forming the dim^2 products:

        * left scaling commutes with the reduction: if u = q f + r, then
          a u = (a q) f + a r with deg(a r) < m, so (a u) mod f = a (u mod f)
          for every coefficient a;
        * one t-step: for deg u < m, t u has degree at most m and its t^m
          coefficient is u_(m-1), so (t u) mod f = t u - u_(m-1) f, the
          reduced t-step _t_mod_f that the probe rows and the algebra
          product take too.  It subtracts u_(m-1) f_k only at the nonzero
          f_k below t^m: two for t^p - a t - d.

        So e_I e_J = (b_a t^i e_J) mod f = b_a U_i(e_J) with U_i(e_J) =
        (t^i e_J) mod f, and t (q f + r) = (t q) f + t r makes U_i(e_J) one
        t-step from U_(i-1)(e_J): dim (m - 1) t-steps in all.  Coordinates
        are F-linear, so the coordinates of b_a U are L_a applied to each
        block of n coordinates of U, where L_a is the n x n matrix over F of
        left multiplication by b_a, read once from ring.coords(b_a b_k).
        Over K, L_(x^a) is the cyclic shift with x^p on the wrap.  The rows
        are built one i at a time, so only the coordinates of the U_i of
        one level are held; the nonzero coordinates of each U are read once
        for all n matrices L_a, and ring.coords reduces each coordinate in
        y = x^p.  Every entry of the table is then checked to lie in F,
        over both rings, once per distinct entry.

        Raises UnsupportedInstance, before any work, when the table would
        hold more than MAX_TABLE_ENTRIES coordinates.
        """
        if self._table is None:
            dim, m = self.dim, self.f.degree()
            if dim ** 3 > MAX_TABLE_ENTRIES:
                raise UnsupportedInstance(
                    "the structure table has dim^3 = %d entries (dim %d), above "
                    "dext.MAX_TABLE_ENTRIES = %d" % (dim ** 3, dim, MAX_TABLE_ENTRIES)
                )
            ring, K = self.ring, self.base_field
            n = ring.dim_over_constants
            # lefts[a][k]: the nonzero entries (r, c) of column k of L_a, with
            # None for c = 1.
            one = K.one()
            lefts = [
                [
                    [(r, None if c == one else c) for r, c in enumerate(ring.coords(b * bk)) if c]
                    for bk in self._ring_basis
                ]
                for b in self._ring_basis
            ]
            # us[J] = U_i(e_J) and vectors[J] = its coordinates, one i at a
            # time; U_0(e_J) = e_J.
            us = [self._padded(e.rep) for e in self.basis()]
            vectors = self._units(dim)
            zero = K.zero()
            table = []
            # The (num, den) keys of the entries already found in F: a table
            # holds few distinct entries (4 to 22 at p = 3), so each distinct
            # entry is checked once.
            checked = set()
            for i in range(m):
                if i:
                    us = [self._t_mod_f(u) for u in us]
                    vectors = [self._rep_coords(u) for u in us]
                rows = [[] for _ in lefts]
                for cs in vectors:
                    # The nonzero (block, k, c) of U_i(e_J), read once for all
                    # n left matrices.
                    nonzero = [
                        (block, k, c)
                        for block in range(0, dim, n)
                        for k, c in enumerate(cs[block : block + n])
                        if c
                    ]
                    for left, row in zip(lefts, rows):
                        out = [zero] * dim
                        for block, k, c in nonzero:
                            for r, scale in left[k]:
                                term = c if scale is None else scale * c
                                old = out[block + r]
                                out[block + r] = term if old is zero else old + term
                        # Entries never written are the constant zero itself,
                        # and a first write stores its term as it is.
                        for c in out:
                            if c is zero:
                                continue
                            key = (c.num_coeffs, c.den_coeffs)
                            if key not in checked:
                                if not K.is_constant(c):
                                    raise InternalInvariantViolation(
                                        "structure constant %s is not in F" % c
                                    )
                                checked.add(key)
                        row.append(tuple(out))
                table.extend(rows)
            self._table = table
        return self._table

    # -- kernels over F ----------------------------------------------------

    def _units(self, count):
        """Coordinate vectors of the first count elements of basis()."""
        K = self.base_field
        one, zero = K.one(), K.zero()
        return [
            tuple(one if j == i else zero for j in range(self.dim))
            for i in range(count)
        ]

    def _on_coords(self, fn):
        """Coordinate map of fn, which sends an element to a list of elements."""
        return lambda v: tuple(c for w in fn(self.from_coords(v)) for c in self.coords(w))

    def _common_kernel(self, maps, start):
        """Canonical F-basis of the vectors in span(start) killed by every map.

        Each map takes a coordinate vector to a coordinate vector and must be
        F-linear.  The running basis is cut down one map at a time to the
        combinations of its vectors that the map sends to zero.  The result
        is the reduced echelon form of the reversed coordinates, read back:
        for a kernel that is exactly the one-vector-per-free-column basis
        Matrix.kernel returns, whatever the order of the maps.
        """
        K = self.base_field
        zero = K.zero()
        basis = list(start)
        for fn in maps:
            images = [fn(v) for v in basis]
            if not any(any(im) for im in images):
                continue
            combos = Matrix(K, zip(*images)).kernel()
            basis = [
                tuple(
                    sum((c * e for c, e in zip(combo, col) if c and e), zero)
                    for col in zip(*basis)
                )
                for combo in combos
            ]
        red, pivots = Matrix(K, [v[::-1] for v in basis]).rref()
        return [row[::-1] for row in reversed(red.rows[: len(pivots)])]

    # -- invariants ------------------------------------------------------

    def associator(self, u, v, w):
        return (u * v) * w - u * (v * w)

    def _constant_scalar_d(self):
        """The c in F with d = embed(c), or None: d is a central constant."""
        c = self.ring.as_scalar(self.d)
        return c if c is not None and self.base_field.is_constant(c) else None

    def is_associative(self) -> bool:
        """Whether the quotient is associative, i.e. d is a central constant.

        Associative means every u of degree below m is in the eigenring (see
        nucleus): f R_m in R f.  That is f R in R f, since r = q f + u with
        deg u < m gives f r = (f q) f + f u.

        z = g(t) is central in R (its coefficients are constant scalars and
        g(delta) = 0), so with f = z - d, t d = d t + delta(d) and b in A

            f t = t f + delta(d),    f b = b f + (b d - d b).

        The r with f r in R f form an F-subalgebra of R.  It contains t iff
        delta(d), of degree 0 < m, lies in R f, iff delta(d) = 0, and b iff
        b d = d b.  So S_f is associative iff d is a constant in the center
        of A.  The center is embed(K) for both rings (K is commutative, and
        Q is central over K), so the test reads _constant_scalar_d.
        """
        return self._constant_scalar_d() is not None

    def nucleus(self, which: str = "full"):
        """Basis over F of the requested nucleus as algebra elements.

        which: left, middle, right, or full (the intersection).  With
        R = A[t; delta] and m = deg f >= 2:

        * right: the eigenring {u : (f u) mod f = 0}.  If a b = q f + r,
          then [a, b, u] = -(q f u) mod f, which vanishes for all a, b iff
          f u is in R f (a = t^(m-1), b = t give q = 1); this holds over
          every coefficient ring.
        * f right-invariant: every slot is the whole algebra.
        * otherwise left and middle are the coefficient ring A (Petit,
          1966/67), since both rings, K and Q, are division rings.

        Over both rings z = g(t) is central in R, so with f = z - d

            f u = u z - d u = u f + (u d - d u),

        and u d - d u has degree below deg u < m: the eigenring is the
        centralizer of d in R_<m.  In the quotient u o d - d o u needs no
        reduction, so over Q the right nucleus is the kernel of the map
        u |-> u o d - d o u, and the full nucleus its kernel on A.  Over
        the derived field K, K lies in the eigenring and left = middle = K,
        so full is K with no map.  At e = 1 the right nucleus is K too: for
        u = sum u_i t^i,

            u d - d u = sum_i u_i (t^i d - d t^i),

        since u_i commutes with d, and the t^k coefficient of t^i d - d t^i
        is C(i, k) delta^(i-k)(d) for k < i (Leibniz).  So u d = d u is a
        system over K in u_1..u_(m-1), with u_0 free, and for e = 1 and d
        not in F it is triangular with diagonal i delta(d) != 0 (i < p):
        right = K.  For e >= 2 it is not triangular: p = 2, g = t^4 + t^2,
        d = x gives right = span{1, x, t^2 + t, x (t^2 + t)}.  There the
        right nucleus is the kernel of the commutator with d, as over Q.
        """
        return [self.from_coords(v) for v in self._nucleus_coords(which)]

    def _nucleus_coords(self, which):
        # Every slot is one _common_kernel call on (maps, start): keep no
        # unit-prefix path beside it and no second route over K.  Its rref
        # gives every basis, a start of unit vectors too, the one canonical
        # form, and it is the linear algebra that perfbench's structure
        # workload requires its trace to record (linalg.rref_calls).  No
        # memo: no command asks for a nucleus twice.
        if which not in NUCLEUS_SLOTS:
            raise ValueError("unknown nucleus %r; expected one of %s" % (which, NUCLEUS_SLOTS))
        n, maps = self.ring.dim_over_constants, []
        if self.is_associative():
            count = self.dim
        elif which in ("left", "middle") or self.ring.is_commutative and (which == "full" or self.g.e == 1):
            count = n  # the coefficient ring A
        else:  # the centralizer of d: right over K at e >= 2, right and full over Q
            maps, count = [self._commutator_with(self.scalar(self.d))], self.dim if which == "right" else n
        return self._common_kernel(maps, self._units(count))

    def center(self):
        """Elements of the full nucleus commuting with everything.

        It is enough to commute with the generators: t and the ring basis.
        For c in the nucleus every associator involving c vanishes, so if c
        commutes with a and b, then c (a b) = (c a) b = (a c) b = a (c b) =
        a (b c) = (a b) c.  Each basis element b t^i is the product
        b (t (t ... t)) of generators with no reduction, since every partial
        product has degree below m.  Over K that is p + 1 maps, not dim.
        """
        gens = [self.t()] + [self.scalar(b) for b in self._ring_basis]
        maps = [self._commutator_with(a) for a in gens]
        full = self._nucleus_coords("full")
        return [self.from_coords(v) for v in self._common_kernel(maps, full)]

    def centralizer(self, elems):
        """Basis of the subspace commuting with every element of elems.

        Raises ValueError for an element of another algebra.
        """
        maps = [self._commutator_with(s) for s in elems]
        return [self.from_coords(v) for v in self._common_kernel(maps, self._units(self.dim))]

    def _commutator_with(self, s):
        """Coordinate map of u |-> u s - s u, by element products."""
        return self._on_coords(lambda u: [u * s - s * u])

    # -- factors and verdicts ---------------------------------------------

    def linear_right_factor_search(self, bound: int):
        """Search b of bounded height with t - b right-dividing f.

        Right factors t - b correspond exactly to V_g(b) = d.  Candidates
        are the fractions u/v with deg u, deg v <= bound, v monic, in the
        order of _bounded_height_witness; zero is tried last so that a unit
        witness is preferred when d = 0 makes the trivial factor t
        available.  The first candidate in that order is returned, or None.

        Fact A: V_g(b) is a constant scalar for every central b, and the
        candidates are scalars.  t |-> t - b is an automorphism of R for
        central b, so V_g(b) = g(t) - g(t - b) is central of degree 0, and
        the center of R meets A in the constant scalars; and V_g(embed b) =
        embed V_g(b).  So a d that is not a constant scalar has no such
        factor, and None is returned with no search (and no search guard).
        Otherwise d = embed(c), and each v is one fraction-free system for
        V_g(b) = c over K (_vg_columns, on the stored split), over both rings.

        The degree cap at e = 1 (_denominator_cap).  Write deg r = -v_inf(r),
        the pole order at infinity (deg 0 = -infinity), delta(x) = w = W/S
        and sigma = max(0, deg W - deg S - 1).  deg r' <= deg r - 1, so each
        delta raises deg by at most sigma, and the Hochschild constant a =
        delta^(p-1)(w)/w has deg a <= (p-1) sigma.  Let c be nonzero with
        D = deg c > p sigma; the searched equation is V_z1(b) = b^p +
        delta^(p-1)(b) + a1 b = c with a1 = -a.

        * Every solution b has deg b = D/p.  If B = deg b > sigma, then
          pB > B + (p-1) sigma, which bounds deg delta^(p-1)(b) and
          deg(a1 b), so b^p outgrows both and deg V_z1(b) = pB = D.  If
          B <= sigma, each term has deg <= p sigma < D.  c lies in F, so
          its numerator and denominator in lowest terms are polynomials in
          x^p and p divides D.
        * The first witness N/v in search order is in lowest terms: if
          N/v = N'/v' with v' a proper monic divisor of v, then deg N' <=
          deg N <= bound, so N'/v' solves the system of v', a block of
          lower degree that comes earlier.  So deg v = deg N - D/p <=
          bound - D/p.

        The search therefore draws only the denominators of degree at most
        bound - D/p, none when D/p > bound, and returns the witness, or
        None, of the full enumeration; the search guard counts only the
        denominators it draws (see _bounded_height_witness for why the
        column width, which grows with the bound, needs no guard of its
        own).  At e >= 2, V_g = h(V_z1) and the poles of h would enter the
        threshold, so the cap is bound there.
        """
        c = self._constant_scalar_d()
        if c is None:
            return None
        K = self.base_field
        cap = _denominator_cap(K, c, bound) if len(self.z1_split[1]) == 1 else bound
        b = _bounded_height_witness(K, _vg_columns(K, self.z1_split, c, bound), bound, cap)
        if b is not None:
            return self._checked_factor(b)
        if not c:  # V_g(0) = 0
            return self._checked_factor(K.zero())
        return None

    def _checked_factor(self, b):
        """Embed b, re-check V_g(b) = d and that t - b right-divides f."""
        cand = self.ring.embed(b)
        if v_g(self.ring, self.g, cand) != self.d:
            raise InternalInvariantViolation("factor search returned b with V_g(b) != d")
        lin = DiffPoly(self.ring, (-cand, self.ring.one()))
        q, r = self.f.right_divmod(lin)
        if r:
            raise InternalInvariantViolation("V_g(b) = d but t - b does not divide f")
        return cand

    def division_verdict(self, bound: int):
        """Three-valued irreducibility verdict: (verdict, witness).

        "division (proved)" with no witness over the derived field when d is
        not in F and g = z1^q with z1 = t^p - a t and q = p^(e-1) (the
        p_polynomial_at_exponent closed form, read from the stored split as
        h = s^q), before any search; otherwise
        "not division (witness)" with the factor b of
        linear_right_factor_search(bound), re-checked, or "unknown (bound
        exhausted)".  S_f is a division algebra iff f is irreducible (Petit
        1966/67), iff the left R-module M = R/Rf, of K-dimension p^e with
        basis [t^i], is simple: a submodule is Rq/Rf for a right factor q
        of f.

        Why d not in F proves it.  At e = 1 every annihilating g is
        Hochschild's t^p - a t, since (t^p + a_1 t)(delta) = (a + a_1) delta.
        z1 is central in R (z1(delta) = 0 and a is constant), so it commutes
        with f = z1^q - d, and psi[r] = [r z1] is an R-linear map of M with
        psi^q[r] = [r z1^q] = [r d].  In the basis [t^i], [r] -> [r d] is
        triangular with d on the diagonal ([t^i d] = d [t^i] + lower terms),
        so every eigenvalue of psi is a root of lambda^q - d =
        (lambda - d^(1/q))^q.  A submodule N of K-dimension r is
        psi-stable, and psi on N has characteristic polynomial
        (lambda - d^(1/q))^r.  Its coefficients are constants: with Phi
        the matrix of psi on a K-basis of N and A that of t, t psi = psi t
        reads delta(Phi) = [Phi, A]; for X = lambda - Phi, Jacobi's formula
        gives delta det X = tr(adj(X) [X, A]) = det X (tr A - tr A) = 0.
        Write r = p^s r' with p not dividing r'.  Then (lambda -
        d^(1/q))^r = (lambda^(p^s) - d^(p^s/q))^(r'), whose coefficient of
        lambda^(p^s (r'-1)) is -r' d^(p^s/q).  It lies in F = K^p only if
        s >= e: for s < e some p-power of it is d.  So r is 0 or p^e, M is
        simple and f irreducible.
        """
        # h = s^q in the split [h_(e-1), ..., h_0] when g is z1^q.
        ring, hs = self.ring, self.z1_split[1]
        if ring.is_commutative and self._constant_scalar_d() is None and not any(hs[1:]):
            return "division (proved)", None
        b = self.linear_right_factor_search(bound)
        if b is not None:
            return "not division (witness)", b
        return "unknown (bound exhausted)", None

    def is_division_probe(self, rng, samples: int = 200) -> bool:
        """Right multiplications by sampled nonzero elements are injective.

        S_f is a division algebra iff it has no zero divisors, iff v |-> v a
        is injective for every nonzero a.  Left scaling commutes with the
        reduction mod the monic f (see structure_constants), so that map,
        (v a) mod f, is left-A-linear in the left A-basis 1, t, ...,
        t^(m-1): row j of its m x m matrix over A is the coefficient vector
        of (t^j a) mod f, one reduced t-step (_t_mod_f) from row j - 1.
        Matrix.rref scales and combines rows on the left, so its pivot count
        is the left row rank over the division ring A, K or Q alike, and
        the sample is a zero divisor iff there are fewer than m pivots.

        At e = 1 over K each sample's answer is the one the dim x dim matrix
        over F of the left multiplication by a gives (tests/oracles.py):
        S_f is a division algebra (d not in F, see division_verdict) or
        associative (d in F), and in both a is a left zero divisor iff it is
        a right one; in a finite-dimensional associative algebra both mean
        that a is not a unit.

        Raises UnsupportedInstance, before any work, when samples * m^5 * c^3
        is above MAX_PROBE_WORK, with c = 1 over K and 4 over Q.
        """
        m = self.f.degree()
        work = samples * m ** 5 * (self.ring.dim_over_constants // self.ring.p) ** 3
        if work > MAX_PROBE_WORK:
            raise UnsupportedInstance(
                "a probe of %d samples at deg f = %d does samples * m^5 * c^3 = %d, "
                "above dext.MAX_PROBE_WORK = %d" % (samples, m, work, MAX_PROBE_WORK)
            )
        for _ in range(samples):
            a = self.random_element(rng, 2)
            if not a:
                continue
            rows = [self._padded(a.rep)]  # (t^j a) mod f
            for _ in range(1, m):
                rows.append(self._t_mod_f(rows[-1]))
            if len(Matrix(self.ring, rows).rref()[1]) < m:
                return False
        return True


def _bounded_height_witness(K, columns_for, bound: int, den_bound: int):
    """The first N/v, N nonzero, deg N <= bound, deg v <= den_bound, that solves its system.

    columns_for(v) returns (columns, rhs) over F_p, the column of each of
    c_0..c_bound and the right-hand side, as sequences of ints, one entry
    per equation, of a system whose solutions are exactly the c with
    fn(sum c_i x^i / v) = target, for an F_p-linear map fn on K and a
    target; linalg.solve_columns_mod_p solves it.  The library's builder is
    _vg_columns, for V_g = h(V_z1) over the derived field, with g = h(z1)
    the algebra's stored split: the polynomial identity
    v^(p^e) V_g(N/v) L = v^(p^e) d L, where L clears the denominators of d,
    of delta(x), of a and of the coefficients of h, built on coefficient
    tuples with no fraction formed.  The tests' reference builder,
    coords_columns in tests/oracles.py, expands fn(x^i/v) honestly in
    coordinates and clears each coordinate equation of denominators.

    Multiplying an equation of K by a nonzero polynomial does not change
    which c solve it, so both give the solution set of fn(N/v) = target
    itself.  That set is all the answer depends on: it determines the
    reduced echelon form, and with it the particular solution and first
    kernel vector of solve_columns_mod_p, whatever equations describe it.

    Fractions are ordered by monic denominator v (as _fraction_candidates
    yields them), then by the base-p code of the numerator.  With the
    unknowns lowest degree first, the solution with the free variables at
    zero has the smallest code; when it is zero (target 0) the first kernel
    vector, that of the lowest free column, is the smallest nonzero one.
    Returns None when no block has a solution.

    Only the blocks of deg v <= den_bound <= bound are tried, a prefix of
    that order, empty when den_bound < 0: linear_right_factor_search
    passes its degree cap there, and proves that the blocks it drops hold
    no first witness.  With den_bound = bound every block is tried, the
    tests' oracle.

    Raises UnsupportedInstance, before any work, when there are more than
    MAX_SEARCH_DENOMINATORS monic denominators of degree <= den_bound, the
    ones the search draws.  The bound alone sets only the width of a
    system: with _vg_columns, bound + 1 columns over a table of p bound + 1
    polynomials Phi(k), built at the first columns call.  That width needs
    no guard of its own, since d's own pole order bounds it.  No
    denominator is drawn when den_bound < 0, and nothing is built.  With
    den_bound = bound, the guard bounds the bound itself (p^bound <=
    MAX_SEARCH_DENOMINATORS).  Otherwise den_bound is
    linear_right_factor_search's cap bound - D//p, with D = deg c the pole
    order of d = embed(c) at infinity, so p bound + 1 <= p den_bound + D + 1:
    a guarded term plus the degree of d's numerator, whose D + 1 or more
    coefficients the algebra already holds.
    """
    count, power = 0, 1
    for _ in range(den_bound + 1):
        count, power = count + power, power * K.p
        if count > MAX_SEARCH_DENOMINATORS:
            raise UnsupportedInstance(
                "a search to bound %d over F_%d tries more than "
                "dext.MAX_SEARCH_DENOMINATORS = %d denominators"
                % (bound, K.p, MAX_SEARCH_DENOMINATORS)
            )
    for den in _fraction_candidates(K, den_bound):
        try:
            sol, kernel = solve_columns_mod_p(*columns_for(den), K.p)
        except NoSolution:
            continue
        sol = sol if any(sol) else kernel
        if sol is not None:
            return RatFunc(DensePoly(K.field, sol), den)
    return None


def _denominator_cap(K, c, bound: int) -> int:
    """Largest deg v that the first witness N/v of V_z1(N/v) = c can have.

    bound - D/p when c is nonzero with pole order D > p sigma at infinity,
    else bound; see linear_right_factor_search for the proof.
    """
    deg = lambda r: len(r.num_coeffs) - len(r.den_coeffs)  # -v_inf(r), r nonzero
    sigma = max(0, deg(K.delta_of_x) - 1)
    if c and deg(c) > K.p * sigma:
        return bound - deg(c) // K.p
    return bound


def _vg_columns(K, split, d, degree):
    """Column builder for V_g(N/v) = d over the derived field, deg N <= degree.

    split is towers.z1_split(K, g) = (a1, [h_(e-1), ..., h_0]), the
    algebra's stored split g = h(z1) with z1 = t^p + a1 t, the minimal
    p-polynomial t^p - a t, and h = sum_k h_k s^(p^k) a monic p-polynomial
    of exponent e - 1 over F.  t |-> t - b fixes F and takes z1 to
    z1 - V_z1(b), both central, and h is additive with coefficients in F,
    so V_g(b) = h(V_z1(b)).

    No fraction is formed.  Write delta(x) = W/S.  For a polynomial R,
    delta(R/S^k) = W (R' S - k R S') / S^(k+2), so delta^n(R) is a
    polynomial over S^(2n), the same for every R.  u^p is a constant for
    every u, so the p-step (see diffpoly._p_step), with n = p - 1
    derivations, is on a pair P/u

        V_p(P/u) = (P^p + delta^n(u^(p-1) P)) / u^p,

    with both parts brought over S^(2n).  From (x^i, v) it gives
    V_p(x^i/v) = P_i / q_1 with q_1 = v^p S^(2n), the same for every i,
    and P_i = x^(p i) S^(2n) + S^(2n) delta^n(L x^i) with L = v^(p-1).
    delta is additive and F_p-linear, and so is R |-> S^(2n) delta^n(R);
    with L = sum_m lam_m x^m (lam_m in F_p) it takes L x^i to
    sum_m lam_m S^(2n) delta^n(x^(m+i)).  By the rule for delta(R/S^k),
    induction on j gives, for every k,

        S^(2j) delta^j(x^k) = sum_l (k)_l x^(k-l) A_(j,l),

    where (k)_l is the falling factorial mod p, which depends on k mod p
    only, and the A_(j,l) depend on delta alone (A_(0,0) = 1,
    A_(j+1,l) = W (S (A_(j,l-1) + A_(j,l)') - 2j S' A_(j,l))).  With
    a1 = A1/B1, d = dn/dd and G = dd B1 q_1, the scales fold dd in:

        V_z1(x^i/v) = Z_i / G,    Z_i = dd B1 P_i + dd A1 (q_1/v) x^i,

    and q_1/v = L S^(2n), so the second term is linear in L as well:

        Z_i = K0 x^(p i) + sum_m lam_m Phi(m + i),    K0 = dd B1 S^(2n),
        Phi(k) = sum_l (k)_l x^(k-l) dd B1 A_(n,l) + x^k dd A1 S^(2n).

    deg L <= (p-1) degree, so a search needs Phi(k) for k <= p degree
    only.  The first columns call builds them, in one scalars._shifted_sums,
    and packs them and K0 once, w bytes per coefficient, with w large
    enough for (p-1) + ((p-1) degree + 1)(p-1)^2: every packed coefficient
    and every lam_m is at most p - 1, and a column adds K0 to at most
    deg L + 1 multiples lam_m Phi(m+i).  Per v this leaves L, by
    scalars._pow (square-and-multiply, as p - 1 < p), and, per column, one
    integer sum of K0 shifted by p i slots and the lam_m Phi(m+i), reduced
    once; no derivation runs.  At w = 1 and e = 1 the column is the sum's
    bytes translated by scalars._residues(p), which the solver packs as
    they are; otherwise it is unpacked to a tuple
    (scalars._unpacked, as scalars._shifted_sums does).  columns(v) needs
    deg v <= degree, the bound the table was built for, and raises
    ValueError otherwise.

    At e = 1, V_g(N/v) = d for N = sum c_i x^i is the polynomial identity
    sum c_i Z_i = dn B1 q_1.  At e >= 2, every c in F_p is its own p^k-th
    power and the p^k-th power of a polynomial over F_p only spreads its
    coefficients (scalars._frobenius), so V_g(N/v) = h(sum c_i Z_i/G) =
    sum_k h_k sum_i c_i Z_i^(p^k) / G^(p^k).  With h_k = hn_k/hd_k,
    T = prod hd_k and q = p^(e-1), multiplying by T G^q gives

        sum c_i sum_k h_k T (G^q / G^(p^k)) Z_i^(p^k) = T dn dd^(q-1) (B1 q_1)^q,

    one exact division per nonzero h_k.  V_g is additive and commutes with
    F_p-scalars, so the identity is F_p-linear in the c_i; each power of x
    gives one equation, so the column of c_i is the coefficient tuple of
    its polynomial, and clearing nonzero denominators keeps the solution
    set.  The right side is built as T dn dd^(q-1) (B1 S^(2n))^q times
    v^(p q), which is the same polynomial.

    The system of one v is columns(v); what depends on neither v nor the
    degree is computed once, here, and the A_(j,l) and the Phi table at the
    first columns call, so that building the builder costs nothing before
    the search guard has run.
    """
    a1, hs = split
    p, e, q = K.p, len(hs), K.p ** (len(hs) - 1)
    W, S = K.delta_of_x.num_coeffs, K.delta_of_x.den_coeffs
    dS = _derivative(S, p)
    s_top = _pow(S, 2 * (p - 1), p)  # cleared by the p-step
    h_den = (1,)  # T
    for h_k in hs:
        h_den = _mul(h_den, h_k.den_coeffs, p)
    # (p^k, h_k T) for the nonzero h_k.
    spreads = [
        (p ** (e - 1 - j), _mul(h_k.num_coeffs, _exquo(h_den, h_k.den_coeffs, p), p))
        for j, h_k in enumerate(hs)
        if h_k
    ]
    dn, dd = d.num_coeffs, d.den_coeffs
    top_scale = _mul(a1.den_coeffs, dd, p)  # dd B1
    a_scale = _mul(a1.num_coeffs, dd, p)  # dd A1
    # T dn dd^(q-1) (B1 S^(2n))^q; columns(v) multiplies it by v^(p q), so
    # that the right side is T dn dd^(q-1) (B1 q_1)^q.
    rhs_scale = _exquo(_frobenius(_mul(top_scale, s_top, p), q), dd, p)
    rhs_scale = _mul(_mul(h_den, dn, p), rhs_scale, p)

    def delta_step(r, j):
        # S^(2j+2) delta^(j+1)(R) from r = S^(2j) delta^j(R), R a polynomial.
        t = _mul(_derivative(r, p), S, p)
        if 2 * j % p and dS:
            t = _add(t, _mul(((-2 * j) % p,), _mul(r, dS, p), p), p)
        return _mul(W, t, p)

    # Bytes per packed coefficient, for the slot bound of the docstring.
    w = (((p - 1) + ((p - 1) * degree + 1) * (p - 1) ** 2).bit_length() + 7) // 8
    # Filled in by the first columns call: K0, then Phi(0), ..., Phi(p degree),
    # packed w bytes per coefficient.
    packed = []

    def level_one_setup():
        # A[l] = A_(j,l) after j steps, up to j = p - 1.
        A = [(1,)]
        for j in range(p - 1):
            A = [
                _add(delta_step(a, j), _mul(W, _mul(prev, S, p), p), p)
                for prev, a in zip([()] + A, A + [()])
            ]
        # Phi(k) = sum_l (k)_l x^(k-l) polys[l] + x^k polys[p].
        polys = [_mul(top_scale, a, p) for a in A] + [_mul(a_scale, s_top, p)]
        columns = []
        for k in range(p * degree + 1):
            terms, falling = [(1, k, p)], 1
            for l in range(min(k, p - 1) + 1):
                if falling:
                    terms.append((falling, k - l, l))
                falling = falling * (k - l) % p
            columns.append(terms)
        phis = _shifted_sums(polys, columns, p)
        packed.extend(_pack(P, w, p) for P in [_mul(top_scale, s_top, p)] + phis)

    def columns(den):
        v = den.coeffs
        if len(v) - 1 > degree:
            raise ValueError("denominator %s has degree above the search bound %d" % (den, degree))
        if not packed:
            level_one_setup()
        lift = _pow(v, p - 1, p)  # L
        # Z_i = K0 x^(p i) + sum_m lam_m Phi(m + i), Phi(k) at packed[1 + k].
        k0, n, s = packed[0], len(lift), 8 * w * p
        sums = [sum(map(mul, lift, packed[1 + i : 1 + i + n]), k0 << s * i) for i in range(degree + 1)]
        if w == 1 and e == 1:  # the reduced bytes are the columns
            table = _residues(p)
            lhs = [c.to_bytes((c.bit_length() + 7) // 8, "little").translate(table) for c in sums]
        else:
            lhs = [_unpacked(c, w, p) for c in sums]
        if e > 1:
            # h(V_z1) by Frobenius spreads, cleared by T G^q.
            big_g = _mul(top_scale, _mul(_frobenius(v, p), s_top, p), p)
            top = _frobenius(big_g, q)
            zs, lhs = lhs, [()] * len(lhs)
            for power, scale in spreads:
                scale = _mul(scale, _exquo(top, _frobenius(big_g, power), p), p)
                lhs = [_add(c, _mul(scale, _frobenius(z, power), p), p) for c, z in zip(lhs, zs)]
        return lhs, _mul(rhs_scale, _frobenius(v, p * q), p)

    return columns


def _fraction_candidates(K, bound: int):
    """Lazy stream of the candidate denominators: monic, degree <= bound.

    Ordered by degree, then by the base-p code of the lower coefficients:
    itertools.product runs its first digit slowest, so that digit is the
    top coefficient.
    """
    for deg in range(bound + 1):
        for digits in product(range(K.p), repeat=deg):
            yield _poly(K.field, digits[::-1] + (1,))
