"""Reference routes that the tests compare the library with.

Each is the slow, textbook way to a result that the library reaches
another way, and the library itself does not call any of them:

* ``solve``, ``mul_vec`` and ``rank`` on a ``linalg.Matrix``: solving by one
  elimination of the augmented matrix, the reference for the linear
  systems the tests set up;
* ``solve_mod_p``: the same elimination on augmented rows of ints over
  F_p, and ``padded_rows``, which reads columns as such rows: together the
  reference for ``linalg.solve_columns_mod_p``;
* ``formal_derivative``, ``monic`` and ``scale`` on a coefficient tuple
  over F_p: the derivative computes i * c_i here rather than through
  ``scalars._derivative``, so the quotient-rule oracles share no kernel
  with ``DerivedField.delta``;
* ``coords_columns``: the column builder of the bounded-height search that
  reads a map in coordinates, the reference for ``dext._vg_columns`` and
  for ``autos.log_derivative_witness``;
* ``left_multiplication_singular``: the zero-divisor test on a dim x dim
  matrix over F, the reference for ``ExtAlgebra.is_division_probe``, and
  ``left_kernel_vector``, which exhibits a zero divisor from its rows;
* ``dense_v_p``: the full expansion of (t - b)^(p^e) in A[t; delta], the
  reference for ``diffpoly.v_p_tower``, which expands one level at a time,
  and for the p-step over the quaternion ring;
* ``product_by_t_steps``: the twisted product with every u_i (t^i v) built
  as its own ``DiffPoly``, scaled and added whole, the reference for
  ``DiffPoly.__mul__``, which accumulates into one coefficient list;
* ``quotient_product``: the full twisted product right-divided by f, the
  reference for ``AlgebraElement.__mul__``, which steps (t^i v) mod f;
* ``iterated_order``: the order of a descriptor by applying it to the left
  K-basis and x until they come back, the reference for
  ``autos.auto_order``, which reads the order off the triples;
* ``reference_parser``: the command line's argparse parser written out
  call by call, the reference for ``cli._build_parser``, which builds it
  from the option table, and for ``cli._read_plain``, which reads plain
  command lines from that table without argparse.
"""

import argparse

from diffext.autos import apply_auto
from diffext.cli import _int, _nonnegative_int
from diffext.diffpoly import DiffPoly, _t_step
from diffext.errors import NoSolution
from diffext.frontend import SUITES
from diffext.linalg import Matrix
from diffext.scalars import DensePoly, RatFunc, _exquo, _gcd, _mul


def randrange_poly(field, rng, max_degree, *, nonzero=False, monic=False):
    """A polynomial of degree <= max_degree: the bound by randrange, then
    each coefficient by randrange(p), drawn again while a nonzero or monic
    draw is zero; a monic draw has its top coefficient set to 1."""
    while True:
        d = rng.randrange(max_degree + 1)
        coeffs = DensePoly(field, [rng.randrange(field.p) for _ in range(d + 1)]).coeffs
        if monic and coeffs:
            coeffs = coeffs[:-1] + (1,)
        if coeffs or not (nonzero or monic):
            return DensePoly(field, coeffs)


def randrange_ratfunc(K, rng, max_degree, *, nonzero=False):
    """randrange_poly's numerator over its monic denominator, reduced by
    the validating constructor."""
    num = randrange_poly(K.field, rng, max_degree, nonzero=nonzero)
    return RatFunc(num, randrange_poly(K.field, rng, max_degree, monic=True))


def mul_vec(m, vec):
    """The product m * vec of a matrix and a column."""
    if len(vec) != m.ncols:
        raise ValueError("vector length mismatch")
    zero = m.field.zero()
    out = []
    for r in m.rows:
        acc = zero
        for a, v in zip(r, vec):
            if a and v:
                acc = acc + a * v
        out.append(acc)
    return tuple(out)


def rank(m) -> int:
    return len(m.rref()[1])


def solve(m, rhs):
    """Particular solution with free variables at zero, plus kernel basis.

    Raises NoSolution when the system is inconsistent.  One elimination
    of the augmented matrix serves both: when the system is consistent
    no pivot falls in the last column, so the pivots and the first
    ncols columns are those of m.rref().
    """
    if len(rhs) != m.nrows:
        raise ValueError("vector length mismatch")
    red, pivots = Matrix(m.field, [r + (v,) for r, v in zip(m.rows, rhs)]).rref()
    if pivots and pivots[-1] == m.ncols:
        raise NoSolution("inconsistent linear system")
    x = [m.field.zero()] * m.ncols
    for k, pcol in enumerate(pivots):
        x[pcol] = red.rows[k][m.ncols]
    return tuple(x), m._kernel_from_rref(red, pivots)


def _trimmed(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def formal_derivative(a, p: int) -> tuple:
    """d/dx of a coefficient tuple, i * c_i taken coefficient by coefficient."""
    return _trimmed([i * c % p for i, c in enumerate(a)][1:])


def scale(a, c: int, p: int) -> tuple:
    """c * a for a coefficient tuple a and an integer c."""
    return _trimmed([c * e % p for e in a])


def monic(a, p: int) -> tuple:
    """a over its leading coefficient; zero stays zero."""
    return scale(a, pow(a[-1], -1, p), p) if a else a


def solve_mod_p(rows, p: int):
    """Solve an augmented system over F_p: rows are (a_1, ..., a_n, b) of ints.

    Returns (x, kernel) as tuples of ints in range(p): x has its free
    variables at zero, and kernel holds one vector per free column, lowest
    free column first.  Raises NoSolution when the system is inconsistent.
    There must be at least one row, since the rows carry the number of
    unknowns.  Both are read off the reduced echelon form, which the
    solution set alone determines, so they do not depend on the order or
    repetition of the rows.
    """
    rows = [[c % p for c in r] for r in rows]
    if not rows:
        raise ValueError("solve_mod_p needs at least one row")
    n = len(rows[0]) - 1
    if any(len(r) != n + 1 for r in rows):
        raise ValueError("ragged rows")
    pivots = []
    for col in range(n + 1):
        rank = len(pivots)
        best = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot_row = rows[rank]
        if pivot_row[col] != 1:
            inv = pow(pivot_row[col], -1, p)
            pivot_row[col:] = [c * inv % p for c in pivot_row[col:]]
        tail = pivot_row[col:]
        for r in rows:
            c = r[col]
            if c and r is not pivot_row:
                r[col:] = [(a - c * b) % p for a, b in zip(r[col:], tail)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    if pivots and pivots[-1] == n:
        raise NoSolution("inconsistent linear system")
    x = [0] * n
    for k, pcol in enumerate(pivots):
        x[pcol] = rows[k][n]
    kernel = []
    pivot_set = set(pivots)
    for fcol in range(n):
        if fcol in pivot_set:
            continue
        v = [0] * n
        v[fcol] = 1
        for k, pcol in enumerate(pivots):
            v[pcol] = -rows[k][fcol] % p
        kernel.append(tuple(v))
    return tuple(x), kernel


def padded_rows(columns, rhs):
    """The augmented rows of sum x_j columns[j] = rhs: one per equation.

    The columns and rhs are sequences of ints, a missing entry zero; there
    is at least one row.
    """
    columns = [tuple(c) for c in [*columns, rhs]]
    width = max(map(len, columns)) or 1
    return list(zip(*(c + (0,) * (width - len(c)) for c in columns)))


def coords_columns(K, fn, target, degree):
    """Column builder for sum c_i fn(x^i/v) = target, i <= degree, in coordinates.

    fn takes an element of K to a tuple of coordinates in K, and target is
    such a tuple.  For each v, every coordinate equation is cleared of
    denominators by the lcm of its entries; the coefficients of the cleared
    numerators, in F_p since the coordinates are constants, give one
    equation per power of x.  Returns the columns of c_0, ..., c_degree and
    the right-hand side, the equations of all coordinates one after another.
    """

    p = K.p

    def columns(den):
        images = [fn(RatFunc(DensePoly(K.field, [0] * i + [1]), den)) for i in range(degree + 1)]
        stacked = [() for _ in range(degree + 2)]
        for column in zip(*images, target):
            lcm = (1,)
            for c in column:
                lcm = _mul(lcm, _exquo(c.den_coeffs, _gcd(lcm, c.den_coeffs, p), p), p)
            cleared = [_mul(c.num_coeffs, _exquo(lcm, c.den_coeffs, p), p) for c in column]
            width = max(map(len, cleared)) or 1
            stacked = [s + c + (0,) * (width - len(c)) for s, c in zip(stacked, cleared)]
        return stacked[:-1], stacked[-1]

    return columns


def left_multiplication_singular(alg, a) -> bool:
    """Whether u |-> a u has a nonzero kernel on S_f, as an F-linear map.

    Column j of its dim x dim matrix over F is the coordinate vector of
    a e_j for the j-th element e_j of alg.basis(), by quotient_product.
    """
    cols = [alg.coords(quotient_product(a, e)) for e in alg.basis()]
    return bool(Matrix(alg.base_field, zip(*cols)).kernel())


def left_kernel_vector(ring, rows):
    """A nonzero c with sum_j c_j rows[j] = 0 over a division ring, or None.

    One elimination of [rows | I].  rref scales and combines rows on the
    left, so every reduced row is c [rows | I] for the c in its right
    block, and a reduced row whose left block is zero gives such a c.
    """
    n, zero, one = len(rows), ring.zero(), ring.one()
    width = len(rows[0])
    augmented = [list(r) + [one if k == j else zero for k in range(n)] for j, r in enumerate(rows)]
    red, _ = Matrix(ring, augmented).rref()
    for row in red.rows:
        if not any(row[:width]):
            return row[width:]
    return None


def dense_v_p(ring, b, e):
    """V_(p^e)(b), minus the constant term of (t - b)^(p^e) expanded in full.

    Asserts that the power is t^(p^e) - V: monic, with every middle
    coefficient exactly zero.
    """
    n = ring.p ** e
    power = DiffPoly(ring, (-b, ring.one())) ** n
    for i in range(1, n):
        assert not power.coeff(i), "(t - b)^%d has a nonzero coefficient at t^%d" % (n, i)
    assert power.coeff(n) == ring.one()
    return -power.coeff(0)


def product_by_t_steps(u, v):
    """u * v in A[t; delta] as sum_i u_i (t^i v): t^i v one t-step from
    t^(i-1) v, then scaled on the left coefficient by coefficient and added
    as a whole polynomial."""
    ring = u.ring
    acc, shifted = DiffPoly.zero(ring), v.coeffs
    for i, a in enumerate(u.coeffs):
        if i:
            shifted = _t_step(ring, shifted)
        if a:
            acc = acc + DiffPoly(ring, [a * c for c in shifted])
    return acc


def quotient_product(u, v):
    """u o v in S_f: the product of the representatives, of degree up to
    2m - 2, right-divided by f."""
    alg = u.algebra
    return alg.element(product_by_t_steps(u.rep, v.rep).right_divmod(alg.f)[1])


def iterated_order(H):
    """Order of H by iteration on the left K-basis and the scalar x, or None
    past n = p(p + 1).

    These generate every power: H(k u) = tau(k) H(u) (autos.apply_auto),
    a power that fixes x fixes K, which x generates, and one that also
    fixes the K-basis is the identity.
    """
    alg = H.algebra
    p = alg.ring.p
    basis = alg.k_basis() + [alg.scalar(alg.ring.embed(alg.base_field.x()))]
    images = list(basis)
    for n in range(1, p * (p + 1) + 1):
        images = [apply_auto(H, u) for u in images]
        if images == basis:
            return n
    return None


def reference_parser() -> argparse.ArgumentParser:
    """The diffext argument parser, each argument added by hand."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("config", help="path to an instance config file")
    shared.add_argument("--seed", type=_int, default=None, help="override the config seed")
    shared.add_argument("--json", metavar="PATH", default=None, help="write a JSON report")

    top = argparse.ArgumentParser(
        prog="diffext",
        description="structural invariants of twisted polynomial quotients",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[shared], help="construct the instance and print its shape")

    p_nuc = sub.add_parser("nucleus", parents=[shared], help="compute a nucleus basis")
    p_nuc.add_argument(
        "--which",
        choices=("left", "middle", "right", "full"),
        default="full",
        help="which slot of the associator to annihilate",
    )

    p_aut = sub.add_parser("autos", parents=[shared], help="automorphism constraints and probes")
    p_aut.add_argument("--check-c", metavar="EXPR", default=None, help="test a shift constant")
    p_aut.add_argument("--order", metavar="EXPR", default=None, help="order of the shift by EXPR")

    p_inn = sub.add_parser("inner", parents=[shared], help="conjugation by an invertible scalar")
    p_inn.add_argument("--a", metavar="EXPR", required=True, help="the conjugating element")

    p_div = sub.add_parser("divcheck", parents=[shared], help="linear factor search and verdict")
    p_div.add_argument(
        "--bound", type=_nonnegative_int, default=None, help="override the search bound"
    )

    p_ver = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, default="all", help="suite to run")

    return top
