"""Reference routes that the tests compare the library with.

Each is the slow, textbook way to a result that the library reaches
another way, and the library itself does not call any of them:

* ``solve``, ``mul_vec`` and ``rank`` on a ``linalg.Matrix``: solving by one
  elimination of the augmented matrix, the reference for
  ``linalg.solve_mod_p`` and for the linear systems the tests set up;
* ``formal_derivative``, ``monic`` and ``scale`` on a ``DensePoly``: the
  derivative computes i * c_i here rather than through
  ``scalars._derivative``, so the quotient-rule oracles share no kernel
  with ``DerivedField.delta``;
* ``coords_rows``: the row builder of the bounded-height search that reads
  a map in coordinates, the reference for ``dext._vg_rows`` and for
  ``autos.log_derivative_witness``.
"""

from diffext.dext import _padded_rows
from diffext.errors import NoSolution
from diffext.linalg import Matrix
from diffext.scalars import DensePoly, RatFunc, poly_gcd


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


def formal_derivative(a):
    """d/dx of a polynomial, i * c_i taken coefficient by coefficient."""
    return DensePoly(a.field, [i * c for i, c in enumerate(a.coeffs)][1:])


def scale(a, c: int):
    """c * a for an integer c."""
    return DensePoly(a.field, [c * e for e in a.coeffs])


def monic(a):
    """a over its leading coefficient; zero stays zero."""
    return scale(a, a.field.inv(a.lc())) if a else a


def coords_rows(K, fn, target, degree):
    """Row builder for sum c_i fn(x^i/v) = target, i <= degree, in coordinates.

    fn takes an element of K to a tuple of coordinates in K, and target is
    such a tuple.  For each v, every coordinate equation is cleared of
    denominators by the lcm of its entries; the coefficients of the cleared
    numerators, in F_p since the coordinates are constants, give one row per
    power of x.
    """

    def rows(den):
        images = [fn(RatFunc(DensePoly(K.field, [0] * i + [1]), den)) for i in range(degree + 1)]
        for column in zip(*images, target):
            lcm = DensePoly.one(K.field)
            for c in column:
                lcm = lcm * (c.den // poly_gcd(lcm, c.den))
            cleared = [(c.num * (lcm // c.den)).coeffs for c in column]
            yield from _padded_rows(cleared)

    return rows
