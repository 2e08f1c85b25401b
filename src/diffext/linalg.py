"""Exact Gaussian elimination over an arbitrary field.

Entries are any objects supporting +, -, *, unary -, ==, truthiness (falsy
means zero) and an ``inverse()`` method; the field context only has to
provide ``zero()`` and ``one()``.  In practice the entries are canonical
rational functions, so equality and the zero test are structural and the
results are exact.

Pivot choice is deterministic: first nonzero entry scanning top to bottom.
Every pivot row is normalized as soon as it is chosen, so ``rref`` returns
the unique reduced row echelon form and ``kernel`` the basis with one vector
per free column.
"""

from __future__ import annotations

from .errors import NoSolution

__all__ = ["Matrix", "NoSolution"]


class Matrix:
    """Immutable rectangular matrix over a field context."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = [tuple(r) for r in rows]
        if rows:
            w = len(rows[0])
            for r in rows:
                if len(r) != w:
                    raise ValueError("ragged rows")
        else:
            w = 0
        self.field = field
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = w

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)])

    def augment(self, vec):
        if len(vec) != self.nrows:
            raise ValueError("vector length mismatch")
        return Matrix(self.field, [r + (v,) for r, v in zip(self.rows, vec)])

    def mul_vec(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        zero = self.field.zero()
        out = []
        for r in self.rows:
            acc = zero
            for a, v in zip(r, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Matrix) and other.rows == self.rows

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return "Matrix[%s]" % body

    # -- elimination -------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot_columns)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        rank = 0
        for col in range(self.ncols):
            best = None
            for i in range(rank, len(rows)):
                if rows[i][col]:
                    best = i
                    break
            if best is None:
                continue
            rows[rank], rows[best] = rows[best], rows[rank]
            pivot_row = rows[rank]
            inv = pivot_row[col].inverse()
            for j in range(col, self.ncols):
                if pivot_row[j]:
                    pivot_row[j] = inv * pivot_row[j]
            for i in range(len(rows)):
                if i == rank or not rows[i][col]:
                    continue
                r = rows[i]
                c = r[col]
                for j in range(col, self.ncols):
                    if pivot_row[j]:
                        r[j] = r[j] - c * pivot_row[j]
            pivots.append(col)
            rank += 1
            if rank == len(rows):
                break
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right kernel, one vector per free column."""
        return self._kernel_from_rref(*self.rref())

    def _kernel_from_rref(self, red, pivots):
        """Kernel basis read off a reduced form whose first ncols columns are self's."""
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        zero, one = self.field.zero(), self.field.one()
        basis = []
        for fcol in free:
            v = [zero] * self.ncols
            v[fcol] = one
            for k, pcol in enumerate(pivots):
                e = red.rows[k][fcol]
                if e:
                    v[pcol] = -e
            basis.append(tuple(v))
        return basis

    def solve(self, rhs):
        """Particular solution with free variables at zero, plus kernel basis.

        Raises NoSolution when the system is inconsistent.  One elimination
        of the augmented matrix serves both: when the system is consistent
        no pivot falls in the last column, so the pivots and the first
        ncols columns are those of rref(self).
        """
        red, pivots = self.augment(rhs).rref()
        if pivots and pivots[-1] == self.ncols:
            raise NoSolution("inconsistent linear system")
        zero = self.field.zero()
        x = [zero] * self.ncols
        for k, pcol in enumerate(pivots):
            x[pcol] = red.rows[k][self.ncols]
        return tuple(x), self._kernel_from_rref(red, pivots)

    def inverse(self):
        """Two-sided inverse of a square matrix; NoSolution if singular."""
        if self.nrows != self.ncols:
            raise NoSolution("not square")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = Matrix(self.field, [self.rows[i] + ident.rows[i] for i in range(n)])
        red, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise NoSolution("singular matrix")
        return Matrix(self.field, [r[n:] for r in red.rows])
