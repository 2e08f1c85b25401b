"""Exact matrices over a field: elimination and kernels, and solving over F_p.

``Matrix`` takes entries that are any objects supporting +, -, *, unary -,
==, truthiness (falsy means zero) and an ``inverse()`` method; the field
context only has to provide ``zero()`` and ``one()``.  In practice the
entries are canonical rational functions, so equality and the zero test are
structural and the results are exact.  A matrix is a read-only table for
elimination, not a ring element: it has no arithmetic of its own.

Pivot choice is deterministic: first nonzero entry scanning top to bottom.
Every pivot row is normalized as soon as it is chosen, so ``rref`` returns
the unique reduced row echelon form and ``kernel`` the basis with one vector
per free column.

``solve_mod_p`` is the same elimination for an augmented system whose
entries are already in F_p, held as Python ints: no field element is
built, and each update reduces mod p once per entry.  It returns the
particular solution with every free variable at zero and the kernel basis
with one vector per free column, lowest free column first, as the tests'
oracle ``solve`` (tests/oracles.py) does on a ``Matrix`` over any field
containing F_p.  Both are read off the reduced echelon form, which the
solution set alone determines, so they do not depend on the order or
repetition of the rows.
"""

from __future__ import annotations

from .errors import NoSolution

__all__ = ["Matrix", "NoSolution", "solve_mod_p"]


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


def solve_mod_p(rows, p: int):
    """Solve an augmented system over F_p: rows are (a_1, ..., a_n, b) of ints.

    Returns (x, kernel) as tuples of ints in range(p): x has its free
    variables at zero, and kernel holds one vector per free column, lowest
    free column first.  Raises NoSolution when the system is inconsistent.
    There must be at least one row, since the rows carry the number of
    unknowns.
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
