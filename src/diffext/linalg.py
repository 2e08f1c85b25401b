"""Exact matrices: elimination and kernels over a division ring, solving over F_p.

``Matrix`` takes entries that are any objects supporting +, -, *, unary -,
==, truthiness (falsy means zero) and an ``inverse()`` method; the field
context only has to provide ``zero()`` and ``one()``.  In practice the
entries are canonical rational functions, or quaternions over them, so
equality and the zero test are structural and the results are exact.  A
matrix is a read-only table for elimination, not a ring element: it has no
arithmetic of its own.

The entries may lie in a division ring that is not commutative (the
quaternion ring of towers).  Every row operation multiplies on the left:
a pivot row is scaled by the pivot's inverse from the left, and a multiple
c times it, c on the left, is subtracted from another row.  So ``rref``
keeps the left row space, its pivot count is the left row rank, and
``kernel`` solves M v = 0 with the unknowns on the right.

Pivot choice is deterministic: first nonzero entry scanning top to bottom.
Every pivot row is normalized as soon as it is chosen, so ``rref`` returns
the unique reduced row echelon form and ``kernel`` the basis with one vector
per free column.

``solve_columns_mod_p`` solves a system over F_p whose entries are already
ints in range(p), given by its columns: no field element and no row is
built.  Each column is one packed int, a slot per equation, and every
column operation is one big-int multiply-add followed, when the slots could
overflow, by one C-level slot reduction.  It returns the particular
solution with every free variable at zero and the kernel vector of the
lowest free column, as the tests' oracles do (``solve`` on a ``Matrix`` over
any field containing F_p, and ``solve_mod_p`` on rows, in tests/oracles.py):
the reduced echelon form, which the solution set alone determines, fixes
both.
"""

from __future__ import annotations

from .errors import NoSolution
from .scalars import _pack, _residues, _unpack

__all__ = ["Matrix", "NoSolution", "solve_columns_mod_p"]


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


def solve_columns_mod_p(columns, rhs, p: int):
    """Solve sum x_j columns[j] = rhs over F_p, eliminating on packed columns.

    columns and rhs are sequences of ints in range(p), one per equation
    (bytes will do), of any lengths: a missing entry is zero.  Returns
    (x, kernel): x has its free variables at zero, and kernel is the
    kernel vector of the lowest free column, or None when the columns are
    independent.  Raises NoSolution when the system is inconsistent.

    Each column is packed into one int, w bytes per slot: n + 1 tag slots
    at the bottom, then one slot per equation.  Column j starts with tag 1
    in slot j, the right side with tag 1 in slot n, and every operation
    acts on tags and entries alike, so a column always equals the sum of
    its tags times the original columns.  Columns are taken in order.  Each
    is cleared at the pivot slot of every pivot column found so far, in the
    order found: a pivot column is zero at the pivot slots of the earlier
    ones, so each multiplier is read after the earlier ones are applied.
    A column that clears to zero lies in the span of the earlier ones; the
    first such, of the lowest free column f, has tag 1 at f and its other
    tags on pivot columns, which makes it the kernel vector of f in the
    reduced echelon form.  Otherwise its lowest nonzero slot is its pivot,
    scaled to 1.  So the pivot columns are those of the echelon form (the
    columns outside the span of the earlier ones), and the right side
    clears to zero exactly when the system is consistent; then its tags,
    negated, are the unique solution on the pivot columns.

    A reduced slot is in range(p), and one multiply-add adds at most
    (p-1)^2 to it, so w holds p (p-1), and room multiply-adds fit before
    the slots are reduced: by bytes.translate with scalars._residues(p) at
    w = 1, by scalars._unpack and _pack above.  A multiplier read from an
    unreduced slot is taken mod p.
    """
    n = len(columns)
    # w bytes per slot hold a reduced slot plus room multiples of (p-1)^2.
    w = ((p * (p - 1)).bit_length() + 7) // 8
    room = (256 ** w - p) // (p - 1) ** 2
    bits, mask, shift = 8 * w, 256 ** w - 1, 8 * w * (n + 1)
    system = [*columns, rhs]
    size = n + 1 + max(map(len, system))
    if w == 1:
        table = _residues(p)
        packed = [int.from_bytes(c, "little") for c in system]
        reduce = lambda v: int.from_bytes(v.to_bytes(size, "little").translate(table), "little")
    else:
        packed = [_pack(c, w, p) for c in system]
        reduce = lambda v: _pack(_unpack(v, w, size, p), w, p)
    tags = lambda v: tuple(_unpack(v & (1 << shift - bits) - 1, w, n, p))

    # (bit offset of the pivot slot, column) in the order found, and the
    # first column that reduces to zero, whose tags are read only if needed.
    pivots, kernel = [], None
    for j, c in enumerate(packed):
        # Clear the pivot slots, reducing every room multiples.
        v, terms = c << shift | 1 << bits * j, 0
        for at, col in pivots:
            a = (v >> at & mask) % p
            if a:
                if terms == room:
                    v, terms = reduce(v), 0
                v += (p - a) * col
                terms += 1
        v = reduce(v) if terms else v
        top = v >> shift
        if j == n:
            if top:
                raise NoSolution("inconsistent linear system")
            return tags(v * (p - 1)), kernel and tags(kernel)
        if not top:
            kernel = kernel or v
            continue
        at = shift + ((top & -top).bit_length() - 1) // bits * bits
        a = v >> at & mask
        if a != 1:
            v = reduce(v * pow(a, -1, p))
        pivots.append((at, v))
