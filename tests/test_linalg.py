"""Gaussian elimination over exact fields."""

import random

import pytest

from diffext.errors import NoSolution
from diffext.linalg import Matrix
from diffext.scalars import RationalFunctionField, random_ratfunc


K2 = RationalFunctionField(2)
K3 = RationalFunctionField(3)


def M(K, rows):
    return Matrix(K, [[K.from_int(e) if isinstance(e, int) else e for e in r] for r in rows])


def test_kernel_frozen_values():
    # Identity has trivial kernel.
    assert Matrix.identity(K2, 3).kernel() == []
    # Zero matrix: kernel is the standard basis.
    z = M(K2, [[0, 0], [0, 0]])
    assert z.kernel() == [
        (K2.one(), K2.zero()),
        (K2.zero(), K2.one()),
    ]
    # Rank-1 matrix [[1, x], [x, x^2]] over F_2(x): kernel spanned by (x, 1).
    x = K2.x()
    m = Matrix(K2, [[K2.one(), x], [x, x * x]])
    assert m.kernel() == [(x, K2.one())]


def test_solve_frozen_values():
    x = K2.x()
    m = Matrix(K2, [[K2.one(), x], [K2.zero(), K2.one()]])
    sol, ker = m.solve((x, K2.one()))
    assert ker == []
    assert m.mul_vec(sol) == (x, K2.one())
    # Inconsistent system raises.
    bad = Matrix(K2, [[K2.one(), x], [K2.one(), x]])
    with pytest.raises(NoSolution):
        bad.solve((K2.zero(), K2.one()))


def test_solve_residual_and_rank_nullity_sampled():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        mat = Matrix(K3, [[random_ratfunc(K3, rng, 2) for _ in range(m)] for _ in range(n)])
        assert mat.rank() + len(mat.kernel()) == m
        xs = tuple(random_ratfunc(K3, rng, 2) for _ in range(m))
        rhs = mat.mul_vec(xs)
        sol, ker = mat.solve(rhs)
        assert mat.mul_vec(sol) == rhs
        for v in ker:
            assert all(not e for e in mat.mul_vec(v))
        # Adding a kernel vector to a solution gives another solution.
        if ker:
            shifted = tuple(a + b for a, b in zip(sol, ker[0]))
            assert mat.mul_vec(shifted) == rhs


def test_inverse():
    x = K3.x()
    m = Matrix(K3, [[K3.one(), x], [K3.zero(), K3.one()]])
    inv = m.inverse()
    prod = Matrix(K3, [m.mul_vec(inv.column(0)), m.mul_vec(inv.column(1))]).transpose()
    assert prod == Matrix.identity(K3, 2)
    sing = Matrix(K3, [[x, x], [x, x]])
    with pytest.raises(NoSolution):
        sing.inverse()
