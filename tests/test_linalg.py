"""Gaussian elimination over exact fields."""

import random

import pytest

from diffext.errors import NoSolution
from diffext.linalg import Matrix, solve_mod_p
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


def _random_matrix(K, rng, nrows, ncols):
    # About a third of the entries are zero, so the product's zero skip runs.
    return Matrix(K, [
        [random_ratfunc(K, rng, 2) if rng.randrange(3) else K.zero() for _ in range(ncols)]
        for _ in range(nrows)
    ])


def _triple_loop_product(a, b):
    zero = a.field.zero()
    return [
        [sum((a.entry(i, k) * b.entry(k, j) for k in range(a.ncols)), zero) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


@pytest.mark.parametrize("K", [K2, K3], ids=["p2", "p3"])
def test_matrix_product_and_power_match_oracles(K):
    rng = random.Random("matmul:%d" % K.p)
    for _ in range(20):
        n, k, m = (rng.randrange(1, 4) for _ in range(3))
        a, b = _random_matrix(K, rng, n, k), _random_matrix(K, rng, k, m)
        assert (a * b).rows == tuple(map(tuple, _triple_loop_product(a, b)))
        c = _random_matrix(K, rng, n, k)
        assert (a + c) - c == a and -(-a) == a and not (a - a)
    with pytest.raises(ValueError):
        _random_matrix(K, rng, 2, 3) * _random_matrix(K, rng, 2, 3)
    for n in (1, 2, 3):
        a = _random_matrix(K, rng, n, n)
        expected = Matrix.identity(K, n)
        for e in range(6):
            assert a ** e == expected
            expected = expected * a
        x = K.x()
        assert Matrix.scalar(K, n, x) ** 3 == Matrix.scalar(K, n, x ** 3)


def test_matrix_bool_hash_and_eq_agree():
    rng = random.Random("matbool")
    zero = Matrix.scalar(K3, 2, K3.zero())
    mats = [zero, Matrix.identity(K3, 2)] + [_random_matrix(K3, rng, 2, 2) for _ in range(30)]
    for a in mats:
        copy = Matrix(K3, [list(r) for r in a.rows])
        assert copy == a and hash(copy) == hash(a)
        assert bool(a) == (a != zero) == any(e for r in a.rows for e in r)
        for b in mats:
            assert (a == b) == (a.rows == b.rows)
            if a == b:
                assert hash(a) == hash(b)


def test_inverse():
    x = K3.x()
    m = Matrix(K3, [[K3.one(), x], [K3.zero(), K3.one()]])
    inv = m.inverse()
    prod = Matrix(K3, [m.mul_vec(inv.column(0)), m.mul_vec(inv.column(1))]).transpose()
    assert prod == Matrix.identity(K3, 2)
    sing = Matrix(K3, [[x, x], [x, x]])
    with pytest.raises(NoSolution):
        sing.inverse()


def _random_mod_p_system(rng, p):
    """Augmented rows over F_p: full rank, rank-deficient or inconsistent."""
    n = rng.randrange(1, 6)
    kind = rng.choice(("random", "deficient", "inconsistent"))
    rows = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(rng.randrange(1, 7))]
    if kind != "random":
        # Append combinations of the rows, so that the rank stays low ...
        for _ in range(rng.randrange(1, 4)):
            cs = [rng.randrange(p) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(n + 1)])
        if kind == "inconsistent":
            # ... and one whose right-hand side is off by a nonzero amount.
            cs = [rng.randrange(p) for _ in rows]
            bad = [sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(n + 1)]
            bad[-1] = (bad[-1] + rng.randrange(1, p)) % p
            rows.insert(rng.randrange(len(rows) + 1), bad)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_mod_p_matches_matrix_solve(p):
    K = RationalFunctionField(p)
    rng = random.Random(700 + p)
    outcomes = set()
    for _ in range(150):
        rows = _random_mod_p_system(rng, p)
        mat = Matrix(K, [[K.from_int(c) for c in r[:-1]] for r in rows])
        try:
            sol, ker = mat.solve([K.from_int(r[-1]) for r in rows])
        except NoSolution:
            with pytest.raises(NoSolution):
                solve_mod_p(rows, p)
            outcomes.add("none")
            continue
        got_sol, got_ker = solve_mod_p(rows, p)
        assert tuple(K.from_int(c) for c in got_sol) == sol
        assert [tuple(K.from_int(c) for c in v) for v in got_ker] == ker
        outcomes.add("kernel" if ker else "unique")
    assert outcomes == {"none", "kernel", "unique"}


def test_solve_mod_p_ignores_row_order_and_repeats():
    # x + 2y = 1, y + z = 2, x + z = 0 over F_3: rank 2, z free.
    rows = [(1, 2, 0, 1), (0, 1, 1, 2), (1, 0, 1, 0)]
    want = solve_mod_p(rows, 3)
    assert want == ((0, 2, 0), [(2, 2, 1)])
    assert solve_mod_p(rows[::-1] + rows[:1], 3) == want
    with pytest.raises(ValueError):
        solve_mod_p([], 3)
