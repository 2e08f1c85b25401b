"""Gaussian elimination over exact fields, and the F_p column solver."""

import random

import pytest

from diffext.errors import NoSolution
from diffext.linalg import Matrix, solve_columns_mod_p
from diffext.scalars import RationalFunctionField, random_ratfunc
from oracles import mul_vec, padded_rows, rank, solve, solve_mod_p


K2 = RationalFunctionField(2)
K3 = RationalFunctionField(3)


def M(K, rows):
    return Matrix(K, [[K.from_int(e) if isinstance(e, int) else e for e in r] for r in rows])


def test_kernel_frozen_values():
    # Identity has trivial kernel.
    assert M(K2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel() == []
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
    sol, ker = solve(m, (x, K2.one()))
    assert ker == []
    assert mul_vec(m, sol) == (x, K2.one())
    # Inconsistent system raises.
    bad = Matrix(K2, [[K2.one(), x], [K2.one(), x]])
    with pytest.raises(NoSolution):
        solve(bad, (K2.zero(), K2.one()))


def test_solve_residual_and_rank_nullity_sampled():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        mat = Matrix(K3, [[random_ratfunc(K3, rng, 2) for _ in range(m)] for _ in range(n)])
        assert rank(mat) + len(mat.kernel()) == m
        xs = tuple(random_ratfunc(K3, rng, 2) for _ in range(m))
        rhs = mul_vec(mat, xs)
        sol, ker = solve(mat, rhs)
        assert mul_vec(mat, sol) == rhs
        for v in ker:
            assert all(not e for e in mul_vec(mat, v))
        # Adding a kernel vector to a solution gives another solution.
        if ker:
            shifted = tuple(a + b for a, b in zip(sol, ker[0]))
            assert mul_vec(mat, shifted) == rhs


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
    # The two oracles of the column solver agree.
    K = RationalFunctionField(p)
    rng = random.Random(700 + p)
    outcomes = set()
    for _ in range(150):
        rows = _random_mod_p_system(rng, p)
        mat = Matrix(K, [[K.from_int(c) for c in r[:-1]] for r in rows])
        try:
            sol, ker = solve(mat, [K.from_int(r[-1]) for r in rows])
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


def _combination(coeffs, vectors, p, width):
    """sum c v over F_p, as a tuple of the given width."""
    return tuple(
        sum(c * v[i] for c, v in zip(coeffs, vectors) if i < len(v)) % p for i in range(width)
    )


_KINDS = ("random", "dependent", "zero column", "zero rhs", "inconsistent")


def _random_column_system(rng, p, kind):
    """Columns and a right side over F_p of uneven lengths, of the given kind."""
    n, m = rng.randrange(1, 6), rng.randrange(1, 7)
    column = lambda width: tuple(rng.randrange(p) for _ in range(rng.randrange(width + 1)))
    columns = [column(m) for _ in range(n)]
    if kind == "random":
        return columns, column(m)
    if kind in ("dependent", "zero rhs") and n > 1:
        j = rng.randrange(n)
        others = columns[:j] + columns[j + 1 :]
        columns[j] = _combination([rng.randrange(p) for _ in others], others, p, m)
    if kind == "zero column":
        columns[rng.randrange(n)] = (0,) * rng.randrange(m + 1)
    if kind == "inconsistent":
        # No column reaches equation m, and the right side does.
        columns = [c[: m - 1] for c in columns]
        rhs = _combination([rng.randrange(p) for _ in columns], columns, p, m - 1)
        return columns, rhs + (rng.randrange(1, p),)
    if kind == "zero rhs":
        return columns, (0,) * rng.randrange(m + 1)
    return columns, _combination([rng.randrange(p) for _ in columns], columns, p, m)


def _first_kernel(solved):
    """(x, kernel vector of the lowest free column or None), or None."""
    return None if solved is None else (solved[0], solved[1][0] if solved[1] else None)


@pytest.mark.parametrize("p", [2, 3, 13, 17, 131, 257])
def test_solve_columns_mod_p_matches_row_oracles(p):
    # One-byte slots at p = 2, 3 and 13, two at 17 and 131, three at 257.
    # Oracles: solve_mod_p on the padded rows, and solve on a Matrix over
    # F_p(x); bytes columns give the same answer below 256.
    K = RationalFunctionField(p)
    lift = lambda v: None if v is None else tuple(map(K.from_int, v))
    rng = random.Random(900 + p)
    outcomes = set()
    for i in range(250):
        kind = _KINDS[i % len(_KINDS)]
        columns, rhs = _random_column_system(rng, p, kind)
        rows = padded_rows(columns, rhs)
        try:
            want = _first_kernel(solve_mod_p(rows, p))
        except NoSolution:
            want = None
        mat = Matrix(K, [lift(r[:-1]) for r in rows])
        try:
            sol, ker = solve(mat, lift([r[-1] for r in rows]))
            assert want is not None and (sol, ker[0] if ker else None) == tuple(map(lift, want))
        except NoSolution:
            assert want is None
        try:
            got = solve_columns_mod_p(columns, rhs, p)
        except NoSolution:
            got = None
        assert got == want, (kind, columns, rhs)
        if p < 256:
            try:
                assert solve_columns_mod_p([bytes(c) for c in columns], bytes(rhs), p) == want
            except NoSolution:
                assert want is None
        outcomes.add((kind, "none" if want is None else "kernel" if want[1] else "unique"))
        if len(columns) == 1:
            outcomes.add("n = 1")
    assert "n = 1" in outcomes
    assert {o for o in outcomes if o[0] == "inconsistent"} == {("inconsistent", "none")}
    assert ("zero rhs", "kernel") in outcomes and ("dependent", "kernel") in outcomes
    assert ("random", "unique") in outcomes and ("zero column", "kernel") in outcomes


def test_solve_columns_mod_p_frozen_values():
    # x + 2y = 1, y + z = 2, x + z = 0 over F_3: rank 2, z free.
    columns, rhs = [(1, 0, 1), (2, 1, 0), (0, 1, 1)], (1, 2, 0)
    assert solve_columns_mod_p(columns, rhs, 3) == ((0, 2, 0), (2, 2, 1))
    assert solve_mod_p(padded_rows(columns, rhs), 3) == ((0, 2, 0), [(2, 2, 1)])
    # Empty columns: every x solves a zero right side, none a nonzero one.
    assert solve_columns_mod_p([(), (0,)], (), 5) == ((0, 0), (1, 0))
    with pytest.raises(NoSolution):
        solve_columns_mod_p([(), (0,)], (0, 0, 1), 5)
    # n = 1 over F_257, with a trailing equation 0 = 0.
    assert solve_columns_mod_p([(3, 0)], (6,), 257) == ((2,), None)
