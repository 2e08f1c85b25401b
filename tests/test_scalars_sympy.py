"""DensePoly product, division and gcd against sympy's Poly over GF(p).

Optional: skipped when sympy is not installed.  sympy prints coefficients
in the symmetric range, so they are mapped back through % p.
"""

import random

import pytest

from diffext.scalars import DensePoly, PrimeField, poly_gcd, random_poly

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def _to_sympy(a):
    return sympy.Poly(list(reversed(a.coeffs)) or [0], X, modulus=a.field.p)


def _from_sympy(poly, field):
    return DensePoly(field, [int(c) % field.p for c in reversed(poly.all_coeffs())])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_dense_poly_matches_sympy(p):
    F = PrimeField(p)
    rng = random.Random(1200 + p)
    lin_rng = random.Random(1250 + p)
    for _ in range(150):
        a = random_poly(F, rng, 9)
        b = random_poly(F, rng, 6)
        s = random_poly(F, rng, 3, monic=True)
        sa, sb = _to_sympy(a), _to_sympy(b)
        assert a * b == _from_sympy(sa * sb, F)
        if b:
            q, r = sa.div(sb)
            assert divmod(a, b) == (_from_sympy(q, F), _from_sympy(r, F))
        g = _to_sympy(a * s).gcd(_to_sympy(b * s))
        if not g.is_zero:
            g = g.monic()
        assert poly_gcd(a * s, b * s) == _from_sympy(g, F)
        # A linear divisor, not monic: synthetic division and the early
        # exit from Euclid, with the factor absent and present.
        lin = DensePoly(F, (lin_rng.randrange(p), lin_rng.randrange(1, p)))
        sl = _to_sympy(lin)
        q, r = sa.div(sl)
        assert divmod(a, lin) == (_from_sympy(q, F), _from_sympy(r, F))
        assert a * lin == _from_sympy(sa * sl, F)
        for x in (a, a * lin):
            g = _to_sympy(x).gcd(sl).monic()
            assert poly_gcd(x, lin) == poly_gcd(lin, x) == _from_sympy(g, F)
