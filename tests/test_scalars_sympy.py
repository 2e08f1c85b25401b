"""The polynomial kernels against sympy's Poly over GF(p): products, long
division, exact quotients and gcds, on coefficient tuples.

Optional: skipped when sympy is not installed.  sympy prints coefficients
in the symmetric range, so they are mapped back through % p.
"""

import random

import pytest

from diffext.scalars import (
    DensePoly,
    PrimeField,
    _exquo,
    _gcd,
    _mul,
    _remainder,
    poly_gcd,
    random_poly,
)

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def _to_sympy(a, p):
    return sympy.Poly(list(reversed(a)) or [0], X, modulus=p)


def _from_sympy(poly, field):
    return DensePoly(field, [int(c) % field.p for c in reversed(poly.all_coeffs())]).coeffs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_dense_poly_matches_sympy(p):
    F = PrimeField(p)
    rng = random.Random(1200 + p)
    lin_rng = random.Random(1250 + p)
    for _ in range(150):
        a = random_poly(F, rng, 9).coeffs
        b = random_poly(F, rng, 6).coeffs
        s = random_poly(F, rng, 3, monic=True).coeffs
        sa, sb = _to_sympy(a, p), _to_sympy(b, p)
        assert _mul(a, b, p) == _from_sympy(sa * sb, F)
        # The packed long division takes divisors of degree >= 2.
        if len(b) >= 3 and len(a) >= len(b):
            q, r = sa.div(sb)
            quotient = [0] * (len(a) - len(b) + 1)
            remainder = _remainder(a, b, p, quotient)
            assert (tuple(quotient), tuple(remainder)) == (_from_sympy(q, F), _from_sympy(r, F))
        a_s, b_s = _mul(a, s, p), _mul(b, s, p)
        assert _exquo(a_s, s, p) == _from_sympy(_to_sympy(a_s, p).div(_to_sympy(s, p))[0], F)
        g = _to_sympy(a_s, p).gcd(_to_sympy(b_s, p))
        if not g.is_zero:
            g = g.monic()
        assert poly_gcd(DensePoly(F, a_s), DensePoly(F, b_s)).coeffs == _from_sympy(g, F)
        # A linear divisor, not monic: the early exit from Euclid, with the
        # factor absent and present; its monic multiple takes the synthetic
        # exact quotient.
        lin = DensePoly(F, (lin_rng.randrange(p), lin_rng.randrange(1, p))).coeffs
        sl = _to_sympy(lin, p)
        assert _mul(a, lin, p) == _from_sympy(sa * sl, F)
        for x in (a, _mul(a, lin, p)):
            g = _to_sympy(x, p).gcd(sl).monic()
            assert _gcd(x, lin, p) == _gcd(lin, x, p) == _from_sympy(g, F)
        root = _from_sympy(sl.monic(), F)
        x = _mul(a, root, p)
        assert _exquo(x, root, p) == _from_sympy(_to_sympy(x, p).div(sl.monic())[0], F)
