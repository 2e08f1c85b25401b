"""Shared instances used across the test modules.

i1: p = 2, delta = x d/dx over F_2, g = t^2 - t, d = x   (nonassociative)
i2: same field, d = x^2 (a constant, so associative)
i3: p = 3, delta = x d/dx over F_3, g = t^3 - t, d = x   (nonassociative)
i4: p = 2, delta = d/dx over F_2, g = t^2, d = x         (nonassociative)

drawn_denominators: the list of denominators the factor search draws.
"""

import pytest

from diffext import dext
from diffext.dext import ExtAlgebra
from diffext.scalars import DensePoly, PrimeField, RatFunc
from diffext.towers import DerivedField, minimal_p_polynomial


def _w(p, coeffs):
    F = PrimeField(p)
    return RatFunc(DensePoly(F, coeffs), DensePoly.one(F))


def _mk(p, w_coeffs, d_fn):
    K = DerivedField(p, _w(p, w_coeffs))
    g = minimal_p_polynomial(K)
    return ExtAlgebra(K, g, d_fn(K))


@pytest.fixture(scope="session")
def i1():
    return _mk(2, (0, 1), lambda K: K.x())


@pytest.fixture(scope="session")
def i2():
    return _mk(2, (0, 1), lambda K: K.x() ** 2)


@pytest.fixture(scope="session")
def i3():
    return _mk(3, (0, 1), lambda K: K.x())


@pytest.fixture(scope="session")
def i4():
    return _mk(2, (1,), lambda K: K.x())


@pytest.fixture(scope="session")
def i2_d0():
    return _mk(2, (0, 1), lambda K: K.zero())


@pytest.fixture
def drawn_denominators(monkeypatch):
    """Records every denominator dext._fraction_candidates yields, in order."""
    drawn = []
    enumerate_all = dext._fraction_candidates

    def counting(K, bound):
        for den in enumerate_all(K, bound):
            drawn.append(den)
            yield den

    monkeypatch.setattr(dext, "_fraction_candidates", counting)
    return drawn
