"""The samplers draw exactly what Random.randrange would.

``scalars.random_poly`` and ``random_ratfunc`` draw on coefficient tuples
from ``getrandbits``; the oracle is the randrange route in
``tests/oracles.py``.  Every seeded suite rests on the two agreeing draw
for draw, so each draw is compared by value and by the generator's state
after it.
"""

import random

import pytest

from diffext.dext import AlgebraElement, ExtAlgebra
from diffext.diffpoly import DiffPoly
from diffext.frontend import _random_dp, instance_from_text
from diffext.scalars import PrimeField, RationalFunctionField, random_poly, random_ratfunc
from diffext.towers import Quaternion, QuaternionRing
from oracles import randrange_poly, randrange_ratfunc

_PRIMES = (2, 3, 5, 7, 13, 251, 257, 65521)
_SEEDS = (0, 1, 5201)
_FLAGS = [
    {},
    {"nonzero": True},
    {"monic": True},
    {"nonzero": True, "monic": True},
]


def _pair(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("p", _PRIMES)
def test_random_poly_matches_randrange_draw_for_draw(p):
    field = PrimeField(p)
    for seed in _SEEDS:
        fast, slow = _pair(seed)
        for max_degree in range(6):
            for flags in _FLAGS:
                for _ in range(4):
                    got = random_poly(field, fast, max_degree, **flags)
                    want = randrange_poly(field, slow, max_degree, **flags)
                    assert got == want, (seed, max_degree, flags)
                    assert fast.getstate() == slow.getstate(), (seed, max_degree, flags)


@pytest.mark.parametrize("p", _PRIMES)
def test_random_ratfunc_matches_randrange_draw_for_draw(p):
    K = RationalFunctionField(p)
    for seed in _SEEDS:
        fast, slow = _pair(seed)
        for max_degree in range(6):
            for nonzero in (False, True):
                for _ in range(4):
                    got = random_ratfunc(K, fast, max_degree, nonzero=nonzero)
                    want = randrange_ratfunc(K, slow, max_degree, nonzero=nonzero)
                    assert got == want, (seed, max_degree, nonzero)
                    assert fast.getstate() == slow.getstate(), (seed, max_degree, nonzero)


def _randrange_element(ring, rng, deg):
    if isinstance(ring, QuaternionRing):
        return Quaternion(ring, [randrange_ratfunc(ring.base, rng, deg) for _ in range(4)])
    return randrange_ratfunc(ring, rng, deg)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_ring_samplers_match_randrange_draw_for_draw(p):
    # The derived field, the quaternion ring, an algebra over each and the
    # suites' DiffPoly sampler all draw through random_ratfunc.
    inst = instance_from_text("p = %d\ndelta_of_x = x\nd = x\n" % p)
    K = inst.K
    algebras = [inst.algebra]
    if p > 2:
        Q = QuaternionRing(K)
        algebras.append(ExtAlgebra(Q, inst.g, Q.embed(K.x())))
    for alg in algebras:
        ring, m = alg.ring, alg.f.degree()
        for seed in _SEEDS:
            fast, slow = _pair(seed)
            for deg in range(4):
                assert ring.random_element(fast, deg) == _randrange_element(ring, slow, deg)
                assert fast.getstate() == slow.getstate()
                want = [_randrange_element(ring, slow, deg) for _ in range(m)]
                assert alg.random_element(fast, deg) == AlgebraElement(alg, DiffPoly(ring, want))
                assert fast.getstate() == slow.getstate()
    for seed in _SEEDS:
        fast, slow = _pair(seed)
        for deg in range(4):
            want = DiffPoly(K, [randrange_ratfunc(K, slow, 2) for _ in range(deg + 1)])
            assert _random_dp(K, fast, deg) == want
            assert fast.getstate() == slow.getstate()


class _Recorder(random.Random):
    """A Random that records every getrandbits call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


def test_samplers_refuse_a_negative_degree_bound_before_any_draw():
    # randrange(0) raises; getrandbits(0) is 0, which a bound of 0 never
    # accepts, so without the check the degree loop would never end.
    with pytest.raises(ValueError):
        random.Random(0).randrange(0)
    field, K = PrimeField(3), RationalFunctionField(3)
    for max_degree in (-1, -2):
        rng = _Recorder(0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            random_poly(field, rng, max_degree)
        with pytest.raises(ValueError):
            random_poly(field, rng, max_degree, monic=True)
        with pytest.raises(ValueError):
            random_ratfunc(K, rng, max_degree, nonzero=True)
        assert rng.calls == [] and rng.getstate() == state
        with pytest.raises(ValueError):
            randrange_poly(field, rng, max_degree)
