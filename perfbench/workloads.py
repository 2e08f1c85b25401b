"""Seeded inputs and output checks for the benchmark workloads.

Each workload is an endless, deterministic sequence of CLI operations.  Op
``i`` depends only on ``(seed, i)``, so any prefix of the sequence is the
same whatever the run length.  The sequence falls into rounds of
``round_size`` ops, and every round has the same op mix:

* ``structure``: ``build`` and ``nucleus --which left|middle|right|full`` at
  p = 3 (dim 9 over F = F_3(x^3)), delta weight cycling over x, 1 and
  x^2 + 1.  One op in three, always for the same (weight, query) pairs,
  has a constant nonzero d in F_3; the others have a seeded
  d = (a x^2 + b x + c) / m(x) in lowest terms, with m one of x^2,
  x^2 + 1 and x^2 + 2, fixed for each (weight, query) pair.
* ``factor_search``: ``divcheck`` at the shipped bounds (p = 2 at bound 4,
  p = 3 at bound 2) with delta weights x and 1, on d = V_g(b0) for a seeded
  b0.  A quarter of the ops plant a fraction b0 of height <= bound (the
  search must find a witness); the rest plant a polynomial b0 of degree
  bound + 2, so the search runs to exhaustion.
* ``arith_suites``: ``verify --suite S`` for S in ring, vops, autos, inner
  over the five shipped instances, with a fresh suite seed on every round.

The program only ever sees the config files and arguments built here.  The
checks run outside the timed region and use the library's own parsing and
arithmetic, except that V_g is recomputed from its closed form
b^p + delta^(p-1)(b) + a_1 b rather than from the expansion the library
uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """One CLI call: the config it runs on, its arguments and its check.

    ``check(rc, report)`` returns ``(ok, known_defect, reason)``.  A known
    defect is a wrong answer the library is documented to give today; it
    counts as a failed op but does not make the run incorrect.
    """

    label: str
    config: str
    args: list
    check: Callable


def _config(p, delta_of_x, d, bound=4):
    return "p = %d\ndelta_of_x = %s\nd = %s\nseed = 0\ndegree_bound = %d\n" % (
        p,
        delta_of_x,
        d,
        bound,
    )


def _single_check(report, name):
    checks = report.get("checks", [])
    if len(checks) != 1 or checks[0].get("name") != name:
        return None
    return checks[0]


class Structure:
    """Table rebuilds, associator sweeps and kernel solves; no search."""

    name = "structure"
    round_size = 15
    fields = [(3, "x"), (3, "1"), (3, "x^2 + 1")]
    weights = ("x", "1", "x^2 + 1")
    queries = ("build", "left", "middle", "right", "full")
    denominators = ((0, 0, 1), (1, 0, 1), (2, 0, 1))  # x^2, x^2+1, x^2+2 = (x+1)(x+2)
    p = 3
    dim = 9

    def __init__(self, seed, lib):
        self.seed = seed
        self.lib = lib

    def op(self, i):
        # 3 and 5 are coprime, so every 15 consecutive ops cover each
        # (weight, query) pair once.  The pairs with w == q mod 3 get a
        # constant d: 5 of every 15 ops, one per query, always the same
        # pairs, so every round has the same mix.
        w, q = i % 3, i % 5
        constant = w == q % 3
        rng = random.Random("%d:structure:%d" % (self.seed, i))
        # A constant d is never 0: d = 0 runs about a quarter faster than
        # d = 1 or 2, which would make the cost of a round depend on the seed.
        d = str(rng.randrange(1, self.p)) if constant else self._nonconstant_d(rng, (w + q) % 3)
        query = self.queries[q]
        if query == "build":
            args = ["build"]
        else:
            args = ["nucleus", "--which", query]
        label = "%s w=%s d=%s" % (" ".join(args), self.weights[w], "const" if constant else "rat")
        cfg = _config(self.p, self.weights[w], d)
        return Op(label, cfg, args, lambda rc, rep: self._check(rc, rep, query, constant))

    def _nonconstant_d(self, rng, k):
        """(a x^2 + b x + c) / m(x) in lowest terms, m = denominators[k].

        The caller fixes k for each (weight, query) pair: the cost of an op
        depends on m much more than on the numerator (with m = x^2 an op
        runs about twice as fast as with x^2 + 1), so a seeded m would make
        the cost of a round depend on the seed.
        """
        lib, p = self.lib, self.p
        F = lib.PrimeField(p)
        den = lib.DensePoly(F, self.denominators[k])
        while True:
            num = lib.DensePoly(F, [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)])
            d = lib.RatFunc(num, den)
            if d.num.degree() == 2 and d.den.degree() == 2:
                return str(d)

    def _check(self, rc, report, query, constant):
        if rc != 0:
            return False, False, "exit status %d" % rc
        if report.get("instance", {}).get("dim_over_F") != self.dim:
            return False, False, "dimension over F is not %d" % self.dim
        if query == "build":
            c = _single_check(report, "build")
            want = "true" if constant else "false"
            if c is None or c["witness"].get("associative") != want:
                return False, False, "associative flag is not %s" % want
            return True, False, ""
        c = _single_check(report, "nucleus")
        want = self.dim if constant else self.p
        if c is None or c["witness"].get("which") != query or c["witness"].get("dim") != want:
            return False, False, "%s nucleus dimension is not %d" % (query, want)
        return True, False, ""


class FactorSearch:
    """The p^(2 bound) candidate enumeration with one V_g per candidate."""

    name = "factor_search"
    round_size = 16
    # p alternates so that every block of four ops holds each instance once.
    combos = ((2, "x", 4), (3, "x", 2), (2, "1", 4), (3, "1", 2))
    fields = [(p, w) for p, w, _ in combos]

    def __init__(self, seed, lib):
        self.seed = seed
        self.lib = lib
        self._fields = {}
        for p, w, _ in self.combos:
            K = lib.derived_field(p, w)
            g = lib.minimal_p_polynomial(K)
            if g.e != 1:
                raise ValueError("expected an exponent-one p-polynomial for weight %s" % w)
            self._fields[(p, w)] = (K, g)

    def op(self, i):
        c, block = i % 4, i // 4
        p, w, bound = self.combos[c]
        # One op in four plants a factor the search can reach; which instance
        # gets it rotates from block to block.
        low = (block + c) % 4 == 0
        rng = random.Random("%d:factor_search:%d" % (self.seed, i))
        K, g = self._fields[(p, w)]
        b0 = self._planted(K, rng, bound) if low else self._beyond(K, rng, bound)
        d = self.v_g(K, g, b0)
        label = "divcheck p=%d w=%s %s b0=%s" % (p, w, "low" if low else "high", b0)
        cfg = _config(p, w, d, bound)
        return Op(label, cfg, ["divcheck"], lambda rc, rep: self._check(rc, rep, K, g, d, low))

    def _planted(self, K, rng, height):
        """A fraction with numerator and denominator degrees <= height."""
        lib, p = self.lib, K.p
        dn = rng.randrange(height + 1)
        dd = rng.randrange(height + 1)
        num = lib.DensePoly(K.field, [rng.randrange(p) for _ in range(dn)] + [rng.randrange(1, p)])
        den = lib.DensePoly(K.field, [rng.randrange(p) for _ in range(dd)] + [1])
        return lib.RatFunc(num, den)

    def _beyond(self, K, rng, bound):
        """A polynomial of degree bound + 2.

        For a rational b0 of that height, V_g(b) = d can have a second
        solution b of height <= bound, which the search finds early, so the
        op would leave the exhaustive stratum and its cost would depend on
        the seed.  No polynomial b0 showed one.
        """
        lib, p = self.lib, K.p
        num = lib.DensePoly(K.field, [rng.randrange(p) for _ in range(bound + 2)] + [rng.randrange(1, p)])
        return lib.RatFunc(num, lib.DensePoly(K.field, [1]))

    @staticmethod
    def v_g(K, g, b):
        """Closed form of V_g for g = t^p + a_1 t: b^p + delta^(p-1)(b) + a_1 b."""
        dd = b
        for _ in range(K.p - 1):
            dd = K.delta(dd)
        return b ** K.p + dd + g.coeffs[0] * b

    def _check(self, rc, report, K, g, d, low):
        if rc != 0:
            return False, False, "exit status %d" % rc
        c = _single_check(report, "divcheck")
        if c is None:
            return False, False, "no divcheck result"
        verdict = c["witness"].get("verdict")
        if verdict == "not division (witness)":
            lib = self.lib
            b = lib.parse_field_element(c["witness"]["witness"], K)
            if self.v_g(K, g, b) != d:
                return False, False, "witness %s has V_g(b) != d" % b
            f = lib.p_poly_as_diffpoly(g, K) - lib.DiffPoly.constant(K, d)
            _, rem = f.right_divmod(lib.DiffPoly(K, (-b, K.one())))
            if rem:
                return False, False, "t - %s does not right-divide f" % b
            return True, False, ""
        if verdict == "division (proved)":
            # A factor was planted, so "proved" is wrong.  At p = 2 the
            # library treats bound >= 4 as conclusive for every d, which is
            # the documented cause when the planted factor is above the bound.
            known = K.p == 2 and not low
            return False, known, "planted factor but verdict 'division (proved)'"
        if verdict == "unknown (bound exhausted)" and not low:
            return True, False, ""
        return False, False, "verdict %r with a planted factor of height <= bound" % verdict


# The five shipped instances, copied so that the benchmark's inputs stay
# fixed when the example configs change.
SHIPPED = (
    ("i1", 2, "x", "x", 4),
    ("i2", 2, "x", "x^2", 4),
    ("i2_d0", 2, "x", "0", 4),
    ("i3", 3, "x", "x", 2),
    ("i4", 2, "1", "x", 4),
)


class ArithSuites:
    """Twisted products, division, V operators and automorphisms."""

    name = "arith_suites"
    suites = ("ring", "vops", "autos", "inner")
    round_size = len(SHIPPED) * len(suites)
    fields = sorted({(p, w) for _, p, w, _, _ in SHIPPED})

    def __init__(self, seed, lib):
        self.seed = seed
        self.lib = lib

    def op(self, i):
        # 4 and 5 are coprime: every round of 20 ops runs each (instance,
        # suite) pair once, and every 4 consecutive ops run all four suites.
        name, p, w, d, bound = SHIPPED[i % 5]
        suite = self.suites[i % 4]
        k = i // self.round_size
        suite_seed = random.Random("%d:arith_suites:%d" % (self.seed, k)).randrange(1, 10**6)
        args = ["verify", "--suite", suite, "--seed", str(suite_seed)]
        label = "verify %s %s seed=%d" % (name, suite, suite_seed)
        return Op(label, _config(p, w, d, bound), args, self._check)

    @staticmethod
    def _check(rc, report):
        if rc != 0:
            return False, False, "exit status %d" % rc
        checks = report.get("checks", [])
        if not checks:
            return False, False, "empty report"
        bad = [c["name"] for c in checks if c.get("verdict") == "fail"]
        if bad:
            return False, False, "failed checks: %s" % ", ".join(bad)
        return True, False, ""


WORKLOADS = {w.name: w for w in (Structure, FactorSearch, ArithSuites)}
