"""Instance configuration, verification suites, and reports.

A config file is flat key = value text.  Recognized keys:

    p            characteristic (required, prime)
    delta_of_x   value of the derivation at x (required, field expression)
    d            the constant term picked off the modulus (required)
    g            p-polynomial, optional; computed minimal one when absent
    seed         RNG seed for sampled checks (default 0)
    degree_bound search bound for factor hunting (default 4)

'#' starts a comment; blank lines are ignored; keys may not repeat.

Suites bundle deterministic checks into a report: each check gets a name,
a verdict (pass, fail, or unknown), witness data, and a duration.  The
semantic content of a report depends only on (config, seed); durations are
wall-clock and excluded from that guarantee.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import namedtuple

from .autos import (
    apply_auto,
    auto_constraints,
    auto_order,
    build_auto,
    compose_shift_autos,
    inner_auto,
    is_log_derivative,
)
from .dext import ExtAlgebra
from .diffpoly import (
    DiffPoly,
    find_inner_constant,
    is_right_invariant,
    p_poly_as_diffpoly,
    substitute,
    v_g,
    v_p_tower,
)
from .errors import (
    ConditionFailed,
    ConfigError,
    InternalInvariantViolation,
    UnknownSuite,
    UnsupportedInstance,
    ZeroDerivation,
)
from .parsing import decimal_int, parse_diffpoly, parse_field_element
from .scalars import PrimeField, RatFunc, random_ratfunc
from .towers import DerivedField, PPolynomial, minimal_p_polynomial

__all__ = [
    "derived_field",
    "InstanceConfig",
    "Instance",
    "load_instance",
    "instance_from_text",
    "run_suite",
    "Report",
    "CheckResult",
    "SUITES",
]

SUITES = ("ring", "vops", "nuclei", "autos", "inner", "division", "all")

_KEYS = {"p", "delta_of_x", "d", "g", "seed", "degree_bound"}


# An immutable record: equal configs compare and hash equal.
InstanceConfig = namedtuple(
    "InstanceConfig", "p delta_of_x d g seed degree_bound", defaults=(None, 0, 4)
)


class _Record:
    """Base of the mutable records: == compares the type and the fields
    named in __slots__, repr lists them, and a record is unhashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join("%s=%r" % pair for pair in zip(self.__slots__, self._values()))
        return "%s(%s)" % (type(self).__name__, fields)


class Instance(_Record):
    __slots__ = ("config", "K", "g", "algebra")

    def __init__(
        self, config: InstanceConfig, K: DerivedField, g: PPolynomial, algebra: ExtAlgebra
    ):
        self.config, self.K, self.g, self.algebra = config, K, g, algebra

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def degree_bound(self) -> int:
        return self.config.degree_bound

    def metadata(self) -> dict:
        return {
            "p": self.K.p,
            "delta_of_x": str(self.K.delta_of_x),
            "d": str(self.algebra.d),
            "g": str(self.g),
            "f": str(self.algebra.f),
            "dim_over_F": self.algebra.dim,
            "seed": self.config.seed,
            "degree_bound": self.config.degree_bound,
        }


def _parse_config_text(text: str) -> InstanceConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        if not val:
            raise ConfigError("line %d: empty value for %r" % (lineno, key))
        values[key] = val
    for req in ("p", "delta_of_x", "d"):
        if req not in values:
            raise ConfigError("missing required key %r" % req)
    try:
        p = decimal_int(values["p"])
    except ValueError:
        raise ConfigError("p must be an integer") from None
    try:
        PrimeField(p)
    except ValueError as exc:
        raise ConfigError("p: %s" % exc) from None
    seed = 0
    if "seed" in values:
        try:
            seed = decimal_int(values["seed"])
        except ValueError:
            raise ConfigError("seed must be an integer") from None
    bound = 4
    if "degree_bound" in values:
        try:
            bound = decimal_int(values["degree_bound"])
        except ValueError:
            raise ConfigError("degree_bound must be an integer") from None
        if bound < 0:
            raise ConfigError("degree_bound must be nonnegative")
    return InstanceConfig(
        p=p,
        delta_of_x=values["delta_of_x"],
        d=values["d"],
        g=values.get("g"),
        seed=seed,
        degree_bound=bound,
    )


def _p_poly_from_expr(K: DerivedField, text: str) -> PPolynomial:
    """Validate a declared g: monic p-polynomial shape, constant coefficients."""
    poly = parse_diffpoly(text, K)
    deg = poly.degree()
    p = K.p
    e = 0
    n = deg
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    if n != 1 or e < 1:
        raise ConfigError("g must have degree p^e with e >= 1, got degree %d" % deg)
    if not poly.is_monic():
        raise ConfigError("g must be monic")
    allowed = {p ** k for k in range(e + 1)}
    coeffs = []
    for i in range(deg + 1):
        c = poly.coeff(i)
        if not c:
            continue
        if i not in allowed or i == 0:
            raise ConfigError("g has a term at t^%d, not a p-polynomial" % i)
        if not K.is_constant(c):
            raise ConfigError("coefficient of t^%d in g is not a constant" % i)
    for k in range(e - 1, -1, -1):
        coeffs.append(poly.coeff(p ** k))
    # ExtAlgebra refuses a g that does not annihilate the derivation.
    return PPolynomial(p, e, coeffs)


def derived_field(p: int, delta_of_x: str) -> DerivedField:
    """F_p(x) carrying (delta_of_x) * d/dx, with the weight given as text."""
    # Bootstrap: the weight is parsed over a unit derivation, then the real
    # field is built from the parsed value.
    boot = DerivedField(p, RatFunc.one(PrimeField(p)))
    w = parse_field_element(delta_of_x, boot)
    if not w:
        raise ZeroDerivation("delta_of_x parses to zero")
    return DerivedField(p, w)


def instance_from_text(text: str) -> Instance:
    cfg = _parse_config_text(text)
    K = derived_field(cfg.p, cfg.delta_of_x)
    d = parse_field_element(cfg.d, K)
    g = _p_poly_from_expr(K, cfg.g) if cfg.g else minimal_p_polynomial(K)
    algebra = ExtAlgebra(K, g, d)
    return Instance(config=cfg, K=K, g=g, algebra=algebra)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_text(fh.read())


# ---------------------------------------------------------------------------
# suites


def ms_since(t0: float) -> int:
    """Whole milliseconds since perf_counter() read t0, rounded up.

    Rounding up means a check that ran reports at least 1 ms.
    """
    return max(1, math.ceil((time.perf_counter() - t0) * 1000))


class CheckResult(_Record):
    __slots__ = ("name", "verdict", "witness", "ms")

    def __init__(self, name: str, verdict: str, witness: dict, ms: int):
        # verdict is one of pass | fail | unknown
        self.name, self.verdict, self.witness, self.ms = name, verdict, witness, ms

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "witness": self.witness,
            "ms": self.ms,
        }


class Report(_Record):
    __slots__ = ("instance", "checks")

    def __init__(self, instance: dict, checks: list | None = None):
        self.instance = instance
        self.checks = [] if checks is None else checks

    @property
    def failed(self) -> bool:
        return any(c.verdict == "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "checks": [c.to_json() for c in self.checks],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        meta = self.instance
        lines.append(
            "instance: p=%s delta(x)=%s d=%s g=%s dim/F=%s"
            % (meta["p"], meta["delta_of_x"], meta["d"], meta["g"], meta["dim_over_F"])
        )
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "unknown": "????"}[c.verdict]
            extra = ""
            if c.witness:
                parts = ["%s=%s" % (k, v) for k, v in sorted(c.witness.items())]
                extra = "  [%s]" % ", ".join(parts)
            lines.append("%s  %-24s %4d ms%s" % (mark, c.name, c.ms, extra))
        verdict = "FAIL" if self.failed else "OK"
        lines.append("result: %s (%d checks)" % (verdict, len(self.checks)))
        return "\n".join(lines)


class _SuiteRunner:
    def __init__(self, inst: Instance, seed: int):
        self.inst = inst
        self.seed = seed
        self.checks = []

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            verdict, witness = fn()
        except (AssertionError, InternalInvariantViolation) as exc:
            verdict, witness = "fail", {"error": str(exc)}
        self.checks.append(CheckResult(name, verdict, witness, ms_since(t0)))

    def rng(self, tag: str):
        # One independent stream per check keeps the suite order-insensitive.
        return random.Random("%d:%s" % (self.seed, tag))


def _suite_ring(r: _SuiteRunner):
    inst = r.inst
    K = inst.K

    def assoc():
        rng = r.rng("ring.assoc")
        for _ in range(60):
            a = _random_dp(K, rng, 2)
            b = _random_dp(K, rng, 2)
            c = _random_dp(K, rng, 2)
            assert (a * b) * c == a * (b * c), "ring product not associative"
        return "pass", {"samples": 60}

    def degree_law():
        rng = r.rng("ring.degree")
        for _ in range(80):
            a = _random_dp(K, rng, 3)
            b = _random_dp(K, rng, 3)
            if a and b:
                assert (a * b).degree() == a.degree() + b.degree()
        return "pass", {"samples": 80}

    def division():
        rng = r.rng("ring.division")
        for _ in range(80):
            g_ = _random_dp(K, rng, 5)
            f_ = _random_dp(K, rng, 2)
            if not f_:
                continue
            q, rem = g_.right_divmod(f_)
            assert q * f_ + rem == g_
            assert rem.degree() < f_.degree()
        return "pass", {"samples": 80}

    def commutation():
        rng = r.rng("ring.comm")
        t = DiffPoly.t(K)
        for _ in range(60):
            a = random_ratfunc(K, rng, 3)
            ca = DiffPoly.constant(K, a)
            assert t * ca - ca * t == DiffPoly.constant(K, K.delta(a))
        return "pass", {"samples": 60}

    r.run("ring.assoc", assoc)
    r.run("ring.degree_law", degree_law)
    r.run("ring.right_division", division)
    r.run("ring.t_commutation", commutation)


def _suite_vops(r: _SuiteRunner):
    inst = r.inst
    K = inst.K
    g = inst.g
    p = K.p

    def middles():
        rng = r.rng("vops.middles")
        for e in (1, 2):
            for _ in range(15):
                b = random_ratfunc(K, rng, 2)
                v_p_tower(K, b, e)  # raises on a nonzero middle coefficient
        return "pass", {"levels": "p, p^2", "samples": 30}

    def closed_form():
        rng = r.rng("vops.closed")
        for _ in range(40):
            b = random_ratfunc(K, rng, 2)
            dd = b
            for _ in range(p - 1):
                dd = K.delta(dd)
            assert v_p_tower(K, b, 1) == b ** p + dd
        return "pass", {"form": "b^p + delta^(p-1)(b)", "samples": 40}

    def additive():
        rng = r.rng("vops.additive")
        for _ in range(60):
            a = random_ratfunc(K, rng, 2)
            b = random_ratfunc(K, rng, 2)
            assert v_g(K, g, a + b) == v_g(K, g, a) + v_g(K, g, b)
        return "pass", {"samples": 60}

    def shift_identity():
        rng = r.rng("vops.shift")
        gt = p_poly_as_diffpoly(g, K)
        for _ in range(30):
            b = random_ratfunc(K, rng, 2)
            image = substitute(gt, lambda z: z, -b, K.one())
            assert image == gt - DiffPoly.constant(K, v_g(K, g, b))
        return "pass", {"identity": "g(t-b) = g(t) - V_g(b)", "samples": 30}

    r.run("vops.middle_coeffs", middles)
    r.run("vops.closed_form", closed_form)
    r.run("vops.additive", additive)
    r.run("vops.shift_identity", shift_identity)


def _suite_nuclei(r: _SuiteRunner):
    inst = r.inst
    alg = inst.algebra
    K = inst.K
    # The closed-form expectations below are theorems for exponent-one
    # moduli; a declared non-minimal g only gets the computed values
    # reported, not second-guessed.
    e1 = inst.g.e == 1

    def nucleus():
        nuc = alg.nucleus("full")
        if e1:
            expected = alg.dim if K.is_constant(alg.d) else K.p
            assert len(nuc) == expected, "nucleus dimension %d, expected %d" % (
                len(nuc),
                expected,
            )
        shown = ", ".join(str(b) for b in nuc[:4]) + (", ..." if len(nuc) > 4 else "")
        return "pass", {"dim": len(nuc), "basis": shown}

    def slots():
        # Left = middle for every g (Petit), and the right nucleus, the
        # eigenring of f, contains K because g(delta) = 0.  It is K itself
        # only for exponent one: g = t^4 + t^2 at p = 2 has dims 2, 2, 4.
        dims = {w: len(alg.nucleus(w)) for w in ("left", "middle", "right")}
        assert dims["left"] == dims["middle"] <= dims["right"], "nucleus slots disagree: %s" % dims
        if e1:
            assert dims["right"] == dims["left"], "nucleus slots disagree: %s" % dims
        return "pass", {"dims": str(dims)}

    def center():
        z = alg.center()
        if e1:
            assert len(z) == 1 and z[0] == alg.one(), "center is not F"
        return "pass", {"dim": len(z)}

    def associative():
        # Over K, is_associative reads d in F; right-invariance of f is the
        # independent check.
        a = alg.is_associative()
        assert a == is_right_invariant(alg.f), "associativity disagrees with right-invariance of f"
        return "pass", {"is_associative": str(a).lower()}

    def centralizer():
        cent = alg.centralizer([alg.scalar(K.x())])
        assert len(cent) >= K.p, "Cent(x) lost part of the coefficient field"
        if e1:
            assert len(cent) == K.p, "Cent(x) has dim %d" % len(cent)
        return "pass", {"dim": len(cent)}

    r.run("nuclei.nucleus", nucleus)
    r.run("nuclei.slots", slots)
    r.run("nuclei.center", center)
    r.run("nuclei.associative", associative)
    r.run("nuclei.centralizer", centralizer)


def _suite_autos(r: _SuiteRunner):
    inst = r.inst
    alg = inst.algebra
    K = inst.K
    ident = lambda z: z
    c0 = K.log_derivative(K.x())

    def valid_shift():
        H = build_auto(alg, ident, c0, K.one())
        rng = r.rng("autos.valid")
        for _ in range(40):
            u = alg.random_element(rng, 2)
            v = alg.random_element(rng, 2)
            assert apply_auto(H, u * v) == apply_auto(H, u) * apply_auto(H, v)
        return "pass", {"c": str(c0), "samples": 40}

    def invalid_shift():
        try:
            build_auto(alg, ident, K.x(), K.one())
        except ConditionFailed as exc:
            return "pass", {"rejected": "c=x", "condition": exc.condition}
        return "fail", {"error": "c = x accepted despite V_g(x) != 0"}

    def order():
        H = build_auto(alg, ident, c0, K.one())
        got = auto_order(H)
        assert got == K.p, "order %s, expected %d" % (got, K.p)
        return "pass", {"order": got}

    def composition():
        rng = r.rng("autos.compose")
        for _ in range(25):
            u1 = random_ratfunc(K, rng, 2, nonzero=True)
            u2 = random_ratfunc(K, rng, 2, nonzero=True)
            c1, c2 = K.log_derivative(u1), K.log_derivative(u2)
            H1 = build_auto(alg, ident, c1, K.one())
            H2 = build_auto(alg, ident, c2, K.one())
            H12 = compose_shift_autos(H1, H2)
            assert H12.c == c1 + c2
            for b in alg.basis():
                assert apply_auto(H12, b) == apply_auto(H1, apply_auto(H2, b))
        return "pass", {"samples": 25}

    def kernel():
        rng = r.rng("autos.kernel")
        for _ in range(60):
            u = random_ratfunc(K, rng, 2, nonzero=True)
            assert is_log_derivative(alg, K.log_derivative(u))
        assert not is_log_derivative(alg, K.x())
        return "pass", {"samples": 60}

    def constraints():
        try:
            rep = auto_constraints(alg)
        except UnsupportedInstance as exc:
            return "unknown", {"reason": str(exc)}
        rng = r.rng("autos.constraints2")
        for _ in range(20):
            c = random_ratfunc(K, rng, 2)
            assert rep.contains(c) == rep.descriptor_valid(c)
        return "pass", {
            "tau": rep.tau_forced,
            "eps": rep.eps_forced,
            "c": rep.c_condition,
        }

    r.run("autos.valid_shift", valid_shift)
    r.run("autos.invalid_shift", invalid_shift)
    r.run("autos.order", order)
    r.run("autos.composition", composition)
    r.run("autos.log_derivative_kernel", kernel)
    r.run("autos.constraints", constraints)


def _suite_inner(r: _SuiteRunner):
    inst = r.inst
    alg = inst.algebra
    K = inst.K

    def constant():
        d0 = find_inner_constant(K, inst.g)
        assert not d0, "expected d0 = 0 over a commutative base"
        # An independent route: g(delta)(b) = d0 b - b d0 on sampled b.
        rng = r.rng("inner.constant")
        for _ in range(10):
            b = random_ratfunc(K, rng, 2)
            got = inst.g.apply_operator(K, b)
            assert got == d0 * b - b * d0, "g(delta)(%s) = %s, not [d0, %s]" % (b, got, b)
        return "pass", {"d0": str(d0)}

    def subgroup():
        rng = r.rng("inner.subgroup")
        for _ in range(25):
            a = random_ratfunc(K, rng, 2, nonzero=True)
            G = inner_auto(alg, a)
            assert G.c == K.log_derivative(a)
            assert is_log_derivative(alg, G.c)
        return "pass", {"samples": 25}

    r.run("inner.constant", constant)
    r.run("inner.inner_subgroup", subgroup)


def _suite_division(r: _SuiteRunner):
    inst = r.inst
    alg = inst.algebra
    bound = inst.degree_bound
    # The search runs once, timed under division.verdict; probe reuses it.
    found = None

    def verdict():
        nonlocal found
        found = alg.division_verdict(bound)
        v, witness = found
        data = {"verdict": v, "bound": bound}
        if witness is not None:
            data["witness"] = str(witness)
            lin = DiffPoly(alg.ring, (-witness, alg.ring.one()))
            q, rem = alg.f.right_divmod(lin)
            assert not rem
            # The factor pair becomes a zero-divisor pair in the quotient.
            qe = alg.element(q)
            le = alg.element(lin)
            assert qe and le and not (qe * le)
            return "pass", data
        if v == "division (proved)":
            return "pass", data
        return "unknown", data

    def probe():
        rng = r.rng("division.probe")
        v, _ = found
        try:
            injective = alg.is_division_probe(rng, samples=40)
        except UnsupportedInstance as exc:
            return "unknown", {"reason": str(exc), "verdict": v}
        if v == "division (proved)":
            assert injective, "proved division but a left multiplication is singular"
        return "pass", {"injective_on_samples": str(injective).lower(), "verdict": v}

    r.run("division.verdict", verdict)
    r.run("division.probe", probe)


_SUITE_FNS = {
    "ring": _suite_ring,
    "vops": _suite_vops,
    "nuclei": _suite_nuclei,
    "autos": _suite_autos,
    "inner": _suite_inner,
    "division": _suite_division,
}


def _random_dp(K, rng, deg):
    return DiffPoly(K, [random_ratfunc(K, rng, 2) for _ in range(deg + 1)])


def run_suite(inst: Instance, suite: str = "all", seed: int | None = None) -> Report:
    """Run one suite (or all of them) and collect a report."""
    if suite not in SUITES:
        raise UnknownSuite("unknown suite %r; expected one of %s" % (suite, SUITES))
    seed = inst.seed if seed is None else seed
    runner = _SuiteRunner(inst, seed)
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    for name in names:
        _SUITE_FNS[name](runner)
    return Report(instance=inst.metadata(), checks=runner.checks)
