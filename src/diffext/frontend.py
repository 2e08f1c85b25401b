"""Instance configuration, verification suites, and reports.

A config file is flat key = value text.  The keys are InstanceConfig's
fields, and a field without a default is required:

    p            characteristic (required, prime)
    delta_of_x   value of the derivation at x (required, field expression)
    d            the constant term picked off the modulus (required)
    g            p-polynomial, optional; computed minimal one when absent
    seed         RNG seed for sampled checks (default 0)
    degree_bound search bound for factor hunting (default 4)

'#' starts a comment; blank lines are ignored; keys may not repeat.

Suites bundle deterministic checks into a report: each check gets a name,
a verdict (pass, fail, or unknown), witness data, and a duration.  SUITES
is the suites' names in run order, then "all".  The semantic content of a
report depends only on (config, seed); durations are wall-clock and
excluded from that guarantee.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
# The C string escaper json.encoder uses, read from its own module: the json
# package would also load json.decoder, json.scanner and re at every start.
from _json import encode_basestring_ascii as _json_string

from .autos import (
    apply_auto,
    auto_constraints,
    auto_order,
    build_auto,
    compose_autos,
    inner_auto,
    is_log_derivative,
)
from .dext import NUCLEUS_SLOTS, ExtAlgebra
from .diffpoly import (
    DiffPoly,
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
from .scalars import PrimeField, RationalFunctionField, random_ratfunc
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

# The integer keys of a config.
_INT_KEYS = ("p", "seed", "degree_bound")


# The config keys, in the order a missing one is reported: a key without a
# default is required.  An immutable record: equal configs compare and
# hash equal.
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
        if key not in InstanceConfig._fields:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        if not val:
            raise ConfigError("line %d: empty value for %r" % (lineno, key))
        values[key] = val
    for key in InstanceConfig._fields:
        if key not in values and key not in InstanceConfig._field_defaults:
            raise ConfigError("missing required key %r" % key)
    ints = {}
    for key in _INT_KEYS:
        if key in values:
            try:
                ints[key] = decimal_int(values[key])
            except ValueError:
                raise ConfigError("%s must be an integer" % key) from None
    cfg = InstanceConfig(**{**values, **ints})
    try:
        PrimeField(cfg.p)
    except ValueError as exc:
        raise ConfigError("p: %s" % exc) from None
    if cfg.degree_bound < 0:
        raise ConfigError("degree_bound must be nonnegative")
    return cfg


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
    for k in range(e):
        if not K.is_constant(poly.coeff(p ** k)):
            raise ConfigError("coefficient of t^%d in g is not a constant" % p ** k)
    g = PPolynomial(p, e, [poly.coeff(p ** k) for k in range(e - 1, -1, -1)])
    # What the p-polynomial does not rebuild: a lead other than 1, or a term
    # at a power that is not p^k with k >= 0.
    rest = poly - p_poly_as_diffpoly(g, K)
    if rest:
        raise ConfigError("g differs from a monic p-polynomial at t^%d" % rest.degree())
    # ExtAlgebra refuses a g that does not annihilate the derivation: its
    # split g = h(z1) (towers.z1_split) leaves a nonzero remainder.
    return g


def derived_field(p: int, delta_of_x: str) -> DerivedField:
    """F_p(x) carrying (delta_of_x) * d/dx, with the weight given as text.

    The weight is parsed over plain F_p(x), which needs no derivation.
    """
    w = parse_field_element(delta_of_x, RationalFunctionField(p))
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
    # utf-8-sig: a byte-order mark some editors write is not part of line 1.
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it at the
    given indent: keys sorted, ASCII escapes, {} and [] when empty.  The
    json module's C encoder does not indent, and its Python one is slower
    than this writer for the small reports written here.  Leaves are str,
    int, bool and None; any other value raises TypeError."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_json_string(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
        opening, closing = "{", "}"
    elif isinstance(value, list):
        items = [_json_text(v, inner) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError("cannot write %s in a JSON report" % type(value).__name__)
    if not items:
        return opening + closing
    return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + closing


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
        return _json_text(self.to_json(), "")

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


def _check(cond, msg: str = "", *args):
    """Fail the running check with msg % args unless cond holds.  Unlike an
    assert statement, python -O does not strip it."""
    if not cond:
        raise InternalInvariantViolation(msg % args if args else msg)


class _SuiteRunner:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.checks = []

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            verdict, witness = fn()
        except InternalInvariantViolation as exc:
            verdict, witness = "fail", {"error": str(exc)}
        except UnsupportedInstance as exc:
            # An instance this check does not handle, such as a search above
            # its guard: the check is unknown, and the others still run.
            verdict, witness = "unknown", {"reason": str(exc)}
        self.checks.append(CheckResult(name, verdict, witness, ms_since(t0)))

    def rng(self, tag: str):
        # One independent stream per check keeps the suite order-insensitive.
        return random.Random("%d:%s" % (self.inst.seed, tag))


def _suite_ring(r: _SuiteRunner):
    inst = r.inst
    K = inst.K

    def assoc():
        rng = r.rng("ring.assoc")
        for _ in range(60):
            a = _random_dp(K, rng, 2)
            b = _random_dp(K, rng, 2)
            c = _random_dp(K, rng, 2)
            _check((a * b) * c == a * (b * c), "ring product not associative")
        return "pass", {"samples": 60}

    def degree_law():
        rng = r.rng("ring.degree")
        for _ in range(80):
            a = _random_dp(K, rng, 3)
            b = _random_dp(K, rng, 3)
            if a and b:
                _check((a * b).degree() == a.degree() + b.degree())
        return "pass", {"samples": 80}

    def division():
        rng = r.rng("ring.division")
        for _ in range(80):
            g_ = _random_dp(K, rng, 5)
            f_ = _random_dp(K, rng, 2)
            if not f_:
                continue
            q, rem = g_.right_divmod(f_)
            _check(q * f_ + rem == g_)
            _check(rem.degree() < f_.degree())
        return "pass", {"samples": 80}

    def commutation():
        rng = r.rng("ring.comm")
        t = DiffPoly.t(K)
        for _ in range(60):
            a = random_ratfunc(K, rng, 3)
            ca = DiffPoly.constant(K, a)
            _check(t * ca - ca * t == DiffPoly.constant(K, K.delta(a)))
        return "pass", {"samples": 60}

    r.run("ring.assoc", assoc)
    r.run("ring.degree_law", degree_law)
    r.run("ring.right_division", division)
    r.run("ring.t_commutation", commutation)


def _suite_vops(r: _SuiteRunner):
    inst = r.inst
    K = inst.K
    g = inst.g

    def middles():
        rng = r.rng("vops.middles")
        for e in (1, 2):
            for _ in range(15):
                b = random_ratfunc(K, rng, 2)
                v_p_tower(K, b, e)  # raises on a nonzero middle coefficient
        return "pass", {"levels": "p, p^2", "samples": 30}

    def closed_form():
        # v_p_tower raises unless the expansion of (t - b)^p equals the
        # p-step, which over K is Jacobson's b^p + delta^(p-1)(b).
        rng = r.rng("vops.closed")
        for _ in range(40):
            v_p_tower(K, random_ratfunc(K, rng, 2), 1)
        return "pass", {"form": "b^p + delta^(p-1)(b)", "samples": 40}

    def additive():
        rng = r.rng("vops.additive")
        for _ in range(60):
            a = random_ratfunc(K, rng, 2)
            b = random_ratfunc(K, rng, 2)
            _check(v_g(K, g, a + b) == v_g(K, g, a) + v_g(K, g, b))
        return "pass", {"samples": 60}

    def shift_identity():
        rng = r.rng("vops.shift")
        gt = p_poly_as_diffpoly(g, K)
        for _ in range(30):
            b = random_ratfunc(K, rng, 2)
            image = substitute(gt, lambda z: z, -b, K.one())
            _check(image == gt - DiffPoly.constant(K, v_g(K, g, b)))
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
            _check(len(nuc) == expected, "nucleus dimension %d, expected %d", len(nuc), expected)
        shown = ", ".join(str(b) for b in nuc[:4]) + (", ..." if len(nuc) > 4 else "")
        return "pass", {"dim": len(nuc), "basis": shown}

    def slots():
        # Left = middle for every g (Petit), and the right nucleus, the
        # eigenring of f, contains K because g(delta) = 0.  It is K itself
        # only for exponent one: g = t^4 + t^2 at p = 2 has dims 2, 2, 4.
        dims = {w: len(alg.nucleus(w)) for w in NUCLEUS_SLOTS if w != "full"}
        _check(dims["left"] == dims["middle"] <= dims["right"], "nucleus slots disagree: %s", dims)
        if e1:
            _check(dims["right"] == dims["left"], "nucleus slots disagree: %s", dims)
        return "pass", {"dims": str(dims)}

    def center():
        z = alg.center()
        if e1:
            _check(len(z) == 1 and z[0] == alg.one(), "center is not F")
        return "pass", {"dim": len(z)}

    def associative():
        # Over K, is_associative reads d in F; right-invariance of f is the
        # independent check.
        a = alg.is_associative()
        _check(a == is_right_invariant(alg.f), "associativity disagrees with right-invariance of f")
        return "pass", {"is_associative": str(a).lower()}

    def centralizer():
        cent = alg.centralizer([alg.scalar(K.x())])
        _check(len(cent) >= K.p, "Cent(x) lost part of the coefficient field")
        if e1:
            _check(len(cent) == K.p, "Cent(x) has dim %d", len(cent))
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
            _check(apply_auto(H, u * v) == apply_auto(H, u) * apply_auto(H, v))
        return "pass", {"c": str(c0), "samples": 40}

    def invalid_shift():
        c = _invalid_shift(K, inst.g)
        try:
            build_auto(alg, ident, c, K.one())
        except ConditionFailed as exc:
            return "pass", {"rejected": "c=%s" % c, "condition": exc.condition}
        return "fail", {"error": "c = %s accepted despite V_g(%s) != 0" % (c, c)}

    def order():
        H = build_auto(alg, ident, c0, K.one())
        got = auto_order(H)
        _check(got == K.p, "order %s, expected %d", got, K.p)
        return "pass", {"order": got}

    def composition():
        rng = r.rng("autos.compose")
        for _ in range(25):
            u1 = random_ratfunc(K, rng, 2, nonzero=True)
            u2 = random_ratfunc(K, rng, 2, nonzero=True)
            c1, c2 = K.log_derivative(u1), K.log_derivative(u2)
            H1 = build_auto(alg, ident, c1, K.one())
            H2 = build_auto(alg, ident, c2, K.one())
            H12 = compose_autos(H1, H2)
            _check(H12.c == c1 + c2)
            # tau = id, so both sides are left K-linear (see autos.apply_auto):
            # a K-basis suffices.
            for b in alg.k_basis():
                _check(apply_auto(H12, b) == apply_auto(H1, apply_auto(H2, b)))
        return "pass", {"samples": 25}

    def kernel():
        rng = r.rng("autos.kernel")
        for _ in range(60):
            u = random_ratfunc(K, rng, 2, nonzero=True)
            _check(is_log_derivative(alg, K.log_derivative(u)))
        _check(not is_log_derivative(alg, _invalid_shift(K, inst.g)))
        return "pass", {"samples": 60}

    def constraints():
        rep = auto_constraints(alg)
        rng = r.rng("autos.constraints2")
        for _ in range(20):
            c = random_ratfunc(K, rng, 2)
            _check(rep.contains(c) == rep.descriptor_valid(c))
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


def _invalid_shift(K: DerivedField, g: PPolynomial):
    """A c with V_g(c) != 0: x if it is one, else the first delta(x)/x^(2k),
    k = 1..e.

    x itself can be a valid shift, even a logarithmic derivative: x =
    delta(x)/x when delta(x) = x^2.  One of the e candidates always has
    V_g != 0.  Divided by delta(x), a nonzero F_p-combination of them has a
    pole at 0 of even order at least 2, while delta(u)/u divided by delta(x)
    is u'/u, whose poles are simple; so the candidates are independent
    modulo ker V_z1.  V_g = h(V_z1) for the split g = h(z1), so ker V_g /
    ker V_z1 embeds in ker h, of F_p-dimension at most e - 1, and cannot
    hold all e.
    """
    x = K.x()
    for c in (K.delta(x) / x ** (2 * k) if k else x for k in range(g.e + 1)):
        if v_g(K, g, c):
            return c
    raise InternalInvariantViolation("V_g vanishes on x and on delta(x)/x^(2k) for k <= %d" % g.e)


def _suite_inner(r: _SuiteRunner):
    inst = r.inst
    alg = inst.algebra
    K = inst.K

    def constant():
        # The algebra accepted its split g = h(z1) (towers.z1_split), which
        # proves g(delta) = 0 on K: the constant is d0 = 0.
        d0 = K.zero()
        # An independent route: g(delta)(b) = d0 b - b d0 on sampled b.
        rng = r.rng("inner.constant")
        for _ in range(10):
            b = random_ratfunc(K, rng, 2)
            got = inst.g.apply_operator(K, b)
            _check(got == d0 * b - b * d0, "g(delta)(%s) = %s, not [d0, %s]", b, got, b)
        return "pass", {"d0": str(d0)}

    def subgroup():
        rng = r.rng("inner.subgroup")
        for _ in range(25):
            a = random_ratfunc(K, rng, 2, nonzero=True)
            G = inner_auto(alg, a)
            _check(G.c == K.log_derivative(a))
            _check(is_log_derivative(alg, G.c))
        return "pass", {"samples": 25}

    r.run("inner.constant", constant)
    r.run("inner.inner_subgroup", subgroup)


# A witness and a proof both settle the question; an exhausted bound does not.
_DIVISION_STATUS = {
    "not division (witness)": "pass",
    "division (proved)": "pass",
    "unknown (bound exhausted)": "unknown",
}


def divcheck(alg: ExtAlgebra, bound: int):
    """The division verdict searched to bound, as a check: its status, its
    witness data and the root b of a right factor t - b (None if none)."""
    verdict, root = alg.division_verdict(bound)
    data = {"verdict": verdict, "bound": bound}
    if root is not None:
        data["witness"] = str(root)
    return _DIVISION_STATUS[verdict], data, root


def _suite_division(r: _SuiteRunner):
    inst = r.inst
    alg = inst.algebra
    # The search runs once, timed under division.verdict; probe reuses it.
    found = None

    def verdict():
        nonlocal found
        status, data, root = divcheck(alg, inst.degree_bound)
        found = data["verdict"]
        if root is not None:
            lin = DiffPoly(alg.ring, (-root, alg.ring.one()))
            q, rem = alg.f.right_divmod(lin)
            _check(not rem)
            # The factor pair becomes a zero-divisor pair in the quotient.
            qe = alg.element(q)
            le = alg.element(lin)
            _check(qe and le and not (qe * le))
        return status, data

    def probe():
        rng = r.rng("division.probe")
        # No verdict key when division.verdict did not return.
        seen = {} if found is None else {"verdict": found}
        try:
            injective = alg.is_division_probe(rng, samples=40)
        except UnsupportedInstance as exc:
            return "unknown", {"reason": str(exc), **seen}
        if found == "division (proved)":
            _check(injective, "proved division but a sampled element is a zero divisor")
        return "pass", {"injective_on_samples": str(injective).lower(), **seen}

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
SUITES = (*_SUITE_FNS, "all")


def _random_dp(K, rng, deg):
    return DiffPoly(K, [random_ratfunc(K, rng, 2) for _ in range(deg + 1)])


def run_suite(inst: Instance, suite: str = "all") -> Report:
    """Run one suite (or all of them) at the instance's seed and collect a report."""
    if suite not in SUITES:
        raise UnknownSuite("unknown suite %r; expected one of %s" % (suite, SUITES))
    runner = _SuiteRunner(inst)
    for name in _SUITE_FNS if suite == "all" else (suite,):
        _SUITE_FNS[name](runner)
    return Report(instance=inst.metadata(), checks=runner.checks)
