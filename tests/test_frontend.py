"""Config parsing, verification suites, reports, and the command line."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import diffext
from diffext import autos, diffpoly, frontend, towers
from diffext.cli import main
from diffext.errors import (
    ConfigError,
    GNotAnnihilating,
    InternalInvariantViolation,
    UnknownSuite,
    ZeroDerivation,
)
from diffext.frontend import SUITES, instance_from_text, ms_since, run_suite
from diffext.towers import PPolynomial

I1_TEXT = "p = 2\ndelta_of_x = x\nd = x\nseed = 0\ndegree_bound = 4\n"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The command-line tests run a child interpreter; it imports the same
# package as the tests, whether or not diffext is installed.
_CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [str(Path(diffext.__file__).resolve().parent.parent)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
)


def test_load_instance_frozen_shape():
    inst = instance_from_text(I1_TEXT)
    meta = inst.metadata()
    assert meta["p"] == 2
    assert meta["g"] == "t^2 + t"
    assert meta["f"] == "t^2 + t + x"
    assert meta["dim_over_F"] == 4
    assert meta["seed"] == 0
    assert meta["degree_bound"] == 4
    assert not inst.algebra.is_associative()


def test_config_comments_and_defaults():
    inst = instance_from_text("p = 2  # char\n\ndelta_of_x = x\nd = 0\n")
    assert inst.seed == 0
    assert inst.degree_bound == 4


@pytest.mark.parametrize("cfg", sorted(CONFIGS.glob("*.cfg")), ids=lambda c: c.stem)
def test_weight_lives_on_the_derived_field(cfg):
    # The weight is parsed over a boot field and re-homed: sums and products
    # with delta(x) on the left use K's own fraction memos.
    K = frontend.load_instance(cfg).K
    assert K.delta_of_x.field is K.field
    assert K.delta(K.x()) == K.delta_of_x


def test_declared_g_accepted_and_verified():
    inst = instance_from_text("p = 2\ndelta_of_x = x\nd = x\ng = t^2 + t\n")
    assert str(inst.g) == "t^2 + t"
    # t^2 does not annihilate x d/dx (delta^2 = delta != 0).
    with pytest.raises(GNotAnnihilating):
        instance_from_text("p = 2\ndelta_of_x = x\nd = x\ng = t^2\n")
    # t^2 does annihilate d/dx in characteristic 2.
    inst4 = instance_from_text("p = 2\ndelta_of_x = 1\nd = x\ng = t^2\n")
    assert str(inst4.g) == "t^2"


def test_declared_g_shape_errors():
    base = "p = %d\ndelta_of_x = x\nd = x\ng = %s\n"
    degree = "g must have degree p^e with e >= 1, got degree %d"
    differs = "g differs from a monic p-polynomial at t^%d"
    for p, bad, message in (
        (2, "t^3 + t", degree % 3),
        (2, "t^2 + x*t", "coefficient of t^1 in g is not a constant"),
        (2, "t^2 + t + 1", differs % 0),
        (2, "2*t^2 + t", degree % 1),
        (2, "t + 1", degree % 1),
        (3, "2*t^3 + t", differs % 3),
        (3, "t^9 + t^4 + t", differs % 4),
        (3, "t^9 + t^2 + 1", differs % 2),
        (5, "t^25 + x^5*t^5 + x*t", "coefficient of t^1 in g is not a constant"),
    ):
        with pytest.raises(ConfigError) as info:
            instance_from_text(base % (p, bad))
        assert str(info.value) == message, (p, bad)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_declared_g_round_trips_through_its_text(p):
    # The minimal polynomial's text at e = 1, 2, for weights whose
    # coefficient a is 1 and is a fraction, and a declared h(z1) with lower
    # terms, parse back to an equal PPolynomial.
    for weight in ("x", "x^2 + 1"):
        K = frontend.derived_field(p, weight)
        for e in (1, 2):
            g = towers.p_polynomial_at_exponent(K, e)
            assert frontend._p_poly_from_expr(K, str(g)) == g, (weight, e)
    K = frontend.derived_field(p, "x")
    one = K.one()
    declared = {2: ("t^4 + t", (K.zero(), one)), 3: ("t^9 + 2*t", (K.zero(), one + one))}
    if p in declared:
        text, coeffs = declared[p]
        g = PPolynomial(p, 2, coeffs)
        assert frontend._p_poly_from_expr(K, text) == g
        assert frontend._p_poly_from_expr(K, str(g)) == g


def test_config_errors():
    with pytest.raises(ZeroDerivation):
        instance_from_text("p = 2\ndelta_of_x = 0\nd = x\n")
    for bad in (
        "p = 2\nd = x\n",  # missing delta_of_x
        "p = 2\ndelta_of_x = x\nd = x\nq = 1\n",  # unknown key
        "p = 2\np = 3\ndelta_of_x = x\nd = x\n",  # duplicate
        "p = two\ndelta_of_x = x\nd = x\n",  # non-integer
        "p 2\ndelta_of_x = x\nd = x\n",  # no separator
        "p = 2\ndelta_of_x = x\nd = x\ndegree_bound = -1\n",
        "p = 2\ndelta_of_x = x\nd =\n",  # empty value
        "p = 4\ndelta_of_x = x\nd = x\n",  # not a prime
        "p = 1\ndelta_of_x = x\nd = x\n",  # below 2
    ):
        with pytest.raises(ConfigError):
            instance_from_text(bad)
    # A missing key is reported in the order p, delta_of_x, d.
    missing = (("seed = 1\n", "p"), ("d = x\np = 2\n", "delta_of_x"), ("p = 2\ndelta_of_x = x\n", "d"))
    for text, key in missing:
        with pytest.raises(ConfigError, match="^missing required key '%s'$" % key):
            instance_from_text(text)
    # Suites are chosen on the command line; a config has no suites key.
    with pytest.raises(ConfigError, match="unknown key 'suites'"):
        instance_from_text(I1_TEXT + "suites = ring, bogus\n")


def test_run_suite_all_passes_and_unknown_suite():
    inst = instance_from_text(I1_TEXT)
    report = run_suite(inst, "all")
    assert not report.failed
    names = [c.name for c in report.checks]
    for prefix in ("ring.", "vops.", "nuclei.", "autos.", "inner.", "division."):
        assert any(n.startswith(prefix) for n in names)
    verdicts = {c.verdict for c in report.checks}
    assert verdicts == {"pass"}
    with pytest.raises(UnknownSuite):
        run_suite(inst, "bogus")
    assert "all" in SUITES


@pytest.mark.parametrize("d,nuc_dim", [("x", 5), ("1", 25)])
def test_nuclei_suite_p5(d, nuc_dim):
    inst = instance_from_text("p = 5\ndelta_of_x = x\nd = %s\n" % d)
    report = run_suite(inst, "nuclei")
    assert not report.failed
    witness = {c.name: c.witness for c in report.checks}
    assert witness["nuclei.nucleus"]["dim"] == nuc_dim
    assert witness["nuclei.slots"]["dims"] == str(dict.fromkeys(("left", "middle", "right"), nuc_dim))
    assert witness["nuclei.center"]["dim"] == 1
    assert witness["nuclei.associative"]["is_associative"] == str(nuc_dim == 25).lower()
    assert witness["nuclei.centralizer"]["dim"] == 5


E2_P2_TEXT = "p = 2\ndelta_of_x = x\nd = x\ng = t^4 + t^2\ndegree_bound = 2\n"


@pytest.mark.parametrize(
    "text,dims",
    [
        (E2_P2_TEXT, (2, 2, 4)),
        ("p = 3\ndelta_of_x = x\nd = x\ng = t^9 + 2*t^3\n", (3, 3, 9)),
    ],
    ids=["p2", "p3"],
)
def test_nuclei_suite_exponent_two(text, dims):
    # The right nucleus of an exponent-two modulus is the eigenring, larger
    # than K; left = middle = K still holds and is what the check asserts.
    report = run_suite(instance_from_text(text), "nuclei")
    assert not report.failed
    witness = {c.name: c.witness for c in report.checks}
    assert witness["nuclei.slots"]["dims"] == str(dict(zip(("left", "middle", "right"), dims)))


# (p, delta(x), declared g, the invalid shift the suite picks).
_X_VALID_SHIFT = [
    (p, w, "", c)
    for p in (3, 5)
    for w, c in (("x^2", "1"), ("x^2 + x", "(x + 1)/(x)"), ("x^2 + 1", "(x^2 + 1)/(x^2)"))
] + [(2, "x^2", "", "1"), (2, "x^2 + x", "", "(x + 1)/(x)"), (2, "x^2", "t^4 + t^2", "1/(x^2)")]


@pytest.mark.parametrize(
    "p,weight,g,rejected",
    _X_VALID_SHIFT,
    ids=["p%d-%s%s" % (p, w, "-" + g if g else "") for p, w, g, _ in _X_VALID_SHIFT],
)
def test_autos_suite_when_x_is_a_valid_shift(p, weight, g, rejected):
    # V_z1(x) = 0 for each weight here: x = delta(u)/u with u = x, x + 1 or
    # (x^2 + 1)^((p+1)/2).  The invalid shift is the first delta(x)/x^(2k)
    # with V_g != 0.  For g = t^4 + t^2 = z1^2 + z1, z1 = t^2, c = 1 at k = 1
    # is a valid shift (V_z1(1) = 1, V_g(1) = 0) that is not inner.
    text = "p = %d\ndelta_of_x = %s\nd = x\n" % (p, weight) + ("g = %s\n" % g if g else "")
    inst = instance_from_text(text)
    report = run_suite(inst, "autos")
    assert not report.failed
    witness = {c.name: c.witness for c in report.checks}
    assert witness["autos.invalid_shift"]["rejected"] == "c=%s" % rejected


def _verify_all_checks(tmp_path, text):
    out = tmp_path / "report.json"
    proc = _cli(tmp_path, "verify", "CFG", "--suite", "all", "--json", str(out), config=text)
    assert proc.returncode == 0, proc.stderr
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["nuclei.slots"]["verdict"] == "pass"
    assert {c["verdict"] for c in checks.values()} <= {"pass", "unknown"}
    return checks


def test_cli_verify_all_exponent_two_reports_constraints_unknown(tmp_path):
    # t^4 + t = z1^2 + z1 for z1 = t^2 + t is not the closed form z1^2:
    # V_g = V_z1^2 + V_z1 can vanish off the logarithmic derivatives.
    checks = _verify_all_checks(tmp_path, E2_P2_TEXT.replace("t^4 + t^2", "t^4 + t"))
    assert checks["autos.constraints"]["verdict"] == "unknown"
    assert checks["autos.constraints"]["witness"] == {
        "reason": "constraint analysis covers g = (t^p - a t)^(p^(e-1)); for g = t^4 + t "
        "the kernel of V_g can exceed the logarithmic derivatives"
    }


def test_cli_verify_all_exponent_two_closed_form_states_constraints(tmp_path):
    # g = t^4 + t^2 = (t^2 + t)^2 is the closed form, so V_g = V_z1^2 and
    # the three facts hold as at exponent one.
    checks = _verify_all_checks(tmp_path, E2_P2_TEXT)
    assert checks["autos.constraints"]["verdict"] == "pass"
    assert checks["autos.constraints"]["witness"] == {
        "tau": "id",
        "eps": "1",
        "c": "V_g(c) = 0",
    }


def test_suite_reports_internal_invariant_violation_as_fail(monkeypatch, capsys):
    def broken(ring, b, e):
        raise InternalInvariantViolation("tower iteration disagrees with expansion")

    monkeypatch.setattr(frontend, "v_p_tower", broken)
    report = run_suite(instance_from_text(I1_TEXT), "vops")
    verdicts = {c.name: (c.verdict, c.witness) for c in report.checks}
    assert verdicts["vops.middle_coeffs"] == (
        "fail",
        {"error": "tower iteration disagrees with expansion"},
    )
    # The checks that do not call v_p_tower still run and pass.
    assert verdicts["vops.additive"][0] == "pass"
    assert report.failed
    assert main(["verify", str(CONFIGS / "i1.cfg"), "--suite", "vops"]) == 1
    out = capsys.readouterr()
    assert "FAIL  vops.middle_coeffs" in out.out and "Traceback" not in out.err


def test_inner_suite_reports_conjugation_mismatch_as_fail(monkeypatch, capsys):
    # A descriptor that disagrees with literal conjugation is an arithmetic
    # fault: the check fails, the report is still emitted, and the input is
    # not blamed.
    monkeypatch.setattr(autos, "apply_auto", lambda H, u: u + u)
    report = run_suite(instance_from_text(I1_TEXT), "inner")
    verdicts = {c.name: c.verdict for c in report.checks}
    assert verdicts == {"inner.constant": "pass", "inner.inner_subgroup": "fail"}
    error = report.checks[1].witness["error"]
    assert error.startswith("normal form disagrees with conjugation by")
    assert main(["verify", str(CONFIGS / "i1.cfg"), "--suite", "inner"]) == 1
    out = capsys.readouterr()
    assert "FAIL  inner.inner_subgroup" in out.out and "Traceback" not in out.err


def test_suite_checks_fail_under_python_optimize():
    # python -O strips assert statements; the checks raise
    # InternalInvariantViolation instead, so a broken right division still
    # reads fail.  The child adds 1 to every remainder.
    code = textwrap.dedent(
        """
        import sys
        from diffext.diffpoly import DiffPoly
        from diffext.frontend import load_instance, run_suite

        inst = load_instance(sys.argv[1])
        divmod_ = DiffPoly.right_divmod

        def off_by_one(u, v):
            q, r = divmod_(u, v)
            return q, r + DiffPoly.constant(u.ring, u.ring.one())

        DiffPoly.right_divmod = off_by_one
        verdicts = {c.name: c.verdict for c in run_suite(inst, "ring").checks}
        print(sys.flags.optimize, verdicts["ring.right_division"])
        """
    )
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code, str(CONFIGS / "i1.cfg")],
            capture_output=True, text=True, env=_CHILD_ENV, timeout=120,
        )
        assert proc.stdout.split() == [str(len(flags)), "fail"], proc.stderr


def test_closed_form_check_fails_on_a_p_step_without_its_derivations(monkeypatch):
    # vops.closed_form rests on v_p_tower's comparison of the expanded
    # (t - b)^p with the p-step b^p + delta^(p-1)(b): a step that drops the
    # derivation term fails it.
    monkeypatch.setattr(diffpoly, "_p_step", lambda ring, c, level: c ** ring.p)
    for cfg in ("i1", "i3"):
        report = run_suite(frontend.load_instance(CONFIGS / (cfg + ".cfg")), "vops")
        check = {c.name: c for c in report.checks}["vops.closed_form"]
        assert (check.verdict, check.witness) == (
            "fail",
            {"error": "tower iteration disagrees with expansion"},
        ), cfg


def test_inner_suite_decides_g_of_delta_once(monkeypatch, capsys):
    # The load checks g(delta) = 0 at x once (the minimal p-polynomial);
    # inner.constant reads that fact instead of deciding it again.
    calls = []
    annihilates = PPolynomial.annihilates

    def counted(g, K):
        calls.append(g)
        return annihilates(g, K)

    monkeypatch.setattr(PPolynomial, "annihilates", counted)
    for cfg in ("i1", "i3"):
        calls.clear()
        assert main(["verify", str(CONFIGS / (cfg + ".cfg")), "--suite", "inner"]) == 0
        assert len(calls) == 1, cfg
    assert "FAIL" not in capsys.readouterr().out


def test_report_deterministic_modulo_ms():
    def stripped():
        data = run_suite(instance_from_text(I1_TEXT), "all").to_json()
        for check in data["checks"]:
            del check["ms"]
        return json.dumps(data, sort_keys=True)

    assert stripped() == stripped()


_ODD_TEXT = 'é ∂ \U0001d53d " \\ \n \t \x00 \x7f'
_ODD_WITNESS = {
    _ODD_TEXT: _ODD_TEXT,
    "nested": {"list": [1, [2, []], {}], "dict": {"z": None, "a": {"b": [True, False]}}},
    "ints": [0, -1, 10**30, -(10**40) + 1],
    "flags": [True, False, None],
    "": "",
    "B": 1,
    "a": -7,
}


@pytest.mark.parametrize(
    "report",
    [
        frontend.Report({}),
        frontend.Report({"p": 2}, []),
        frontend.Report({"d": _ODD_TEXT}, [frontend.CheckResult("empty", "pass", {}, 1)]),
        frontend.Report(
            {"p": 3, "g": "t^3 - x^2*t", "seed": -5},
            [
                frontend.CheckResult(_ODD_TEXT, "unknown", _ODD_WITNESS, 0),
                frontend.CheckResult("b", "fail", {"error": "∂(x) = 0"}, 10**30),
            ],
        ),
    ],
    ids=["empty", "no-checks", "empty-witness", "odd-leaves"],
)
def test_report_dumps_is_the_indenting_encoder_byte_for_byte(report):
    assert report.dumps() == json.dumps(report.to_json(), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "leaf",
    [{1, 2}, (1, 2), 0.5, instance_from_text(I1_TEXT).K.x()],
    ids=["set", "tuple", "float", "RatFunc"],
)
def test_report_dumps_refuses_other_leaves(leaf):
    report = frontend.Report({"p": 2}, [frontend.CheckResult("c", "pass", {"w": leaf}, 1)])
    with pytest.raises(TypeError):
        report.dumps()


def test_division_suite_reports_witness_for_d0():
    inst = instance_from_text("p = 2\ndelta_of_x = x\nd = 0\n")
    report = run_suite(inst, "division")
    verdict_check = next(c for c in report.checks if c.name == "division.verdict")
    assert verdict_check.witness["verdict"] == "not division (witness)"
    assert verdict_check.witness["witness"] == "1"


def test_division_suite_unknown_at_tiny_bound():
    # d = x^3 is in F, so the search decides; its factor t - x needs bound 1.
    inst = instance_from_text("p = 3\ndelta_of_x = x\nd = x^3\ndegree_bound = 0\n")
    report = run_suite(inst, "division")
    verdict_check = next(c for c in report.checks if c.name == "division.verdict")
    assert verdict_check.verdict == "unknown"
    assert not report.failed


def test_division_suite_reports_probe_over_budget():
    # samples * m^5 = 40 * 17^5 is above dext.MAX_PROBE_WORK: the probe is
    # refused before any work instead of running for minutes.  d = x^17 is
    # in F, so the verdict comes from the search, and bound 0 misses t - x.
    inst = instance_from_text("p = 17\ndelta_of_x = x\nd = x^17\ndegree_bound = 0\n")
    report = run_suite(inst, "division")
    probe = next(c for c in report.checks if c.name == "division.probe")
    assert probe.verdict == "unknown"
    assert "MAX_PROBE_WORK" in probe.witness["reason"]
    assert probe.witness["verdict"] == "unknown (bound exhausted)"
    assert not report.failed


# -- the command line -------------------------------------------------------


def _cli(tmp_path, *args, config=I1_TEXT):
    cfg = tmp_path / "inst.cfg"
    cfg.write_text(config, encoding="utf-8")
    cmd = [sys.executable, "-m", "diffext"] + [
        str(cfg) if a == "CFG" else a for a in args
    ]
    return subprocess.run(cmd, capture_output=True, text=True, env=_CHILD_ENV, timeout=120)


def test_cli_build_exit_zero(tmp_path):
    proc = _cli(tmp_path, "build", "CFG")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "dim_over_F=4" in proc.stdout
    assert "associative=false" in proc.stdout
    proc = _cli(tmp_path, "build", "CFG", config="p = 2\ndelta_of_x = x\nd = x^2\n")
    assert proc.returncode == 0
    assert "associative=true" in proc.stdout


def test_cli_nucleus_which(tmp_path):
    proc = _cli(tmp_path, "nucleus", "CFG", "--which", "middle")
    assert proc.returncode == 0
    assert "basis=1, x" in proc.stdout


def test_cli_autos_rejected_probe_exits_one(tmp_path):
    proc = _cli(tmp_path, "autos", "CFG", "--check-c", "x")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_cli_autos_valid_probe_and_order(tmp_path):
    proc = _cli(tmp_path, "autos", "CFG", "--check-c", "1", "--order", "1")
    assert proc.returncode == 0
    assert "order=2" in proc.stdout


@pytest.mark.parametrize(
    "config",
    [
        # delta(x) = 1: z1 = t^2, and t -> t + 1 is an automorphism that is not inner.
        "p = 2\ndelta_of_x = 1\nd = x\ng = t^4 + t^2\n",
        "p = 2\ndelta_of_x = x\nd = x^2\ng = t^4 + t\n",
    ],
    ids=["delta-1", "delta-x"],
)
def test_cli_autos_runs_its_probes_when_the_constraints_are_refused(tmp_path, capsys, config):
    # g = z1^2 + z1 is not the closed form z1^2: auto_constraints refuses it,
    # and autos reports that as verify does, then runs both probes.
    cfg = tmp_path / "inst.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["autos", str(cfg), "--check-c", "1", "--order", "1", "--json", str(out)]) == 0
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert list(checks) == ["autos.constraints", "autos.check_c", "autos.order"]
    g = config.split("g = ")[1].strip()
    assert checks["autos.constraints"]["verdict"] == "unknown"
    assert checks["autos.constraints"]["witness"] == {
        "reason": "constraint analysis covers g = (t^p - a t)^(p^(e-1)); for g = %s "
        "the kernel of V_g can exceed the logarithmic derivatives" % g
    }
    assert checks["autos.check_c"]["verdict"] == "pass"
    assert checks["autos.check_c"]["witness"] == {"c": "1", "valid": "true"}
    assert checks["autos.order"]["verdict"] == "pass"
    assert checks["autos.order"]["witness"] == {"c": "1", "order": 2}


def test_cli_inner(tmp_path):
    proc = _cli(tmp_path, "inner", "CFG", "--a", "x")
    assert proc.returncode == 0
    assert "c=1" in proc.stdout


def test_cli_divcheck_witness(tmp_path):
    proc = _cli(
        tmp_path,
        "divcheck",
        "CFG",
        "--bound",
        "0",
        config="p = 2\ndelta_of_x = x\nd = 0\n",
    )
    assert proc.returncode == 0
    assert "witness=1" in proc.stdout


def test_cli_divcheck_decided_at_infinity_draws_no_denominator(tmp_path, capsys, drawn_denominators):
    # d = x^20 + x^10 at p = 2 over x d/dx: the pole of order 20 at infinity
    # fixes the pole order 10 of every solution, above the bound 8, so the
    # search draws none of the 511 monic denominators of degree <= 8.
    cfg = tmp_path / "inst.cfg"
    cfg.write_text("p = 2\ndelta_of_x = x\nd = x^20 + x^10\n", encoding="utf-8")
    assert main(["divcheck", str(cfg), "--bound", "8"]) == 0
    assert "verdict=unknown (bound exhausted)" in capsys.readouterr().out
    assert drawn_denominators == []


def test_cli_divcheck_guard_counts_only_drawn_denominators(tmp_path, capsys, drawn_denominators):
    # d = x^200 + x^100 at p = 2 over x d/dx: every solution has pole order
    # 100, so at bound 16 the cap is -84 and no denominator is drawn, though
    # 2^17 - 1 monic denominators have degree <= 16.
    cfg = tmp_path / "inst.cfg"
    cfg.write_text("p = 2\ndelta_of_x = x\nd = x^200 + x^100\n", encoding="utf-8")
    assert main(["divcheck", str(cfg), "--bound", "16"]) == 0
    assert "verdict=unknown (bound exhausted)" in capsys.readouterr().out
    assert drawn_denominators == []


def test_cli_verify_json_report(tmp_path):
    out = tmp_path / "report.json"
    proc = _cli(tmp_path, "verify", "CFG", "--suite", "inner", "--json", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert set(data) == {"instance", "checks"}
    for check in data["checks"]:
        assert set(check) == {"name", "verdict", "witness", "ms"}
    assert data["instance"]["g"] == "t^2 + t"


def test_cli_usage_errors_exit_two(tmp_path):
    assert _cli(tmp_path, "verify", "CFG", "--suite", "bogus").returncode == 2
    assert _cli(tmp_path, "frobnicate", "CFG").returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "diffext", "build", str(tmp_path / "missing.cfg")],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr
    # A negative bound is refused like a negative degree_bound in a config.
    proc = _cli(tmp_path, "divcheck", "CFG", "--bound", "-1")
    assert proc.returncode == 2
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_bad_config_exits_two(tmp_path):
    for p in (2, 4, 1):  # zero derivation, then p not a prime
        config = "p = %d\ndelta_of_x = %s\nd = x\n" % (p, "0" if p == 2 else "x")
        proc = _cli(tmp_path, "build", "CFG", config=config)
        assert proc.returncode == 2
        assert "error" in proc.stderr and "Traceback" not in proc.stderr


# Errors found while loading the config, while running the command and
# while writing the report all end the same way: one line, no traceback.
def test_cli_t_in_denominator_in_config_exits_two(tmp_path):
    proc = _cli(tmp_path, "build", "CFG", config=I1_TEXT + "g = t^2/t\n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot divide by a polynomial in t")
    assert "Traceback" not in proc.stderr


def test_cli_undecodable_config_exits_two(tmp_path):
    cfg = tmp_path / "inst.cfg"
    cfg.write_bytes(I1_TEXT.encode("ascii") + b"# \xff\n")
    proc = subprocess.run(
        [sys.executable, "-m", "diffext", "build", str(cfg)],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read config: ")
    assert "Traceback" not in proc.stderr


def _build_report(tmp_path, cfg):
    """build's exit code and JSON report, ms dropped, run in-process."""
    out = tmp_path / "report.json"
    rc = main(["build", str(cfg), "--json", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    for check in report["checks"]:
        del check["ms"]
    return rc, report


def test_cli_config_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    # Some editors start a UTF-8 file with the mark EF BB BF; it is not part
    # of the first key.
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + (CONFIGS / "i1.cfg").read_bytes())
    assert _build_report(tmp_path, cfg) == _build_report(tmp_path, CONFIGS / "i1.cfg")
    assert _build_report(tmp_path, cfg)[0] == 0


def test_cli_utf16_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "inst.cfg"
    cfg.write_text(I1_TEXT, encoding="utf-16")
    assert main(["build", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_cli_unwritable_report_exits_two(tmp_path):
    out = tmp_path / "missing" / "r.json"
    proc = _cli(tmp_path, "build", str(CONFIGS / "i1.cfg"), "--json", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write report: ")
    assert "Traceback" not in proc.stderr


def test_cli_closed_stdout_exits_one_without_traceback(tmp_path):
    # The pipe's reader is gone before the report is printed, as in
    # `diffext build CONFIG | head -0`: exit 1 with nothing on stderr, and
    # the --json report is still written.
    out = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diffext", "build", str(CONFIGS / "i1.cfg"), "--json", str(out)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_CHILD_ENV,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [c["name"] for c in report["checks"]] == ["build"]


def test_cli_bad_expression_exits_two(tmp_path):
    proc = _cli(tmp_path, "autos", "CFG", "--check-c", "x +")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args, config",
    [
        (("build", "CFG"), "p = 2\ndelta_of_x = x\nd = x^\u00b2\n"),
        (("inner", "CFG", "--a", "x^\u00b2"), I1_TEXT),
        (("inner", "CFG", "--a", "x^\u0663"), I1_TEXT),
    ],
    ids=["config_superscript", "inner_superscript", "inner_arabic_indic"],
)
def test_cli_non_ascii_digit_exits_two(tmp_path, args, config):
    proc = _cli(tmp_path, *args, config=config)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unexpected character")
    assert "Traceback" not in proc.stderr


_BARE = "delta_of_x = x\nd = x\n"


# int() reads other scripts' digits and underscores; the config keys and
# the options take an optional sign and ASCII digits, as the parser does.
@pytest.mark.parametrize(
    "args, config, message",
    [
        (("build", "CFG"), "p = \u0663\n" + _BARE, "error: p must be an integer"),
        (("build", "CFG"), "p = 3\nseed = 1_0\n" + _BARE, "error: seed must be an integer"),
        (
            ("build", "CFG"),
            "p = 3\ndegree_bound = \u0664\n" + _BARE,
            "error: degree_bound must be an integer",
        ),
        (("build", "CFG", "--seed", "\u0661"), I1_TEXT, "argument --seed: invalid int value"),
        (("divcheck", "CFG", "--bound", "\u0664"), I1_TEXT, "argument --bound: invalid int value"),
    ],
    ids=["config_p", "config_seed_underscore", "config_bound", "option_seed", "option_bound"],
)
def test_cli_integers_take_only_ascii_digits(tmp_path, args, config, message):
    proc = _cli(tmp_path, *args, config=config)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_inner_constant_check_samples_g_of_delta():
    # The constructor refuses a g with g(delta) != 0, so the check reads
    # d0 = 0 from the accepted split.  It also compares g(delta)(b) with
    # d0 b - b d0 on sampled b, so a g that slipped past the split fails it.
    inst = instance_from_text(I1_TEXT)
    K = inst.K
    inst.g = PPolynomial(2, 1, (K.zero(),))  # t^2: delta^2 = delta for x d/dx
    check = run_suite(inst, "inner").checks[0]
    assert (check.name, check.verdict) == ("inner.constant", "fail")
    assert check.witness["error"].startswith("g(delta)(")


@pytest.mark.parametrize(
    "args, config",
    [
        (("build", "CFG"), "p = 2\ndelta_of_x = x\nd = 1/0\n"),
        (("build", "CFG"), "p = 2\ndelta_of_x = x/(x - x)\nd = x\n"),
        (("inner", "CFG", "--a", "1/0"), I1_TEXT),
        (("autos", "CFG", "--check-c", "1/(x+x)"), I1_TEXT),
    ],
    ids=["config_d", "config_delta_of_x", "inner_a", "autos_check_c"],
)
def test_cli_division_by_zero_exits_two(tmp_path, args, config):
    proc = _cli(tmp_path, *args, config=config)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: division by zero in expression")
    assert "Traceback" not in proc.stderr


def test_cli_huge_power_exits_two(tmp_path):
    proc = _cli(tmp_path, "build", "CFG", config="p = 2\ndelta_of_x = x\nd = x^99999999999\n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: power of degree")


def test_cli_build_refuses_oversized_table(tmp_path):
    # p = 17 has dim 289: its table would hold 289^3 coordinates.
    proc = _cli(tmp_path, "build", "CFG", config="p = 17\ndelta_of_x = x\nd = x\n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the structure table has dim^3 = 24137569 entries")
    assert "Traceback" not in proc.stderr


def test_cli_divcheck_refuses_search_above_guard(tmp_path):
    # 2^41 - 1 monic denominators of degree <= 40 over F_2.  d = x^2 is in
    # F, so only the search can answer.
    config = "p = 2\ndelta_of_x = x\nd = x^2\n"
    proc = _cli(tmp_path, "divcheck", "CFG", "--bound", "40", config=config)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: a search to bound 40 over F_2 tries more than")
    assert "Traceback" not in proc.stderr
    # d = x is not in F: proved before any search, whatever the bound.
    proc = _cli(tmp_path, "divcheck", "CFG", "--bound", "40")
    assert proc.returncode == 0
    assert "verdict=division (proved)" in proc.stdout


def test_cli_verify_reports_search_above_guard_as_unknown(tmp_path):
    # The guard that stops divcheck costs verify one check, not the report:
    # division.verdict reads unknown with the reason, and every check of
    # every suite is still run and written.
    config = "p = 2\ndelta_of_x = x\nd = x^2\ndegree_bound = %d\n"
    out = tmp_path / "report.json"
    proc = _cli(tmp_path, "verify", "CFG", "--suite", "all", "--json", str(out), config=config % 20)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    by_name = {c["name"]: c for c in checks}
    assert by_name["division.verdict"]["verdict"] == "unknown"
    assert "MAX_SEARCH_DENOMINATORS" in by_name["division.verdict"]["witness"]["reason"]
    # The probe has no verdict to quote: the key is left out, not None.
    assert by_name["division.probe"]["witness"] == {"injective_on_samples": "false"}
    assert "verdict=None" not in proc.stdout
    within = run_suite(instance_from_text(config % 2), "all").checks
    assert [c["name"] for c in checks] == [c.name for c in within]


def test_cli_main_runs_twice_in_one_process(tmp_path, capsys):
    # Each call gets its own subcommand, options and report, whether the
    # plain reader or the argparse parser (built once per process) reads it.
    def run(*argv):
        out = tmp_path / "report.json"
        if out.exists():
            out.unlink()
        rc = main([*argv, "--json", str(out)])
        capsys.readouterr()
        return rc, (json.loads(out.read_text())["checks"] if out.exists() else None)

    rc, (check,) = run("nucleus", str(CONFIGS / "i2.cfg"), "--which", "left")
    assert rc == 0 and check["witness"]["which"] == "left" and check["witness"]["dim"] == 4
    rc, (check,) = run("nucleus", str(CONFIGS / "i3.cfg"), "--which", "right")
    assert rc == 0 and check["witness"]["which"] == "right" and check["witness"]["dim"] == 3
    rc, (check,) = run("divcheck", str(CONFIGS / "i2.cfg"))
    assert rc == 0 and check["witness"]["witness"] == "x"
    assert run("nucleus", str(CONFIGS / "i3.cfg"), "--which", "bogus") == (2, None)
    rc, (check,) = run("nucleus", str(CONFIGS / "i3.cfg"))
    assert rc == 0 and check["witness"]["which"] == "full"


def test_cli_seed_override_changes_nothing_semantic(tmp_path, capsys):
    def report(config, *extra):
        cfg = tmp_path / "inst.cfg"
        cfg.write_text(config)
        out = tmp_path / "report.json"
        assert main(["verify", str(cfg), "--suite", "inner", "--json", str(out), *extra]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        for check in data["checks"]:
            del check["ms"]
        return data

    assert "seed = 0" in I1_TEXT
    overridden = report(I1_TEXT, "--seed", "5")
    assert overridden["instance"]["seed"] == 5
    # The override is the same as a config whose seed line says 5.
    assert overridden == report(I1_TEXT.replace("seed = 0", "seed = 5"))


def test_value_types_contract():
    cfg = frontend.InstanceConfig(p=2, delta_of_x="x", d="x")
    assert (cfg.g, cfg.seed, cfg.degree_bound) == (None, 0, 4)
    same = frontend.InstanceConfig(2, "x", "x", None, 0, 4)
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != frontend.InstanceConfig(p=2, delta_of_x="x", d="x", seed=1)
    with pytest.raises(AttributeError):
        cfg.seed = 5
    rep = autos.auto_constraints(instance_from_text(I1_TEXT).algebra)
    with pytest.raises(AttributeError):
        rep.tau_forced = "conj"
    a, b = frontend.Report({}), frontend.Report({})
    a.checks.append(frontend.CheckResult("x", "pass", {}, 1))
    assert a.checks and b.checks == []


def test_ms_since_rounds_up():
    assert ms_since(time.perf_counter()) >= 1
    assert ms_since(time.perf_counter() - 0.0021) >= 3


def test_cli_single_command_reports_real_duration(tmp_path, capsys):
    out = tmp_path / "report.json"
    # The left nucleus takes about 1 ms; a check that ran reports at least 1.
    argv = ["nucleus", str(CONFIGS / "i3.cfg"), "--which", "left", "--json", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    (check,) = json.loads(out.read_text())["checks"]
    assert check["name"] == "nucleus" and check["ms"] >= 1
