"""Batch command line: build an instance from a config file and interrogate it.

    diffext build CONFIG
    diffext nucleus CONFIG [--which left|middle|right|full]
    diffext autos CONFIG [--check-c EXPR] [--order EXPR]
    diffext inner CONFIG --a EXPR
    diffext divcheck CONFIG [--bound N]
    diffext verify CONFIG [--suite NAME]

Every subcommand accepts --seed N (overrides the config) and --json PATH
(write the machine-readable report next to the human-readable lines).
Exit status: 0 all checks passed, 1 a check failed or a probe was rejected,
2 bad usage, unreadable config, unparsable expression, or an instance the
command does not handle (such as a structure table above
dext.MAX_TABLE_ENTRIES).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .autos import auto_constraints, auto_order, build_auto, inner_auto
from .errors import (
    ConditionFailed,
    ConfigError,
    ExprSyntaxError,
    GNotAnnihilating,
    NotInvertible,
    NotNuclear,
    TInDenominator,
    UnknownSuite,
    UnsupportedInstance,
    ZeroDerivation,
)
from .frontend import SUITES, CheckResult, Report, load_instance, ms_since, run_suite
from .parsing import parse_field_element

__all__ = ["main"]


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % n)
    return n


_nonnegative_int.__name__ = "int"  # argparse names it in "invalid int value: ..."


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as it was."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("config", help="path to an instance config file")
    shared.add_argument("--seed", type=int, default=None, help="override the config seed")
    shared.add_argument("--json", metavar="PATH", default=None, help="write a JSON report")

    top = argparse.ArgumentParser(
        prog="diffext",
        description="structural invariants of twisted polynomial quotients",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[shared], help="construct the instance and print its shape")

    p_nuc = sub.add_parser("nucleus", parents=[shared], help="compute a nucleus basis")
    p_nuc.add_argument(
        "--which",
        choices=("left", "middle", "right", "full"),
        default="full",
        help="which slot of the associator to annihilate",
    )

    p_aut = sub.add_parser("autos", parents=[shared], help="automorphism constraints and probes")
    p_aut.add_argument("--check-c", metavar="EXPR", default=None, help="test a shift constant")
    p_aut.add_argument("--order", metavar="EXPR", default=None, help="order of the shift by EXPR")

    p_inn = sub.add_parser("inner", parents=[shared], help="conjugation by an invertible scalar")
    p_inn.add_argument("--a", metavar="EXPR", required=True, help="the conjugating element")

    p_div = sub.add_parser("divcheck", parents=[shared], help="linear factor search and verdict")
    p_div.add_argument(
        "--bound", type=_nonnegative_int, default=None, help="override the search bound"
    )

    p_ver = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, default="all", help="suite to run")

    return top


def _emit(report: Report, json_path):
    print(report.render_text())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report.dumps() + "\n")


def _single(inst, name, verdict, witness, t0) -> Report:
    """One-check report; ms counts from t0, the start of the command body."""
    return Report(
        instance=inst.metadata(),
        checks=[CheckResult(name=name, verdict=verdict, witness=witness, ms=ms_since(t0))],
    )


def _cmd_build(inst, args) -> Report:
    t0 = time.perf_counter()
    alg = inst.algebra
    # Materializing the table checks that every structure constant lies in F.
    alg.structure_constants()
    witness = {
        "associative": str(alg.is_associative()).lower(),
        "dim_over_F": alg.dim,
        "basis": ", ".join(str(b) for b in alg.basis()[:6])
        + (", ..." if alg.dim > 6 else ""),
    }
    return _single(inst, "build", "pass", witness, t0)


def _cmd_nucleus(inst, args) -> Report:
    t0 = time.perf_counter()
    basis = inst.algebra.nucleus(args.which)
    witness = {
        "which": args.which,
        "dim": len(basis),
        "basis": ", ".join(str(b) for b in basis),
    }
    return _single(inst, "nucleus", "pass", witness, t0)


def _cmd_autos(inst, args) -> Report:
    alg = inst.algebra
    K = inst.K
    checks = []
    t0 = time.perf_counter()
    rep = auto_constraints(alg)
    checks.append(
        CheckResult(
            name="autos.constraints",
            verdict="pass",
            witness={"tau": rep.tau_forced, "eps": rep.eps_forced, "c": rep.c_condition},
            ms=ms_since(t0),
        )
    )
    if args.check_c is not None:
        t0 = time.perf_counter()
        c = parse_field_element(args.check_c, K)
        try:
            build_auto(alg, lambda z: z, c, K.one())
            verdict, witness = "pass", {"c": str(c), "valid": "true"}
        except ConditionFailed as exc:
            verdict = "fail"
            witness = {"c": str(c), "valid": "false", "condition": exc.condition}
        checks.append(CheckResult("autos.check_c", verdict, witness, ms_since(t0)))
    if args.order is not None:
        t0 = time.perf_counter()
        c = parse_field_element(args.order, K)
        H = build_auto(alg, lambda z: z, c, K.one())  # ConditionFailed propagates
        n = auto_order(H)
        checks.append(
            CheckResult(
                "autos.order",
                "pass" if n is not None else "unknown",
                {"c": str(c), "order": n if n is not None else "> bound"},
                ms_since(t0),
            )
        )
    return Report(instance=inst.metadata(), checks=checks)


def _cmd_inner(inst, args) -> Report:
    t0 = time.perf_counter()
    a = parse_field_element(args.a, inst.K)
    G = inner_auto(inst.algebra, a)
    n = auto_order(G)
    witness = {
        "a": str(a),
        "c": str(G.c),
        "order": n if n is not None else "> bound",
    }
    return _single(inst, "inner", "pass", witness, t0)


def _cmd_divcheck(inst, args) -> Report:
    t0 = time.perf_counter()
    bound = inst.degree_bound if args.bound is None else args.bound
    verdict, witness = inst.algebra.division_verdict(bound)
    data = {"verdict": verdict, "bound": bound}
    if witness is not None:
        data["witness"] = str(witness)
    mapped = {
        "not division (witness)": "pass",
        "division (proved)": "pass",
        "unknown (bound exhausted)": "unknown",
    }[verdict]
    return _single(inst, "divcheck", mapped, data, t0)


def _cmd_verify(inst, args) -> Report:
    return run_suite(inst, args.suite, seed=args.seed)


_COMMANDS = {
    "build": _cmd_build,
    "nucleus": _cmd_nucleus,
    "autos": _cmd_autos,
    "inner": _cmd_inner,
    "divcheck": _cmd_divcheck,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)

    try:
        inst = load_instance(args.config)
        if args.seed is not None:
            inst.config = inst.config._replace(seed=args.seed)
    except OSError as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return 2
    except (ConfigError, UnknownSuite, ZeroDerivation, GNotAnnihilating, ExprSyntaxError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    try:
        report = _COMMANDS[args.command](inst, args)
    except (ExprSyntaxError, TInDenominator, UnsupportedInstance) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ConditionFailed, NotNuclear, NotInvertible) as exc:
        print("rejected: %s" % exc, file=sys.stderr)
        return 1

    _emit(report, args.json)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
