"""Batch command line: build an instance from a config file and interrogate it.

    diffext build CONFIG
    diffext nucleus CONFIG [--which left|middle|right|full]
    diffext autos CONFIG [--check-c EXPR] [--order EXPR]
    diffext inner CONFIG --a EXPR
    diffext divcheck CONFIG [--bound N]
    diffext verify CONFIG [--suite NAME]

Every subcommand accepts --seed N (overrides the config) and --json PATH
(write the machine-readable report next to the human-readable lines).

The commands and their options are declared once, in one table.  A plain
command line (COMMAND CONFIG, then whole "--flag value" pairs) is read
from that table itself into the namespace argparse would give; any other
(help, a usage error, an abbreviation, --flag=value) goes to an argparse
parser built from the same table on first use, so argparse is imported
only then and its help, messages and exit codes stay as they were.

Exit status: 0 when no check failed (a check may read unknown), 1 when a
check failed.  A command that stops early prints one line on stderr, and
the same rule holds whether the config was loading or the command was
running:

- 2 and "error: ..." for bad usage; a config that cannot be read (missing,
  unreadable, not UTF-8) or is malformed; an expression that does not
  parse, divides by zero or by a polynomial in t; a zero derivation; a g
  that does not annihilate it (refused by towers.z1_split, the one split
  g = h(z1) that the algebra keeps); an instance the command does not
  handle (such as a structure table above dext.MAX_TABLE_ENTRIES, or a
  divcheck search above dext.MAX_SEARCH_DENOMINATORS); or a --json path
  that cannot be written.  verify does not stop there: a check that such a
  guard refuses reads unknown with the reason, and the other checks run.
  Nor does autos for a g outside the constraint analysis (not of the
  closed form (t^p - a t)^(p^(e-1))): autos.constraints reads unknown
  with the reason, and --check-c and --order run as usual;
- 1 and "rejected: ..." for a refused probe: a shift constant that fails a
  condition, or conjugation by an element that is not nuclear or not
  invertible.

A standard output closed before the report is printed (the reader of a
pipe stopped, as in ``diffext build CONFIG | head -0``) gives exit 1 with
no message; the --json report is still written.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from types import SimpleNamespace

from .autos import auto_constraints, auto_order, build_auto, inner_auto
from .dext import NUCLEUS_SLOTS
from .errors import (
    ConditionFailed,
    ConfigError,
    ExprSyntaxError,
    GNotAnnihilating,
    NotInvertible,
    NotNuclear,
    TInDenominator,
    UnsupportedInstance,
    ZeroDerivation,
)
from .frontend import SUITES, CheckResult, Report, divcheck, load_instance, ms_since, run_suite
from .parsing import decimal_int, parse_field_element

__all__ = ["main"]

# The library errors that stop a command: a usage error ends it with
# "error: ..." and exit 2, a rejection with "rejected: ..." and exit 1.
# Any other error propagates.
_USAGE_ERRORS = (
    ConfigError, ExprSyntaxError, TInDenominator, ZeroDerivation, GNotAnnihilating,
    UnsupportedInstance,
)
_REJECTIONS = (ConditionFailed, NotNuclear, NotInvertible)


def _int(text: str) -> int:
    return decimal_int(text)


def _nonnegative_int(text: str) -> int:
    n = decimal_int(text)
    if n < 0:
        # Only argparse sees a negative value: the plain reader leaves every
        # value that starts with "-" to it.
        import argparse

        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % n)
    return n


# argparse names the type in "invalid int value: ...".
_int.__name__ = _nonnegative_int.__name__ = "int"

# The command line, declared once: each option is its flag and the keyword
# arguments of argparse's add_argument (type, choices, default, required,
# help).  Each command is its help and its own options; every command
# takes the shared options first.
_SHARED_OPTIONS = (
    ("config", dict(help="path to an instance config file")),
    ("--seed", dict(type=_int, default=None, help="override the config seed")),
    ("--json", dict(metavar="PATH", default=None, help="write a JSON report")),
)
_COMMAND_OPTIONS = {
    "build": ("construct the instance and print its shape",),
    "nucleus": (
        "compute a nucleus basis",
        ("--which", dict(
            choices=NUCLEUS_SLOTS,
            default="full",
            help="which slot of the associator to annihilate",
        )),
    ),
    "autos": (
        "automorphism constraints and probes",
        ("--check-c", dict(metavar="EXPR", default=None, help="test a shift constant")),
        ("--order", dict(metavar="EXPR", default=None, help="order of the shift by EXPR")),
    ),
    "inner": (
        "conjugation by an invertible scalar",
        ("--a", dict(metavar="EXPR", required=True, help="the conjugating element")),
    ),
    "divcheck": (
        "linear factor search and verdict",
        ("--bound", dict(type=_nonnegative_int, default=None, help="override the search bound")),
    ),
    "verify": (
        "run a verification suite",
        ("--suite", dict(choices=SUITES, default="all", help="suite to run")),
    ),
}


def _read_plain(argv):
    """The namespace argparse gives for a plain command line, or None.

    A plain command line is COMMAND CONFIG followed by whole "--flag value"
    pairs: flags of that command or the shared ones, spelled in full, each
    once; no value and no CONFIG starting with "-"; every value passing its
    type and choices; every required flag present.  On such a line argparse
    does exactly this, so the namespace is equal to parse_args's.  Every
    other line (help, usage errors, abbreviations, --flag=value, "--",
    negative numbers, repeated flags) gets None and is left to argparse.
    The options are read from the table above, each dest derived from its
    flag as argparse derives it.
    """
    if len(argv) < 2 or len(argv) % 2 or argv[0] not in _COMMAND_OPTIONS or argv[1][:1] == "-":
        return None
    command, config = argv[0], argv[1]
    options = dict((*_SHARED_OPTIONS[1:], *_COMMAND_OPTIONS[command][1:]))
    given = {}
    for flag, text in zip(argv[2::2], argv[3::2]):
        kwargs = options.get(flag)
        if kwargs is None or flag in given or text[:1] == "-":
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    values = {"command": command, "config": config}
    for flag, kwargs in options.items():
        if flag not in given and kwargs.get("required"):
            return None
        values[flag.lstrip("-").replace("-", "_")] = given.get(flag, kwargs.get("default"))
    return SimpleNamespace(**values)


@functools.cache
def _build_parser():
    """argparse's parser for the table above, built and imported on first use.

    parse_args leaves the parser as it was, so one serves the process.
    """
    import argparse

    shared = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _SHARED_OPTIONS:
        shared.add_argument(flag, **kwargs)
    top = argparse.ArgumentParser(
        prog="diffext",
        description="structural invariants of twisted polynomial quotients",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, *options) in _COMMAND_OPTIONS.items():
        parser = sub.add_parser(command, parents=[shared], help=help_text)
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
    return top


# Each command but verify yields its checks as (name, verdict, witness);
# _run times each one from the previous yield.


def _cmd_build(inst, args):
    alg = inst.algebra
    # Materializing the table checks that every structure constant lies in F.
    alg.structure_constants()
    yield "build", "pass", {
        "associative": str(alg.is_associative()).lower(),
        "dim_over_F": alg.dim,
        "basis": ", ".join(str(b) for b in alg.basis()[:6])
        + (", ..." if alg.dim > 6 else ""),
    }


def _cmd_nucleus(inst, args):
    basis = inst.algebra.nucleus(args.which)
    yield "nucleus", "pass", {
        "which": args.which,
        "dim": len(basis),
        "basis": ", ".join(str(b) for b in basis),
    }


def _cmd_autos(inst, args):
    alg = inst.algebra
    K = inst.K
    try:
        rep = auto_constraints(alg)
        verdict = "pass"
        witness = {"tau": rep.tau_forced, "eps": rep.eps_forced, "c": rep.c_condition}
    except UnsupportedInstance as exc:
        # A g the analysis does not cover, as in verify: the probes below
        # need no closed form and still run.
        verdict, witness = "unknown", {"reason": str(exc)}
    yield "autos.constraints", verdict, witness
    if args.check_c is not None:
        c = parse_field_element(args.check_c, K)
        try:
            build_auto(alg, lambda z: z, c, K.one())
            verdict, witness = "pass", {"c": str(c), "valid": "true"}
        except ConditionFailed as exc:
            verdict = "fail"
            witness = {"c": str(c), "valid": "false", "condition": exc.condition}
        yield "autos.check_c", verdict, witness
    if args.order is not None:
        c = parse_field_element(args.order, K)
        # A shift has order 1 or p, below auto_order's bound p(p + 1) (its
        # docstring has the proof), so the order is never None here.
        # ConditionFailed propagates.
        n = auto_order(build_auto(alg, lambda z: z, c, K.one()))
        yield "autos.order", "pass", {"c": str(c), "order": n}


def _cmd_inner(inst, args):
    a = parse_field_element(args.a, inst.K)
    G = inner_auto(inst.algebra, a)
    # Conjugation by a coefficient is a shift, of order 1 or p: never None.
    yield "inner", "pass", {"a": str(a), "c": str(G.c), "order": auto_order(G)}


def _cmd_divcheck(inst, args):
    bound = inst.degree_bound if args.bound is None else args.bound
    status, data, _ = divcheck(inst.algebra, bound)
    yield "divcheck", status, data


_COMMANDS = {
    "build": _cmd_build,
    "nucleus": _cmd_nucleus,
    "autos": _cmd_autos,
    "inner": _cmd_inner,
    "divcheck": _cmd_divcheck,
}


def _run(inst, args) -> Report:
    if args.command == "verify":
        return run_suite(inst, args.suite)
    checks = []
    t0 = time.perf_counter()
    for name, verdict, witness in _COMMANDS[args.command](inst, args):
        checks.append(CheckResult(name, verdict, witness, ms_since(t0)))
        t0 = time.perf_counter()
    return Report(instance=inst.metadata(), checks=checks)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_plain(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)

    file_op = "read config"  # the file operation under way, if any
    try:
        inst = load_instance(args.config)
        file_op = None
        if args.seed is not None:
            inst.config = inst.config._replace(seed=args.seed)
        report = _run(inst, args)
        printed = _print(report.render_text())
        if args.json:
            file_op = "write report"
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.dumps() + "\n")
    except (OSError, UnicodeDecodeError) as exc:
        if file_op is None:
            raise
        print("error: cannot %s: %s" % (file_op, exc), file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _REJECTIONS as exc:
        print("rejected: %s" % exc, file=sys.stderr)
        return 1
    return 1 if report.failed or not printed else 0


def _print(text) -> bool:
    """Print text to stdout; False when stdout is a closed pipe.

    A closed stdout is not an error of the command, so nothing is printed
    about it.  The unwritten text stays in the stream's buffer, so fd 1 is
    pointed at os.devnull: the interpreter's flush at exit then raises no
    second BrokenPipeError.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
