"""The two readers of a command line: the plain reader and argparse.

cli._read_plain reads a plain command line straight from the option table;
every other command line goes to cli._build_parser, the argparse parser
built from the same table.  The reference is oracles.reference_parser, the
parser written out call by call.
"""

import io
import itertools
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import diffext
from diffext import cli
from diffext.cli import main
from oracles import reference_parser

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(diffext.__file__).resolve().parent.parent

# A valid value of every flag, and each command's own flags.
VALUES = {
    "--seed": "3",
    "--json": "out.json",
    "--which": "left",
    "--check-c": "x",
    "--order": "1/x",
    "--a": "x^2 + x",
    "--bound": "5",
    "--suite": "ring",
}
OWN_FLAGS = {
    "build": [],
    "nucleus": ["--which"],
    "autos": ["--check-c", "--order"],
    "inner": ["--a"],
    "divcheck": ["--bound"],
    "verify": ["--suite"],
}


def _plain_argvs(command):
    """COMMAND CFG and every subset, in every order, of its flags with valid values."""
    flags = ["--seed", "--json"] + OWN_FLAGS[command]
    for k in range(len(flags) + 1):
        for chosen in itertools.permutations(flags, k):
            yield [command, "CFG"] + [s for flag in chosen for s in (flag, VALUES[flag])]


def _malformed_argvs(command):
    """Command lines the plain reader leaves to argparse, valid or not."""
    base = [command, "CFG"] + (["--a", "x"] if command == "inner" else [])
    other = "--which" if command == "verify" else "--suite"  # another command's flag
    for extra in (
        ["--se", "3"],
        ["--seed=3"],
        ["--seed"],
        ["--json", "a.json", "--json", "b.json"],
        ["--nope", "1"],
        [other, "ring"],
        ["--"],
        ["-h"],
        ["--check-c", "-1"],
        ["--a", "-x"],
        ["--seed", "1_0"],
        ["--bound", "-1"],
        ["--which", "bogus"],
        ["--suite", "bogus"],
        ["extra"],
    ):
        yield base + extra
    yield [command, "--seed", "3"] + base[1:]  # an option before CONFIG
    yield [command, "--", *base[1:]]
    yield [command, "-"]
    yield [command]


def _argparse_outcome(parser, argv):
    """(namespace, None, "", "") or (None, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), None, "", ""
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


def test_plain_reader_and_argparse_agree_on_a_grid_of_command_lines():
    reference, built = reference_parser(), cli._build_parser()
    taken = dict.fromkeys(OWN_FLAGS, 0)
    grid = [(argv, True) for command in OWN_FLAGS for argv in _plain_argvs(command)]
    grid += [(argv, False) for command in OWN_FLAGS for argv in _malformed_argvs(command)]
    grid += [([], False), (["-h"], False), (["--help"], False), (["frobnicate", "CFG"], False)]
    for argv, plain in grid:
        expected = _argparse_outcome(reference, argv)
        assert _argparse_outcome(built, argv) == expected, argv
        ns = cli._read_plain(argv)
        # inner needs --a: without it argparse refuses the line.
        assert (ns is not None) == (plain and (argv[0] != "inner" or "--a" in argv)), argv
        if ns is not None:
            assert vars(ns) == expected[0], argv
            taken[argv[0]] += 1
    assert all(taken.values()), taken


def test_plain_reader_reads_every_benchmark_command_line():
    # The shapes perfbench's workloads run, with every value they take: none
    # may fall back to argparse.
    shapes = [["build", "CFG", "--json", "P"], ["divcheck", "CFG", "--json", "P"]]
    shapes += [["nucleus", "CFG", "--which", w, "--json", "P"] for w in diffext.NUCLEUS_SLOTS]
    shapes += [
        ["verify", "CFG", "--suite", s, "--seed", "17", "--json", "P"]
        for s in ("ring", "vops", "autos", "inner")
    ]
    for argv in shapes:
        ns = cli._read_plain(argv)
        assert ns is not None, argv
        assert vars(ns) == vars(reference_parser().parse_args(argv)), argv


def test_plain_commands_never_build_the_parser(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("argparse parser built for a plain command line")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    cfg, out = str(CONFIGS / "i1.cfg"), str(tmp_path / "report.json")
    for argv in (
        ["build", cfg],
        ["nucleus", cfg, "--which", "left"],
        ["autos", cfg, "--check-c", "1", "--order", "1"],
        ["inner", cfg, "--a", "x^2 + x", "--seed", "2"],
        ["divcheck", cfg, "--bound", "3", "--json", out],
        ["verify", cfg, "--suite", "inner"],
    ):
        assert main(argv) in (0, 1), argv
        assert capsys.readouterr().out.startswith("instance:"), argv
    assert json.loads(Path(out).read_text(encoding="utf-8"))["checks"][0]["name"] == "divcheck"


def test_help_goes_through_argparse(capsys):
    assert main(["build", "-h"]) == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: diffext build [-h]")
    _, code, expected, _ = _argparse_outcome(reference_parser(), ["build", "-h"])
    assert code == 0 and help_text == expected


def test_a_plain_command_process_never_imports_argparse():
    child = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from diffext.cli import main\n"
        "code = main(['build', sys.argv[2]])\n"
        "print('argparse' in sys.modules, code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", child, str(SRC), str(CONFIGS / "i1.cfg")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"
