"""The command line's reports on the shipped configs, pinned to a recorded copy.

``data/golden_reports.json`` holds, for each command below on each config in
``configs/``, the exit code and the JSON report with the per-check ``ms``
dropped (``null`` when the command writes no report).  A change that keeps
every report as it was passes unchanged; a change that alters one on purpose
regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden_reports.py

which prints the keys whose entry changed.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from diffext.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

COMMANDS = (
    ("build",),
    ("divcheck",),
    ("nucleus", "--which", "right"),
    ("autos", "--check-c", "1/x", "--order", "1"),
    ("inner", "--a", "x^2+x"),
    *(("verify", "--suite", s) for s in ("ring", "vops", "autos", "inner", "nuclei", "division")),
)


def collect(tmp_dir) -> dict:
    """{"<config> <command ...>": {"rc": exit code, "report": report}} in-process."""
    out = Path(tmp_dir) / "report.json"
    reports = {}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        for cmd in COMMANDS:
            if out.exists():
                out.unlink()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main([cmd[0], str(cfg), *cmd[1:], "--json", str(out)])
            report = json.loads(out.read_text()) if out.exists() else None
            for check in (report or {}).get("checks", ()):
                del check["ms"]
            reports["%s %s" % (cfg.name, " ".join(cmd))] = {"rc": rc, "report": report}
    return reports


def test_reports_on_shipped_configs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = collect(tmp_path)
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = collect(tmp)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print("changed: %s" % key)
    print("wrote %s" % GOLDEN, file=sys.stderr)
