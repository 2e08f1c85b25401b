"""The command line's reports on the shipped configs, pinned to a recorded copy.

``data/golden_reports.json`` holds, for each command below on each config in
``configs/``, the exit code and the JSON report with the per-check ``ms``
dropped (``null`` when the command writes no report).  The written bytes are
pinned too: each report file is what ``json.dumps(..., indent=2,
sort_keys=True)`` writes, plus a newline.  A change that keeps
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

import pytest

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


def written(tmp_dir) -> dict:
    """{"<config> <command ...>": (exit code, report file text or None)} in-process."""
    out = Path(tmp_dir) / "report.json"
    texts = {}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        for cmd in COMMANDS:
            if out.exists():
                out.unlink()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main([cmd[0], str(cfg), *cmd[1:], "--json", str(out)])
            text = out.read_text(encoding="utf-8") if out.exists() else None
            texts["%s %s" % (cfg.name, " ".join(cmd))] = (rc, text)
    return texts


def collect(texts: dict) -> dict:
    """{key: {"rc": exit code, "report": report without the per-check ms}}."""
    reports = {}
    for key, (rc, text) in texts.items():
        report = json.loads(text) if text is not None else None
        for check in (report or {}).get("checks", ()):
            del check["ms"]
        reports[key] = {"rc": rc, "report": report}
    return reports


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    return written(tmp_path_factory.mktemp("golden"))


def test_reports_on_shipped_configs_match_golden(texts):
    golden = json.loads(GOLDEN.read_text())
    got = collect(texts)
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


def test_report_bytes_are_the_indenting_encoders(texts):
    # The golden values are compared parsed; this pins the bytes: sorted keys,
    # a two-space indent, ASCII escapes and one trailing newline, ms left in.
    assert any(text is not None for _, text in texts.values())
    for key, (_, text) in texts.items():
        if text is not None:
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", key


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = collect(written(tmp))
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print("changed: %s" % key)
    print("wrote %s" % GOLDEN, file=sys.stderr)
