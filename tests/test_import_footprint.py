"""Start-up footprint: importing diffext loads no heavy standard library.

Every command is a fresh process, so what ``import diffext`` pulls in is
paid on every call.  ``dataclasses`` alone brings ``inspect``, ``ast``,
``dis``, ``tokenize`` and ``copy``; ``typing`` is another large module.
``argparse`` costs a few milliseconds to import and as many to build a
parser, so the command line imports it only for help and usage errors.
The child runs with ``-I -S``: no user site and no ``site`` module, so
nothing is preloaded and ``sys.modules`` before and after the import shows
exactly what the import added.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import diffext

SRC = Path(diffext.__file__).resolve().parent.parent
HEAVY = {"dataclasses", "inspect", "typing", "ast", "dis", "argparse"}

_CHILD = """
import importlib, json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
module = importlib.import_module(sys.argv[2])
print(json.dumps({"file": module.__file__, "added": sorted(set(sys.modules) - before)}))
"""


@pytest.mark.parametrize("module", ["diffext", "diffext.cli"])
def test_import_adds_no_heavy_module(module):
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _CHILD, str(SRC), module],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert Path(data["file"]).resolve().is_relative_to(SRC)
    added = set(data["added"])
    assert module in added
    assert not added & HEAVY, sorted(added & HEAVY)
