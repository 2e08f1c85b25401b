"""The traced benchmark run still sees every layer and counter it requires.

``perfbench/run.py --trace 1`` reports ``"correct": false`` when a layer or
counter it requires records nothing, as happens when a public name the
tracer wraps (``autos.apply_auto``, ``dext._fraction_candidates``, ...) is
renamed or no longer reached.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["structure", "factor_search", "arith_suites"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
