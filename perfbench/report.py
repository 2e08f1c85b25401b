"""Print every benchmark metric, per workload, with its unit.

    python3 perfbench/report.py --seed 1 --seconds 8

Runs ``run.py`` once per workload with tracing off (end-to-end metrics)
and once with tracing on (per-layer metrics), each in its own process, one
after the other, and prints one table.  Exits 1 if any run fails or
reports an unexpected wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args(argv)

    status = 0
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s trace %d failed:\n%s" % (name, trace, proc.stderr), file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            rows.append((name, "attempted", result["attempted"], "ops"))
            rows.append((name, "failed", result["failed"], "ops"))
            for metric, m in result["metrics"].items():
                rows.append((name, metric, m["value"], m["unit"]))
            print("\n".join(lines[:-1]), file=sys.stderr)
    for name, metric, value, unit in rows:
        print("%-14s %-28s %14.6g %s" % (name, metric, value, unit))
    return status


if __name__ == "__main__":
    sys.exit(main())
