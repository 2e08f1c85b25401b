"""Benchmark for diffext: seeded closed-loop workloads through the CLI.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 8 --trace 0

One client runs one op at a time (a closed loop) in this single process.
Each op writes a fresh config file and calls ``diffext.cli.main`` in-process
with ``--json``; no op starts a subprocess.  Every op's report is checked
(see ``workloads.py``).  The ops come in whole rounds, and rounds start
until ``--seconds`` have passed and at least two have run.

Every time reported with ``--trace 0`` is in seconds at the reference
speed of ``speed.py``: the wall time, corrected for how fast the shared
host's CPU ran while it was taken.  The wall times are printed on the
lines before the result.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
ops per second (ops over the summed time inside ``cli.main``), median and
tail latency, the share of the first two rounds' ops whose output passed
its check, peak RSS of this process, and ``setup_s``: the median, over
fresh interpreters, of ``import diffext`` plus building the workload's
derived fields and minimal p-polynomials.

With ``--trace 1`` the run takes the first round of the workload's ops (a
fixed list, so counts repeat exactly for a seed), runs it once untraced and
once with the per-layer tracer of ``tracing.py``, and reports per-layer self
times and counters plus the tracing overhead.  The spans go to
``.perfbench_out/trace-<workload>-seed<n>.json``.

Lines before the last are a readable table of every metric with its unit.
The program is taken from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import speed
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 16
MIN_ROUNDS = 2
TAIL_BEYOND = 10

# Layers each workload is meant to exercise, and counters that must move on
# it; a traced run that records none of them is a broken trace.
EXERCISED = {
    "structure": (
        ("cli", "frontend", "parsing", "dext", "diffpoly", "towers", "linalg", "scalars"),
        ("dext.table_builds", "dext.nucleus_calls", "linalg.rref_calls", "scalars.gcd_calls"),
    ),
    "factor_search": (
        ("cli", "frontend", "parsing", "dext", "diffpoly", "towers", "scalars"),
        ("dext.search_candidates", "diffpoly.v_g_calls", "scalars.gcd_calls"),
    ),
    "arith_suites": (
        ("cli", "frontend", "parsing", "autos", "dext", "diffpoly", "towers", "scalars"),
        ("autos.apply_calls", "diffpoly.mul_calls", "diffpoly.divmod_calls", "towers.delta_calls"),
    ),
}

_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[2])
import speed
with speed.Clock() as clock:
    sys.path.insert(0, sys.argv[1])
    import diffext
    for p, w in json.loads(sys.argv[3]):
        diffext.minimal_p_polynomial(diffext.derived_field(p, w))
print(json.dumps({"setup_s": clock.seconds, "wall_s": clock.wall, "module": diffext.__file__}))
"""


class Outcome(NamedTuple):
    latency: float  # seconds at the reference speed; wall seconds when traced
    wall: float
    ok: bool
    known: bool  # failed with the documented defect
    reason: str


def run_op(cli, op, work: Path, tracer=None, index=0) -> Outcome:
    """Write the op's config, time one in-process CLI call, check its report.

    Untraced calls run under ``speed.Clock``; traced calls are timed by the
    wall clock alone, so that the clock's samples land in no layer's span.
    """
    cfg = work / "op.cfg"
    report_path = work / "op.json"
    cfg.write_text(op.config, encoding="utf-8")
    if report_path.exists():
        report_path.unlink()
    argv = [op.args[0], str(cfg), *op.args[1:], "--json", str(report_path)]
    sink = io.StringIO()
    error = None
    with redirect_stdout(sink), redirect_stderr(sink):
        if tracer is not None:
            tracer.op = index
            tracer.on = True
        clock = speed.Clock() if tracer is None else _WallClock()
        with clock:
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an exception is a failed op, not a crash
                rc, error = None, exc
        if tracer is not None:
            tracer.on = False
    latency, wall = clock.seconds, clock.wall
    if error is not None:
        return Outcome(latency, wall, False, False, "raised %s: %s" % (type(error).__name__, error))
    try:
        report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else {}
        ok, known, reason = op.check(rc, report)
    except Exception as exc:
        ok, known, reason = False, False, "check raised %s: %s" % (type(exc).__name__, exc)
    return Outcome(latency, wall, ok, known, reason)


class _WallClock:
    """Wall time of a block, with the interface of ``speed.Clock``."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = self.seconds = time.perf_counter() - self._t0
        return False


def setup_samples(fields, n):
    """(calibrated, wall) set-up times of n fresh interpreters, each
    importing diffext from src."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(HERE), json.dumps(fields)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(data["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError("set-up imported diffext from %s" % data["module"])
        out.append((data["setup_s"], data["wall_s"]))
    return out


def tail(latencies):
    """(value, percentile, samples above): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum of a short run."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def summarize(outcomes):
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if not o.known]
    return failed, unexpected


def timed_run(workload, cli, work, seconds):
    """Whole rounds of the workload, so that every run has the fixed op mix.

    Rounds start until ``seconds`` have passed and at least MIN_ROUNDS have
    run.  The set-up samples are spread evenly between the ops of the first
    rounds.
    """
    fields = [list(f) for f in workload.fields]
    setup_samples(fields, 1)  # writes the bytecode cache; not counted
    setup = []
    first_rounds = MIN_ROUNDS * workload.round_size
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < first_rounds or len(outcomes) % workload.round_size or time.perf_counter() - start < seconds:
        i = len(outcomes)
        op = workload.op(i)
        outcomes.append(run_op(cli, op, work))
        if not outcomes[-1].ok:
            print("op %d failed: %s: %s" % (i, op.label, outcomes[-1].reason), file=sys.stderr)
        if len(setup) < SETUP_SAMPLES * len(outcomes) // first_rounds:
            setup += setup_samples(fields, 1)
    wall = time.perf_counter() - start
    lat = [o.latency for o in outcomes]
    setup_s = [s for s, _ in setup]
    tail_s, tail_pct, above = tail(lat)
    failed, unexpected = summarize(outcomes)
    first_failed, _ = summarize(outcomes[:first_rounds])
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "ok_ratio": (1.0 - len(first_failed) / first_rounds, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    walls = [o.wall for o in outcomes]
    notes = [
        "ops: %d in %d rounds of %d, %.1f s of loop wall time, %.1f s inside cli.main"
        % (len(lat), len(lat) // workload.round_size, workload.round_size, wall, sum(walls)),
        "times below are at the reference speed; the host ran at %.2f of it on average;"
        " in wall seconds ops_per_s %.4g, latency_p50_s %.4g, setup_s %.4g"
        % (sum(lat) / sum(walls), len(walls) / sum(walls), statistics.median(walls),
           statistics.median(w for _, w in setup)),
        "latency_tail_s is p%.1f of %d samples, %d above it" % (tail_pct, len(lat), above),
        "failed: %d (%d known defect, %d unexpected); ok_ratio over the first %d ops"
        % (len(failed), len(failed) - len(unexpected), len(unexpected), first_rounds),
        "setup_s: median of %d fresh interpreters spread over the first rounds, least %.4f s, most %.4f s"
        % (len(setup_s), min(setup_s), max(setup_s)),
    ]
    return outcomes, metrics, notes, not unexpected


def traced_run(workload, cli, work, seed):
    ops = [workload.op(i) for i in range(workload.round_size)]
    plain = [run_op(cli, op, work) for op in ops]
    tr = tracing.Tracer()
    tracing.install(tr)
    traced = [run_op(cli, op, work, tr, i) for i, op in enumerate(ops)]
    untraced_s = sum(o.wall for o in plain)
    traced_s = sum(o.wall for o in traced)
    metrics = tracing.per_layer_metrics(tr, traced_s, untraced_s)
    correct = True
    notes = ["ops: first round of %d, %.2f s untraced, %.2f s traced" % (len(ops), untraced_s, traced_s)]
    if [o.ok for o in plain] != [o.ok for o in traced]:
        correct = False
        notes.append("error: tracing changed which ops pass their checks")
    layers, counters = EXERCISED[workload.name]
    silent = [layer for layer in layers if not tr.span_counts[layer]]
    silent += [name for name in counters if not metrics[name][0]]
    if silent:
        correct = False
        notes.append("error: the trace recorded nothing for %s" % ", ".join(silent))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.json" % (workload.name, seed))
    dump = tracing.dump(tr)
    dump["ops"] = [op.label for op in ops]
    path.write_text(json.dumps(dump), encoding="utf-8")
    notes.append("spans: %d stored, %d dropped, written to %s" % (len(tr.spans), tr.dropped, path.relative_to(ROOT)))
    _, unexpected = summarize(traced)
    return traced, metrics, notes, correct and not unexpected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "diffext" / "__init__.py").is_file():
        print("error: no diffext sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diffext
    import diffext.cli

    if not Path(diffext.__file__).resolve().is_relative_to(SRC.resolve()):
        print("error: imported diffext from %s, not %s" % (diffext.__file__, SRC), file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, diffext)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, os.getpid()), dir=work_root))
    try:
        if args.trace:
            outcomes, metrics, notes, correct = traced_run(workload, diffext.cli, work, args.seed)
        else:
            outcomes, metrics, notes, correct = timed_run(workload, diffext.cli, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, _ = summarize(outcomes)
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, unit))
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
