#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ringsys CLI.

    python3 bench/run.py --workload field_decide --seed 1 --seconds 40 --trace 0

One client in one process runs a closed loop over the workload's
operations: in-process ``ringsys.cli.main([...])`` calls on system files
written by ``gen.py``, stdout and stderr captured.  The operation list
is run in whole passes, as many as fit in ``--seconds`` (at least one).
Latencies are scaled to an idle machine's speed by timing a fixed
reference computation before every operation, and each operation keeps
its fastest scaled latency (see ``scaled_latencies``).  Every result is
checked against its known answer after the timing; a wrong answer fails
the run.  Each operation runs under a per-operation cap; an operation
over it is a timeout and counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of ``tracing.py``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric by name and unit.  Generated inputs,
stdout digests and span traces go under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import gen
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

CAP_S = 30.0  # per-operation cap; the slowest operation takes under 1 s
SETUP_LAUNCHES = 15
# Median time of reference_work() on an idle 2.0 GHz Xeon VM, Python 3.11.
REFERENCE_S = 0.0023
METRIC_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "small_ops_per_s": "ops/s",
    "mid_ops_per_s": "ops/s",
    "large_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def import_cli():
    """Import ringsys.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "ringsys" / "cli.py").is_file():
        sys.exit(f"bench: no ringsys sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ringsys.cli

    if Path(ringsys.cli.__file__).resolve().parent != (SRC / "ringsys").resolve():
        sys.exit(f"bench: imported ringsys from {ringsys.cli.__file__}, not {SRC}")
    return ringsys.cli


def reference_work():
    """Fixed pure-Python work that no change to ringsys can speed up; its
    time measures how fast the shared machine runs at the moment."""
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    frac = Fraction(1)
    for i in range(1, 300):
        frac += Fraction(1, i % 17 + 1)
    return acc, frac


def measure_setup() -> float:
    """Time to start an interpreter, import ringsys.cli and build its
    parser: the median over several launches, after one that warms the
    bytecode cache, scaled to the idle machine's speed like an operation."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ringsys.cli; ringsys.cli.build_parser()"
    cmd = [sys.executable, "-I", "-c", code]
    subprocess.run(cmd, check=True)
    launches, reference = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        reference_work()
        reference.append(time.perf_counter() - start)
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        launches.append(time.perf_counter() - start)
    return statistics.median(launches) * REFERENCE_S / statistics.median(reference)


def run_op(cli, argv):
    """(seconds, exit code or failure label, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except OpTimeout:
        rc = "timeout"
    except (Exception, SystemExit) as exc:
        rc = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, rc, out.getvalue(), err.getvalue()


def run_pass(cli, ops, indir, tracer=None):
    """Run every operation once, each after one reference_work().  Returns
    (reference times, op results)."""
    results, reference = [], []
    for op in ops:
        start = time.perf_counter()
        reference_work()
        reference.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = op["id"]
        argv = [str(indir / a) if a.endswith(".json") else a for a in op["args"]]
        results.append(run_op(cli, argv))
    return reference, results


def judge(ops, passes):
    """Check every result against its known answer.  Returns (failed
    count, wrong-answer messages); timeouts are failed but not wrong."""
    failed, wrong = 0, []
    for _, results in passes:
        for op, (_, rc, out, err) in zip(ops, results):
            why = None if rc == "timeout" else check.problem(op, rc, out, err)
            if why:
                wrong.append(f"op {op['id']} ({' '.join(op['args'])}): {why}")
            failed += rc == "timeout" or why is not None
    return failed, wrong


def scaled_latencies(ops, passes):
    """Each operation's latency at the speed of an idle machine.

    The machine's speed around an operation is REFERENCE_S over the
    median time of the five reference_work() calls nearest to it, so 1.0
    means idle and 0.7 running 30% slow; a latency is multiplied by that
    speed, and an operation keeps its fastest scaled latency over the
    passes."""
    best = [float("inf")] * len(ops)
    for reference, results in passes:
        for i, result in enumerate(results):
            speed = REFERENCE_S / statistics.median(reference[max(0, i - 2) : i + 3])
            best[i] = min(best[i], speed * result[0])
    return best


def end_to_end(ops, passes, setup_s):
    best = scaled_latencies(ops, passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_p90_ms": 1000 * statistics.quantiles(best, n=10, method="inclusive")[-1],
    }
    for rung in gen.RUNGS:
        spent = [t for op, t in zip(ops, best) if op["rung"] == rung]
        metrics[f"{rung}_ops_per_s"] = len(spent) / sum(spent)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: {"value": v, "unit": METRIC_UNITS[k]} for k, v in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="ringsys benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(gen.BUILDERS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_cli()
    signal.signal(signal.SIGALRM, _on_alarm)
    tag = f"{args.workload}-{args.seed}"
    indir = OUT / "inputs" / tag
    shutil.rmtree(indir, ignore_errors=True)
    ops = gen.generate(args.workload, args.seed, indir)

    if args.trace:
        untraced = run_pass(cli, ops, indir)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, ops, indir, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        metrics = tracer.metrics(sum(scaled_latencies(ops, [traced])) / sum(scaled_latencies(ops, [untraced])))
        tracer.write_spans(OUT / f"trace-{tag}.jsonl")
    else:
        setup_s = measure_setup()
        start = time.perf_counter()
        passes = [run_pass(cli, ops, indir)]
        for _ in range(int(args.seconds // (time.perf_counter() - start)) - 1):
            passes.append(run_pass(cli, ops, indir))
        metrics = end_to_end(ops, passes, setup_s)

    failed, wrong = judge(ops, passes)
    digests = [hashlib.sha256(r[2].encode()).hexdigest() for r in passes[0][1]]
    attempted = len(ops) * len(passes)
    timeouts = sorted({op["id"] for _, results in passes for op, r in zip(ops, results) if r[1] == "timeout"})
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    (OUT / f"digests-{tag}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "stdout_sha256": combined, "ops": digests}, indent=1) + "\n",
        encoding="utf-8",
    )
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops x {len(passes)} passes, stdout sha256 {combined}")
    raw = sum(min(results[i][0] for _, results in passes) for i in range(len(ops)))
    speeds = " ".join(f"{REFERENCE_S / statistics.median(reference):.3f}" for reference, _ in passes)
    print(f"machine speed per pass {speeds}; unscaled sum of fastest latencies {raw} s")
    if timeouts:
        print(f"timeouts (over the {CAP_S:g} s cap): ops {timeouts}")
    print(f"failed_ratio {failed / attempted} fraction")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
