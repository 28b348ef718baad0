#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 1-10
    python3 bench/sweep.py --workloads int_invariants --seeds 1-5 --trace 1
    python3 bench/sweep.py --seeds 1001-1010 --label BENCH_after --note "commit abc123"

Runs ``run.py`` once per workload and seed, one after another, with the
run length of ``BENCHMARK.json``.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median beside the metric's bound.  With ``--label`` it
writes every run's result line and stdout digest, plus the summary, to
``bench/results/<label>.json``.

Develop against seeds 1-10.  A performance claim must also hold on the
unseen seeds 1001-1010, which no tuning should ever touch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seed_list, help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", help="write bench/results/<label>.json")
    ap.add_argument("--note", default="", help="free text stored with --label, e.g. the commit")
    args = ap.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    record = {"note": args.note, "machine": f"{platform.processor() or platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
              "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            digest = json.loads((BENCH / "out" / f"digests-{workload}-{seed}.json").read_text(encoding="utf-8"))
            runs.append({"seed": seed, "stdout_sha256": digest["stdout_sha256"], "log": lines[:-1], **result})
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds[m["name"]]
            flag = "" if bound is None or m["name"] == "setup_s" or spread < bound / 3 else "  <-- spread over bound/3"
            print(f"  {workload:15s} {m['name']:40s} median {med:<12.6g} spread {spread:8.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.label:
        out = BENCH / "results" / f"{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
