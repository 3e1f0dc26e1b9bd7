"""Run workloads over several seeds and print every end-to-end metric.

    python3 perfbench/series.py                      # all four workloads, seed 1
    python3 perfbench/series.py --seeds 1-10 --out runs.jsonl
    python3 perfbench/series.py --workloads hcorr --seeds 1-5 --trace 1

Runs perfbench/run.py once per (workload, seed), one at a time, from the
current directory (the root of a rittforge checkout).  With --out, each run
is appended to a JSON-lines file that report.py can compare.  The table
gives, per workload and metric, the median over seeds and the spread: the
distance between the first and third quartile as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
UNITS = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
         "peak_rss_mb": "MB", "fail_frac": "ratio"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    for ln in lines[:-1]:
        print("  " + ln[:300])
    result = json.loads(lines[-1])
    path = os.path.join(".perfbench_run", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        detail = json.load(fh)
    return {"workload": workload, "seed": seed, "trace": trace, "result": result, "detail": detail}


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run to this JSON-lines file")
    args = ap.parse_args()

    records = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            rec = run_one(workload, seed, args.seconds, args.trace)
            records.append(rec)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    if args.trace:
        return 0
    print(f"\n{'workload':8} {'metric':12} {'median':>12} {'unit':7} {'spread':>7}  runs")
    for workload in args.workloads.split(","):
        recs = [r for r in records if r["workload"] == workload]
        for name, unit in UNITS.items():
            values = [r["detail"][name] for r in recs]
            print(f"{workload:8} {name:12} {statistics.median(values):12.5g} {unit:7} "
                  f"{100 * spread(values):6.2f}%  {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
