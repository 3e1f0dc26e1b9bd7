"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/report.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/report.py RUNS.jsonl            # summary of one set

The files are what ``series.py --out`` writes.  Runs are paired by workload
and seed.  For each workload and end-to-end metric the report prints each
side's median and quartiles, the share of pairs the change wins (ties count
for neither) and a verdict:

- improved: the change wins at least 9/10 of the pairs and the medians differ,
  in the change's favour, by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread (quartile distance over median) is
  wider than the bound, and not every change run beats every parent run;
- no worse: otherwise.

fail_frac is compared as a count: a change that fails more jobs than the
parent is worse whatever its timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as fh:
        return [json.loads(ln) for ln in fh if ln.strip() and json.loads(ln).get("trace") == 0]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pairs(parent, change, workload, name):
    """Values paired by seed, in run order within a seed."""
    by_seed = {}
    for side, runs in ((0, parent), (1, change)):
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], ([], []))[side].append(r["detail"][name])
    out = []
    for seed in sorted(by_seed):
        p, c = by_seed[seed]
        out += list(zip(p, c))
    return out


def verdict(p_vals, c_vals, paired, better, bound):
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    win_frac = wins / len(paired) if paired else 0.0
    gain = sign * (c_med - p_med)
    if paired and win_frac >= 0.9 and gain > (p_q3 - p_q1):
        return "improved", win_frac
    worse_by = -gain / p_med if p_med else 0.0
    if worse_by > bound:
        return "worse", win_frac
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if spread > bound and not all_better:
        return "unresolved", win_frac
    return "no worse", win_frac


def _fail_frac(runs):
    return sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"] for r in runs)


def _failed(runs):
    failed = sum(r["result"]["failed"] for r in runs)
    return f"{failed} of {sum(r['result']['attempted'] for r in runs)} jobs failed"


def fmt_q(values):
    q1, med, q3 = quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent = load(args.parent)
    change = load(args.change) if args.change else None
    workloads = list(dict.fromkeys(r["workload"] for r in parent))
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w]
        print(f"\n== {w}: parent {len(p_runs)} runs" + (
            f", change {sum(r['workload'] == w for r in change)} runs" if change else ""))
        for m in metrics:
            name, unit = m["name"], m["unit"]
            p_vals = [r["detail"][name] for r in p_runs]
            line = f"{name:12} {unit:7} parent {fmt_q(p_vals)}"
            if change:
                c_vals = [r["detail"][name] for r in change if r["workload"] == w]
                if not c_vals:
                    print(line + "  change: no runs")
                    continue
                paired = pairs(parent, change, w, name)
                v, win = verdict(p_vals, c_vals, paired, m["better"], m["bound"])
                line += (f"  change {fmt_q(c_vals)}  wins {win:4.0%} of {len(paired)}"
                         f"  bound {m['bound']:.0%}: {v}")
            else:
                q1, med, q3 = quartiles(p_vals)
                line += f"  spread {(q3 - q1) / med:6.2%} (bound {m['bound']:.0%})"
            print(line)
        line = f"{'fail_frac':12} {'ratio':7} parent {_failed(p_runs)}"
        if change:
            c_runs = [r for r in change if r["workload"] == w]
            worse = _fail_frac(c_runs) > _fail_frac(p_runs)
            line += f"  change {_failed(c_runs)}: {'worse' if worse else 'no worse'}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
