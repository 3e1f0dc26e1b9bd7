"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ritt --seed 1 --seconds 20 --trace 0

Run from the root of a rittforge checkout; the program is imported from its
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of one traced round.  The
full result, with the job-latency percentile used, sample counts, input
properties and failures, is also written to ``.perfbench_run/results/``.
Exits 2 without a result when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ritt", "hcorr", "orbit", "finite")
WORKDIR = ".perfbench_run"
# set-up is sampled in this many fresh interpreters besides the measuring one
SETUP_PROBES = 4
TIMEOUT_S = 170.0
# one client, one thread: numpy's LAPACK (np.roots in hcorr fiber) included
ENV_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "jobs/s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def _env(root):
    env = dict(os.environ)
    for name in ENV_THREADS:
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(args, env, deadline):
    """Run worker.py; return its final JSON line (or raise RuntimeError)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rittforge", "cli.py")):
        print("perfbench: no src/rittforge here; run from the root of a rittforge checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    env = _env(root)
    workdir = os.path.join(root, WORKDIR)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        # unmeasured: the first import in a checkout compiles bytecode
        _spawn(common + ["--setup-only"], env, deadline)
        probes = [_spawn(common + ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
        setups = [p["setup_s"] for p in probes]
        raw_setups = [p["raw_setup_s"] for p in probes]
        res = _spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    res["setup_samples_s"] = setups
    res["raw_setup_samples_s"] = raw_setups + [res["raw_setup_s"]]
    failed = len(res["failures"])
    attempted = res["attempted"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        res["setup_s"] = statistics.median(setups)
        res["raw_setup_s"] = statistics.median(res["raw_setup_samples_s"])
        res["fail_frac"] = failed / attempted
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    res["failures"] = res["failures"][:20]
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)
    path = os.path.join(workdir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)

    for f in res["failures"]:
        print(f"FAILED job {f['job']} {' '.join(f['argv'])}: {f['error']}")
    if not args.trace:
        print(f"{args.workload} seed {args.seed}: " + ", ".join(
            f"{k} {res[k]:.4g} {u}" for k, u in END_TO_END + (("fail_frac", "ratio"),))
            + f" (tail = p{res['tail_pct']} of {res['distinct_jobs']} jobs, "
              f"{res['jobs_beyond_tail']} beyond, each the median of {res['rounds']} rounds)")
        print("  as measured, host slowdown {:.3g}: ".format(res["slowdown_median"]) + ", ".join(
            f"{k} {res['raw_' + k]:.4g} {u}" for k, u in END_TO_END[:4]))
    else:
        print(f"{args.workload} seed {args.seed}: traced one round, overhead "
              f"{res['per_layer']['trace.overhead'][0]:.3g}x; absent targets: "
              f"{res['notes']['absent_targets'] or 'none'}")
    print("properties: " + json.dumps(res["properties"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
