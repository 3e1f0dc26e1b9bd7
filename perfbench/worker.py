"""One benchmark process: import the program, build the inputs, run the loop.

Started by run.py in a fresh interpreter per run, so peak RSS and import time
belong to this run alone.  Prints one JSON object as its last stdout line.

    worker.py --workload W --seed N --seconds S --trace 0|1 --spawned-at T
    worker.py --workload W --seed N --setup-only --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide, so ``ready_at - spawned_at`` is the
time from a fresh interpreter to the first timed job.

Every time is reported twice: as measured (``raw_*``) and calibrated to the
reference host by ``calibrate`` (the end-to-end metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import workloads

# stop starting rounds after this much wall time, so the run ends within budget
WALL_CAP_S = 110.0
# each job is repeated at least this often in a run
MIN_ROUNDS = 3


def _import_cli(root):
    t0 = time.perf_counter()
    from rittforge import cli

    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"rittforge was imported from {cli.__file__}, not from {src}")
    return cli, import_s


def run_job(cli_module, job):
    """(seconds, exit code, captured stdout) of one in-process CLI call."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_module.main(job["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        rc = f"raised {exc!r}"
    return time.perf_counter() - t0, rc, buf.getvalue()


# a job's slowdown is the median of the kernel times this many samples around it
SMOOTH = 7


def run_round(cli_module, jobs, failures, on_job=None):
    """(latencies, slowdowns) of one pass over the job list.

    The calibration kernel runs right before and right after every job; a
    job's slowdown is the median of the kernel times nearest to it, which
    follows the host's speed over seconds without the noise of one kernel
    run.  Checks are not timed.
    """
    lat, kernel = [], []
    for i, job in enumerate(jobs):
        if on_job:
            on_job(i)
        kernel.append(calibrate.kernel_s())
        dt, rc, text = run_job(cli_module, job)
        kernel.append(calibrate.kernel_s())
        lat.append(dt)
        err = workloads.check(job, rc, text)
        if err is not None:
            failures.append({"job": i, "argv": job["argv"][:2], "error": err})
    slow = [statistics.median(kernel[max(0, 2 * i + 1 - SMOOTH):2 * i + 1 + SMOOTH])
            / calibrate.REFERENCE_S for i in range(len(jobs))]
    return lat, slow


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timed_loop(cli_module, jobs, seconds):
    """Whole rounds until `seconds` of job time and MIN_ROUNDS rounds are done."""
    rounds, failures = [], []
    wall0 = time.monotonic()
    while True:
        rounds.append(run_round(cli_module, jobs, failures))
        if sum(sum(lat) for lat, _ in rounds) >= seconds and len(rounds) >= MIN_ROUNDS:
            break
        if time.monotonic() - wall0 > WALL_CAP_S:
            break
    return rounds, failures


def loop_metrics(rounds, pct):
    """End-to-end figures of a timed loop.

    Every round runs the same deterministic jobs.  A job's latency is the
    median over rounds of its calibrated time (measured time over the
    slowdown at that moment); the rate and the percentiles are taken over
    those per-job latencies.  The same figures from measured times are kept
    as ``raw_*``.
    """
    n = len(rounds[0][0])
    cal = [statistics.median(lat[i] / slow[i] for lat, slow in rounds) for i in range(n)]
    raw = [statistics.median(lat[i] for lat, _ in rounds) for i in range(n)]
    out = {"tail_pct": pct, "distinct_jobs": n, "rounds": len(rounds),
           "round_s": [sum(lat) for lat, _ in rounds],
           "slowdown_median": statistics.median(v for _, slow in rounds for v in slow)}
    for prefix, per_job in (("", cal), ("raw_", raw)):
        ordered = sorted(per_job)
        out[prefix + "jobs_per_s"] = n / sum(per_job)
        out[prefix + "job_p50_ms"] = 1000 * percentile(ordered, 50)
        out[prefix + "job_tail_ms"] = 1000 * percentile(ordered, pct)
        out[prefix + "job_ms"] = [1000 * v for v in per_job]
    out["jobs_beyond_tail"] = sum(1 for v in cal if 1000 * v > out["job_tail_ms"])
    return out


def traced_round(cli_module, jobs, workdir, workload, seed):
    """Per-layer metrics of one traced round.

    The round first runs twice untraced: once to warm the process up, once
    to time it.  The tracing overhead is the traced time over the second.
    """
    import tracer as T

    failures = []
    run_round(cli_module, jobs, failures)
    plain_s = sum(run_round(cli_module, jobs, failures)[0])
    tr = T.Tracer()
    tr.install(T.targets(tr))

    def on_job(i):
        tr.job_id = i

    traced_s = sum(run_round(cli_module, jobs, failures, on_job)[0])
    metrics = T.per_layer(tr)
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    os.makedirs(os.path.join(workdir, "trace"), exist_ok=True)
    path = os.path.join(workdir, "trace", f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job", "id"],
                             "dropped": tr.dropped_spans}) + "\n")
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    notes = {"absent_targets": tr.absent, "spans_file": path, "spans": len(tr.spans),
             "hook_s": tr.hook_s, "untraced_round_s": plain_s, "traced_round_s": traced_s}
    return 3 * len(jobs), failures, metrics, notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    root = os.getcwd()
    cli_module, import_s = _import_cli(root)
    jobs = workloads.make_round(args.workload, args.seed, args.workdir)
    ready_at = time.monotonic()
    slow = calibrate.slowdown()
    out = {"raw_setup_s": ready_at - args.spawned_at, "setup_slowdown": slow,
           "setup_s": (ready_at - args.spawned_at) / slow, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    os.makedirs(args.workdir, exist_ok=True)
    out["properties"] = workloads.properties(args.workload, jobs)
    if args.trace:
        attempted, failures, metrics, notes = traced_round(
            cli_module, workloads.make_prelude(args.workload, args.workdir) + jobs,
            args.workdir, args.workload, args.seed)
        metrics["cli.import_s"] = (import_s, "s")
        out.update(attempted=attempted, failures=failures, per_layer=metrics, notes=notes)
    else:
        prelude = workloads.make_prelude(args.workload, args.workdir)
        pre_failures = []
        run_round(cli_module, prelude, pre_failures)
        rounds, failures = timed_loop(cli_module, jobs, args.seconds)
        failures = pre_failures + failures
        out.update(loop_metrics(rounds, workloads.tail_pct(args.workload)))
        out["job_labels"] = [workloads.label(job) for job in jobs]
        out.update(attempted=len(prelude) + sum(len(lat) for lat, _ in rounds), failures=failures)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
