"""Record the class counts of every render the orbit workload can produce.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run at a commit whose renderer is trusted; the orbit check then requires
every later commit to reproduce these counts exactly.  Writes
perfbench/digests.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import worker
import workloads


def main():
    root = os.getcwd()
    cli_module, _ = worker._import_cli(root)
    workdir = os.path.join(root, ".perfbench_run", "digests")
    os.makedirs(workdir, exist_ok=True)
    counts, seconds = {}, {}
    for argv in workloads.orbit_menu(workdir):
        dt, rc, text = worker.run_job(cli_module, {"argv": argv})
        if rc != 0:
            raise SystemExit(f"render failed: {argv}: {text}")
        key = workloads.digest_key(argv)
        counts[key] = json.loads(text)["counts"]
        seconds[key] = round(dt, 4)
        print(f"{dt:7.3f} s  {key}", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    with open(os.path.join(workloads.HERE, "digests.json"), "w") as fh:
        json.dump({"recorded_at_commit": commit or "unknown", "counts": counts,
                   "seconds_when_recorded": seconds}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
