"""Record the result digests of the default seed's jobs into digests.json.

    python3 perfbench/record_digests.py [--workload search]

Run this only when the benchmark's job list changes: the recorded digests
pin the program's `result` payloads, so re-recording after a program change
would hide a changed result.  Every recorded job must also pass its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import run
import workloads

# Enough jobs for a program several times faster than the one recorded.
RECORDED_JOBS = {"game-certify": 400, "search": 1200, "boxcount": 400}


def record(workload):
    count = RECORDED_JOBS[workload]
    cli = run.import_program()
    os.makedirs(os.path.dirname(workloads.TRANSCRIPT), exist_ok=True)
    rounds = math.ceil(count / workloads.round_size(workload))
    digests = []
    for index, job in enumerate(workloads.make_jobs(workload, run.DEFAULT_SEED, rounds)[:count]):
        _latency, outputs, error = run.run_job(cli, job)
        if error is not None:
            raise SystemExit(f"{workload} job {index} ({job.kind}) failed: {error}")
        digests.append(run.check_job(job, outputs))
    return digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="re-record only this workload (repeatable)")
    args = parser.parse_args()
    os.chdir(run.ROOT)
    out = {}
    if os.path.exists(run.DIGESTS):
        with open(run.DIGESTS) as fh:
            out = json.load(fh)
    for workload in args.workload or list(workloads.WORKLOADS):
        out[workload] = record(workload)
        print(f"{workload}: {len(out[workload])} digests", file=sys.stderr)
    with open(run.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
