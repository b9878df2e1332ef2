"""lsdioph benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload game-certify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36     # every workload, one table

One client in one process drives `lsdioph.cli.main(argv)` in-process and
sends the next job only when the previous one has ended.  The workload seed
is an argument; the program sees only the generated argv.  Every job's
output is checked after the timed phase (checks.py), and for the default
seed its result digests are compared with the ones recorded in
digests.json.

`--trace 0` reports the end-to-end metrics, measured untraced.  `--trace 1`
runs a fixed job list twice, untraced and then traced (tracer.py), and
reports the per-layer metrics; its counts depend only on the seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without the program's sources next to this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402  (needs HERE on sys.path)
import workloads  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")
# Jobs generated during set-up; the loop extends the list if a fast program
# runs out of them.
SETUP_ROUNDS = 20
# Rounds in the fixed job list of a traced run, sized to about 5-7 s untraced.
TRACE_ROUNDS = {"game-certify": 1, "search": 4, "boxcount": 1}
MIN_JOBS = 100  # so that p90 has ten samples beyond it
SETUP_SAMPLES = 3  # this process plus two probe processes
REF_NOMINAL_S = 0.005  # scaled times read as on a machine running the reference in 5 ms
REF_EVERY_S = 0.5  # job time between two reference samples


class ProgramMissing(Exception):
    pass


def import_program():
    """Import lsdioph from this checkout's src/, and from nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "lsdioph")):
        raise ProgramMissing(f"no lsdioph sources under {SRC}")
    sys.path.insert(0, SRC)
    import lsdioph.cli

    where = os.path.dirname(os.path.abspath(lsdioph.cli.__file__))
    if where != os.path.join(SRC, "lsdioph"):
        raise ProgramMissing(f"lsdioph imported from {where}, not from {SRC}")
    return lsdioph.cli


# --- one job ------------------------------------------------------------------


def run_job(cli, job):
    """Run a job's argv lists in order.  Returns (latency_s, stdouts, error);
    error is None on success, else why the job failed."""
    outputs = []
    error = None
    t0 = time.perf_counter()
    for argv in job.steps:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # any exception out of main() fails the job
            error = f"{argv[0]}: {type(exc).__name__}: {exc}"
            break
        if rc != 0:
            error = f"{argv[0]}: exit {rc}: {err.getvalue().strip()[-300:]}"
            break
        outputs.append(out.getvalue())
    latency = time.perf_counter() - t0
    return latency, outputs, error or leftover_work()


def leftover_work():
    """Why the program left work running after main() returned, or None.
    A thread or child process alive between jobs would slow the reference
    samples and so make every scaled time read faster."""
    threads = threading.active_count() - 1
    children = len(multiprocessing.active_children())
    if threads or children:
        return f"left {threads} thread(s) and {children} child process(es) running"
    return None


def check_job(job, outputs):
    """Check a finished job's stdout; returns its digest or raises CheckFailed."""
    try:
        results = [json.loads(text)["result"] for text in outputs]
    except (ValueError, KeyError, TypeError) as exc:
        raise checks.CheckFailed(f"unreadable output: {exc}") from None
    try:
        checks.CHECKS[job.check](job.expect, results)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise checks.CheckFailed(f"malformed result: {type(exc).__name__}: {exc}") from None
    return checks.digest(results)


# --- statistics ---------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it.  With N values, N - ceil(qN/100) lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# --- set-up -------------------------------------------------------------------


def set_up(workload, seed):
    """Import, job generation and one untimed warm-up job per kind."""
    cli = import_program()
    os.makedirs(os.path.dirname(workloads.TRANSCRIPT), exist_ok=True)
    jobs = workloads.make_jobs(workload, seed, SETUP_ROUNDS)
    failures = []
    for job in workloads.warmup_jobs(workload, seed):
        _lat, outputs, error = run_job(cli, job)
        if error is None:
            try:
                check_job(job, outputs)
            except checks.CheckFailed as exc:
                error = str(exc)
        if error is not None:
            failures.append(f"warm-up {job.kind}: {error}")
    return cli, jobs, failures


def timed_set_up(workload, seed):
    """set_up() plus its reference-normalised duration in seconds."""
    before = reference_sample(5)
    t0 = time.perf_counter()
    cli, jobs, failures = set_up(workload, seed)
    raw = time.perf_counter() - t0
    after = reference_sample(5)
    return cli, jobs, failures, raw * REF_NOMINAL_S / ((before + after) / 2)


def probe_setup(workload, seed):
    """Normalised set-up time of a fresh process running this script's set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# --- machine speed --------------------------------------------------------------
#
# The host's speed changes by up to 2x within seconds (other tenants share
# the cores), which swamps any program change.  So the loop times a fixed
# reference computation between jobs, and each job's latency is scaled by
# REF_NOMINAL_S over the reference time measured around it: times read as
# on a machine that runs the reference in REF_NOMINAL_S.


def reference_work():
    """A fixed pure-Python computation: tuples, dict and int work, the kind
    of work the interpreter does for lsdioph."""
    table = {}
    acc = 0
    for i in range(12000):
        pair = (i & 63, i >> 6)
        table[pair] = table.get(pair, 0) + 1
        acc = (acc * 31 + len(table) + (i ^ acc) % 97) & 0xFFFFFF
    return acc


def reference_sample(repeats=3):
    """Median wall time of the reference computation.  The garbage collector
    is off meanwhile, so the size of the program's heap cannot move it."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


# --- runs ---------------------------------------------------------------------


@dataclass
class Record:
    index: int
    job: workloads.Job
    latency: float  # seconds, as measured
    outputs: list
    error: str | None
    reference: float = 0.0  # reference time around the job

    @property
    def normalised(self):
        return self.latency * REF_NOMINAL_S / self.reference


def timed_loop(cli, jobs, workload, seed, seconds):
    """Closed loop until the jobs have run for `seconds` and at least
    MIN_JOBS jobs have run.  A reference sample is taken after at least
    REF_EVERY_S of job time; each job gets the mean of the samples before
    and after it."""
    records = []
    pending = []
    before = reference_sample()
    busy = since_ref = 0.0
    while busy < seconds or len(records) < MIN_JOBS:
        if len(records) == len(jobs):
            next_round = len(jobs) // workloads.round_size(workload)
            jobs.extend(workloads.make_round(workload, seed, next_round))
        job = jobs[len(records)]
        record = Record(len(records), job, *run_job(cli, job))
        records.append(record)
        pending.append(record)
        busy += record.latency
        since_ref += record.latency
        if since_ref >= REF_EVERY_S or (busy >= seconds and len(records) >= MIN_JOBS):
            after = reference_sample()
            for r in pending:
                r.reference = (before + after) / 2
            before, pending, since_ref = after, [], 0.0
    return records


def check_records(records, workload, seed):
    """Check every record; returns (set of failed indexes, failure messages)."""
    recorded = []
    if seed == DEFAULT_SEED and os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(workload, [])
    failed, messages = set(), []
    for r in records:
        error = r.error
        if error is None:
            try:
                got = check_job(r.job, r.outputs)
                if r.index < len(recorded) and got != recorded[r.index]:
                    raise checks.CheckFailed(f"digest {got} != recorded {recorded[r.index]}")
            except checks.CheckFailed as exc:
                error = str(exc)
        if error is not None:
            failed.add(r.index)
            messages.append(f"job {r.index} ({r.job.kind}): {error}")
    return failed, messages


def end_to_end(workload, seed, seconds):
    cli, jobs, failures, setup_s = timed_set_up(workload, seed)
    setup_samples = [setup_s]
    records = timed_loop(cli, jobs, workload, seed, seconds)
    rss = peak_rss_mb()  # before the probes, which are children too
    setup_samples += [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    failed, messages = check_records(records, workload, seed)
    attempted = len(records)
    passed = attempted - len(failed)
    # a failed job misses every latency limit
    latencies = [math.inf if r.index in failed else r.normalised for r in records]
    raw = [math.inf if r.index in failed else r.latency for r in records]
    metrics = {
        "jobs_per_s": (passed / sum(r.normalised for r in records), "1/s"),
        "job_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "job_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "failed_share": len(failed) / attempted,
        "jobs_beyond_p90": attempted - math.ceil(0.9 * attempted),
        "p50_kind": _kind_at(records, latencies, 50),
        "p90_kind": _kind_at(records, latencies, 90),
        "kind_median_ms": {
            kind: round(statistics.median(lat for r, lat in zip(records, latencies)
                                          if r.job.kind == kind) * 1000, 1)
            for kind in sorted({r.job.kind for r in records})
        },
        "setup_samples_s": setup_samples,
        "raw_jobs_per_s": passed / sum(r.latency for r in records),
        "raw_job_p50_ms": percentile(raw, 50) * 1000,
        "raw_job_p90_ms": percentile(raw, 90) * 1000,
        "reference_ms_median": statistics.median(r.reference for r in records) * 1000,
    }
    return failures + messages, attempted, len(failed), metrics, info


def _kind_at(records, latencies, q):
    """Kind of the job whose latency is the q-th percentile."""
    value = percentile(latencies, q)
    return next(r.job.kind for r, lat in zip(records, latencies) if lat == value)


def traced(workload, seed):
    cli, _jobs, failures = set_up(workload, seed)
    jobs = workloads.make_jobs(workload, seed, TRACE_ROUNDS[workload])
    plain = [run_job(cli, job) for job in jobs]
    untraced_s = sum(lat for lat, _out, _err in plain)

    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        traced_runs = [run_job(cli, job) for job in jobs]
    finally:
        tr.uninstall()
    traced_s = sum(lat for lat, _out, _err in traced_runs)
    layer = tr.metrics()
    layer["trace_overhead"] = traced_s / untraced_s
    tr.write(os.path.join(TRACE_OUT, f"trace-{workload}-{seed}.json"),
             {"workload": workload, "seed": seed, "jobs": len(jobs),
              "untraced_s": untraced_s, "traced_s": traced_s})

    # a job fails if either pass fails
    failed, messages = set(), list(failures)
    for runs in (plain, traced_runs):
        records = [Record(i, job, *result) for i, (job, result) in enumerate(zip(jobs, runs))]
        bad, why = check_records(records, workload, seed)
        failed |= bad
        messages += why
    metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    info = {"untraced_s": untraced_s, "traced_s": traced_s}
    return messages, len(jobs), len(failed), metrics, info


def _unit(name):
    if name == "trace_overhead":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def src_lines():
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


# --- entry points -------------------------------------------------------------


def run_one(args):
    os.chdir(ROOT)  # the generated argv names paths relative to the checkout
    if args.setup_probe:
        print(timed_set_up(args.workload, args.seed)[3])
        return 0
    if args.trace:
        errors, attempted, failed, metrics, info = traced(args.workload, args.seed)
    else:
        errors, attempted, failed, metrics, info = end_to_end(args.workload, args.seed,
                                                              args.seconds)
    for message in errors[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted}  failed {failed}"
          f"  src_lines {src_lines()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    if "failed_share" in info:  # end-to-end, but never in the JSON: it is 0 when all is well
        print(f"  {'failed_share':32s} {info.pop('failed_share'):14.6f} ratio")
    for name, value in info.items():
        print(f"  ({name} {value})")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; prints each table and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
