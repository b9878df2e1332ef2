"""The first recorded rounds of the benchmark's seed-0 jobs, run and checked
the way `perfbench/run.py` does it: every job's output passes its
closed-form check and its result digest matches the one recorded in
`perfbench/digests.json`, so a change to any `result` payload fails here,
not only in a full benchmark run.  The warm-up jobs of a few seeds are run
and checked too."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (needs PERFBENCH on sys.path)
import workloads  # noqa: E402

# Five rounds of game-certify and search are 100 and 160 jobs, 2-3 s each
# on a 2-core host; one boxcount round already takes about 2 s.
ROUNDS = {"game-certify": 5, "search": 5, "boxcount": 1}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_rounds_match_the_recorded_digests(workload, tmp_path, monkeypatch):
    # game jobs write their transcript to a relative path: keep it out of the checkout
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(workloads.TRANSCRIPT), exist_ok=True)
    with open(run.DIGESTS) as fh:
        recorded = json.load(fh)[workload]
    cli = run.import_program()
    jobs = workloads.make_jobs(workload, run.DEFAULT_SEED, ROUNDS[workload])
    got = []
    for job in jobs:
        _latency, outputs, error = run.run_job(cli, job)
        assert error is None, f"{job.kind}: {error}"
        got.append(run.check_job(job, outputs))
    assert got == recorded[: len(jobs)]


@pytest.mark.parametrize("workload", ["game-certify", "search"])
def test_warmup_jobs_pass_their_checks(workload, tmp_path, monkeypatch):
    """The warm-up jobs come from round -1, which no timed round and no
    recorded digest covers: seeds 0-4 of them must pass their checks."""
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(workloads.TRANSCRIPT), exist_ok=True)
    cli = run.import_program()
    for seed in range(5):
        for job in workloads.warmup_jobs(workload, seed):
            _latency, outputs, error = run.run_job(cli, job)
            assert error is None, f"seed {seed}, {job.kind}: {error}"
            run.check_job(job, outputs)
