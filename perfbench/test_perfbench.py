"""The benchmark's own tests: job generation, output checks, percentiles and
the tracer's span accounting."""

import copy
import fractions
import json
import math
import os

import threading

import pytest

import checks
import run
import tracer
import workloads


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv(workload):
    first = workloads.make_jobs(workload, 7, 2)
    assert first == workloads.make_jobs(workload, 7, 2)
    assert [j.steps for j in first] != [j.steps for j in workloads.make_jobs(workload, 8, 2)]
    # warm-up jobs come from a round the timed loop never reaches
    warm = workloads.warmup_jobs(workload, 7)
    assert [j.kind for j in warm] == [kind for kind, _n, _make in workloads.WORKLOADS[workload]]
    warm_round = workloads.make_round(workload, 7, workloads.WARMUP_ROUND)
    assert all(job in warm_round for job in warm)
    if workload != "boxcount":  # box counts draw from a small fixed grid
        assert not {j.steps for j in warm} & {j.steps for j in first}


def test_rounds_have_the_declared_mix():
    for workload, kinds in workloads.WORKLOADS.items():
        jobs = workloads.make_round(workload, 3, 0)
        assert len(jobs) == workloads.round_size(workload)
        for kind, count, _make in kinds:
            assert sum(j.kind == kind for j in jobs) == count


def _corrupt(results, path, value):
    out = copy.deepcopy(results)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return out


# check family -> (cheapest kind, corruptions as (path into results, new value))
CORRUPTIONS = {
    "game": ("game-f2-21-avoid", [
        ((1, "K_exponent"), lambda v: v + 1),
        ((1, "witnesses_checked"), lambda v: v - 1),
        ((1, "min_margin_exponent"), 0),
        ((0, "forfeit"), {"player": "white", "index": 3}),
        ((0, "rounds"), 23),
    ]),
    "badness_rational": ("badness-rational-d6", [
        ((0, "K_exp"), lambda v: v - 1),
        ((0, "witness", "dist_exp"), lambda v: v + 1),
        ((0, "witness", "q"), ["X^9"]),
    ]),
    "badness_series": ("badness-series-21", [
        ((0, "K_exp"), lambda v: (v or 0) + 1),
        ((0, "witness", "score_exp"), lambda v: (v or 0) - 1),
    ]),
    "dirichlet": ("dirichlet-21", [
        ((0, "witness", "dist_exp"), lambda v: (v or -30) + 1),
        ((0, "c0"), lambda v: v + 100),
        ((0, "c0"), lambda v: v - 1),  # a smaller c0 must not loosen the bound
        ((0, "witness", "q"), ["0", "0"]),
    ]),
    "duality": ("duality-f2", [
        ((0, "lambda_m_sigma_n1_exp"), 1),
        ((0, "pair_product_exps", 0), lambda v: v + 1),
        ((0, "sigmas"), lambda v: v[:-1]),
    ]),
    "cf": ("cf-rational", [
        ((0, "quotients"), lambda v: v + ["X"]),
        ((0, "exact"), False),
        ((0, "max_partial_degree"), lambda v: v + 1),
    ]),
    "boxcount": ("box-f2-12-generic", [
        ((0, "rows", 1, "cells_surviving"), lambda v: v * 100),
        ((0, "rows", 2, "cells_surviving"), 0),
        ((0, "rows", 0, "cells_total"), lambda v: v + 1),
        ((0, "rows"), lambda v: v[:-1]),
    ]),
}


def test_every_check_family_has_corruptions():
    assert set(CORRUPTIONS) == set(checks.CHECKS)
    kinds = {job.check for w in workloads.WORKLOADS for job in workloads.make_round(w, 0, 0)}
    assert kinds == set(checks.CHECKS)


@pytest.mark.parametrize("family", sorted(CORRUPTIONS))
def test_checker_rejects_corrupted_output(family, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    kind, corruptions = CORRUPTIONS[family]
    cli = run.import_program()
    job = next(j for w in workloads.WORKLOADS for j in workloads.make_round(w, 0, 0)
               if j.kind == kind)
    assert job.check == family
    os.makedirs(os.path.dirname(workloads.TRANSCRIPT), exist_ok=True)
    _latency, outputs, error = run.run_job(cli, job)
    assert error is None
    run.check_job(job, outputs)  # the real output passes
    results = [json.loads(text)["result"] for text in outputs]
    for path, value in corruptions:
        bad = _corrupt(results, path, value)
        texts = [json.dumps({"result": r}) for r in bad]
        with pytest.raises(checks.CheckFailed):
            run.check_job(job, texts)
    with pytest.raises(checks.CheckFailed):
        run.check_job(job, ["not json"] * len(outputs))


def test_digest_ignores_stats_only():
    base = [{"K_exp": -2, "witness": {"q": ["1"]}}]
    with_stats = [dict(base[0], stats={"vectors": 12})]
    assert checks.digest(base) == checks.digest(with_stats)
    assert checks.digest(base) != checks.digest([{"K_exp": -3, "witness": {"q": ["1"]}}])


def test_percentile_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    # with 101 samples p90 still leaves ten beyond it
    values = list(range(1, 102))
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    # a failed job counts as missing every latency limit
    assert run.percentile([1.0, 2.0, math.inf], 90) == math.inf
    assert run.percentile([5.0], 90) == 5.0


class InstantProgram:
    """Stands in for lsdioph.cli: every command succeeds at once."""

    @staticmethod
    def main(argv):
        print("{}")
        return 0


def test_loop_runs_at_least_min_jobs():
    jobs = workloads.make_jobs("search", 0, 1)
    records = run.timed_loop(InstantProgram, jobs, "search", 0, seconds=0.0)
    assert len(records) == run.MIN_JOBS
    assert all(r.error is None and r.reference > 0 for r in records)


def test_job_fails_if_it_leaves_work_running():
    release = threading.Event()
    started = []

    class LeavesThread(InstantProgram):
        @staticmethod
        def main(argv):
            started.append(threading.Thread(target=release.wait))
            started[-1].start()
            return 0

    job = workloads.make_round("search", 0, 0)[0]
    try:
        _latency, _outputs, error = run.run_job(LeavesThread, job)
    finally:
        release.set()
        started[-1].join()
    assert "1 thread(s)" in error
    assert run.run_job(InstantProgram, job)[2] is None


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_on_synthetic_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    a_inner = tr.wrap(lambda: clock.tick(3), "A", "a_inner")

    def b_body():
        clock.tick(2)
        a_inner()  # re-enters A from B: a span of its own
        clock.tick(1)

    b = tr.wrap(b_body, "B", "b")
    a_same = tr.wrap(lambda: clock.tick(5), "A", "a_same")

    def a_body():
        clock.tick(1)
        a_same()  # A calling A: no new span
        b()
        clock.tick(4)

    tr.wrap(a_body, "A", "a_outer")()
    assert tr.self_s["A"] == 1 + 5 + 3 + 4
    assert tr.self_s["B"] == 2 + 1
    assert sum(tr.self_s.values()) == 16
    assert tr.edges[(tracer.ROOT, "A")] == [1, 16, 10]
    assert tr.edges[("A", "B")] == [1, 6, 3]
    assert tr.edges[("B", "A")] == [1, 3, 3]
    assert tr.inclusive_s["A"] == 16 and tr.inclusive_s["B"] == 6  # outermost spans only
    assert len(tr.stack) == 1


def test_tags_count_outermost_calls_and_vectors():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def enumerate_vectors(n):
        for i in range(n):
            clock.tick(1)
            yield i

    vectors = tr.wrap(enumerate_vectors, "approx", "iter_height_class")
    avoid = tr.wrap(lambda: sum(vectors(3)), "strategy", "AvoidanceWhite.propose")

    def literal_body():
        clock.tick(10)
        return avoid()  # LiteralWhite delegating to AvoidanceWhite

    literal = tr.wrap(literal_body, "strategy", "LiteralWhite.propose")
    certify = tr.wrap(lambda: list(vectors(2)), "strategy", "certify_bad")
    assert literal() == 3
    assert certify() == [0, 1]
    m = tr.metrics()
    assert m["strategy.white_moves"] == 1
    assert m["strategy.white_move_s"] == 13
    assert m["strategy.certify_s"] == 2
    assert m["strategy.danger_scan_vectors"] == 3
    assert m["strategy.certify_vectors"] == 2
    assert m["approx.self_s"] == 5 and m["strategy.self_s"] == 10


def test_install_counts_and_restores(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    cli = run.import_program()
    new_before = fractions.Fraction.__dict__["__new__"]
    main_before = cli.main
    job = workloads.make_round("search", 0, 0)[0]
    tr = tracer.Tracer()
    tr.install()
    try:
        _latency, outputs, error = run.run_job(cli, job)
    finally:
        tr.uninstall()
    assert error is None
    run.check_job(job, outputs)
    assert tr.counts["cli.commands"] == 1
    assert tr.self_s["cli"] > 0
    assert fractions.Fraction.__dict__["__new__"] is new_before
    assert cli.main is main_before
