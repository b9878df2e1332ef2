"""No state survives ``main()``: after one warm-up call per command, about
30 game-certify and 30 search argv of the benchmark run in-process and
leave traced memory within 64 KB of where it started.  A cache shared
across calls would speed up the benchmark's in-process loop without
helping a command-line user (``perfbench/NOTES.md``), and memory kept per
call would grow the benchmark's ``peak_rss_mb`` with its job count."""

import contextlib
import gc
import io
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402  (needs PERFBENCH on sys.path)

from lsdioph.cli import main  # noqa: E402


def _run(argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) == 0, argv


def test_no_state_survives_main(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # game jobs write their transcript to a relative path
    os.makedirs(os.path.dirname(workloads.TRANSCRIPT))
    warmup = [argv for w in ("game-certify", "search")
              for job in workloads.warmup_jobs(w, 0) for argv in job.steps]
    game = [argv for job in workloads.make_jobs("game-certify", 0, 1)[:15] for argv in job.steps]
    search = [argv for job in workloads.make_jobs("search", 0, 1)[:30] for argv in job.steps]
    # traced from the warm-up on, so that what a later call only replaces,
    # such as the interpreter's attribute-name cache, is not counted twice
    tracemalloc.start()
    try:
        _run(warmup)
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        _run(game + search)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert len(game) == 30 and len(search) == 30
    assert grown < 64 * 1024, f"{grown} bytes kept across {len(game) + len(search)} calls"
