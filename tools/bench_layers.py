"""Per-layer timings of the game path on fixed inputs, written as a BENCH file.

    python3 tools/bench_layers.py --out BENCH_22.json
    python3 tools/bench_layers.py --games 1 --rounds 2 --repeats 1 --long-rounds 0 \
        --measure-exp 0 --out b.json

Each row times one layer on inputs fixed by the arguments: the transcripts
of ``--games`` F2 games (white-avoid, cap 5, seeds 1, 2, ...) and one 2^2
game, whose centres carry tuple coefficients, all of ``--rounds`` rounds.

- ``series.parse_series`` / ``series.format_series``: every centre entry of
  every record, one call each;
- ``game.validate_move``: every move of the transcripts;
- ``strategy.active_dangers``: White's danger scan before each of its
  moves, a fresh white-avoid White per transcript fed its balls one by one
  as ``game.play`` does;
- ``linalg.FqEchelon.add``: the rows that scan adds, recorded once and
  added again to fresh echelons (``calls`` counts them, so it moves when
  the scan adds fewer rows);
- ``game.play``, ``game.to_jsonl``, ``game.from_jsonl``: whole transcripts;
- ``cli.game_certify``: one 24-round ``game run`` plus ``certify`` through
  ``lsdioph.cli.main``, as in the benchmark's game job;
- ``cli.game_run_long`` / ``cli.certify_long``: the same two commands at
  ``--long-rounds`` rounds (skipped at 0);
- ``cli.measure_digits``: ``measure`` of the diagonal 3x3 F2 matrix with
  entries X^e, e = ``--measure-exp`` (skipped at 0), whose exact measure
  2^-3e is printed in full: 903,090 digits at the default 10^6.

A row is the median over ``--repeats`` runs of its scaled wall time.  As
perfbench scales job latencies, each run is scaled to read as on a machine
that runs perfbench's pure-Python reference (``perfbench/run.py``,
``reference_work``) in 5 ms, the reference being sampled just before and
after the run.  The raw median is kept beside it, and the file records the
``src/`` line count.  Only public
functions are called, so the script runs on older commits too.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lsdioph.cli import main as cli_main  # noqa: E402
from lsdioph.game import (  # noqa: E402
    GameParams,
    GameTranscript,
    RandomBlack,
    StopRule,
    play,
    unit_ball,
    validate_move,
)
from lsdioph.linalg import FqEchelon  # noqa: E402
from lsdioph.series import format_series, parse_field, parse_series  # noqa: E402
from lsdioph.strategy import StrategyConfig, make_white  # noqa: E402


def _perfbench():
    """perfbench/run.py, loaded by path: its reference and line count."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _games(count: int):
    """(field, cap, seed) of the fixed games."""
    return [("2", 5, seed) for seed in range(1, count + 1)] + [("2^2", 2, 1)]


def _play(field: str, cap: int, seed: int, rounds: int) -> GameTranscript:
    spec = parse_field(field)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), spec)
    white = make_white("white-avoid", StrategyConfig(spec, 1, 1, height_cap_exp=cap))
    return play(white, RandomBlack(seed), unit_ball(spec, 1, 1), params, StopRule(max_rounds=rounds))


def _scan(fixed, transcripts) -> None:
    """White's danger scans over the transcripts, as ``_play`` runs them."""
    for (_field, cap, _seed), t in zip(fixed, transcripts):
        white = make_white("white-avoid", StrategyConfig(t.params.spec, 1, 1, height_cap_exp=cap))
        grown = GameTranscript(t.params)
        for i, ball in enumerate(t.balls[:-1]):
            grown.balls.append(ball)
            if i % 2 == 0:  # White moves after each Black ball
                white.active_dangers(grown)


def _scan_rows(fixed, transcripts):
    """The rows the scans add, as (echelon index, row), and per echelon its
    (spec, nvars)."""
    rows, echelons, add = [], {}, FqEchelon.add

    def record(self, row):
        # the echelon is kept, so its id is not reused
        index = echelons.setdefault(id(self), (len(echelons), self))[0]
        rows.append((index, list(row)))
        return add(self, row)

    FqEchelon.add = record
    try:
        _scan(fixed, transcripts)
    finally:
        FqEchelon.add = add
    shapes = [(e.spec, e.nvars) for _index, e in sorted(echelons.values(), key=lambda v: v[0])]
    return rows, shapes


def _add_rows(rows, shapes) -> None:
    echelons = [FqEchelon(spec, nvars) for spec, nvars in shapes]
    for index, row in rows:
        echelons[index].add(row)


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def _game_argv(rounds: int, path: str):
    run = ("game", "run", "--field", "2", "--white", "white-avoid", "--black",
           "black-random", "--alpha", "1/4", "--beta", "1/2", "--rounds", str(rounds),
           "--seed", "12345", "--cap", "5", "--out", path, "--no-timestamp")
    certify = ("certify", "--transcript", path, "--cap", "9", "--precision", "48",
               "--no-timestamp")
    return run, certify


def layers(games: int, rounds: int, long_rounds: int, measure_exp: int, path: str):
    """(name, calls, thunk) per row; each thunk runs the row once."""
    fixed = _games(games)
    transcripts = [_play(f, c, s, rounds) for f, c, s in fixed]
    texts = [t.to_jsonl() for t in transcripts]
    entries = [
        (x, format_series(x))
        for t in transcripts
        for b in t.balls
        for row in b.center.entries
        for x in row
    ]
    moves = [
        (t.balls[i - 1], t.balls[i], t.params.beta if i % 2 == 0 else t.params.alpha)
        for t in transcripts
        for i in range(1, len(t.balls))
    ]
    scans = sum(len(t.balls) // 2 for t in transcripts)
    rows_added, shapes = _scan_rows(fixed, transcripts)
    run, certify = _game_argv(24, path)

    def run_certify():
        _cli(*run)
        _cli(*certify)

    rows = [
        ("series.parse_series", len(entries),
         lambda: [parse_series(text, x.spec) for x, text in entries]),
        ("series.format_series", len(entries), lambda: [format_series(x) for x, _ in entries]),
        ("game.validate_move", len(moves), lambda: [validate_move(*move) for move in moves]),
        ("strategy.active_dangers", scans, lambda: _scan(fixed, transcripts)),
        ("linalg.FqEchelon.add", len(rows_added), lambda: _add_rows(rows_added, shapes)),
        ("game.play", len(fixed), lambda: [_play(f, c, s, rounds) for f, c, s in fixed]),
        ("game.to_jsonl", len(texts), lambda: [t.to_jsonl() for t in transcripts]),
        ("game.from_jsonl", len(texts), lambda: [GameTranscript.from_jsonl(x) for x in texts]),
        ("cli.game_certify", 1, run_certify),
    ]
    if long_rounds:
        long_run, long_certify = _game_argv(long_rounds, path)  # certify needs >= 24
        rows.append(("cli.game_run_long", 1, lambda: _cli(*long_run)))
        rows.append(("cli.certify_long", 1, lambda: _cli(*long_certify)))
    if measure_exp:
        diagonal = "; ".join(
            ", ".join(f"X^{measure_exp}" if i == j else "0" for j in range(3)) for i in range(3)
        )
        measure_argv = ("measure", "--field", "2", "--matrix", diagonal, "--no-timestamp")
        rows.append(("cli.measure_digits", 1, lambda: _cli(*measure_argv)))
    return rows


def measure(rows, repeats: int, bench):
    out = {}
    for name, calls, thunk in rows:
        thunk()  # warm-up; for the long rows it also writes the transcript
        refs, times = [bench.reference_sample()], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - t0)
            refs.append(bench.reference_sample())
        # each run is scaled by the reference sampled just before and after it
        scaled = [t * 2 * bench.REF_NOMINAL_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]
        out[name] = {
            "calls": calls,
            "raw_ms": round(statistics.median(times) * 1e3, 3),
            "scaled_ms": round(statistics.median(scaled) * 1e3, 3),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="path of the BENCH JSON file")
    ap.add_argument("--games", type=int, default=8, help="F2 games in the fixed inputs")
    ap.add_argument("--rounds", type=int, default=24)
    ap.add_argument("--long-rounds", type=int, default=384, help="0 skips the long rows")
    ap.add_argument("--measure-exp", type=int, default=10**6, help="0 skips the measure row")
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args(argv)
    bench = _perfbench()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        rows = layers(args.games, args.rounds, args.long_rounds, args.measure_exp, path)
        results = measure(rows, args.repeats, bench)
    report = {
        "python": platform.python_version(),
        "src_lines": bench.src_lines(),
        "reference_ms_median": round(bench.reference_sample(repeats=9) * 1e3, 3),
        "inputs": {"games": args.games, "rounds": args.rounds,
                   "long_rounds": args.long_rounds, "measure_exp": args.measure_exp,
                   "repeats": args.repeats},
        "rows": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
