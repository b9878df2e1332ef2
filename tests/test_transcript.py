"""Transcript text and game outcomes.

The series grammar's split, term parser and formatter against the code
they replaced (``tests/oracles.py``); transcript round trips; replay cost
counted in term parses; and pins on game outcomes: the sha256 of the
transcripts of the benchmark's first seed-0 game round, the five
benchmark games that White loses, and two it once lost."""

import hashlib
import importlib.util
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    OracleFullScanWhite,
    OracleFqEchelon,
    oracle_format_series,
    oracle_from_jsonl,
    oracle_parse_series,
    oracle_split_top,
    oracle_to_jsonl,
)

from lsdioph import series
from lsdioph.cli import main
from lsdioph.field import FieldSpec
from lsdioph.game import (
    GameParams,
    GameTranscript,
    GreedyBlack,
    RandomBlack,
    StopRule,
    play,
    unit_ball,
)
from lsdioph.linalg import FqEchelon
from lsdioph.series import LaurentSeries, _split_top, format_series, parse_series
from lsdioph.strategy import AvoidanceWhite, StrategyConfig, make_white

FIELDS = [FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2), FieldSpec(3, 2)]
SPACE = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def term_texts(draw, spec):
    """A term of the grammar, or a near miss: coefficients out of range,
    tuples in prime fields or of the wrong length, a missing or dangling
    ``*``, and whitespace anywhere."""
    kind = draw(st.sampled_from(["none", "int", "tuple"]))
    coeff = ""
    if kind == "int":
        coeff = str(draw(st.integers(0, spec.p)))
    elif kind == "tuple":
        size = draw(st.sampled_from([spec.r, spec.r, spec.r, 1, 3]))
        digits = [draw(SPACE) + str(draw(st.integers(0, spec.p))) for _ in range(size)]
        coeff = "(" + ",".join(digits) + ")"
    e = draw(st.integers(-5, 5))  # a narrow range, so exponents repeat
    mono = draw(st.sampled_from(["X", f"X^{e}", f"X ^ {e}", "", "X^"]))
    star = draw(st.sampled_from(["", "*"])) if coeff or draw(st.booleans()) else ""
    parts = [coeff, star, mono]
    return draw(SPACE) + "".join(p + draw(SPACE) for p in parts)


@st.composite
def series_texts(draw, spec):
    """Terms joined by ``+``, then stray characters inserted: parentheses,
    separators and letters the grammar rejects."""
    text = "+".join(draw(st.lists(term_texts(spec), min_size=1, max_size=6)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("()(+,;x")) + text[at:]
    return text


def outcome(fn, *args):
    """The value, or the exception's type, message and position."""
    try:
        return "ok", fn(*args)
    except ValueError as err:
        return type(err), str(err), getattr(err, "position", None)


def check_against_the_oracle(texts, spec):
    terms = {}  # one memo over several texts, as replay keeps it
    for text in texts:
        want = outcome(oracle_parse_series, text, spec)
        assert outcome(parse_series, text, spec) == want
        assert outcome(parse_series, text, spec, terms) == want
        for sep in "+,;":
            assert outcome(_split_top, text, sep) == outcome(oracle_split_top, text, sep)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), spec=st.sampled_from(FIELDS))
def test_parse_series_matches_the_oracle(data, spec):
    check_against_the_oracle(data.draw(st.lists(series_texts(spec), min_size=1, max_size=4)), spec)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_parse_series_matches_the_oracle_on_stray_parentheses(spec):
    # no "(": the split without the character walk must still see the ")"
    texts = ["X^-1 + X)", "X)", ") + 1", "1 + X^2 + X^2 + 0*X", "(1,0)*X + (0,1", "X + (1)"]
    check_against_the_oracle(texts, spec)


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(FIELDS),
    coeffs=st.dictionaries(st.integers(-30, 30), st.integers(0, 8), max_size=12),
)
def test_format_series_matches_the_oracle(spec, coeffs):
    x = LaurentSeries(spec, {e: c % spec.k for e, c in coeffs.items()})
    want = oracle_format_series(x)
    terms = {}
    assert format_series(x) == want
    assert format_series(x, terms) == want
    assert format_series(x, terms) == want  # every term from the memo
    assert parse_series(want, spec) == x


def _game(spec, m, n, rounds, seed, cap=3):
    params = GameParams(Fraction(1, 4), Fraction(1, 2), spec)
    white = make_white("white-avoid", StrategyConfig(spec, m, n, height_cap_exp=cap))
    return play(white, RandomBlack(seed), unit_ball(spec, m, n), params, StopRule(max_rounds=rounds))


@pytest.mark.parametrize("spec", FIELDS, ids=str)
@pytest.mark.parametrize("shape", [(1, 1), (2, 1)])
def test_replay_gives_back_every_ball(spec, shape):
    t = _game(spec, *shape, rounds=8, seed=5, cap=2)
    text = t.to_jsonl()
    back = GameTranscript.from_jsonl(text)
    assert back.balls == t.balls
    assert [b.radius for b in back.balls] == [b.radius for b in t.balls]
    assert back.params == t.params and back.forfeit == t.forfeit
    assert back.to_jsonl() == text


def test_black_radius_is_the_smallest_black_radius():
    """The running minimum equals the scan it replaced, on a transcript grown
    ball by ball and on a new one handed to the same White."""
    spec = FieldSpec(2, 1)
    white = make_white("white-avoid", StrategyConfig(spec, 1, 1, height_cap_exp=3))
    for seed in (1, 2):
        done = _game(spec, 1, 1, rounds=12, seed=seed)
        t = GameTranscript(done.params)
        for ball in done.balls:
            t.balls.append(ball)
            assert white.black_radius(t) == min(b.radius for b in t.black_balls())


def test_replay_parses_each_distinct_term_once(monkeypatch):
    """Every record repeats its full centre, so a parse per term would grow
    with records times terms; replay parses each distinct term text once."""
    t = _game(FieldSpec(2, 1), 1, 1, rounds=96, seed=7, cap=5)
    text = t.to_jsonl()
    entries = [
        s for line in text.splitlines()[1:] for row in json.loads(line)["center"] for s in row
    ]
    distinct = {chunk.strip() for s in entries for chunk in s.split("+")}
    per_record = sum(len(s.split("+")) for s in entries)
    calls = []
    real = series._parse_term
    monkeypatch.setattr(
        series, "_parse_term", lambda *args: calls.append(args[0]) or real(*args)
    )
    assert GameTranscript.from_jsonl(text).balls == t.balls
    assert len(calls) <= len(distinct)
    assert per_record > 20 * len(distinct)  # what one parse per term would cost


def _recorded(white):
    """The White, with the result of each ``active_dangers`` call kept in
    the list returned beside it."""
    seen, scan = [], white.active_dangers
    white.active_dangers = lambda t: seen.append(scan(t)) or seen[-1]
    return white, seen


def replay(read, text):
    """What a replay gives: the transcript's parts, or the exception."""
    try:
        t = read(text)
    except Exception as exc:  # noqa: BLE001  (the outcome is compared)
        return type(exc), str(exc)
    return t.params, t.balls, [type(b.radius) for b in t.balls], t.forfeit


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(FIELDS),
    shape=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    R_exp=st.integers(1, 2),
    cap=st.integers(0, 3),
    rounds=st.integers(1, 16),
    seed=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_game_path_matches_the_oracles(spec, shape, R_exp, cap, rounds, seed):
    """White lists the same dangers in the same order as the scan that built
    and reduced every row, plays the same game, and the transcript is
    written and replayed as before.  Greedy Black (no seed) steers toward a
    polynomial, so White meets dangers and dodges them."""
    cfg = StrategyConfig(spec, *shape, R_exp=R_exp, height_cap_exp=min(cap, 2 + (spec.k <= 3)))
    params = GameParams(Fraction(1, 4), Fraction(1, 2), spec)
    games = []
    for white in (AvoidanceWhite(cfg), OracleFullScanWhite(cfg)):
        white, seen = _recorded(white)
        black = GreedyBlack() if seed is None else RandomBlack(seed)
        stop = StopRule(max_rounds=rounds)
        games.append((play(white, black, unit_ball(spec, *shape), params, stop), seen))
    (t, seen), (want, want_seen) = games
    assert seen == want_seen
    assert t.balls == want.balls and t.forfeit == want.forfeit
    text = t.to_jsonl()
    assert text == oracle_to_jsonl(want)
    assert replay(GameTranscript.from_jsonl, text) == replay(oracle_from_jsonl, text)


# radius texts that to_jsonl never writes, and near misses of those it does
RADIUS_TEXTS = ["1/0", "-1/2", " 1/2 ", "0.5", "1e3", "\u0663/4", "1/", "/2", "", "1_0",
                "+1/2", "1 /2", "\u00b2/4", "1/-2", "0", "0/5", 0.5, 3, None, [1, 2]]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), spec=st.sampled_from(FIELDS), seed=st.integers(0, 50))
def test_replay_matches_the_oracle_on_edited_records(data, spec, seed):
    """Replay gives what it gave before, value or exception, on transcripts
    whose radii are rewritten: as other texts, unreduced or zero-padded
    forms of the same radius, or values of other JSON types; and whose
    records are dropped or given the previous record's centre."""
    lines = _game(spec, 1, 1, rounds=4, seed=seed, cap=2).to_jsonl().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(1, len(lines) - 1))
        rec = json.loads(lines[i])
        edit = data.draw(st.sampled_from(["radius", "radius", "same", "centre", "drop"]))
        if edit == "drop":
            del lines[i]
            continue
        if edit == "centre" and i > 1:
            rec["center"] = json.loads(lines[i - 1])["center"]
        else:
            try:
                r = Fraction(rec["radius"])
            except (TypeError, ValueError, ZeroDivisionError):  # edited before
                r = Fraction(1, 3)
            same = [f"{2 * r.numerator}/{2 * r.denominator}", f"0{r.numerator}/{r.denominator}",
                    str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"]
            texts = same if edit == "same" else RADIUS_TEXTS
            rec["radius"] = data.draw(st.sampled_from(texts))
        lines[i] = json.dumps(rec, sort_keys=True)
    text = "\n".join(lines) + "\n"
    assert replay(GameTranscript.from_jsonl, text) == replay(oracle_from_jsonl, text)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), spec=st.sampled_from(FIELDS), nvars=st.integers(1, 5))
def test_fq_echelon_add_matches_the_oracle(data, spec, nvars):
    """Rows mostly zero, some zero but for the right-hand side: the same
    pivots and kept rows as the elimination that reduced every row."""
    entry = st.sampled_from([0, 0, 0, *range(1, spec.k)])
    rows = data.draw(st.lists(st.lists(entry, min_size=nvars + 1, max_size=nvars + 1), max_size=8))
    got, want = FqEchelon(spec, nvars), OracleFqEchelon(spec, nvars)
    for row in rows:
        assert got.add(row) == want.add(row)
        assert got.rows == want.rows
    assert got.consistent == want.consistent


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_zero_row_with_a_nonzero_right_hand_side_is_inconsistent(spec):
    """0 = b with b != 0 has no solution: the row is kept at pivot nvars,
    whatever rows came before it; 0 = 0 is implied."""
    for b in range(1, spec.k):
        echelon = FqEchelon(spec, 2)
        assert echelon.add([1, 0, 0]) == 0 and echelon.add([0, 0, 0]) is None
        assert echelon.consistent
        assert echelon.add([0, 0, b]) == 2
        assert not echelon.consistent


# (field, m, n, white, seed, cap, sha256 of the transcript): the games of
# round 0 of the benchmark's game-certify workload at seed 0, all won
ROUND0_SEED0 = [
    ("2", 1, 1, "white-avoid", 595482, 5, "8fead7ec6be28b2c131e66402c10b5b8bda28f65d3309b8080955668c26db71c"),
    ("2", 1, 1, "white-avoid", 791975, 5, "4e31db948629ce106463062cf1895c93bd39a600842e7e0c795ee255853a5304"),
    ("3", 1, 1, "white-avoid", 704542, 3, "89f5f413c5629ff3bc82ac242a9e77bdef3c0eabf07bf5aeea7823e74ff21d24"),
    ("2", 1, 1, "white-avoid", 766043, 5, "2685473a0c819de7f1a9dfbc57605bd714a3f081a21eba104ed8f050aff5d498"),
    ("2", 1, 1, "white-avoid", 845347, 5, "a4b4fdaa890870e1ae1e02451cfe11de0153a00ac395b3fef2024fb1a1a96ec5"),
    ("2", 1, 1, "white-avoid", 71074, 5, "eba956cc465271d1f8e7ed47d58a0190e378cda73961be8a57eb9d3a5ed72044"),
    ("2", 1, 1, "white-avoid", 716327, 5, "d37c4f7656c33aaad7b35b2f47d7ad55b9c1e6d1c3d0d077b4c0be325ceffd43"),
    ("2", 1, 1, "white-avoid", 647459, 5, "7b33c7564422a3588ed4179c3cecb25d3bb6c168b152755235dc0ec0e5876fe9"),
    ("2", 1, 1, "white-avoid", 575658, 5, "c7178a08257a638a27394b6314aa02bb23b35bda9621fa10f2f23166dc4f034c"),
    ("2", 1, 1, "white-avoid", 829376, 5, "136aef06807a718f99ae8eaa360c78f448b4fbbb538dff855286dd5b521624ed"),
    ("2", 1, 1, "white-avoid", 863475, 5, "0664e486a2fb4b2c7b93fd16d0e1861bbf7698fab9cf371a4a155e28cc7efb34"),
    ("2", 1, 1, "white-avoid", 368047, 5, "2dc49768c3230813c93a774741e41b11eae00079a550815e365e582ea0ecc98b"),
    ("2", 1, 1, "white-literal", 626027, 4, "dd3b1f1f5eb889e94ba8fb651b6a2a6cb1a3d1bb8eb039b4b3809cfcd377c3e5"),
    ("2", 1, 1, "white-avoid", 999574, 5, "66ed4d1b9bcd2a02c2d419b1e6bfa3937a9a05c733e044e216bd3c7939c8ce4d"),
    ("2", 1, 1, "white-avoid", 425807, 5, "4a9e4641ab7176c54de66b0a5f8c56ac0857c2297636c1f347120f7c1780004f"),
    ("2", 2, 1, "white-avoid", 895590, 3, "df648e60523fb06a0f29192b609f0df5d14d7d4d915d153a872833a9899157fd"),
    ("2^2", 1, 1, "white-avoid", 994213, 2, "e5876df284135ec023c14cd24581c15e681ffd3c3d9c02da7bcd11d10a7f662c"),
    ("2", 1, 1, "white-avoid", 837984, 5, "5dd027a55fc14e8ba453f9376d9b24b06c8be2e314fcf4745e3f50c23606709a"),
    ("2", 1, 1, "white-avoid", 186561, 5, "7401f75fdd481734473ad53ffb5598a46f5470229e5874e92da0d3cfa2f401ac"),
    ("2", 1, 1, "white-avoid", 120127, 5, "8e2511a6e637b7663e3d7b668e63cca86168a6b5e775ea62a41f5a5f48c512c2"),
]

# (field, m, n, white, seed, cap, certify cap, precision, the q certify
# names, sha256 of the transcript): benchmark games White loses, each
# certify exiting 4 with CounterexampleFound (ROADMAP item 5)
LOSSES = [
    ("2", 1, 1, "white-avoid", 676641, 5, 9, 48, ["X^8 + X^7 + X^5 + X^2 + 1"],
     "3579e71e2c1d208f46dc18df88591efa777d32c7612a23048366144b157a4607"),
    ("2", 1, 1, "white-avoid", 351616, 5, 10, 48, ["X^6 + X^3 + 1"],
     "890c4c45af9143562d3e891df9240973a3f053c3ac41bf6e5c26a49d01ffebb4"),
    ("2", 1, 1, "white-avoid", 209464, 5, 10, 48, ["X^9 + X^3 + 1"],
     "4929fc3ba617cccdb26c118bc1be97613350e9746819b571382a0e3b0b566acc"),
    ("2", 2, 1, "white-avoid", 861403, 3, 4, 30, ["0", "X^4"],
     "f3c65883ba6b68271db65627a156fda92940914cbf043997a4fe2789b1525d37"),
    ("2", 1, 1, "white-avoid", 878145, 5, 9, 48, ["X^9 + X^5 + X"],
     "baf723d79ce5ed04bc58b1ee68edda7a37b92ffe989f257cd84253ebd573ff3b"),
]


def _game_run(capsys, path, field, m, n, white, seed, cap):
    code = main([
        "game", "run", "--field", field, "--m", str(m), "--n", str(n),
        "--white", white, "--black", "black-random", "--alpha", "1/4",
        "--beta", "1/2", "--rounds", "24", "--seed", str(seed),
        "--cap", str(cap), "--out", str(path), "--no-timestamp",
    ])
    capsys.readouterr()
    assert code == 0
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("game", ROUND0_SEED0, ids=lambda g: f"{g[0]}-{g[3]}-{g[4]}")
def test_benchmark_transcripts_are_pinned(game, tmp_path, capsys):
    *argv, sha = game
    assert _game_run(capsys, tmp_path / "t.jsonl", *argv) == sha


@pytest.mark.parametrize("game", LOSSES, ids=lambda g: str(g[4]))
def test_benchmark_losses_are_pinned(game, tmp_path, capsys):
    *argv, cert_cap, precision, q, sha = game
    path = tmp_path / "t.jsonl"
    assert _game_run(capsys, path, *argv) == sha
    code = main([
        "certify", "--transcript", str(path), "--cap", str(cert_cap),
        "--precision", str(precision), "--no-timestamp",
    ])
    err = json.loads(capsys.readouterr().err)
    assert code == 4
    assert err["error"] == "CounterexampleFound" and err["q"] == q


# (game seed, certify cap): white-literal games of the benchmark's
# game-f2-literal kind that once lost to q = 1, a k-type danger the anchored
# move left standing; White now dodges it with the avoidance move
LITERAL_Q1 = [(529148, 8), (753899, 8)]


@pytest.mark.parametrize("game", LITERAL_Q1, ids=lambda g: str(g[0]))
def test_literal_white_dodges_q_one(game, tmp_path, capsys):
    seed, cert_cap = game
    path = tmp_path / "t.jsonl"
    _game_run(capsys, path, "2", 1, 1, "white-literal", seed, 4)
    code = main([
        "certify", "--transcript", str(path), "--cap", str(cert_cap),
        "--precision", "48", "--no-timestamp",
    ])
    capsys.readouterr()
    assert code == 0


def test_bench_layers_runs_on_tiny_inputs(tmp_path):
    """The per-layer timing script runs end to end; no timing is gated."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_layers.py")
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "bench.json"
    argv = ["--games", "1", "--rounds", "2", "--repeats", "1", "--long-rounds", "24",
            "--measure-exp", "1000"]
    assert module.main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] > 0
    assert set(report["rows"]) >= {
        "series.parse_series", "series.format_series", "game.validate_move", "game.play",
        "strategy.active_dangers", "linalg.FqEchelon.add",
        "game.to_jsonl", "game.from_jsonl", "cli.game_certify", "cli.certify_long",
        "cli.measure_digits",
    }
    assert all(row["scaled_ms"] >= 0 for row in report["rows"].values())
