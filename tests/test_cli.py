import json
import time

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from lsdioph.cli import main
from lsdioph.field import FieldSpec
from lsdioph.series import LaurentSeries, format_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cf_example(capsys):
    code, out, _ = run_cli(
        capsys, "cf", "--field", "2", "--x", "X^-1 + X^-3", "--terms", "5",
        "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["quotients"] == ["0", "X", "X", "X"]
    assert payload["result"]["exact"] is True


def test_dim_bound_example(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "bound", "--alpha", "1/4", "--beta", "1/1024",
        "--m", "1", "--n", "1", "--field", "2", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"]["bound"] == "3/4"


def test_series_and_norm(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--field", "2", "--x", "X^2 + 1 + X^-3",
        "--no-timestamp",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["x_norm_exp"] == 2
    assert result["poly_part"] == "X^2 + 1"
    assert result["frac_norm_exp"] == -3


def test_badness_rational_entries(capsys):
    code, out, _ = run_cli(
        capsys, "badness", "--field", "2", "--matrix", "X + 1", "--den",
        "X^2 + X + 1", "--cap", "3", "--no-timestamp",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["K_exp"] is None  # the denominator annihilates within cap
    assert result["witness"]["dist_exp"] is None


def test_sucmin_and_duality(capsys):
    code, out, _ = run_cli(
        capsys, "sucmin", "--field", "2", "--matrix", "X, 0; 0, X^-1",
        "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"]["lambdas"] == [-1, 1]
    code, out, _ = run_cli(
        capsys, "duality", "--field", "2", "--matrix", "X, 0; 0, X^-1",
        "--m", "1", "--n", "1", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"]["lambda_m_sigma_n1_exp"] == 0


def test_game_certify_pipeline(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        capsys, "game", "run", "--white", "white-avoid", "--black",
        "black-random", "--alpha", "1/4", "--beta", "1/2", "--rounds", "24",
        "--seed", "7", "--out", str(path), "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"]["rounds"] == 24
    code, out, _ = run_cli(
        capsys, "certify", "--transcript", str(path), "--cap", "4",
        "--no-timestamp",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["min_margin_exponent"] > 0
    assert result["witnesses_checked"] == 31


def test_certify_counterexample_exit_code(tmp_path, capsys):
    # a game that never recenters limits to the zero matrix, which q = 1
    # annihilates immediately
    from fractions import Fraction

    from concentric import ConcentricStrategy

    from lsdioph.field import FieldSpec
    from lsdioph.game import (
        GameParams,
        StopRule,
        play,
        unit_ball,
    )

    F2 = FieldSpec(2)
    t = play(
        ConcentricStrategy("alpha"),
        ConcentricStrategy("beta"),
        unit_ball(F2, 1, 1),
        GameParams(Fraction(1, 4), Fraction(1, 2), F2),
        StopRule(max_rounds=24),
    )
    path = tmp_path / "zero.jsonl"
    path.write_text(t.to_jsonl())
    code, _, err = run_cli(
        capsys, "certify", "--transcript", str(path), "--cap", "4",
        "--no-timestamp",
    )
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "CounterexampleFound"
    assert diag["q"] == ["1"]


def test_precision_error_exit_code(tmp_path, capsys):
    # too few rounds for the requested precision: structured diagnostic, exit 3
    path = tmp_path / "short.jsonl"
    run_cli(
        capsys, "game", "run", "--alpha", "1/4", "--beta", "1/2", "--rounds",
        "3", "--seed", "1", "--out", str(path), "--no-timestamp",
    )
    code, _, err = run_cli(
        capsys, "certify", "--transcript", str(path), "--cap", "4",
        "--precision", "40", "--no-timestamp",
    )
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "InsufficientDepth"


def test_determinism_byte_identical(capsys):
    args = (
        "game", "run", "--alpha", "1/4", "--beta", "1/2", "--rounds", "8",
        "--seed", "42", "--no-timestamp",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_boxcount_rows_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "boxcount", "--field", "2", "--t", "6", "--cap", "2",
        "--K-exps", "zero,-4", "--no-timestamp",
    )
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert {r["resolution"] for r in rows} == set(range(1, 7))
    zero_rows = [r for r in rows if r["K_exp"] == "zero"]
    assert all(r["cells_surviving"] == r["cells_total"] for r in zero_rows)
    code, out, _ = run_cli(
        capsys, "dim", "boxcount", "--field", "2", "--t", "4", "--cap", "2",
        "--K-exps", "-4", "--format", "csv", "--no-timestamp",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "K_exp"
    assert len(lines) == 5


def test_config_file_expansion(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field = 2\nx = X^-1 + X^-3\nterms = 5\nno-timestamp =\n")
    code, out, _ = run_cli(capsys, "cf", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["result"]["exact"] is True
    # explicit flags override config values
    code, out, _ = run_cli(
        capsys, "cf", "--config", str(cfg), "--terms", "2",
    )
    assert code == 0
    assert json.loads(out)["result"]["exact"] is False


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cf"])  # missing required --x
    assert exc.value.code == 2


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "pack", "--beta", "1/8", "--field", "2",
        "--format", "text", "--no-timestamp",
    )
    assert code == 0
    assert "max_count: 4" in out


def test_calibrate_dirichlet_cli(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "dirichlet", "--field", "2", "--t", "1",
        "--grid-depth", "6", "--no-timestamp",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["c0"] == 1
    assert result["matrices_checked"] == 64


@pytest.mark.parametrize(
    "m, n, result",
    [
        (2, 1, {"c0": None, "worst_dist_exp": None}),
        (1, 2, {"c0": 1, "worst_dist_exp": -2}),
    ],
)
def test_calibrate_dirichlet_result_is_unchanged(capsys, m, n, result):
    # the results of the pigeonhole search the level walk replaced
    code, out, _ = run_cli(
        capsys, "calibrate", "dirichlet", "--m", str(m), "--n", str(n), "--t", "2",
        "--grid-depth", "3", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"] == {
        "t": 2, "grid_depth": 3, "matrices_checked": 64,
        "provenance": "exhaustive grid oracle", **result,
    }


def test_calibrate_dirichlet_passes_the_budget_on(capsys):
    code, out, err = run_cli(
        capsys, "calibrate", "dirichlet", "--m", "2", "--n", "1", "--t", "1",
        "--grid-depth", "2", "--budget", "0", "--no-timestamp",
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SearchBudgetExceeded"


@pytest.mark.parametrize("flag", ["--m", "--n"])
def test_game_run_rejects_an_empty_block(capsys, flag):
    # a window that does not grow with the level would never admit a height
    code, out, err = run_cli(
        capsys, "game", "run", "--alpha", "1/2", "--beta", "1/2", flag, "0",
        "--no-timestamp",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == "m and n must be >= 1"


def test_game_run_work_follows_the_game_not_the_cap(capsys):
    # heights are admitted only as deep as the game reaches, so a huge cap
    # plays the same short game as a modest one
    argv = ["game", "run", "--alpha", "1/2", "--beta", "1/2", "--rounds", "4", "--no-timestamp"]
    games = []
    for cap in ("40", str(10**9)):
        code, out, _ = run_cli(capsys, *argv, "--cap", cap)
        assert code == 0
        games.append(json.loads(out)["result"]["transcript"])
    assert games[0] == games[1]


@pytest.mark.parametrize("white, cap", [("white-avoid", "20"), ("white-literal", "18")])
def test_white_work_follows_the_game_not_the_cap(capsys, white, cap):
    # dangers come from level spaces, not from height classes of k^(cap+1)
    # vectors: an enumeration of them took 53 s and 11 s on a 2-core Xeon
    argv = ["game", "run", "--field", "2", "--alpha", "1/4", "--beta", "1/2", "--rounds", "24"]
    start = time.perf_counter()
    code, _, _ = run_cli(capsys, *argv, "--seed", "7", "--white", white, "--cap", cap)
    assert code == 0
    assert time.perf_counter() - start < 5


def test_dirichlet_passes_the_budget_on(capsys):
    argv = ["dirichlet", "--field", "2", "--matrix", "X^-1; X^-2", "--t", "4", "--no-timestamp"]
    code, _, err = run_cli(capsys, *argv, "--budget", "1023")
    assert code == 3
    assert json.loads(err)["count"] == 1023
    assert run_cli(capsys, *argv, "--budget", "1024")[0] == 0


def test_literal_white_cli(tmp_path, capsys):
    path = tmp_path / "lit.jsonl"
    code, out, _ = run_cli(
        capsys, "game", "run", "--white", "white-literal", "--black",
        "black-greedy", "--alpha", "1/4", "--beta", "1/2", "--rounds", "20",
        "--out", str(path), "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"]["forfeit"] is None
    code, _, _ = run_cli(
        capsys, "certify", "--transcript", str(path), "--cap", "4",
        "--no-timestamp",
    )
    assert code == 0


BOXCOUNT = ("dim", "boxcount", "--field", "2", "--cap", "2", "--no-timestamp")


@pytest.mark.parametrize(
    "argv, error",
    [
        (("cf", "--x", "X^-1", "--config"), "ValueError"),
        (("cf", "--x", "X^-1", "--config", "{missing}"), "FileNotFoundError"),
        (("certify", "--transcript", "{missing}", "--cap", "2"), "FileNotFoundError"),
        (BOXCOUNT + ("--t", "0", "--K-exps=-4"), "ValueError"),
        (BOXCOUNT + ("--t", "2", "--m", "0", "--K-exps=-4"), "ValueError"),
        (BOXCOUNT + ("--t", "2", "--K-exps=abc"), "ValueError"),
        (BOXCOUNT + ("--t", "2", "--K-exps=1/2"), "ValueError"),
        (("dim", "pack", "--beta", "1/4", "--m", "-1"), "ValueError"),
        (("dim", "bound", "--alpha", "1/4", "--beta", "1/4", "--m", "-2"), "ValueError"),
        (("dim", "bound", "--alpha", "1/4", "--beta", "1/4", "--n", "0"), "ValueError"),
        (("series", "--x", "X^^2"), "SeriesSyntaxError"),
        (("series", "--field", "3", "--x", "5*X"), "CoefficientOutOfRange"),
        (("series", "--x", "X", "--y", "0", "--op", "div"), "DivisionByZero"),
    ],
    ids=[
        "config-last-word", "config-missing", "transcript-missing", "t-zero",
        "m-zero", "K-exps-word", "K-exps-fraction", "pack-m-negative",
        "bound-m-negative", "bound-n-zero", "syntax", "coefficient",
        "division-by-zero",
    ],
)
def test_bad_input_exits_2_with_one_line_diagnostic(tmp_path, capsys, argv, error):
    missing = str(tmp_path / "missing")
    code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == error
    if error in ("SeriesSyntaxError", "CoefficientOutOfRange"):
        assert isinstance(diag["position"], int)


def test_K_exps_value_may_start_with_a_dash(capsys):
    argv = BOXCOUNT + ("--t", "3")
    code, spaced, _ = run_cli(capsys, *argv, "--K-exps", "-10,-7,-4")
    assert code == 0
    code, glued, _ = run_cli(capsys, *argv, "--K-exps=-10,-7,-4")
    assert code == 0
    assert json.loads(spaced)["result"] == json.loads(glued)["result"]
    assert [r["K_exp"] for r in json.loads(spaced)["result"]["rows"]][::3] == [
        "-10", "-7", "-4",
    ]
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--K-exps"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "replay: empty transcript"),
        ('{"type": "header"}\n', "replay: header record lacks field, alpha, beta"),
        ('{"alpha": "1/4", "beta": "1/2", "field": "2"}\n{"player": "black"}\n',
         "replay: record 2 lacks center, radius"),
    ],
    ids=["empty", "header-keys-missing", "move-keys-missing"],
)
def test_malformed_transcript_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "certify", "--transcript", str(path), "--cap", "2", "--no-timestamp"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_extension_field_matrix_is_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "badness", "--field", "2^2", "--matrix", "(1,0)*X^-1", "--cap", "1",
        "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"]["witness"]["q"] == ["(0,1)*X"]


@pytest.mark.parametrize(
    "argv, reached",
    [
        (("badness", "--matrix", "X^-1 + X^-2 + X^-4 + X^-7 + X^-11", "--cap", "6"),
         "at height k^3"),
        (BOXCOUNT + ("--m", "2", "--t", "3", "--K-exps=-4"), "at resolution"),
    ],
    ids=["badness", "boxcount"],
)
def test_budget_diagnostic_reports_how_far_the_search_got(capsys, argv, reached):
    code, out, err = run_cli(capsys, *argv, "--budget", "10", "--no-timestamp")
    assert code == 3
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "SearchBudgetExceeded"
    assert diag["count"] == 10
    assert reached in diag["message"]


def test_boxcount_threads_flag_has_no_effect(capsys):
    argv = ("dim", "boxcount", "--field", "3", "--t", "3", "--cap", "2",
            "--K-exps=-2", "--no-timestamp")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, threaded, _ = run_cli(capsys, *argv, "--threads", "2")
    assert code == 0
    assert json.loads(threaded)["result"] == json.loads(plain)["result"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("badness", "--matrix", "X^-1", "--cap", "-1"), "--cap"),
        (("certify", "--transcript", "{transcript}", "--cap", "-1"), "--cap"),
        (("badness", "--matrix", "X^-1", "--cap", "2", "--budget", "-1"), "--budget"),
        (("game", "run", "--alpha", "1/4", "--beta", "1/2", "--cap", "-1"), "--cap"),
        (("dim", "boxcount", "--cap", "-1", "--t", "2", "--K-exps=-4"), "--cap"),
    ],
    ids=["badness-cap", "certify-cap", "budget", "game-run-cap", "boxcount-cap"],
)
def test_negative_cap_and_budget_exit_2_by_name(tmp_path, capsys, argv, flag):
    transcript = _small_transcript(tmp_path, capsys)
    assert exit_code([a.format(transcript=transcript) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "ArgumentError",
        "message": f"argument {flag}: must be >= 0, got -1",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--x", "1", "--y", "X + 1", "--op", "div", "--precision", "1000001"),
        ("certify", "--transcript", "{transcript}", "--cap", "1", "--precision", "10000000"),
    ],
    ids=["series", "certify"],
)
def test_precision_beyond_the_exponent_bound_exits_2_by_name(tmp_path, capsys, argv):
    transcript = _small_transcript(tmp_path, capsys)
    assert exit_code([a.format(transcript=transcript) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    value = argv[-1]
    assert json.loads(out.err) == {
        "error": "ArgumentError",
        "message": f"argument --precision: must be <= 1000000, got {value}",
    }


def test_precision_at_the_exponent_bound_keeps_its_output(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--x", "X^-1", "--y", "X", "--op", "div",
        "--precision", "1000000", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["result"]["value_norm_exp"] == -2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dirichlet", "--matrix", "X^-1"), "the following arguments are required: --t"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
        (("badness", "--matrix", "X^-1", "--cap", "two"), "argument --cap: invalid"),
    ],
    ids=["missing-flag", "unknown-command", "non-integer-cap"],
)
def test_argparse_errors_exit_2_with_one_json_line(capsys, argv, message):
    assert exit_code(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    diag = json.loads(out.err)
    assert diag["error"] == "ArgumentError"
    assert diag["message"].startswith(message)


def test_no_command_returns_2_with_help_and_one_json_line(capsys):
    assert main([]) == 2
    out = capsys.readouterr()
    assert "badness" in out.out  # the help lists the subcommands
    assert json.loads(out.err) == {"error": "ArgumentError", "message": "a command is required"}


def test_huge_exponent_is_a_syntax_error(capsys):
    code, out, err = run_cli(capsys, "series", "--x", "X + X^99999999999", "--no-timestamp")
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "SeriesSyntaxError"
    assert diag["position"] == 5


def exit_code(argv):
    """main's return value, or the status of the SystemExit that argparse
    raises for a usage error."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _small_transcript(tmp_path, capsys):
    path = tmp_path / "small.jsonl"
    if not path.exists():
        code, _, _ = run_cli(
            capsys, "game", "run", "--alpha", "1/4", "--beta", "1/2", "--rounds", "8",
            "--cap", "2", "--seed", "3", "--out", str(path), "--no-timestamp",
        )
        assert code == 0
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        # every cover test scans up to about 5,000 subcubes; t = 8 alone
        # takes seconds unbounded
        ["dim", "boxcount", "--field", "2", "--t", "16", "--cap", "6", "--K-exps", "-10"],
        # one row of the witness walk has about 40,000 entries
        ["sucmin", "--field", "2", "--matrix", "X^20000, 1; 1, X^-3"],
    ],
    ids=["boxcount", "sucmin"],
)
def test_searches_obey_the_budget(argv, capsys):
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, "--budget", "1000", "--no-timestamp")
    elapsed = time.perf_counter() - t0
    diagnostic = json.loads(err)
    assert code == 3 and diagnostic["error"] == "SearchBudgetExceeded"
    assert diagnostic["count"] <= 1000
    assert elapsed < 1.0


EDGE = ["-1", "0", "99999999999", ""]


@st.composite
def fuzz_argvs(draw, transcript, command=None):
    """badness, dirichlet, certify, series, game run, duality, sucmin, polar
    or measure argvs from formatter output and edge values (negative, zero,
    huge, empty).  Caps stay at 4 or below, save a huge one for game run,
    whose work follows the rounds; series precisions stay small or beyond the
    10^6 bound: up to it, a quotient that does not terminate takes one
    division step per unit.  polar, measure and duality also draw singular
    matrices and exponents up to +-200000, which sucmin does not: its witness
    walk grows with the spread of the exponents.  A given command fixes the
    sub-command instead of drawing it."""
    spec = draw(st.sampled_from([FieldSpec(2), FieldSpec(3), FieldSpec(2, 2)]))
    field = str(spec.p) if spec.r == 1 else f"{spec.p}^{spec.r}"

    def formatted(exponents, coefficients, min_size=0):
        terms = st.lists(st.tuples(exponents, coefficients), min_size=min_size, max_size=4)
        return st.builds(lambda t: format_series(LaurentSeries(spec, dict(t))), terms)

    series = formatted(st.integers(-6, 2), st.integers(0, spec.k - 1))
    edge_text = st.sampled_from(["", "X^99999999999", "X^-99999999999", "(", "X^", "1;"])
    text = st.one_of(series, series, edge_text)
    cap = st.sampled_from(["0", "1", "2", "3", "4"] * 2 + ["-1", "", "x"])
    commands = ["badness", "dirichlet", "certify", "series", "game run", "duality", "sucmin"]
    commands += ["polar", "measure"]
    command = command or draw(st.sampled_from(commands))
    flags = {
        "--field": st.sampled_from([field] * 8 + EDGE),
        "--budget": st.sampled_from(["10", "2000000"] + EDGE),
    }
    bodies = ("duality", "sucmin", "polar", "measure")
    if command in ("badness", "dirichlet") + bodies:
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        if command in bodies:
            m = n = m + n  # a square matrix
        wide = command in ("polar", "measure", "duality")  # no level walk: any spread
        exponents = st.integers(-6, 0)
        if wide:
            exponents = st.one_of(exponents, st.sampled_from([200000, -200000, 170, -170]))
        entry = formatted(exponents, st.integers(1, spec.k - 1), min_size=1)
        row = st.lists(entry, min_size=n, max_size=n).map(", ".join)
        matrix = st.lists(row, min_size=m, max_size=m).map("; ".join)
        if wide:  # one row m times: a singular matrix
            matrix = st.one_of(matrix, matrix, row.map(lambda r: "; ".join([r] * m)))
        flags["--matrix"] = st.one_of(matrix, matrix, edge_text)
    if command == "badness":
        flags["--cap"] = cap
        flags["--den"] = text
    elif command == "dirichlet":
        # a huge t trips the budget at once: k^(m(t+1)) is never enumerated
        flags["--t"] = st.sampled_from(["64", "1", "2", "30", "4", "0", "-1", ""])
        flags["--budget"] = st.sampled_from(["10", "10", "2000000", "0", "-1", ""])
        flags["--c0"] = st.sampled_from(["1", "0", "5", "-1", ""])
    elif command in bodies:
        flags["--bounds"] = st.sampled_from([",".join(["0"] * m), ",".join(["-1"] * m), "0", "x", ""])
        if command in ("duality", "sucmin"):
            flags["--degree-bound"] = st.sampled_from(["2", "0", "-1", ""])
        if command == "duality":
            flags["--m"] = flags["--n"] = st.sampled_from(["1", "2", "3", "0", "-1", ""])
    elif command == "certify":
        flags["--transcript"] = st.sampled_from([transcript] * 3 + [transcript + ".missing"])
        flags["--cap"] = cap
        precisions = ["1000000", "8", "8", "3000", "30", "-1", "0", ""]
        flags["--precision"] = st.sampled_from(precisions)
        flags["--R-exp"] = st.sampled_from(["1", "2", "2", "0", "-1"])
    elif command == "game run":
        flags["--alpha"] = flags["--beta"] = st.sampled_from(["1/2", "1/4", "3/4"] * 2 + EDGE)
        flags["--m"] = flags["--n"] = st.sampled_from(["1", "1", "2", "0", "-1", ""])
        flags["--cap"] = st.sampled_from(["0", "2", "4", str(10**9), "-1", "", "x"])
        flags["--rounds"] = st.sampled_from(["4", "8", "0", "-1", ""])
        flags["--R-exp"] = st.sampled_from(["1", "2", "0", "-1"])
        flags["--white"] = st.sampled_from(["white-avoid", "white-literal", "x"])
        flags["--black"] = st.sampled_from(["black-random", "black-greedy", "x"])
    else:
        flags["--x"] = flags["--y"] = text
        flags["--op"] = st.sampled_from(["add", "sub", "mul", "div", ""])
        flags["--precision"] = st.sampled_from(
            ["5", "64", "-1", "0", "", "1000001", "99999999999"]
        )
    argv = command.split()
    for flag, values in flags.items():
        required = flag in ("--field", "--matrix", "--cap", "--transcript", "--x", "--t")
        required |= flag in ("--alpha", "--beta", "--rounds")
        required |= command == "series" and flag in ("--op", "--precision")
        required |= command == "duality" and flag in ("--m", "--n")
        if required or not draw(st.integers(0, 3)):
            argv += [flag, draw(values)]
    return argv + ["--no-timestamp"]


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_main_never_crashes(tmp_path, capsys, data):
    code = exit_code(data.draw(fuzz_argvs(_small_transcript(tmp_path, capsys))))
    out = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if code:
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert set(json.loads(out.err)) >= {"error", "message"}
    else:
        json.loads(out.out)


@pytest.mark.parametrize(
    "command",
    ["badness", "dirichlet", "certify", "series", "game run", "duality", "sucmin"]
    + ["polar", "measure"],
)
def test_fuzzer_reaches_each_command(tmp_path, capsys, command):
    """fuzz_argvs draws argvs of each command that run to exit 0, so a flag
    its sub-parser rejects on every draw cannot go unnoticed."""
    transcript = _small_transcript(tmp_path, capsys)

    def runs(argv):
        code = exit_code(argv)
        capsys.readouterr()
        return code == 0

    search = settings(max_examples=1000, phases=[Phase.generate], database=None)
    find(fuzz_argvs(transcript, command), runs, settings=search)


def test_int_text_matches_str():
    import random
    import sys

    from lsdioph.cli import _int_text

    rng = random.Random(22)
    values = [0, 1, 9, 10, 2**512 - 1, 2**512, 2**513 + 1, 10**4300, 10**4300 - 1, 3**70000]
    values += [rng.getrandbits(rng.randint(1, 333_000)) for _ in range(12)]  # to ~10^5 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in values:
            assert _int_text(n) == str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_measure_prints_a_million_digits(capsys):
    """2^-3000000 has 903,090 digits in its denominator, past the
    interpreter's limit for int-to-str.  Its time is a row of
    ``tools/bench_layers.py`` (``cli.measure_digits``), not a gate here."""
    from decimal import Decimal, localcontext

    code, out, _ = run_cli(
        capsys, "measure", "--field", "2", "--matrix",
        "X^1000000, 0, 0; 0, X^1000000, 0; 0, 0, X^1000000", "--no-timestamp",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["measure_exp"] == -3_000_000
    head, digits = result["measure"].split("/")
    assert head == "1" and len(digits) == 903_090
    assert int(digits[-30:]) == pow(2, 3_000_000, 10**30)
    with localcontext() as ctx:
        ctx.prec = 40
        assert digits[:30] == str(Decimal(2) ** 3_000_000).replace(".", "")[:30]
