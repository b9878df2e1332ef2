import random
from fractions import Fraction

import pytest
from concentric import ConcentricStrategy
from hypothesis import given
from hypothesis import strategies as st
from oracles import oracle_formal_contains

from lsdioph.errors import InsufficientDepth
from lsdioph.field import FieldSpec
from lsdioph.game import (
    FormalBall,
    GameParams,
    GameTranscript,
    GreedyBlack,
    RandomBlack,
    StdinBlack,
    StopRule,
    ball_contains_point,
    canonicalize,
    formal_contains,
    limit_point,
    play,
    unit_ball,
    validate_move,
)
from lsdioph.series import LaurentSeries, SeriesMatrix, parse_series

F2 = FieldSpec(2)
F3 = FieldSpec(3)
FIELDS = [F2, F3, FieldSpec(2, 2), FieldSpec(3, 2)]


def ball(center_text, radius, spec=F2):
    return FormalBall(
        SeriesMatrix(spec, [[parse_series(center_text, spec)]]), Fraction(radius)
    )


def test_formal_contains_examples():
    outer = ball("0", 1)
    assert formal_contains(ball("0", Fraction(1, 2)), outer)
    assert not formal_contains(ball("X^-1", 1), outer)  # equal radii, moved center
    # boundary case: rho_out = 1, rho_in = 1/2, ||dc|| = 1/2
    assert formal_contains(ball("X^-1", Fraction(1, 2)), outer)
    # the same at a gap of k^1, and just past it
    assert formal_contains(ball("X + 1", 3), ball("1", 5))
    assert not formal_contains(ball("X + 1", 3), ball("1", Fraction(49, 10)))


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as exc:
        return ("raise", type(exc).__name__, str(exc))


@st.composite
def ball_pairs(draw):
    """(inner, outer) over one field and shape: independent centers, equal
    centers, or centers that differ in one deep coefficient; the outer
    radius is random or sits at, or 10^-30 off, the containment boundary."""
    spec = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    coeffs = st.dictionaries(st.integers(-8, 2), st.integers(0, spec.k - 1), max_size=5)

    def center():
        return SeriesMatrix(
            spec, [[LaurentSeries(spec, draw(coeffs)) for _ in range(cols)] for _ in range(rows)]
        )

    outer = center()
    how = draw(st.sampled_from(["independent", "equal", "deep"]))
    if how == "independent":
        inner = center()
    elif how == "equal":
        inner = SeriesMatrix(spec, outer.entries)
    else:
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        deep = LaurentSeries.monomial(spec, draw(st.integers(1, spec.k - 1)), draw(st.integers(-90, -9)))
        entries = [list(row) for row in outer.entries]
        entries[i][j] = entries[i][j] + deep
        inner = SeriesMatrix(spec, entries)
    k_power = st.integers(-90, 3).map(lambda e: Fraction(spec.k) ** e)
    radius = st.one_of(k_power, st.fractions(min_value=Fraction(1, 10**6), max_value=10))
    r_in, r_out = draw(radius), draw(radius)
    if draw(st.booleans()):
        gap = (inner - outer).height().as_fraction()
        r_out = r_in + gap + draw(st.sampled_from([0, 0, Fraction(1, 10**30), -Fraction(1, 10**30)]))
    return FormalBall(inner, r_in), FormalBall(outer, r_out)


@given(ball_pairs())
def test_formal_contains_matches_the_oracle(pair):
    inner, outer = pair
    assert _outcome(formal_contains, inner, outer) == _outcome(oracle_formal_contains, inner, outer)
    assert _outcome(formal_contains, outer, inner) == _outcome(oracle_formal_contains, outer, inner)


@given(ball_pairs(), st.data())
def test_formal_contains_raises_as_the_oracle_does(pair, data):
    inner, outer = pair
    spec = inner.spec
    rows, cols = inner.center.shape
    others = [f for f in FIELDS + [FieldSpec(3, 2, modulus=(2, 1, 1))] if f != spec]
    other = data.draw(st.sampled_from(others))
    moved = [
        # another field, same shape
        FormalBall(SeriesMatrix.zero(other, rows, cols), inner.radius),
        # same field, transposed or widened shape
        FormalBall(SeriesMatrix.zero(spec, cols, rows + 1), inner.radius),
        # both at once
        FormalBall(SeriesMatrix.zero(other, rows + 1, cols), inner.radius),
    ]
    for ball_ in moved:
        for args in ((ball_, outer), (outer, ball_)):
            want = _outcome(oracle_formal_contains, *args)
            assert want[0] == "raise"
            assert _outcome(formal_contains, *args) == want


def test_formal_ball_center_has_finite_support():
    truncated = LaurentSeries(F2, {-1: 1}, known_below=-5)
    with pytest.raises(ValueError, match="finite-support"):
        FormalBall(SeriesMatrix(F2, [[truncated]]), Fraction(1))
    radius = Fraction(1, 4)
    assert FormalBall(SeriesMatrix.zero(F2, 1, 1), radius).radius is radius
    assert FormalBall(SeriesMatrix.zero(F2, 1, 1), 2).radius == Fraction(2)


def test_formal_containment_implies_set_containment():
    rng = random.Random(9)
    for _ in range(200):
        inner = ball("X^-1 + X^-3", Fraction(1, rng.randint(2, 60)))
        outer = ball("X^-1", Fraction(1, rng.randint(1, 8)))
        if not formal_contains(inner, outer):
            continue
        for idx in range(16):
            pt = inner.center + SeriesMatrix(
                F2,
                [[LaurentSeries(F2, {-e - 1: (idx >> e) & 1 for e in range(4)})]],
            )
            probe = pt.entry(0, 0)
            probe_m = SeriesMatrix(F2, [[probe]])
            if ball_contains_point(inner, probe_m):
                assert ball_contains_point(outer, probe_m)


def test_canonicalize_examples():
    c = canonicalize(ball("0", Fraction(7, 10)))
    assert c.radius == Fraction(1, 2)
    exact = ball("X^-2", Fraction(1, 8))
    assert canonicalize(exact).radius == Fraction(1, 8)
    # center coefficients at or below the effective exponent vanish
    messy = ball("X^-1 + X^-4", Fraction(1, 8))
    canon = canonicalize(messy)
    assert canon.center.entry(0, 0) == parse_series("X^-1", F2)
    assert canonicalize(canon) == canon


def test_canonicalize_identifies_equal_point_sets():
    """Formal balls with the same geometric ball get one canonical form;
    oracle: exhaustive membership over the coefficient grid."""
    b1 = ball("X^-1", Fraction(2, 5))  # effective radius 1/4
    b2 = ball("X^-1 + X^-3", Fraction(1, 4))  # deep coefficient is invisible
    members1 = set()
    members2 = set()
    for idx in range(2**5):
        pt = SeriesMatrix(
            F2, [[LaurentSeries(F2, {-e - 1: (idx >> e) & 1 for e in range(5)})]]
        )
        if ball_contains_point(b1, pt):
            members1.add(idx)
        if ball_contains_point(b2, pt):
            members2.add(idx)
    assert members1 == members2
    assert canonicalize(b1) == canonicalize(b2)


def test_validate_move_examples():
    prev = ball("0", 1)
    good = ball("0", Fraction(1, 2))
    assert validate_move(prev, good, Fraction(1, 2))
    far = ball("X", Fraction(1, 2))
    assert not validate_move(prev, far, Fraction(1, 2))
    wrong_radius = ball("0", Fraction(1, 3))
    assert not validate_move(prev, wrong_radius, Fraction(1, 2))


def test_validate_move_rejects_bad_ratio():
    prev = ball("0", 1)
    nxt = ball("0", Fraction(1, 2))
    with pytest.raises(ValueError):
        validate_move(prev, nxt, Fraction(2))
    with pytest.raises(ValueError):
        validate_move(prev, nxt, Fraction(0))


def test_play_concentric_radii_law():
    params = GameParams(Fraction(1, 2), Fraction(1, 2), F2)
    t = play(
        ConcentricStrategy("alpha"),
        ConcentricStrategy("beta"),
        unit_ball(F2, 1, 1),
        params,
        StopRule(radius_below=Fraction(1, 10**6)),
    )
    blacks = t.black_balls()
    for i, b in enumerate(blacks):
        assert b.radius == Fraction(1, 4) ** i
    # alpha*beta = 1/4 and 4^-10 < 10^-6: ten full rounds, twenty moves
    assert t.full_rounds() == 10
    assert len(t.balls) == 21
    assert all(b.center == t.balls[0].center for b in t.balls)


def test_play_records_forfeit():
    class BadWhite:
        def propose(self, transcript):
            prev = transcript.last()
            return FormalBall(prev.center, prev.radius)  # wrong radius

    params = GameParams(Fraction(1, 2), Fraction(1, 2), F2)
    t = play(
        BadWhite(),
        ConcentricStrategy("beta"),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=5),
    )
    assert t.forfeit is not None
    assert t.forfeit.player == "white"
    assert t.forfeit.index == 1


def test_radius_law_random_games():
    rng = random.Random(41)
    for seed in range(30):
        alpha = Fraction(1, rng.randint(2, 5))
        beta = Fraction(1, rng.randint(2, 5))
        params = GameParams(alpha, beta, F2)
        t = play(
            ConcentricStrategy("alpha"),
            RandomBlack(seed),
            unit_ball(F2, 1, 1),
            params,
            StopRule(max_rounds=12),
        )
        assert t.forfeit is None
        blacks = t.black_balls()
        for i in range(1, len(blacks)):
            assert blacks[i].radius == alpha * beta * blacks[i - 1].radius
        for i in range(1, len(t.balls)):
            assert formal_contains(t.balls[i], t.balls[i - 1])


def test_nesting_of_point_sets():
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    t = play(
        ConcentricStrategy("alpha"),
        RandomBlack(5),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=6),
    )
    rng = random.Random(3)
    for i in range(1, len(t.balls)):
        inner, outer = t.balls[i], t.balls[i - 1]
        for _ in range(20):
            delta = LaurentSeries(
                F2, {-e: rng.randrange(2) for e in range(1, 22)}
            )
            probe = inner.center + SeriesMatrix(F2, [[delta]])
            if ball_contains_point(inner, probe):
                assert ball_contains_point(outer, probe)


def test_ball_intersection_property():
    """Any two balls from any plays: point sets nested or disjoint."""
    rng = random.Random(11)
    balls = []
    for seed in (1, 2):
        t = play(
            ConcentricStrategy("alpha"),
            RandomBlack(seed),
            unit_ball(F2, 1, 1),
            GameParams(Fraction(1, 2), Fraction(1, 2), F2),
            StopRule(max_rounds=5),
        )
        balls.extend(canonicalize(b) for b in t.balls)
    rng2 = random.Random(17)
    for b1 in balls:
        for b2 in balls:
            d = (b1.center - b2.center).height().as_fraction()
            if d > max(b1.radius, b2.radius):
                continue  # point sets disjoint
            # intersecting: the smaller point set must sit inside the larger
            small, big = (b1, b2) if b1.radius <= b2.radius else (b2, b1)
            for _ in range(10):
                delta = LaurentSeries(
                    F2, {-e: rng2.randrange(2) for e in range(1, 14)}
                )
                probe = small.center + SeriesMatrix(F2, [[delta]])
                if ball_contains_point(small, probe):
                    assert ball_contains_point(big, probe)


def test_gamma_positivity_below_critical_alpha():
    rng = random.Random(13)
    for spec in (F2, F3):
        k = spec.k
        for _ in range(1000):
            alpha = Fraction(rng.randint(1, 999), 1000) * Fraction(1, k + 1)
            beta = Fraction(rng.randint(1, 999), 1000)
            params = GameParams(alpha, beta, spec)
            assert params.gamma > 0


def test_limit_point_constant_center():
    params = GameParams(Fraction(1, 2), Fraction(1, 2), F2)
    center = "X^-1 + X^-4"
    b1 = ball(center, 1)
    t = play(
        ConcentricStrategy("alpha"),
        ConcentricStrategy("beta"),
        b1,
        params,
        StopRule(max_rounds=12),
    )
    pt = limit_point(t, 10)
    assert pt.entry(0, 0) == parse_series(center, F2)


def test_limit_point_precision_guarantee():
    params = GameParams(Fraction(1, 2), Fraction(1, 2), F2)
    t = play(
        ConcentricStrategy("alpha"),
        RandomBlack(7),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=4),
    )
    with pytest.raises(InsufficientDepth) as err:
        limit_point(t, 30)
    assert err.value.required_moves > 0
    t2 = play(
        ConcentricStrategy("alpha"),
        RandomBlack(7),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=4 + err.value.required_moves),
    )
    limit_point(t2, 30)


def test_limit_prefixes_stable_under_black_variation():
    """Two Black strategies agreeing on the first ten moves produce the same
    limit prefix to the guaranteed depth."""

    class SwitchingBlack:
        def __init__(self, seed_late):
            self.early = RandomBlack(99)
            self.late = RandomBlack(seed_late)

        def propose(self, t):
            mover = self.early if t.full_rounds() < 10 else self.late
            return mover.propose(t)

    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    points = []
    for seed_late in (1, 2):
        t = play(
            ConcentricStrategy("alpha"),
            SwitchingBlack(seed_late),
            unit_ball(F2, 1, 1),
            params,
            StopRule(max_rounds=16),
        )
        # ten rounds shrink by (alpha*beta)^10 = 8^-10: exponents above -30
        # are already final
        points.append(limit_point(t, 29))
    assert points[0] == points[1]


def test_transcript_jsonl_round_trip():
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    t = play(
        ConcentricStrategy("alpha"),
        GreedyBlack(),
        FormalBall(
            SeriesMatrix(F2, [[parse_series("X^-1 + X^-5", F2)]]), Fraction(1)
        ),
        params,
        StopRule(max_rounds=6),
    )
    text = t.to_jsonl()
    t2 = GameTranscript.from_jsonl(text)
    assert len(t2.balls) == len(t.balls)
    assert t2.balls == t.balls
    assert t2.params.alpha == t.params.alpha
    # tampered transcripts fail replay validation
    lines = text.splitlines()
    bad = lines[:2] + [lines[2].replace('"radius": "1/4"', '"radius": "1/8"')] + lines[3:]
    with pytest.raises(ValueError):
        GameTranscript.from_jsonl("\n".join(bad))


def test_transcript_extension_field_round_trip():
    F4 = FieldSpec(2, 2)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F4)
    t = play(
        ConcentricStrategy("alpha"),
        RandomBlack(3),
        unit_ball(F4, 1, 1),
        params,
        StopRule(max_rounds=4),
    )
    t2 = GameTranscript.from_jsonl(t.to_jsonl())
    assert t2.balls == t.balls


def test_stdin_black_reads_moves():
    import io

    params = GameParams(Fraction(1, 2), Fraction(1, 2), F2)
    moves = io.StringIO("X^-2\n\n\n")
    echo = io.StringIO()
    t = play(
        ConcentricStrategy("alpha"),
        StdinBlack(stream=moves, echo=echo),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=3),
    )
    assert t.forfeit is None
    assert t.balls[2].center.entry(0, 0) == parse_series("X^-2", F2)
    assert "enter center" in echo.getvalue()
