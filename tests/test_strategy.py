import itertools
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import oracles
from concentric import ConcentricStrategy
from oracles import oracle_danger_set, oracle_has_frac_digit, oracle_pinned_safe

from lsdioph import strategy
from lsdioph.approx import LinearFormSystem, iter_height_class
from lsdioph.errors import CounterexampleFound, NoLegalCenter, SearchBudgetExceeded
from lsdioph.field import FieldSpec, Magnitude, Poly, floor_log
from lsdioph.game import (
    FormalBall,
    GameParams,
    GameTranscript,
    RandomBlack,
    StopRule,
    canonicalize,
    formal_contains,
    legal_center_shift_exponent,
    play,
    unit_ball,
)
from lsdioph.linalg import FqEchelon, height_vectors
from lsdioph.sampling import random_ball, random_orthonormal_basis
from lsdioph.series import (
    LaurentSeries,
    RationalFn,
    SeriesMatrix,
    parse_poly,
    parse_series,
    vec_dot,
)
from lsdioph.strategy import (
    LOOKAHEAD,
    AvoidanceWhite,
    _block_digits,
    _block_values,
    _ceil_minus_one,
    _danger_rows,
    _pattern_matrix,
    _single_entry_patterns,
    LiteralWhite,
    StrategyConfig,
    calibrate_constants,
    certify_bad,
    check_inequalities,
    danger_set,
    discrete_gradient,
    is_orthonormal,
    minor_sup,
    minors,
    orthonormalize,
    phi,
    principal_minor,
    schedule_markers,
)

F2 = FieldSpec(2)
CFG = StrategyConfig(F2, 1, 1, R_exp=2, height_cap_exp=4)


def test_config_derived_exponents():
    assert CFG.tau == Fraction(1, 2)
    assert CFG.delta_exp == -8
    assert CFG.delta_star_exp == -8
    assert CFG.certify_K_exponent == -21
    assert [CFG.marker_exponent("k", i) for i in range(3)] == [-2, -6, -10]
    assert [CFG.marker_exponent("h", i) for i in range(3)] == [-4, -8, -12]
    assert CFG.window_exponent("k", 4) == 1
    assert CFG.threshold_exponent("k", 4) == -19
    assert CFG.window_exponent("h", 4) == 2
    assert CFG.threshold_exponent("h", 4) == -20
    # non-integer window exponents for asymmetric shapes compare exactly
    cfg21 = StrategyConfig(F2, 2, 1, R_exp=1)
    assert cfg21.window_exponent("k", 0) == Fraction(2, 3) - 18


def test_marker_schedule_example():
    # R = 2, m = n = 1: k-thresholds 2^(-1-2i); alpha = beta = 1/2
    cfg = StrategyConfig(F2, 1, 1, R_exp=1)
    params = GameParams(Fraction(1, 2), Fraction(1, 2), F2)
    t = play(
        ConcentricStrategy("alpha"),
        ConcentricStrategy("beta"),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=6),
    )
    ms = schedule_markers(t, cfg)
    # B_1 = 1, B_2 = 1/4 < 1/2: the first threshold is crossed at index 2
    assert ms.k_indices[0] == 2
    # radii 4^-i: threshold 2^(-1-2i) crossed at black ball i+1 (index 2i+2)
    assert list(ms.k_indices) == [2 * i + 2 for i in range(len(ms.k_indices))]
    assert len(ms.k_indices) >= 3


def test_marker_schedule_empty_and_interleaving():
    params = GameParams(Fraction(1, 2), Fraction(1, 2), F2)
    t = play(
        ConcentricStrategy("alpha"),
        ConcentricStrategy("beta"),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=1),
    )
    ms = schedule_markers(t, CFG)
    assert ms.k_indices == () and ms.h_indices == ()
    rng = random.Random(1)
    for seed in range(60):
        t = play(
            ConcentricStrategy("alpha"),
            RandomBlack(seed),
            unit_ball(F2, 1, 1),
            GameParams(Fraction(1, rng.randint(2, 4)), Fraction(1, rng.randint(2, 4)), F2),
            StopRule(max_rounds=14),
        )
        ms = schedule_markers(t, CFG)
        assert list(ms.k_indices) == sorted(ms.k_indices)
        assert list(ms.h_indices) == sorted(ms.h_indices)
        # interleaving: k_0 <= h_0 <= k_1 <= h_1 <= ...
        merged = []
        for a, b in zip(ms.k_indices, ms.h_indices):
            merged.extend([a, b])
        assert merged == sorted(merged)


def test_check_inequalities_level0_empty():
    rng = random.Random(2)
    for _ in range(50):
        A = SeriesMatrix(
            F2, [[LaurentSeries(F2, {-e: rng.randrange(2) for e in range(1, 6)})]]
        )
        for qa in range(4):
            for qb in range(4):
                q = (Poly(F2, [qa & 1, qa >> 1]), Poly(F2, [qb & 1, qb >> 1]))
                assert not check_inequalities(A, q, 0, "k", CFG)


def test_check_inequalities_zero_head_false():
    A = SeriesMatrix(F2, [[parse_series("X^-1", F2)]])
    q = (Poly.zero(F2), Poly.one(F2))
    assert not check_inequalities(A, q, 5, "k", CFG)


def test_check_inequalities_planted_solution():
    # rational entry p/q0 with q = (q0, -p) zeroes the hat column exactly
    q0 = parse_poly("X + 1", F2)
    p = Poly.one(F2)
    A = SeriesMatrix(F2, [[RationalFn(p, q0)]])
    q = (q0, -p)
    assert check_inequalities(A, q, 5, "k", CFG)
    assert not check_inequalities(A, q, 0, "k", CFG)  # window shut at level 0


def test_danger_level0_always_empty():
    rng = random.Random(3)
    for _ in range(40):
        ball = random_ball(rng, F2, 1, 1, -rng.randint(1, 24), 6)
        assert danger_set(ball, 0, "k", CFG).empty


def test_danger_monotone_under_shrinking():
    rng = random.Random(5)
    for _ in range(20):
        level = rng.choice([4, 5])
        e = CFG.marker_exponent("k", level) - rng.randint(0, 3)
        big = random_ball(rng, F2, 1, 1, e, 26)
        small = FormalBall(big.center, big.radius / 4)
        d_big = danger_set(big, level, "k", CFG, height_cap=Magnitude.power(2, 4))
        d_small = danger_set(small, level, "k", CFG, height_cap=Magnitude.power(2, 4))
        assert set(d_small.solutions) <= set(d_big.solutions)


def test_danger_set_planted_solution_and_rank():
    # center = deep truncation of 1/(X+1): the true rational sits in the ball
    q0 = parse_poly("X + 1", F2)
    series = RationalFn(Poly.one(F2), q0).to_series(precision=40)
    level = 5
    e = CFG.marker_exponent("k", level) - 1  # radius below the level marker
    center = SeriesMatrix(F2, [[series.truncate_below(e + 1)]])
    ball = FormalBall(center, Magnitude.power(2, e).as_fraction())
    report = danger_set(ball, level, "k", CFG, height_cap=Magnitude.power(2, 4))
    assert not report.empty
    assert any(sol[0] == q0 for sol in report.solutions)
    assert report.rank <= CFG.n


def test_danger_rank_bounds_sampled():
    # the rank bounds presuppose that the complementary family has no
    # solutions on the ball; random balls are filtered for that hypothesis
    rng = random.Random(7)
    cap = Magnitude.power(2, 3)
    for (m, n) in ((1, 1), (2, 1), (1, 2)):
        cfg = StrategyConfig(F2, m, n, R_exp=1, height_cap_exp=3)
        k_level = next(i for i in range(60) if cfg.window_exponent("k", i) > 0)
        h_level = next(i for i in range(60) if cfg.window_exponent("h", i) > 0)
        done = 0
        while done < 20:
            ek = cfg.marker_exponent("k", k_level) - rng.randint(0, 2)
            ball = random_ball(rng, F2, m, n, ek, -ek)
            if k_level >= 1 and not danger_set(
                ball, k_level - 1, "h", cfg, height_cap=cap
            ).empty:
                continue
            rep = danger_set(ball, k_level, "k", cfg, height_cap=cap)
            assert rep.rank <= n
            eh = cfg.marker_exponent("h", h_level) - rng.randint(0, 2)
            ball_h = random_ball(rng, F2, m, n, eh, -eh)
            if not danger_set(ball_h, h_level, "k", cfg, height_cap=cap).empty:
                continue
            rep_h = danger_set(ball_h, h_level, "h", cfg, height_cap=cap)
            assert rep_h.rank <= m
            done += 1


def _oracle_danger_heads(ball, level, cfg):
    """Independent existential check for the single-form case: a head q is
    dangerous iff some matrix of the ball (enumerated over every coefficient
    that can influence the comparison) beats the value threshold with the
    best lattice tail."""
    import itertools
    from math import ceil

    from lsdioph.approx import iter_polys
    from lsdioph.game import canonicalize

    canonical = canonicalize(ball)
    e = canonical.effective_exponent()
    C = canonical.center.entry(0, 0)
    thr_exp = cfg.threshold_exponent("k", level)
    window_exp = cfg.window_exponent("k", level)
    thr = Magnitude(2, thr_exp)
    max_deg = min(ceil(window_exp) - 1, cfg.height_cap_exp)
    out = set()
    if max_deg < 0:
        return out
    thr_floor = int(thr_exp.__floor__())
    for q in iter_polys(F2, max_deg):
        if q.is_zero:
            continue
        span = list(range(thr_floor - q.degree, e + 1))
        for bits in itertools.product(range(2), repeat=len(span)):
            delta = LaurentSeries(F2, {x: b for x, b in zip(span, bits) if b})
            if ((C + delta) * q).frac_norm() < thr:
                out.add(q.coeffs)
                break
    return out


def test_danger_set_matches_existential_oracle():
    rng = random.Random(0)
    cap = Magnitude.power(2, 4)
    for trial in range(25):
        level = rng.choice([4, 5])
        e = CFG.marker_exponent("k", level) - rng.randint(0, 2)
        ball = random_ball(rng, F2, 1, 1, e, -e)
        rep = danger_set(ball, level, "k", CFG, height_cap=cap)
        got = {sol[0].coeffs for sol in rep.solutions}
        assert got == _oracle_danger_heads(ball, level, CFG)
    # planted rational center: three dangerous heads, all found
    q0 = parse_poly("X + 1", F2)
    series = RationalFn(Poly.one(F2), q0).to_series(precision=40)
    e = CFG.marker_exponent("k", 5) - 1
    center = SeriesMatrix(F2, [[series.truncate_below(e + 1)]])
    ball = FormalBall(center, Magnitude.power(2, e).as_fraction())
    rep = danger_set(ball, 5, "k", CFG, height_cap=cap)
    got = {sol[0].coeffs for sol in rep.solutions}
    assert got == _oracle_danger_heads(ball, 5, CFG)
    assert len(got) == 3


def test_orthonormalize_and_verify():
    rng = random.Random(9)
    for (m, n) in ((1, 1), (2, 1), (2, 2)):
        basis = random_orthonormal_basis(rng, F2, m, m + n)
        assert is_orthonormal(basis, F2)
        # combination norms equal the max coefficient norm
        for _ in range(50):
            ts = [
                Poly(F2, [rng.randrange(2) for _ in range(rng.randint(1, 4))])
                for _ in range(m)
            ]
            if all(t.is_zero for t in ts):
                continue
            combo = None
            for t, y in zip(ts, basis):
                term = tuple(x * t for x in y)
                combo = term if combo is None else tuple(
                    a + b for a, b in zip(combo, term)
                )
            expect = max((t.norm() for t in ts if not t.is_zero))
            got = None
            for x in combo:
                nx = x.norm()
                got = nx if got is None else max(got, nx)
            assert got == expect


def test_orthonormalize_from_polynomial_span():
    vecs = [
        (parse_poly("X^2", F2), parse_poly("X", F2), Poly.one(F2)),
        (parse_poly("X^2 + X", F2), parse_poly("X", F2), Poly.zero(F2)),
    ]
    basis = orthonormalize(vecs, F2, 3, 2)
    assert len(basis) == 2
    assert is_orthonormal(basis, F2)


def test_minor_examples():
    rng = random.Random(11)
    basis = random_orthonormal_basis(rng, F2, 1, 2)
    A = SeriesMatrix(F2, [[parse_series("X^-1 + X^-2", F2)]])
    m0 = minors(A, basis, 0)
    assert m0.entries == (LaurentSeries.one(F2),)
    m1 = minors(A, basis, 1)
    assert len(m1.entries) == 1
    from lsdioph.approx import build_hat

    col = build_hat(LinearFormSystem(A)).hat_star.col(0)
    assert m1.entries[0] == vec_dot(basis[0], col)
    # count for m = 3: C(3,2)^2 = 9
    basis3 = random_orthonormal_basis(rng, F2, 3, 4)
    A3 = SeriesMatrix(
        F2, [[LaurentSeries(F2, {-1: rng.randrange(2), -2: 1})] for _ in range(3)]
    )
    assert len(minors(A3, basis3, 2).entries) == 9


def test_gradient_single_form_constant():
    rng = random.Random(13)
    basis = random_orthonormal_basis(rng, F2, 1, 2)
    for _ in range(10):
        A = SeriesMatrix(
            F2, [[LaurentSeries(F2, {-e: rng.randrange(2) for e in range(1, 5)})]]
        )
        grad = discrete_gradient(A, basis, 1)
        assert len(grad) == 1
        # D_1(A) = y_1 a + y_2 is affine in the entry: gradient = y_1
        assert grad[0] == basis[0][0]
    zero = SeriesMatrix.zero(F2, 1, 1)
    assert discrete_gradient(zero, basis, 1)[0] == basis[0][0]


def test_minor_perturbation_bound():
    """Unit-entry perturbations move the minor vector by at most the entry
    norm times the next-lower minor sup over the ball."""
    rng = random.Random(17)
    for (m, n) in ((2, 1), (2, 2)):
        for _ in range(10):
            basis = random_orthonormal_basis(rng, F2, m, m + n)
            ball = random_ball(rng, F2, m, n, -rng.randint(1, 3), 3)
            A = ball.center
            v = m
            i, j = rng.randrange(m), rng.randrange(n)
            x = LaurentSeries.monomial(F2, 1, -rng.randint(0, 2))
            rows = [list(r) for r in A.entries]
            rows[i][j] = rows[i][j] + x
            A2 = SeriesMatrix(F2, rows)
            m1 = minors(A, basis, v - 1)
            m2 = minors(A2, basis, v - 1)
            diff = None
            for a, b in zip(m1.entries, m2.entries):
                nd = (a - b).norm()
                diff = nd if diff is None else max(diff, nd)
            bound = x.norm() * minor_sup(ball, basis, v - 2)
            assert diff <= bound


def test_phi_examples():
    rng = random.Random(19)
    basis = random_orthonormal_basis(rng, F2, 1, 2)
    A = SeriesMatrix(F2, [[parse_series("X^-1", F2)]])
    z0 = (LaurentSeries.zero(F2), LaurentSeries.zero(F2))
    assert phi(z0, A, basis, 1).is_zero
    for _ in range(20):
        z = tuple(
            LaurentSeries(F2, {rng.randint(-3, 1): 1, -5: rng.randrange(2)})
            for _ in range(2)
        )
        val = phi(z, A, basis, 1)
        xz = tuple(x.shift(1) for x in z)
        assert phi(xz, A, basis, 1) == Magnitude.power(2, 1) * val
        # v = 1: phi(z) = ||d_1|| * ||y_1 . z|| with d_1 = 1
        assert val == vec_dot(basis[0], z).norm()


def test_principal_minor_and_phi_cofactors():
    rng = random.Random(23)
    basis = random_orthonormal_basis(rng, F2, 2, 3)
    A = SeriesMatrix(
        F2,
        [[LaurentSeries(F2, {-1: 1})], [LaurentSeries(F2, {-2: 1})]],
    )
    assert principal_minor(A, basis, 0) == LaurentSeries.one(F2)
    # phi at v=2 expands the last column: difference of determinants
    from lsdioph.approx import build_hat

    hat_star = build_hat(LinearFormSystem(A)).hat_star
    z = (LaurentSeries.one(F2), LaurentSeries.zero(F2), LaurentSeries(F2, {-1: 1}))
    from lsdioph.linalg import det_entries

    G = [[vec_dot(y, hat_star.col(l)) for l in range(2)] for y in basis]
    shifted = [
        [G[r][0], vec_dot(basis[r], tuple(a + b for a, b in zip(hat_star.col(1), z)))]
        for r in range(2)
    ]
    direct = (det_entries(shifted, F2) - det_entries(G, F2)).norm()
    assert phi(z, A, basis, 2) == direct


def test_literal_white_moves_satisfy_projection_bound():
    cfg = StrategyConfig(F2, 1, 1, R_exp=2, height_cap_exp=4)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    white = LiteralWhite(cfg)
    t = play(white, RandomBlack(3), unit_ball(F2, 1, 1), params, StopRule(max_rounds=16))
    assert t.forfeit is None
    # gamma = 1/4, step alpha*beta = 1/8: one round already meets gamma/2
    assert LiteralWhite.anchor_rounds(params) == 1
    for i in range(1, len(t.balls), 2):
        prev, here = t.balls[i - 1], t.balls[i]
        assert formal_contains(here, prev)
        shift = (here.center - prev.center).height()
        if not shift.is_zero:
            # on-grid move: a single coefficient at the floor exponent of
            # (1 - alpha) * radius, which meets the k^-1(1-alpha) bound
            g = floor_log((1 - params.alpha) * prev.radius, 2)
            assert shift == Magnitude.power(2, g)
            assert Fraction(2) ** g >= (1 - params.alpha) * prev.radius / 2


def test_anchor_rounds_window():
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    t0 = LiteralWhite.anchor_rounds(params)
    step = params.alpha * params.beta
    gamma = params.gamma
    assert step**t0 <= gamma / 2 < step ** (t0 - 1)


def test_black_reply_projection_bound():
    """No matter how Black recenters, the move projects on any anchor by at
    most (1 - beta) * radius * anchor height."""
    rng = random.Random(29)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    t = play(
        ConcentricStrategy("alpha"),
        RandomBlack(11),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=10),
    )
    for i in range(2, len(t.balls), 2):
        w_ball, b_ball = t.balls[i - 1], t.balls[i]
        move = (b_ball.center - w_ball.center).entry(0, 0)
        for _ in range(5):
            anchor = LaurentSeries(F2, {rng.randint(-3, 3): 1})
            proj = (move * anchor).norm() if not move.is_zero else Magnitude.zero(2)
            bound = (1 - params.beta) * w_ball.radius * anchor.norm().as_fraction()
            if not proj.is_zero:
                assert proj.as_fraction() <= bound


def test_avoidance_concentric_when_no_danger():
    cfg = StrategyConfig(F2, 1, 1, R_exp=2, height_cap_exp=4)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    white = AvoidanceWhite(cfg)
    b1 = unit_ball(F2, 1, 1)
    t = play(white, ConcentricStrategy("beta"), b1, params, StopRule(max_rounds=2))
    # zero center has no fractional part to defend this early
    assert all(b.center == b1.center for b in t.balls[:3])


def test_certify_bad_counterexample_on_rational():
    q0 = parse_poly("X^2 + X + 1", F2)
    point = SeriesMatrix(F2, [[RationalFn(Poly.one(F2), q0)]])
    with pytest.raises(CounterexampleFound) as err:
        certify_bad(point, CFG, Magnitude.power(2, 2))
    assert err.value.q[0] == q0


def test_certify_bad_passes_on_bounded_quotients():
    # [0; X, X, X, ...] to depth 20: all partial quotients degree 1, so every
    # vector under the cap keeps score >= k^-2 > K
    from lsdioph.approx import ContinuedFraction, cf_convergents

    quotients = (Poly.zero(F2),) + (Poly.x(F2),) * 20
    p, q = cf_convergents(ContinuedFraction(quotients, True))[-1]
    point = SeriesMatrix(F2, [[RationalFn(p, q)]])
    cert = certify_bad(point, CFG, Magnitude.power(2, 4))
    assert cert.min_margin_exponent > 0
    assert cert.witnesses_checked == 31


def test_minor_change_bound_small_shrink():
    """Inside a ball much smaller than the anchor ball, the minor vector is
    nearly constant: the stated difference bound holds exactly."""
    rng = random.Random(31)
    for _ in range(20):
        m, n = 2, 1
        basis = random_orthonormal_basis(rng, F2, m, m + n)
        anchor = random_ball(rng, F2, m, n, -2, 3)
        v = 2
        sup_prev = minor_sup(anchor, basis, v - 2)
        mu = Fraction(1, 4)
        eps = Fraction(1, 2)
        rho_small = eps * mu * anchor.radius / 2
        e_small = floor_log(rho_small, 2)
        small = FormalBall(anchor.center, Magnitude.power(2, e_small).as_fraction())
        A1 = small.center
        rows = [list(r) for r in A1.entries]
        rows[0][0] = rows[0][0] + LaurentSeries.monomial(F2, 1, e_small)
        A2 = SeriesMatrix(F2, rows)
        m1, m2 = minors(A1, basis, v - 1), minors(A2, basis, v - 1)
        diff = None
        for a, b in zip(m1.entries, m2.entries):
            nd = (a - b).norm()
            diff = nd if diff is None else max(diff, nd)
        bound = eps * anchor.radius * mu * _as_fraction_or_zero(sup_prev)
        if not diff.is_zero:
            assert diff.as_fraction() < bound


def _as_fraction_or_zero(mag):
    return mag.as_fraction() if not mag.is_zero else Fraction(0)


def test_gradient_lower_bound_with_shipped_K5():
    """Under the smallness and maximality hypotheses, the gradient height
    clears K5 times the minor sup; violations are build failures.  K5 = 1/8
    is the worst case of `lsdioph calibrate constants` sweeps over (m, n) in
    {(1,1),(2,1),(1,2)} x k in {2,3}, seed 0."""
    rng = random.Random(37)
    K5 = Fraction(1, 8)
    hits = 0
    for _ in range(900):
        basis = random_orthonormal_basis(rng, F2, 2, 3)
        ball = random_ball(rng, F2, 2, 1, -rng.randint(2, 4), 3)
        A = ball.center
        v = 2
        sup_prev = minor_sup(ball, basis, v - 1)
        if sup_prev.is_zero:
            continue
        mv = minors(A, basis, v).height()
        if not mv < Magnitude.power(2, -3) * sup_prev:
            continue
        principal = principal_minor(A, basis, v - 1)
        if principal.norm() != minors(A, basis, v - 1).height():
            continue
        grad = discrete_gradient(A, basis, v)
        gh = None
        for x in grad:
            nx = x.norm()
            gh = nx if gh is None else max(gh, nx)
        hits += 1
        assert gh.as_fraction() > K5 * sup_prev.as_fraction()
    assert hits >= 5  # the hypotheses are rarely met by chance


class TargetingBlack:
    """Steers play toward a fixed rational point; rational limits are
    maximally well approximable, so this is the hardest scripted adversary."""

    def __init__(self, target_series):
        self.target = target_series

    def propose(self, t):
        from lsdioph.game import legal_center_shift_exponent, validate_move

        prev = t.last()
        beta = t.params.beta
        g = legal_center_shift_exponent(prev, beta)
        cur = prev.center.entry(0, 0)
        delta = {}
        for e in range(g, g - 2, -1):
            delta[e] = (self.target.coeffs.get(e, 0) - cur.coeffs.get(e, 0)) % 2
        cand = cur + LaurentSeries(F2, delta)
        ball = FormalBall(SeriesMatrix(F2, [[cand]]), beta * prev.radius)
        if validate_move(prev, ball, beta):
            return ball
        return FormalBall(prev.center, beta * prev.radius)


def test_avoidance_beats_rational_targeting_adversary():
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    checked = 0
    for dq in range(1, 4):
        for bits in range(2**dq):
            q0 = Poly(F2, [(bits >> b) & 1 for b in range(dq)] + [1])
            for pbits in range(1, 2**dq):
                p = Poly(F2, [(pbits >> b) & 1 for b in range(dq)])
                if p.is_zero or p.gcd(q0).degree != 0 or p.degree >= q0.degree:
                    continue
                target = RationalFn(p, q0).to_series(precision=80)
                white = AvoidanceWhite(CFG)
                t = play(
                    white,
                    TargetingBlack(target),
                    unit_ball(F2, 1, 1),
                    params,
                    StopRule(max_rounds=24),
                )
                assert t.forfeit is None
                from lsdioph.game import limit_point

                point = limit_point(t, 30)
                cert = certify_bad(
                    point, CFG, Magnitude.power(2, 4), known_below=-30
                )
                assert cert.min_margin_exponent > 0
                checked += 1
    assert checked == 42


def test_avoidance_nonsquare_shape_runs_legally():
    cfg = StrategyConfig(F2, 2, 1, R_exp=1, height_cap_exp=2)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    white = AvoidanceWhite(cfg)
    t = play(white, RandomBlack(3), unit_ball(F2, 2, 1), params, StopRule(max_rounds=24))
    assert t.forfeit is None
    from lsdioph.game import limit_point

    point = limit_point(t, 30)
    cert = certify_bad(point, cfg, Magnitude.power(2, 2), known_below=-30)
    assert cert.min_margin_exponent > 0
    ms = schedule_markers(t, cfg)
    assert ms.k_indices and ms.h_indices


def test_calibrate_constants_reports():
    report = calibrate_constants(F2, 1, 1, samples=40, seed=1)
    assert report.K4 > 0 and report.K5 > 0 and report.K6 > 0 and report.K7 > 0
    js = report.to_json()
    assert js["provenance"].startswith("empirical")


# ---------------------------------------------------------------------------
# Differential tests of White's danger bookkeeping
# ---------------------------------------------------------------------------
#
# The oracles below are the strategies as they were before the danger scan
# tested each vector once, at its lowest admitting level: an incremental
# value cache over canonical centers, per-level safety pins and a marker
# rescan of every Black radius on every move.


class OracleAvoidanceWhite:
    """Dodge every danger vector visible under the height cap: among the
    legal sub-ball centers on the k-grid, pick the one maximizing the worst
    violation margin of the level inequalities.  Empty danger set means a
    concentric shrink."""

    name = "white-avoid"

    def __init__(self, cfg: StrategyConfig, lookahead: int = 2):
        self.cfg = cfg
        self.lookahead = lookahead
        self._values = {}  # (kind, q-key) -> list of block-value series
        self._qvecs = {}
        self._safe_from = {}  # (kind, q-key) -> level pinned safe
        self._last_center = None
        self.dodges = 0

    def active_dangers(self, t: GameTranscript):
        """Danger vectors visible from the current ball (advances the
        incremental value cache)."""
        prev = t.last()
        canonical = canonicalize(prev)
        self._advance_cache(canonical.center)
        e_sub = floor_log(t.params.alpha * prev.radius, self.cfg.spec.k)
        return canonical, e_sub, self._collect_dangers(t, canonical, e_sub)

    def propose(self, t: GameTranscript) -> FormalBall:
        cfg = self.cfg
        prev = t.last()
        alpha = t.params.alpha
        spec = cfg.spec
        canonical, e_sub, dangers = self.active_dangers(t)
        if not dangers:
            return FormalBall(prev.center, alpha * prev.radius)
        g = legal_center_shift_exponent(prev, alpha)
        # the true proposal keeps center coefficients the canonical form drops
        residual = prev.center - canonical.center
        res_shifts = {}
        for kind, _level, key, _thr in dangers:
            if (kind, key) not in res_shifts:
                res_shifts[(kind, key)] = _block_values(
                    residual, kind, self._qvecs[(kind, key)]
                )
        best = None
        for delta_pat in self._candidate_patterns():
            shift = _pattern_matrix(spec, cfg.m, cfg.n, delta_pat, g)
            margin = None
            for kind, level, key, thr_exp in dangers:
                m_d = self._margin(
                    kind, key, shift, e_sub, thr_exp, res_shifts[(kind, key)]
                )
                margin = m_d if margin is None else min(margin, m_d)
            if best is None or margin > best[0]:
                best = (margin, delta_pat, shift)
        _, pat, shift = best
        if any(pat):
            self.dodges += 1
        return FormalBall(prev.center + shift, alpha * prev.radius)

    # -- candidate grid ------------------------------------------------------

    def _candidate_patterns(self):
        spec = self.cfg.spec
        cells = self.cfg.m * self.cfg.n
        if spec.k**cells <= 81:
            return list(itertools.product(spec.elements(), repeat=cells))
        pats = [tuple([0] * cells)]
        pats.extend(_single_entry_patterns(spec, cells))
        return pats

    # -- danger bookkeeping ---------------------------------------------------

    def _advance_cache(self, center: SeriesMatrix):
        if self._last_center is None:
            self._last_center = center
            return
        if center == self._last_center:
            return
        delta = center - self._last_center
        if any(not x.is_zero for row in delta.entries for x in row):
            for (kind, key), values in self._values.items():
                q_first = self._qvecs[(kind, key)]
                shift = _block_values(delta, kind, q_first)
                self._values[(kind, key)] = [a + b for a, b in zip(values, shift)]
        self._last_center = center

    def _next_level(self, t: GameTranscript, kind: str) -> int:
        k = self.cfg.spec.k
        radii = [b.radius for b in t.black_balls()]
        i = 0
        while any(
            r < Magnitude.power(k, self.cfg.marker_exponent(kind, i)).as_fraction()
            for r in radii
        ):
            i += 1
            if i > 128:
                break
        return i

    def _collect_dangers(self, t, canonical: FormalBall, e_sub: int):
        cfg = self.cfg
        spec = cfg.spec
        k = spec.k
        e = canonical.effective_exponent()
        out = []
        for kind in ("k", "h"):
            hi = self._next_level(t, kind) + self.lookahead
            for i in range(hi + 1):
                window = cfg.window_exponent(kind, i)
                max_deg = _ceil_minus_one(window)
                max_deg = min(max_deg, cfg.height_cap_exp)
                if max_deg < 0:
                    continue
                thr_exp = cfg.threshold_exponent(kind, i)
                thr = Magnitude(k, thr_exp)
                for h in range(0, max_deg + 1):
                    pert = Magnitude.power(k, h + e)
                    for q_first in iter_height_class(spec, cfg.first_block(kind), h):
                        key = tuple(p.coeffs for p in q_first)
                        pinned = self._safe_from.get((kind, key))
                        if pinned is not None and i >= pinned:
                            continue
                        values = self._value_of(kind, key, q_first, canonical.center)
                        fracs = [v.frac_norm() for v in values]
                        if any(f > pert and f >= thr for f in fracs):
                            # value pinned above every later threshold: the
                            # perturbation allowance only shrinks from here
                            if pinned is None or pinned > i:
                                self._safe_from[(kind, key)] = i
                            continue
                        if all(f <= pert or f < thr for f in fracs):
                            out.append((kind, i, key, thr_exp))
        return out

    def _value_of(self, kind, key, q_first, center):
        cached = self._values.get((kind, key))
        if cached is None:
            cached = _block_values(center, kind, q_first)
            self._values[(kind, key)] = cached
            self._qvecs[(kind, key)] = q_first
        return cached

    def _margin(self, kind, key, shift, e_sub, thr_exp, res_shift):
        """Worst-case violation margin of the danger on the sub-ball moved
        by the candidate ``shift`` matrix (in k-exponents; higher is safer,
        None-like floor is represented by a large negative number)."""
        cfg = self.cfg
        spec = cfg.spec
        q_first = self._qvecs[(kind, key)]
        h = max(p.degree for p in q_first if not p.is_zero)
        pert = Magnitude.power(spec.k, h + e_sub)
        base_values = self._values[(kind, key)]
        moved = _block_values(shift, kind, q_first)
        best = Fraction(-(10**9))
        for v, s, r in zip(base_values, moved, res_shift):
            f = (v + r + s).frac_norm()
            reach = Magnitude.zero(spec.k) if f <= pert else f
            if reach.is_zero:
                continue
            best = max(best, reach.exponent() - thr_exp)
        return best


class OracleLiteralWhite:
    """The gradient-anchored move rule: hold a direction anchor for t0
    rounds, recentering so the move's projection on the anchor is at least
    (1-alpha)/k of the ball radius times the anchor height; the anchor is
    the discrete gradient of the top principal minor at the current center.
    Falls back to avoidance play when the gradient vanishes."""

    name = "white-literal"

    def __init__(self, cfg: StrategyConfig, lookahead: int = 2):
        self.cfg = cfg
        self.anchor = None
        self.hold = 0
        self._avoid = OracleAvoidanceWhite(cfg, lookahead)

    @staticmethod
    def anchor_rounds(params) -> int:
        """Smallest t0 with (alpha*beta)^t0 <= gamma/2 (then also
        (alpha*beta)^t0 > alpha*beta*gamma/2)."""
        gamma = params.gamma
        if gamma <= 0:
            raise ValueError("gamma must be positive for the literal rule")
        step = params.alpha * params.beta
        t0 = 1
        cur = step
        while cur > gamma / 2:
            cur *= step
            t0 += 1
        return t0

    def propose(self, t: GameTranscript) -> FormalBall:
        cfg = self.cfg
        prev = t.last()
        alpha = t.params.alpha
        spec = cfg.spec
        canonical, _e_sub, dangers = self._avoid.active_dangers(t)
        if not dangers:
            # no hypothetical bad matrix to refute: the anchored maneuver is
            # only engaged inside a danger episode
            self.anchor = None
            self.hold = 0
            return FormalBall(prev.center, alpha * prev.radius)
        if self.anchor is None or self.hold <= 0:
            self.anchor = self._compute_anchor(t, canonical)
            self.hold = self.anchor_rounds(t.params)
        if self.anchor is None:
            return self._avoid.propose(t)
        self.hold -= 1
        norms = [x.norm() for x in self.anchor]
        top = max(norms)
        if top.is_zero:
            self.anchor = None
            return self._avoid.propose(t)
        cell = norms.index(top)
        i, j = divmod(cell, cfg.n)
        g = legal_center_shift_exponent(prev, alpha)
        # the rule LiteralWhite follows since it dodges q = 1: a k-type
        # danger the anchored move leaves at margin <= 0 is met by the
        # avoidance move (at any level, as the lowest gives the least margin)
        pat = [0] * (cfg.m * cfg.n)
        pat[cell] = 1
        shift = _pattern_matrix(spec, cfg.m, cfg.n, pat, g)
        residual = prev.center - canonical.center
        for kind, _level, key, thr_exp in dangers:
            if kind == "k":
                res = _block_values(residual, kind, self._avoid._qvecs[(kind, key)])
                if self._avoid._margin(kind, key, shift, _e_sub, thr_exp, res) <= 0:
                    return self._avoid.propose(t)
        rows = [list(r) for r in prev.center.entries]
        rows[i][j] = rows[i][j] + LaurentSeries.monomial(spec, 1, g)
        ball = FormalBall(SeriesMatrix(spec, rows), alpha * prev.radius)
        # the anchored-projection bound: k^g >= (1 - alpha) * radius / k
        if Fraction(spec.k**g if g >= 0 else Fraction(1, spec.k**-g)) * spec.k < (
            1 - alpha
        ) * prev.radius:
            raise NoLegalCenter("k-grid exhausted below the projection bound")
        return ball

    def _compute_anchor(self, t: GameTranscript, canonical: FormalBall):
        cfg = self.cfg
        basis = self._danger_basis(t, canonical)
        grad = discrete_gradient(canonical.center, basis, cfg.m)
        if all(x.is_zero for x in grad):
            return None
        return grad

    def _danger_basis(self, t, canonical):
        cfg = self.cfg
        level = self._avoid._next_level(t, "h")
        report = danger_set(
            canonical,
            level,
            "h",
            cfg,
            height_cap=Magnitude.power(cfg.spec.k, cfg.height_cap_exp),
        )
        vecs = list(report.solutions[: cfg.m])
        return orthonormalize(vecs, cfg.spec, cfg.d, cfg.m)


class SteeringBlack:
    """Sets every center coefficient it may legally touch, down to a fixed
    depth, to those of a rational target, so White meets danger vectors."""

    def __init__(self, targets):
        self.targets = targets

    def propose(self, t):
        prev = t.last()
        beta = t.params.beta
        spec = prev.spec
        g = legal_center_shift_exponent(prev, beta)
        rows = []
        for row, target_row in zip(prev.center.entries, self.targets):
            out = []
            for x, y in zip(row, target_row):
                delta = {
                    e: spec.sub(y.coeffs.get(e, 0), x.coeffs.get(e, 0))
                    for e in range(g - 8, g + 1)
                }
                out.append(x + LaurentSeries(spec, delta))
            rows.append(out)
        return FormalBall(SeriesMatrix(spec, rows), beta * prev.radius)


def _rational_target(rng, spec):
    d = rng.randint(1, 3)
    den = Poly(spec, [rng.randrange(spec.k) for _ in range(d)] + [1])
    num = Poly(spec, [rng.randrange(spec.k) for _ in range(d)])
    return RationalFn(num, den).to_series(precision=80)


GAMES = dict(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    shape=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    cap=st.integers(1, 4),
    R_exp=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    rounds=st.integers(1, 16),
    steer=st.booleans(),
)


def _game_setup(field, shape, cap, R_exp, seed, steer):
    """Config, params and a fresh Black for one drawn game."""
    spec = FieldSpec(*field)
    m, n = shape
    # the oracle rebuilds whole height classes every move: keep them small
    while cap > 1 and spec.k ** ((cap + 1) * max(m, n)) > 1024:
        cap -= 1
    cfg = StrategyConfig(spec, m, n, R_exp=R_exp, height_cap_exp=cap)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), spec)

    def black():
        if not steer:
            return RandomBlack(seed)
        rng = random.Random(seed)
        targets = [[_rational_target(rng, spec) for _ in range(n)] for _ in range(m)]
        return SteeringBlack(targets)

    return cfg, params, black


@settings(max_examples=60)
@given(literal=st.booleans(), **GAMES)
def test_white_matches_the_oracle(field, shape, cap, R_exp, seed, rounds, steer, literal):
    cfg, params, black = _game_setup(field, shape, cap, R_exp, seed, steer)
    start = unit_ball(cfg.spec, cfg.m, cfg.n)
    runs = []
    for white in (
        OracleLiteralWhite(cfg) if literal else OracleAvoidanceWhite(cfg),
        LiteralWhite(cfg) if literal else AvoidanceWhite(cfg),
    ):
        t = play(white, black(), start, params, StopRule(max_rounds=rounds))
        avoid = white._avoid if literal else white
        runs.append((t.to_jsonl(), avoid.dodges))
    assert runs[0] == runs[1]


@settings(max_examples=60)
@given(**GAMES)
# F2, (1, 1), R = k: dangers listed below the top scanned level
@example(field=(2, 1), shape=(1, 1), cap=2, R_exp=1, seed=1, rounds=3, steer=False)
@example(field=(2, 1), shape=(1, 1), cap=3, R_exp=1, seed=0, rounds=5, steer=True)
def test_dangers_sit_at_their_lowest_level(field, shape, cap, R_exp, seed, rounds, steer):
    """Every move reports the oracle's danger vectors, each once, with the
    threshold of the lowest level the oracle lists it at."""
    cfg, params, black = _game_setup(field, shape, cap, R_exp, seed, steer)
    white, oracle = AvoidanceWhite(cfg), OracleAvoidanceWhite(cfg)

    class Lockstep:
        def propose(self, t):
            got = [
                (kind, tuple(p.coeffs for p in q), thr)
                for kind, q, _h, _values, thr in white.active_dangers(t)
            ]
            want = {}
            for kind, _level, key, thr in oracle.active_dangers(t)[2]:
                want.setdefault((kind, key), thr)  # levels ascend
            assert sorted(got) == sorted((*danger, thr) for danger, thr in want.items())
            ball = white.propose(t)
            assert ball == oracle.propose(t)
            return ball

    start = unit_ball(cfg.spec, cfg.m, cfg.n)
    play(Lockstep(), black(), start, params, StopRule(max_rounds=rounds))


@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    shape=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]),
    kind=st.sampled_from(["k", "h"]),
    cancel=st.booleans(),
    e=st.integers(-40, 2),
    thr_exp=st.fractions(min_value=-40, max_value=2, max_denominator=6),
    data=st.data(),
)
def test_frac_digit_scan_matches_the_safe_test(field, shape, kind, cancel, e, thr_exp, data):
    """q solves every danger row exactly when the digit scan and the test on
    whole block values find it live, with values that cancel down to one
    deep coefficient when ``cancel`` is drawn.  The rows are checked one by
    one: the null space can hold 9^15 vectors."""
    spec = FieldSpec(*field)
    rows, cols = shape
    coeffs = st.dictionaries(st.integers(-12, 2), st.integers(0, spec.k - 1), max_size=6)
    entries = [
        [LaurentSeries(spec, data.draw(coeffs)) for _ in range(cols)] for _ in range(rows)
    ]
    first = rows if kind == "k" else cols
    poly = st.lists(st.integers(0, spec.k - 1), max_size=5).map(lambda c: Poly(spec, c))
    q_first = tuple(data.draw(poly) for _ in range(first))
    if cancel and first > 1:
        # a_1 = X^s a_0 + c X^deep and q_0 = -X^s q_1 in every block line:
        # the value is q_1 c X^deep
        s_ = data.draw(st.integers(0, 2))
        deep = LaurentSeries.monomial(spec, data.draw(st.integers(1, spec.k - 1)), data.draw(st.integers(-45, -1)))
        q_first = (-q_first[1].shift(s_),) + q_first[1:]
        for line in range(cols if kind == "k" else rows):
            i0, i1 = ((0, line), (1, line)) if kind == "k" else ((line, 0), (line, 1))
            entries[i1[0]][i1[1]] = entries[i0[0]][i0[1]].shift(s_) + deep
    assume(any(not p.is_zero for p in q_first))
    center = SeriesMatrix(spec, entries)
    h = max(p.degree for p in q_first)
    k = spec.k
    pert, thr = Magnitude.power(k, h + e), Magnitude(k, thr_exp)
    floor = max(h + e, _ceil_minus_one(thr_exp))
    blocks = _block_digits(center, kind)
    x = [p.coeffs[t] if t < len(p.coeffs) else 0 for t in range(h + 1) for p in q_first]
    live = True
    for row in _danger_rows(blocks, h, -1, floor):
        value = 0
        for a, b in zip(row, x):
            value = spec.add(value, spec.mul(a, b))
        live = live and value == 0
    assert live != oracle_has_frac_digit(blocks, q_first, floor, spec)
    assert live != oracle_pinned_safe(center, kind, q_first, pert, thr)


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    first=st.integers(1, 3),
    lines=st.integers(1, 2),
    h=st.integers(0, 3),
    top=st.integers(-4, -1),
    floor=st.integers(-14, -2),
    data=st.data(),
)
def test_added_danger_rows_leave_the_same_height_vectors(
    field, first, lines, h, top, floor, data
):
    """Adding the danger rows until the degree-h block is all pivots leaves
    the level space's height-h vectors those of every row added, and the
    space it builds as far as it got."""
    spec = FieldSpec(*field)
    assume(spec.k ** (first * (h + 1)) <= 3**8)  # height_vectors lists the null space
    digits = st.dictionaries(st.integers(-16, 0), st.integers(1, spec.k - 1), max_size=5)
    blocks = [[data.draw(digits) for _ in range(first)] for _ in range(lines)]
    got = FqEchelon(spec, first * (h + 1))
    want = oracles.OracleFqEchelon(spec, first * (h + 1))
    strategy._add_danger_rows(got, blocks, h, top, floor)
    for row in _danger_rows(blocks, h, top, floor):
        want.add(row)
    assert height_vectors(got, h, first) == height_vectors(want, h, first)


@settings(max_examples=150)
@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    shape=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    kind=st.sampled_from(["k", "h"]),
    R_exp=st.integers(1, 2),
    offset=st.integers(-1, 6),
    e=st.integers(-20, 2),
    cap=st.one_of(st.none(), st.integers(0, 4)),
    budget=st.one_of(st.none(), st.integers(0, 60)),
    planted=st.booleans(),
    seed=st.integers(0, 2**16),
)
# pert >= 1 from height k^1 on: every vector is a danger, with tail variants
@example(field=(2, 1), shape=(1, 1), kind="k", R_exp=1, offset=3, e=-1, cap=None,
         budget=None, planted=False, seed=0)
def test_danger_set_matches_the_oracle(
    field, shape, kind, R_exp, offset, e, cap, budget, planted, seed
):
    """Level-space dangers against the enumeration, raise for raise.  The
    enumeration visits 200,000 vectors before the real budget trips, so
    under it the height classes stay small; a drawn budget is patched into
    both and tripped."""
    spec = FieldSpec(*field)
    m, n = shape
    cfg = StrategyConfig(spec, m, n, R_exp=R_exp, height_cap_exp=4)
    if budget is None:
        budget, cap = strategy.DANGER_BUDGET, 4 if cap is None else cap
        while cap and spec.k ** (cfg.first_block(kind) * (cap + 1)) > 100:
            cap -= 1
    level = offset + next(i for i in itertools.count() if cfg.window_exponent(kind, i) > 0)
    rng = random.Random(seed)
    if planted:
        target = [[_rational_target(rng, spec) for _ in range(n)] for _ in range(m)]
        center = SeriesMatrix(spec, target).map(lambda x: x.truncate_below(e + 1))
        ball = FormalBall(center, Magnitude.power(spec.k, e).as_fraction())
    else:
        ball = random_ball(rng, spec, m, n, e, max(1, 4 - e))
    height_cap = None if cap is None else Magnitude.power(spec.k, cap)

    def outcome(search):
        try:
            return search(ball, level, kind, cfg, height_cap=height_cap)
        except SearchBudgetExceeded as exc:
            return str(exc), exc.count

    with patch.object(strategy, "DANGER_BUDGET", budget):
        with patch.object(oracles, "DANGER_BUDGET", budget):
            assert outcome(danger_set) == outcome(oracle_danger_set)


def test_danger_budget_trips_where_the_enumeration_did():
    # 2^18 - 1 vectors of height <= 2^17 pass the budget: the enumeration
    # stops at its 200,001st vector with this message
    cfg = StrategyConfig(F2, 1, 1, R_exp=1)
    ball = random_ball(random.Random(1), F2, 1, 1, -30, 20)
    level = next(i for i in itertools.count() if cfg.window_exponent("k", i) > 19)
    with pytest.raises(SearchBudgetExceeded) as exc:
        danger_set(ball, level, "k", cfg, height_cap=Magnitude.power(2, 18))
    assert str(exc.value) == (
        "danger enumeration exceeded the budget of 200000 vectors at height k^17"
    )
    assert exc.value.count == 200_000
    # 2^17 - 1 vectors up to height 2^16 stay within it
    assert danger_set(ball, level, "k", cfg, height_cap=Magnitude.power(2, 16)).level == level


def _rescan_marker_level(cfg, kind, radius):
    i = 0
    k = cfg.spec.k
    while radius < Magnitude.power(k, cfg.marker_exponent(kind, i)).as_fraction():
        i += 1
    return i


@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    m=st.integers(1, 3),
    n=st.integers(1, 2),
    R_exp=st.integers(1, 3),
    num=st.integers(1, 10**6),
    den_exp=st.integers(0, 200),
    kind=st.sampled_from(["k", "h"]),
)
def test_marker_level_matches_the_rescan(field, m, n, R_exp, num, den_exp, kind):
    spec = FieldSpec(*field)
    cfg = StrategyConfig(spec, m, n, R_exp=R_exp)
    radius = Fraction(num, spec.k**den_exp)
    assert cfg.marker_level(kind, radius) == _rescan_marker_level(cfg, kind, radius)


def _level_loop_heights(cfg, kind, marker_level):
    """The level loop ``active_dangers`` ran before the admitted-height
    table, with its scan replaced by a record of (h, level, threshold
    exponent) in the order it scanned them."""
    out = []
    lo = 0
    for i in range(marker_level + LOOKAHEAD + 1):
        window = cfg.window_exponent(kind, i)
        top = min(_ceil_minus_one(window), cfg.height_cap_exp)
        thr_exp = cfg.threshold_exponent(kind, i)
        for h in range(lo, top + 1):
            out.append((h, i, thr_exp))
        lo = max(lo, top + 1)
    return out


@given(
    field=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    R_exp=st.integers(1, 3),
    cap=st.integers(-1, 40),
    den_exp=st.integers(0, 4000),
    kind=st.sampled_from(["k", "h"]),
)
# the deepest marker levels: 200 and above at the steepest step
@example(field=(2, 1), m=3, n=3, R_exp=3, cap=40, den_exp=4000, kind="k")
@example(field=(2, 1), m=3, n=3, R_exp=3, cap=40, den_exp=4000, kind="h")
def test_admitted_heights_match_the_level_loop(field, m, n, R_exp, cap, den_exp, kind):
    spec = FieldSpec(*field)
    cfg = StrategyConfig(spec, m, n, R_exp=R_exp, height_cap_exp=cap)
    marker_level = cfg.marker_level(kind, Fraction(1, spec.k**den_exp))
    stop = marker_level + LOOKAHEAD + 1
    white = AvoidanceWhite(cfg)
    # a shallower walk first: the rows it builds are kept and extended
    white._admitted(kind, stop // 2)
    rows = white._admitted(kind, stop)
    assert all(i < stop for _h, i, _thr, _floor in rows)
    assert [(h, i, thr) for h, i, thr, _floor in rows] == _level_loop_heights(
        cfg, kind, marker_level
    )
    assert all(floor == _ceil_minus_one(thr) for _h, _i, thr, floor in rows)
    # a deep enough walk admits every height up to the cap, and then stops
    assert [row[0] for row in white._admitted(kind, 10**9)] == list(range(cap + 1))
