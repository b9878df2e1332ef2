"""Acceptance criteria, one test per criterion, each printing a pass line
with its elapsed time against the stated budget.  All checks are exact
(magnitude comparisons on symbolic k-powers); the only tolerances are the
time budgets.

Run with `pytest -s tests/test_acceptance.py` to see the lines live.
"""

import itertools
import random
import time
from fractions import Fraction

from concentric import ConcentricStrategy
from random_polys import random_invertible_poly_matrix

from lsdioph.approx import (
    LinearFormSystem,
    badness_constant,
    cf_expand,
    dirichlet_witness,
)
from lsdioph.field import FieldSpec, Magnitude, Poly, floor_log
from lsdioph.game import (
    FormalBall,
    GameParams,
    RandomBlack,
    StopRule,
    canonicalize,
    formal_contains,
    limit_point,
    play,
    unit_ball,
)
from lsdioph.geom import (
    Parallelepiped,
    polar,
    structured_pair,
    successive_minima,
)
from lsdioph.sampling import random_ball, random_orthonormal_basis
from lsdioph.series import LaurentSeries, RationalFn, SeriesMatrix
from lsdioph.strategy import (
    AvoidanceWhite,
    StrategyConfig,
    certify_bad,
    danger_set,
    minor_sup,
    minors,
    phi,
)
import lsdioph.dimension as dim

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)


def _report(tag, budget, start, detail):
    elapsed = time.time() - start
    line = f"{tag} PASS ({elapsed:.1f}s / budget {budget}s): {detail}"
    print(line, flush=True)
    assert elapsed < budget, f"{tag} exceeded its {budget}s budget"


def _rand_series(rng, spec, lead_hi, depth):
    coeffs = {
        e: rng.randrange(spec.k) for e in range(lead_hi - depth + 1, lead_hi + 1)
    }
    if not any(coeffs.values()):
        coeffs[lead_hi] = rng.randrange(1, spec.k)
    return LaurentSeries(spec, coeffs)


def test_ac1_ultrametric_laws():
    start = time.time()
    rng = random.Random(101)
    pairs = 0
    for spec in (F2, F3, F4):
        for _ in range(10_000):
            x = _rand_series(rng, spec, rng.randint(-4, 4), rng.randint(1, 8))
            y = _rand_series(rng, spec, rng.randint(-4, 4), rng.randint(1, 8))
            assert (x * y).norm() == x.norm() * y.norm()
            s = x + y
            assert s.norm() <= max(x.norm(), y.norm())
            if x.norm() != y.norm():
                assert s.norm() == max(x.norm(), y.norm())
            pairs += 1
    _report("AC-1", 5, start, f"norm laws exact on {pairs} pairs, k in {{2,3,4}}")


def test_ac2_minkowski_product_law():
    start = time.time()
    rng = random.Random(202)
    checked = 0
    for spec in (F2, F3):
        for _ in range(100):
            d = rng.randint(2, 4)
            M = random_invertible_poly_matrix(rng, spec, d, 2)
            P = Parallelepiped.unit_bounds(M)
            sm = successive_minima(P)
            product = Magnitude.power(
                spec.k, sum(int(v.exponent()) for v in sm.values)
            ).as_fraction()
            assert product * sm.measure == 1
            checked += 1
    _report("AC-2", 60, start, f"product law exact on {checked} certified instances")


def test_ac3_duality_identity():
    start = time.time()
    rng = random.Random(303)
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2)]
    checked = 0
    while checked < 100:
        m, n = shapes[checked % len(shapes)]
        C = SeriesMatrix(
            F2,
            [
                [_rand_series(rng, F2, -1, rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)
            ],
        )
        P, _ = structured_pair(C, m, n, checked % 2, 1)
        lam = successive_minima(P)
        sig = successive_minima(polar(P))
        lam_m = int(lam.values[m - 1].exponent())
        sig_n1 = int(sig.values[n].exponent())
        assert lam_m + sig_n1 == 0
        checked += 1
    _report("AC-3", 60, start, f"lambda_m * sigma_(n+1) = 1 on {checked} instances")


def test_ac4_cf_badness_equivalence():
    start = time.time()
    checked = 0
    for dq in range(1, 7):
        for q_low in range(2**dq):
            q = Poly(F2, [(q_low >> b) & 1 for b in range(dq)] + [1])
            for p_bits in range(1, 2**dq):
                p = Poly(F2, [(p_bits >> b) & 1 for b in range(dq)])
                if p.is_zero or p.degree >= q.degree:
                    continue
                if p.gcd(q).degree != 0:
                    continue
                cf = cf_expand(RationalFn(p, q), 8)
                assert cf.exact
                max_deg = cf.max_partial_degree
                # cap strictly below the annihilating denominator height
                cap = Magnitude.power(2, q.degree - 1)
                K, _ = badness_constant(
                    LinearFormSystem.single(RationalFn(p, q)), cap
                )
                assert K == Magnitude.power(2, -max_deg)
                checked += 1
    _report(
        "AC-4",
        120,
        start,
        f"badness constant equals k^(-max partial degree) on {checked} rationals",
    )


def test_ac5_dirichlet_calibration():
    start = time.time()
    rng = random.Random(505)
    checked = 0
    for spec in (F2, F3):
        for _ in range(500):
            x = _rand_series(rng, spec, -1, 20)
            sys_ = LinearFormSystem.single(x)
            t = rng.randint(1, 6)
            wit = dirichlet_witness(sys_, t)  # c0 = 1, asserted internally
            assert wit.height <= Magnitude.power(spec.k, t)
            assert wit.dist <= Magnitude.power(spec.k, -t - 1)
            checked += 1
    _report("AC-5", 30, start, f"c0 = 1 held for {checked} witnesses, zero failures")


def test_ac6_game_engine_laws():
    start = time.time()
    rng = random.Random(606)
    games = 0
    for seed in range(1000):
        alpha = Fraction(1, rng.randint(2, 5))
        beta = Fraction(1, rng.randint(2, 5))
        params = GameParams(alpha, beta, F2)
        white = ConcentricStrategy("alpha")
        t = play(white, RandomBlack(seed), unit_ball(F2, 1, 1), params,
                 StopRule(max_rounds=6))
        assert t.forfeit is None
        blacks = t.black_balls()
        for i in range(1, len(blacks)):
            assert blacks[i].radius == alpha * beta * blacks[i - 1].radius
        for i in range(1, len(t.balls)):
            assert formal_contains(t.balls[i], t.balls[i - 1])
        games += 1
        if seed % 50 == 0:
            # prefix stability: replaying the same seeds longer cannot change
            # coefficients the short game already pinned
            t2 = play(ConcentricStrategy("alpha"), RandomBlack(seed),
                      unit_ball(F2, 1, 1), params, StopRule(max_rounds=9))
            e = canonicalize(t.last()).effective_exponent()
            prec = -e - 1
            assert limit_point(t, prec) == limit_point(t2, prec)
    _report("AC-6", 10, start, f"radius, nesting, and prefix laws exact on {games} games")


def test_ac7_strategy_end_to_end():
    start = time.time()
    cfg = StrategyConfig(F2, 1, 1, R_exp=2, height_cap_exp=4)
    params = GameParams(Fraction(1, 4), Fraction(1, 2), F2)
    assert params.gamma > 0  # alpha = 1/4 < 1/(k+1) = 1/3
    wins = 0
    for seed in range(1, 101):
        white = AvoidanceWhite(cfg)
        t = play(white, RandomBlack(seed), unit_ball(F2, 1, 1), params,
                 StopRule(max_rounds=24))
        assert t.forfeit is None
        point = limit_point(t, 30)
        cert = certify_bad(point, cfg, Magnitude.power(2, 4))
        assert cert.K_exponent == -21  # delta^2 R^-2 / k with R = 4
        assert cert.min_margin_exponent > 0
        wins += 1
    _report("AC-7", 120, start, f"certify_bad passed {wins}/100 games at cap k^4")


def test_ac8_minor_inequality_sampling():
    start = time.time()
    rng = random.Random(808)
    rho_root = Fraction(1, 2)

    win2 = 0
    fin1 = 0
    while win2 < 1000:
        m, n = rng.choice([(1, 1), (2, 1)])
        v = rng.randint(1, m)
        basis = random_orthonormal_basis(rng, F2, m, m + n)
        anchor = random_ball(rng, F2, m, n, -rng.randint(1, 3), 3)
        sup_prev = minor_sup(anchor, basis, v - 2)
        # fix mu so the induction hypothesis holds on the anchor by built-in
        # margin: mu < min ||M_(v-1)|| / (rho_root * sup_prev)
        min_here = minor_sup(anchor, basis, v - 1)
        if min_here.is_zero or sup_prev.is_zero:
            continue
        grid_min = _grid_min_minor(anchor, basis, v - 1)
        if grid_min.is_zero:
            continue
        mu = grid_min.as_fraction() / (rho_root * sup_prev.as_fraction()) / 2
        eps = Fraction(1, rng.choice([2, 4]))
        limit = eps * mu * anchor.radius
        e_small = floor_log(limit, 2) - 1
        small = FormalBall(
            anchor.center, Magnitude.power(2, e_small).as_fraction()
        )
        A1, A2 = _two_grid_points(rng, small)
        m1, m2 = minors(A1, basis, v - 1), minors(A2, basis, v - 1)
        diff = _vec_diff_height(m1.entries, m2.entries)
        bound = eps * rho_root * mu * sup_prev.as_fraction()
        if not diff.is_zero:
            assert diff.as_fraction() < bound
        win2 += 1

        # finite-ball half bound under the same hypothesis, eps = 1/2
        limit_h = mu * anchor.radius / 2
        e_h = floor_log(limit_h, 2) - 1
        small_h = FormalBall(anchor.center, Magnitude.power(2, e_h).as_fraction())
        A3, _ = _two_grid_points(rng, small_h)
        val = minors(A3, basis, v - 1).height()
        half_sup = minor_sup(small_h, basis, v - 1).as_fraction() / 2
        assert val.as_fraction() > half_sup
        fin1 += 1

    homog = 0
    while homog < 1000:
        m, n = rng.choice([(1, 1), (2, 1)])
        v = rng.randint(1, m)
        basis = random_orthonormal_basis(rng, F2, m, m + n)
        A = random_ball(rng, F2, m, n, -2, 3).center
        z = tuple(
            _rand_series(rng, F2, rng.randint(-3, 1), 3) for _ in range(m + n)
        )
        x_exp = rng.randint(-2, 3)
        base = phi(z, A, basis, v)
        scaled = phi(tuple(s.shift(x_exp) for s in z), A, basis, v)
        assert scaled == Magnitude.power(2, x_exp) * base if not base.is_zero else scaled.is_zero
        homog += 1
    _report(
        "AC-8",
        60,
        start,
        f"minor-variation bound x{win2}, half-sup bound x{fin1}, "
        f"homogeneity x{homog}; calibrated constants held",
    )


def _grid_min_minor(ball, basis, v):
    canonical = canonicalize(ball)
    e = canonical.effective_exponent()
    C = canonical.center
    spec = C.spec
    cells = C.rows * C.cols
    best = minors(C, basis, v).height()
    for pat in itertools.product(range(spec.k), repeat=cells):
        if not any(pat):
            continue
        rows = []
        idx = 0
        for i in range(C.rows):
            row = []
            for j in range(C.cols):
                x = C.entry(i, j)
                if pat[idx]:
                    x = x + LaurentSeries.monomial(spec, pat[idx], e)
                row.append(x)
                idx += 1
            rows.append(row)
        best = min(best, minors(SeriesMatrix(spec, rows), basis, v).height())
    return best


def _two_grid_points(rng, ball):
    canonical = canonicalize(ball)
    e = canonical.effective_exponent()
    C = canonical.center
    spec = C.spec

    def perturb():
        rows = []
        for row in C.entries:
            out = []
            for x in row:
                c = rng.randrange(spec.k)
                if c:
                    x = x + LaurentSeries.monomial(spec, c, e)
                out.append(x)
            rows.append(out)
        return SeriesMatrix(spec, rows)

    return perturb(), perturb()


def _vec_diff_height(a, b):
    out = Magnitude.zero(2)
    for x, y in zip(a, b):
        out = max(out, (x - y).norm())
    return out


def _hypothesis_clean(ball, level, kind, cfg, cap):
    """The rank bounds are only guaranteed when the complementary inequality
    family has no solutions on the ball (game play guarantees this for
    marker balls)."""
    if kind == "h":
        return danger_set(ball, level, "k", cfg, height_cap=cap).empty
    if level == 0:
        return True
    return danger_set(ball, level - 1, "h", cfg, height_cap=cap).empty


def test_ac9_danger_set_ranks():
    start = time.time()
    rng = random.Random(909)
    cap = Magnitude.power(2, 3)
    sampled = 0
    shapes = [(1, 1), (2, 1), (1, 2)]
    cfgs = {s: StrategyConfig(F2, s[0], s[1], R_exp=1, height_cap_exp=3) for s in shapes}
    levels = {
        s: {
            kind: [
                i for i in range(60) if cfgs[s].window_exponent(kind, i) > 0
            ][:2]
            for kind in ("k", "h")
        }
        for s in shapes
    }
    while sampled < 500:
        m, n = shapes[sampled % len(shapes)]
        cfg = cfgs[(m, n)]
        # level-0 k-type sets are empty for every ball, hypothesis or not
        ball0 = random_ball(rng, F2, m, n, -rng.randint(1, 30), 6)
        assert danger_set(ball0, 0, "k", cfg, height_cap=cap).empty
        kind = "k" if sampled % 2 == 0 else "h"
        lvl = rng.choice(levels[(m, n)][kind])
        e = cfg.marker_exponent(kind, lvl) - rng.randint(0, 2)
        ball = random_ball(rng, F2, m, n, e, -e)
        if not _hypothesis_clean(ball, lvl, kind, cfg, cap):
            continue
        rep = danger_set(ball, lvl, kind, cfg, height_cap=cap)
        bound = n if kind == "k" else m
        assert rep.rank <= bound, f"{kind}-type rank exceeded: inconsistency bug"
        sampled += 1
    _report("AC-9", 60, start, f"rank bounds held on {sampled} hypothesis-clean balls")


def test_ac10_dimension_bound_trend():
    start = time.time()
    prev = Fraction(-1)
    for j in range(2, 13):
        bound = dim.dim_lower_bound(Fraction(1, 4), Fraction(1, 2**j), 1, 1, 2)
        assert bound == Fraction(j - 1, j + 2)
        assert bound > prev
        prev = bound
    assert prev == Fraction(11, 14)
    # packing counts against coset enumeration for j <= 5
    for k in (2, 3):
        for j in range(1, 6):
            pc = dim.packing_count(Fraction(1, k**j), 1, 1, k)
            exps = list(range(-(j - 1), 0))
            centers = list(itertools.product(range(k), repeat=len(exps)))
            assert len(centers) == pc.max_count
    _report("AC-10", 5, start, "bound (j-1)/(j+2) exact and monotone; packings match")


def test_ac11_box_count_monotonicity():
    start = time.time()
    cap_exps = (2, 3, 4)
    K_exps = (-10, -7, -4)
    counts = {}
    for cap in cap_exps:
        zero_rows = dim.box_count_bad(
            Magnitude.zero(2), Magnitude.power(2, cap), 10, 1, 1, F2
        )
        assert zero_rows[-1].cells_surviving == 2**10
        one_rows = dim.box_count_bad(
            Magnitude.power(2, 0), Magnitude.power(2, cap), 10, 1, 1, F2
        )
        assert one_rows[-1].cells_surviving == 0
        for K_exp in K_exps:
            rows = dim.box_count_bad(
                Magnitude.power(2, K_exp), Magnitude.power(2, cap), 10, 1, 1, F2
            )
            counts[(cap, K_exp)] = rows[-1].cells_surviving
    for cap in cap_exps:
        ordered = [counts[(cap, K)] for K in sorted(K_exps)]  # K increasing
        assert ordered == sorted(ordered, reverse=True)
    for K_exp in K_exps:
        by_cap = [counts[(cap, K_exp)] for cap in cap_exps]
        assert by_cap == sorted(by_cap, reverse=True)
    _report(
        "AC-11",
        120,
        start,
        "survival counts nonincreasing in K and cap; K=0 full, K>=1 empty",
    )
