import itertools
import random
from fractions import Fraction

import pytest
from oracles import oracle_poly_rank
from random_polys import random_invertible_poly_matrix

from lsdioph.approx import iter_polys
from lsdioph.errors import SearchBudgetExceeded, SearchIncomplete
from lsdioph.field import FieldSpec, Magnitude, Poly
from lsdioph.geom import (
    Parallelepiped,
    check_duality,
    distance_value,
    measure_exponent_dual,
    parallelepiped_measure,
    polar,
    structured_pair,
    successive_minima,
)
from lsdioph.linalg import det
from lsdioph.series import LaurentSeries, SeriesMatrix, parse_matrix, vec_dot

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def unit_pp(matrix):
    return Parallelepiped.unit_bounds(matrix)


def brute_force_minima(P, deg_bound):
    """Independent enumeration oracle: scan the whole degree box by
    increasing distance value, keeping vectors independent over F_q(X)."""
    spec = P.spec
    d = P.dim
    cands = []
    for q in itertools.product(iter_polys(spec, deg_bound), repeat=d):
        if all(p.is_zero for p in q):
            continue
        val = distance_value(P, q)
        cands.append((int(val.exponent()), q))
    cands.sort(key=lambda t: t[0])
    picked = []
    values = []
    for e, q in cands:
        if len(picked) == d:
            break
        if oracle_poly_rank(picked + [q], spec) > len(picked):
            picked.append(q)
            values.append(e)
    return values, picked


def test_distance_value_examples():
    I2 = SeriesMatrix.identity(F2, 2)
    P = unit_pp(I2)
    e1 = (Poly.one(F2), Poly.zero(F2))
    assert distance_value(P, e1) == Magnitude.power(2, 0)
    zero = (Poly.zero(F2), Poly.zero(F2))
    assert distance_value(P, zero).is_zero
    D = unit_pp(parse_matrix("X, 0; 0, X^-1", F2))
    assert distance_value(D, (Poly.zero(F2), Poly.one(F2))) == Magnitude.power(2, -1)


def test_distance_scaling_homogeneity():
    rng = random.Random(3)
    for _ in range(30):
        M = random_invertible_poly_matrix(rng, F2, 3, 2)
        P = unit_pp(M)
        q = tuple(Poly(F2, [rng.randrange(2) for _ in range(3)]) for _ in range(3))
        t = Poly.monomial(F2, 1, rng.randrange(3))
        scaled = tuple(t * p for p in q)
        assert distance_value(P, scaled) == t.norm() * distance_value(P, q)


def test_minima_identity_matrix():
    sm = successive_minima(unit_pp(SeriesMatrix.identity(F2, 3)))
    assert [int(v.exponent()) for v in sm.values] == [0, 0, 0]
    assert sm.measure == 1


def test_minima_diagonal_example():
    P = unit_pp(parse_matrix("X, 0; 0, X^-1", F2))
    sm = successive_minima(P)
    assert [int(v.exponent()) for v in sm.values] == [-1, 1]
    assert sm.witnesses[0] == (Poly.zero(F2), Poly.one(F2))
    assert sm.witnesses[1] == (Poly.one(F2), Poly.zero(F2))


def test_minima_match_brute_force_oracle():
    rng = random.Random(17)
    for spec in (F2, F3):
        box = 3 if spec.k == 2 else 2
        for d in (2, 3):
            for _ in range(8):
                M = random_invertible_poly_matrix(rng, spec, d, 1)
                P = unit_pp(M)
                sm = successive_minima(P)
                got = [int(v.exponent()) for v in sm.values]
                want, _ = brute_force_minima(P, box)
                assert got == want
                for w, v in zip(sm.witnesses, sm.values):
                    assert distance_value(P, w) == v


def test_minima_product_law_random():
    rng = random.Random(29)
    for spec in (F2, F3):
        for _ in range(20):
            d = rng.randint(2, 4)
            M = random_invertible_poly_matrix(rng, spec, d, 2)
            P = unit_pp(M)
            sm = successive_minima(P)
            exps = [int(v.exponent()) for v in sm.values]
            assert exps == sorted(exps)
            product = Magnitude.power(spec.k, sum(exps)).as_fraction()
            assert product * sm.measure == 1


def test_minima_skewed_unimodular_needs_deep_witness():
    # off-diagonal X^5 forces a degree-5 witness even though both minima are 1
    M = parse_matrix("1, X^5; 0, 1", F2)
    sm = successive_minima(unit_pp(M))
    assert [int(v.exponent()) for v in sm.values] == [0, 0]
    degs = sorted(max(p.degree for p in w) for w in sm.witnesses)
    assert degs == [0, 5]


def test_witness_walk_obeys_the_budget():
    """Each witness walk writes at most ``budget`` row entries: one budget
    short of the largest walk raises with the count written, and that
    budget itself gives the unbudgeted witnesses."""
    P = unit_pp(parse_matrix("1, X^5; X^2, 1 + X^3", F2))
    want = successive_minima(P).witnesses
    budget = 1
    while True:
        try:
            got = successive_minima(P, budget=budget).witnesses
            break
        except SearchBudgetExceeded as exc:
            assert exc.count <= budget
            budget += 1
    assert got == want and budget > 1
    with pytest.raises(SearchBudgetExceeded) as err:
        successive_minima(P, budget=budget - 1).witnesses
    assert "row entries" in str(err.value)


def test_minima_search_incomplete_on_tiny_box():
    P = unit_pp(parse_matrix("X^3, 0; 0, X^-3", F2))
    with pytest.raises(SearchIncomplete) as err:
        successive_minima(P, degree_bound=0)
    assert err.value.required_bound > 0


def test_measure_examples():
    I2 = SeriesMatrix.identity(F2, 2)
    assert parallelepiped_measure(unit_pp(I2)) == 1
    k2 = Magnitude.power(2, 1)
    assert parallelepiped_measure(Parallelepiped(I2, (k2, k2))) == 4
    assert parallelepiped_measure(unit_pp(parse_matrix("X, 0; 0, 1", F2))) == Fraction(1, 2)


def test_measure_matches_grid_counting():
    # diag(X, 1), unit bounds: mass sits in ||x_1|| <= k^-2, ||x_2|| <= k^-1
    P = unit_pp(parse_matrix("X, 0; 0, 1", F2))
    for t in (3, 4, 5):
        assert grid_cell_measure_small(P, t) == parallelepiped_measure(P)
    I2 = SeriesMatrix.identity(F2, 2)
    P2 = Parallelepiped(I2, (Magnitude.power(2, 1), Magnitude.power(2, 1)))
    assert grid_cell_measure_small(P2, 3) == 4
    M = parse_matrix("X, 1; 0, 1", F2)
    P3 = unit_pp(M)
    for t in (3, 4, 5):
        assert grid_cell_measure_small(P3, t) == parallelepiped_measure(P3)


def grid_cell_measure_small(P, t):
    """Cell count at resolution t, window from exponent hi-1 down to -t."""
    spec = P.spec
    k = spec.k
    hi = max(int(b.exponent()) for b in P.bounds)
    exps = list(range(-t, hi))
    count = 0
    for combo in itertools.product(
        itertools.product(range(k), repeat=len(exps)), repeat=P.dim
    ):
        vec = []
        for coords in combo:
            coeffs = {e: c for e, c in zip(exps, coords) if c}
            vec.append(LaurentSeries(spec, coeffs))
        if distance_value(P, vec) < Magnitude.power(k, 0):
            count += 1
    return Fraction(count, k ** (t * P.dim))


def test_polar_identity_is_self_polar():
    I2 = SeriesMatrix.identity(F2, 2)
    P = unit_pp(I2)
    Q = polar(P)
    rng = random.Random(5)
    for _ in range(50):
        q = tuple(Poly(F2, [rng.randrange(2) for _ in range(3)]) for _ in range(2))
        assert distance_value(P, q) == distance_value(Q, q)


def test_polar_matches_sup_definition_on_samples():
    """F*(y) = sup_x ||x.y|| / F(x); the sup over lattice directions is a
    finite max over the scaled inverse's rows, sampled here directly."""
    rng = random.Random(7)
    for _ in range(10):
        M = random_invertible_poly_matrix(rng, F2, 2, 1)
        P = unit_pp(M)
        Q = polar(P)
        for _ in range(15):
            y = tuple(Poly(F2, [rng.randrange(2) for _ in range(2)]) for _ in range(2))
            best = Magnitude.zero(2)
            for x in itertools.product(iter_polys(F2, 2), repeat=2):
                if all(p.is_zero for p in x):
                    continue
                num = Magnitude.zero(2)
                acc = None
                for xi, yi in zip(x, y):
                    term = xi * yi
                    acc = term if acc is None else acc + term
                if not acc.is_zero:
                    num = LaurentSeries.from_poly(acc).norm()
                fx = distance_value(P, x)
                ratio = num / fx
                best = max(best, ratio)
            assert best <= distance_value(Q, y)
            if any(not p.is_zero for p in y):
                # the sup is attained within a modest degree box
                assert best == distance_value(Q, y)


def test_polar_involution_on_distance_functions():
    rng = random.Random(11)
    for spec in (F2, F3):
        for _ in range(50):
            M = random_invertible_poly_matrix(rng, spec, 2, 1)
            P = unit_pp(M)
            PP = polar(polar(P))
            for _ in range(10):
                q = tuple(
                    Poly(spec, [rng.randrange(spec.k) for _ in range(3)])
                    for _ in range(2)
                )
                assert distance_value(P, q) == distance_value(PP, q)




def test_structured_pair_mutually_polar():
    rng = random.Random(13)
    for (m, n) in ((1, 1), (2, 1), (1, 2)):
        for _ in range(4):
            C = SeriesMatrix(
                F2,
                [
                    [
                        LaurentSeries(
                            F2,
                            {
                                -e: rng.randrange(2)
                                for e in range(1, 4)
                            },
                        )
                        for _ in range(n)
                    ]
                    for _ in range(m)
                ],
            )
            P, P_star = structured_pair(C, m, n, 0, 1)
            exps_polar = [int(v.exponent()) for v in successive_minima(polar(P)).values]
            exps_star = [int(v.exponent()) for v in successive_minima(P_star).values]
            assert exps_polar == exps_star


def test_structured_pair_polar_pointwise_m1n1():
    # for a single form the swap (x1, x2) -> (x2, -x1) identifies polar(P)
    # with the displayed dual body exactly
    rng = random.Random(15)
    for _ in range(10):
        C = SeriesMatrix(
            F2, [[LaurentSeries(F2, {-e: rng.randrange(2) for e in range(1, 4)})]]
        )
        P, P_star = structured_pair(C, 1, 1, 0, 1)
        Q = polar(P)
        for _ in range(20):
            x = tuple(Poly(F2, [rng.randrange(2) for _ in range(3)]) for _ in range(2))
            swapped = (x[1], -x[0])
            assert distance_value(Q, x) == distance_value(P_star, swapped)


def test_check_duality_examples():
    I3 = SeriesMatrix.identity(F2, 3)
    report = check_duality(unit_pp(I3), 2, 1)
    assert report.identity_exponent == 0
    P = unit_pp(parse_matrix("X, 0; 0, X^-1", F2))
    report = check_duality(P, 1, 1)
    assert report.lambda_exps == (-1, 1)
    assert report.sigma_exps == (-1, 1)
    assert report.identity_exponent == 0


def test_duality_structured_instances():
    rng = random.Random(21)
    for (m, n) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for _ in range(3):
            C = SeriesMatrix(
                F2,
                [
                    [
                        LaurentSeries(F2, {-e: rng.randrange(2) for e in range(1, 3)})
                        for _ in range(n)
                    ]
                    for _ in range(m)
                ],
            )
            P, _ = structured_pair(C, m, n, 0, 1)
            report = check_duality(P, m, n)
            assert report.identity_exponent == 0


def test_product_law_survives_bound_scaling():
    rng = random.Random(33)
    for _ in range(10):
        M = random_invertible_poly_matrix(rng, F2, 2, 1)
        for exps in ((0, 0), (1, 1), (1, -1), (2, 0)):
            P = Parallelepiped(M, tuple(Magnitude.power(2, e) for e in exps))
            sm = successive_minima(P)
            total = sum(int(v.exponent()) for v in sm.values)
            assert Magnitude.power(2, total).as_fraction() * sm.measure == 1


def test_adjugate_identity():
    rng = random.Random(43)
    for d in (2, 3):
        M = random_invertible_poly_matrix(rng, F2, d, 1)
        dd, adj = det(M)
        product = [[vec_dot(M.row(i), adj.col(j)) for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(d):
                expected = dd if i == j else LaurentSeries.zero(F2)
                assert product[i][j] == expected


def test_measure_exponent_consistency():
    rng = random.Random(53)
    for _ in range(20):
        M = random_invertible_poly_matrix(rng, F3, 3, 1)
        P = unit_pp(M)
        mu = parallelepiped_measure(P)
        assert mu == Magnitude.power(3, -measure_exponent_dual(P)).as_fraction()
