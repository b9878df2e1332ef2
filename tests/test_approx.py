import itertools
import random

import pytest

from lsdioph.approx import (
    ContinuedFraction,
    LinearFormSystem,
    badness_constant,
    build_hat,
    cf_convergents,
    cf_expand,
    default_dirichlet_constant,
    dirichlet_witness,
    is_bad_cf,
    iter_height_class,
    iter_polys,
)
from lsdioph.errors import PrecisionExhausted
from lsdioph.field import FieldSpec, Magnitude, Poly
from lsdioph.series import (
    LaurentSeries,
    RationalFn,
    SeriesMatrix,
    lattice_distance,
    parse_poly,
    parse_series,
    vec_dot,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def rand_series(rng, spec, lead_hi=0, depth=10):
    coeffs = {
        e: rng.randrange(spec.k) for e in range(lead_hi - depth + 1, lead_hi + 1)
    }
    if not any(coeffs.values()):
        coeffs[lead_hi] = 1
    return LaurentSeries(spec, coeffs)


# ---------------------------------------------------------------------------
# Hat matrices
# ---------------------------------------------------------------------------


def test_build_hat_single_form():
    a = parse_series("X^-1 + X^-2", F2)
    hats = build_hat(LinearFormSystem.single(a))
    assert hats.hat.shape == (2, 2)
    assert hats.hat.entry(0, 0) == a
    assert hats.hat.entry(0, 1) == LaurentSeries.one(F2)
    assert hats.hat.entry(1, 0) == LaurentSeries.one(F2)
    assert hats.hat.entry(1, 1).is_zero
    assert hats.hat_star.entries == hats.hat.entries


def test_build_hat_zero_matrix_is_permutation_like():
    A = SeriesMatrix.zero(F2, 2, 2)
    hats = build_hat(LinearFormSystem(A))
    ones = sum(
        1
        for row in hats.hat.entries
        for x in row
        if x == LaurentSeries.one(F2)
    )
    zeros = sum(1 for row in hats.hat.entries for x in row if x.is_zero)
    assert ones == 4 and zeros == 12


def brute_force_lattice_minimum(vec, spec, deg_bound):
    """Independent minimiser of max_j ||v_j + p_j|| over polynomial vectors."""
    best = None
    for p in itertools.product(iter_polys(spec, deg_bound), repeat=len(vec)):
        val = None
        for v, pi in zip(vec, p):
            s = v + LaurentSeries.from_poly(pi)
            n = s.norm()
            val = n if val is None else max(val, n)
        best = val if best is None or val < best else best
    return best


def test_hat_columns_reproduce_lattice_distance_m2n2():
    rng = random.Random(19)
    for _ in range(12):
        A = SeriesMatrix(
            F2,
            [[rand_series(rng, F2, lead_hi=-1, depth=5) for _ in range(2)] for _ in range(2)],
        )
        hats = build_hat(LinearFormSystem(A))
        q_head = tuple(
            Poly(F2, [rng.randrange(2) for _ in range(3)]) for _ in range(2)
        )
        if all(p.is_zero for p in q_head):
            continue
        partial = tuple(vec_dot(q_head, A.col(j)) for j in range(A.cols))
        dist = lattice_distance(partial)
        # oracle: brute-force minimum over low-degree lattice vectors
        assert dist == brute_force_lattice_minimum(partial, F2, 3)
        # hat columns with the minimizing tail reach the same value
        tail = tuple(-(v.polynomial_part()) for v in partial)
        q_full = q_head + tail
        vals = []
        for j in range(2):
            acc = None
            for qi, a in zip(q_full, hats.hat.col(j)):
                if qi.is_zero:
                    continue
                term = a * qi
                acc = term if acc is None else acc + term
            vals.append(acc.norm() if acc is not None else Magnitude.zero(2))
        assert max(vals) == dist


# ---------------------------------------------------------------------------
# Badness constants
# ---------------------------------------------------------------------------


def test_badness_zero_matrix():
    K, wit = badness_constant(
        LinearFormSystem(SeriesMatrix.zero(F2, 2, 2)), Magnitude.power(2, 1)
    )
    assert K.is_zero
    assert wit.dist.is_zero
    assert any(not p.is_zero for p in wit.q)
    assert wit.height == Magnitude.power(2, 0)


def test_badness_cubic_example():
    # x = X^-1 + X^-3 = (X^2+1)/X^3: all partial quotients have degree 1,
    # so the constant is k^-1 below the denominator height and collapses to
    # zero once the cap admits the denominator X^3 itself.
    x = parse_series("X^-1 + X^-3", F2)
    sys_ = LinearFormSystem.single(x)
    K2, _ = badness_constant(sys_, Magnitude.power(2, 2))
    assert K2 == Magnitude.power(2, -1)
    K3, wit3 = badness_constant(sys_, Magnitude.power(2, 3))
    assert K3.is_zero
    assert wit3.q[0] == parse_poly("X^3", F2)


def test_badness_rational_annihilated():
    num, den = parse_poly("X + 1", F2), parse_poly("X^2 + X + 1", F2)
    r = RationalFn(num, den)
    sys_ = LinearFormSystem.single(r)
    K, wit = badness_constant(sys_, Magnitude.power(2, 2))
    assert K.is_zero
    assert wit.q[0] == den


def test_badness_invariant_under_lattice_translation():
    rng = random.Random(91)
    for _ in range(10):
        x = rand_series(rng, F2, lead_hi=-1, depth=8)
        K1, _ = badness_constant(LinearFormSystem.single(x), Magnitude.power(2, 2))
        shift = LaurentSeries.from_poly(Poly(F2, [rng.randrange(2) for _ in range(3)]))
        K2, _ = badness_constant(
            LinearFormSystem.single(x + shift), Magnitude.power(2, 2)
        )
        assert K1 == K2


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


def test_cf_examples():
    x = parse_series("X^-1 + X^-3", F2)
    cf = cf_expand(x, 10)
    assert [str(a) for a in cf.quotients] == ["0", "X", "X", "X"]
    assert cf.exact
    poly = parse_series("X^2 + X", F2)
    cfp = cf_expand(poly, 5)
    assert len(cfp.quotients) == 1 and cfp.exact
    inv_x = parse_series("X^-1", F2)
    assert [str(a) for a in cf_expand(inv_x, 5).quotients] == ["0", "X"]


def test_cf_convergents_recurrence_oracle():
    # hand-driven recurrence check for [0; X, X] over F_2
    cf = ContinuedFraction((Poly.zero(F2), Poly.x(F2), Poly.x(F2)), True)
    conv = cf_convergents(cf)
    assert (str(conv[-1][0]), str(conv[-1][1])) == ("X", "X^2 + 1")
    # degree law: deg q_3 = 3 for [0; X, X, X]
    cf3 = ContinuedFraction((Poly.zero(F2),) + (Poly.x(F2),) * 3, True)
    assert cf_convergents(cf3)[-1][1].degree == 3
    # final convergent reconstructs the value exactly
    x = parse_series("X^-1 + X^-3", F2)
    p, q = cf_convergents(cf_expand(x, 10))[-1]
    assert RationalFn(p, q).to_series(precision=10) == x


def test_cf_convergents_coprime():
    rng = random.Random(2)
    for _ in range(50):
        num = Poly(F2, [rng.randrange(2) for _ in range(6)])
        den = Poly(F2, [rng.randrange(2) for _ in range(5)] + [1])
        cf = cf_expand(RationalFn(num, den), 8)
        for p, q in cf_convergents(cf):
            g = p.gcd(q)
            assert g.is_zero or g.degree == 0


def test_best_approximation_law():
    """Every convergent satisfies ||q_j x - p_j|| = k^(-deg q_(j+1)), and no
    smaller-height vector beats it (exhaustive search oracle)."""
    rng = random.Random(77)
    checked = 0
    for spec in (F2, F3):
        k = spec.k
        for _ in range(50):
            x = rand_series(rng, spec, lead_hi=-1, depth=14)
            try:
                cf = cf_expand(x, 5)
            except PrecisionExhausted:
                continue
            conv = cf_convergents(cf)
            for j in range(len(conv) - 1):
                p_j, q_j = conv[j]
                q_next = conv[j + 1][1]
                err = x * q_j - LaurentSeries.from_poly(p_j)
                assert err.norm() == Magnitude.power(k, -q_next.degree)
                if q_next.degree <= 3:
                    best = None
                    for q in iter_polys(spec, q_next.degree - 1):
                        if q.is_zero:
                            continue
                        d = (x * q).frac_norm()
                        best = d if best is None or d < best else best
                    assert best == (x * q_j).frac_norm()
                    checked += 1
    assert checked >= 40


def test_cf_truncated_precision_error_counts_terms():
    x = LaurentSeries(F2, {-1: 1, -2: 1, -3: 1, -4: 1}, known_below=-4)
    with pytest.raises(PrecisionExhausted) as err:
        cf_expand(x, 10)
    assert err.value.count is not None and err.value.count >= 1


def test_is_bad_cf_examples():
    x = parse_series("X^-1 + X^-3", F2)
    assert is_bad_cf(x, 3) == (True, 1)
    verdict, _ = is_bad_cf(x, 4)
    assert verdict is False  # expansion terminates strictly before depth 4
    # planted high-degree quotient: x = [0; X, X^4, X]
    quotients = (
        Poly.zero(F2),
        Poly.x(F2),
        Poly.monomial(F2, 1, 4),
        Poly.x(F2),
    )
    p, q = cf_convergents(ContinuedFraction(quotients, True))[-1]
    planted = RationalFn(p, q)
    re_expanded = cf_expand(planted, 10)
    assert [str(a) for a in re_expanded.quotients] == [str(a) for a in quotients]
    _, max_deg = is_bad_cf(planted, 3)
    assert max_deg == 4


def test_partial_quotient_degree_invariant():
    with pytest.raises(ValueError):
        ContinuedFraction((Poly.zero(F2), Poly.one(F2)), True)


# ---------------------------------------------------------------------------
# Dirichlet witnesses
# ---------------------------------------------------------------------------


def grid_series(spec, depth, index):
    coeffs = {}
    for d in range(depth):
        index, c = divmod(index, spec.k)
        if c:
            coeffs[-(d + 1)] = c
    return LaurentSeries(spec, coeffs)


def test_dirichlet_constant_oracle_t1():
    """Independent pigeonhole oracle: exhaustive best distance over the full
    precision-6 grid fixes c0 = 1 at t = 1 over F_2."""
    worst = Magnitude.zero(2)
    for idx in range(2**6):
        x = grid_series(F2, 6, idx)
        best = None
        for q in iter_polys(F2, 1):
            if q.is_zero:
                continue
            d = (x * q).frac_norm()
            best = d if best is None or d < best else best
        worst = max(worst, best)
    assert worst == Magnitude.power(2, -2)  # k^(-t-1) with t = 1, c0 = 1


def test_dirichlet_witness_examples():
    poly = parse_series("X^2 + 1", F2)
    wit = dirichlet_witness(LinearFormSystem.single(poly), 3)
    assert wit.dist.is_zero
    x = parse_series("X^-1", F2)
    wit2 = dirichlet_witness(LinearFormSystem.single(x), 1)
    assert wit2.dist <= Magnitude.power(2, -2)
    assert default_dirichlet_constant(1, 1) == 1
    assert default_dirichlet_constant(1, 2) == 0


def test_dirichlet_witness_bulk_series():
    rng = random.Random(4)
    for spec in (F2, F3):
        for _ in range(100):
            x = rand_series(rng, spec, lead_hi=-1, depth=20)
            for t in (1, 2, 4):
                wit = dirichlet_witness(LinearFormSystem.single(x), t)
                assert not wit.height.is_zero
                assert wit.height <= Magnitude.power(spec.k, t)
                assert wit.dist <= Magnitude.power(spec.k, -t - 1)


def test_dirichlet_pigeonhole_matrix_cases():
    rng = random.Random(6)
    for (m, n) in ((2, 1), (1, 2)):
        for _ in range(10):
            A = SeriesMatrix(
                F2,
                [
                    [rand_series(rng, F2, lead_hi=-1, depth=10) for _ in range(n)]
                    for _ in range(m)
                ],
            )
            sys_ = LinearFormSystem(A)
            t = 2
            wit = dirichlet_witness(sys_, t)
            required = -((t * m + n - 1) // n) - default_dirichlet_constant(m, n)
            assert wit.dist <= Magnitude.power(2, required)
            assert wit.height <= Magnitude.power(2, t)


def test_height_class_enumeration():
    classes = list(iter_height_class(F2, 2, 1))
    # max degree exactly 1 in at least one coordinate
    assert all(max(p.degree for p in q) == 1 for q in classes)
    assert len(classes) == 4**2 - 2**2


def test_witness_json_shape():
    x = parse_series("X^-1 + X^-3", F2)
    _, wit = badness_constant(LinearFormSystem.single(x), Magnitude.power(2, 2))
    js = wit.to_json()
    assert set(js) == {"q", "height_exp", "dist_exp", "score_exp"}
    assert isinstance(js["q"][0], str)
