import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from concentric import ConcentricStrategy

import lsdioph.dimension as dim
from lsdioph.approx import iter_height_class
from lsdioph.errors import BranchOutOfRange, SearchBudgetExceeded
from lsdioph.field import FieldSpec, Magnitude
from lsdioph.game import (
    GameParams,
    StopRule,
    play,
    unit_ball,
)
from lsdioph.series import LaurentSeries, SeriesMatrix, vec_dot

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def test_packing_count_examples():
    pc = dim.packing_count(Fraction(1, 2), 1, 1, 2)
    assert pc.max_count == 1  # the ball itself at its own effective radius
    pc3 = dim.packing_count(Fraction(1, 8), 1, 1, 2)
    assert pc3.i == -2
    assert pc3.max_count == 4
    assert pc3.coarse_count == 2  # (k^(-i-1))^mn with i = -2
    pcm = dim.packing_count(Fraction(1, 8), 2, 1, 2)
    assert pcm.max_count == 4**2 and pcm.coarse_count == 2**2


def test_packing_envelope():
    rng = random.Random(1)
    for _ in range(100):
        j = rng.randint(1, 9)
        k = rng.choice([2, 3])
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        beta = Fraction(1, k**j)
        pc = dim.packing_count(beta, m, n, k)
        assert pc.coarse_count <= pc.max_count
        assert pc.max_count <= (1 / beta) ** (m * n) * k ** (m * n)


def coset_centers(j, k):
    """All centers with coefficients at exponents -1..-(j-1): the maximal
    disjoint family of radius-k^-j balls in the open unit ball."""
    exps = list(range(-(j - 1), 0))
    out = []
    for coords in itertools.product(range(k), repeat=len(exps)):
        coeffs = {e: c for e, c in zip(exps, coords) if c}
        out.append(LaurentSeries(F2 if k == 2 else F3, coeffs))
    return out


def test_packing_matches_coset_enumeration():
    """Counting oracle for j <= 5: enumerate the coset centers, verify the
    balls are pairwise disjoint and inside the unit ball, and match the
    count."""
    for k in (2, 3):
        for j in range(1, 6):
            beta = Fraction(1, k**j)
            pc = dim.packing_count(beta, 1, 1, k)
            centers = coset_centers(j, k)
            assert len(centers) == pc.max_count
            for c in centers:
                assert c.is_zero or c.norm() < Magnitude.power(k, 0)
            for a, b in itertools.combinations(centers, 2):
                gap = (a - b).norm().as_fraction()
                assert gap > beta  # disjoint closed balls of radius beta
            # the coarser construction sits one level shallower
            assert len(coset_centers(max(j - 1, 1), k)) == pc.coarse_count


def test_dim_lower_bound_values():
    assert dim.dim_lower_bound(Fraction(1, 2), Fraction(1, 2), 1, 1, 2) == 0
    assert dim.dim_lower_bound(
        Fraction(1, 4), Fraction(1, 1024), 1, 1, 2
    ) == Fraction(3, 4)
    # monotone toward mn in j for fixed a
    prev = Fraction(-1)
    for j in range(2, 13):
        b = dim.dim_lower_bound(Fraction(1, 4), Fraction(1, 2**j), 1, 1, 2)
        assert b == Fraction(j - 1, j + 2)
        assert b > prev
        prev = b
    assert dim.dim_lower_bound(Fraction(1, 9), Fraction(1, 3**8), 2, 2, 3) == Fraction(
        7 * 4, 2 + 8
    )
    with pytest.raises(ValueError):
        dim.dim_lower_bound(Fraction(1, 3), Fraction(1, 2), 1, 1, 2)


def _transcript(rounds=9, beta=Fraction(1, 8)):
    params = GameParams(Fraction(1, 4), beta, F2)
    return play(
        ConcentricStrategy("alpha"),
        ConcentricStrategy("beta"),
        unit_ball(F2, 1, 1),
        params,
        StopRule(max_rounds=rounds),
    )


def test_digit_map_examples():
    t = _transcript()
    assert dim.digit_map(t, [0, 0, 0]) == 0
    # N(k^-3) = 4 over F_2: branches (1, 2) -> 1/4 + 2/16
    assert dim.digit_map(t, [1, 2]) == Fraction(3, 8)
    with pytest.raises(BranchOutOfRange):
        dim.digit_map(t, [4])
    with pytest.raises(BranchOutOfRange):
        dim.digit_map(t, [0] * 100)


def test_digit_map_injective_at_fixed_depth():
    t = _transcript(rounds=9, beta=Fraction(1, 4))  # N = 2
    seen = set()
    for labels in itertools.product(range(2), repeat=8):
        seen.add(dim.digit_map(t, list(labels)))
    assert len(seen) == 256
    # image is exactly the 8-digit base-2 fractions
    assert seen == {Fraction(i, 256) for i in range(256)}


def test_cover_entry_tree_depth():
    e = dim.CoverEntry(Fraction(1, 1000), Fraction(1, 4), Fraction(1, 2))
    j = e.tree_depth
    step = Fraction(1, 8)
    assert step**j >= 2 * e.radius > step ** (j + 1)
    assert j > 0
    # radius shrinking only deepens the tree level
    e2 = dim.CoverEntry(Fraction(1, 10**6), Fraction(1, 4), Fraction(1, 2))
    assert e2.tree_depth > j


def test_cover_s_length_examples():
    one_ball = dim.cover_s_length([Fraction(1, 8)], 1, 2)
    assert one_ball.fraction == Fraction(1, 8)
    counting = dim.cover_s_length([Fraction(1, 2)] * 7, 0, 2)
    assert counting.fraction == 7
    geometric = dim.cover_s_length(
        [Fraction(1, 2**i) for i in range(1, 11)], 1, 2
    )
    assert geometric.fraction == Fraction(2**10 - 1, 2**10)
    # fractional s over k-power radii stays symbolic and exact
    half = dim.cover_s_length([Fraction(1, 4), Fraction(1, 4)], Fraction(1, 2), 2)
    assert half.fraction is None
    assert half.power_terms == ((Fraction(-1), 2),)
    assert half.value == pytest.approx(1.0)


def test_cover_s_length_rejects_negative_s():
    with pytest.raises(ValueError):
        dim.cover_s_length([Fraction(1, 2)], -1, 2)


def test_box_count_edges():
    rows = dim.box_count_bad(
        Magnitude.zero(2), Magnitude.power(2, 3), 10, 1, 1, F2
    )
    assert rows[-1].cells_surviving == 2**10
    assert rows[-1].empirical_dim == pytest.approx(1.0)
    rows1 = dim.box_count_bad(
        Magnitude.power(2, 0), Magnitude.power(2, 2), 10, 1, 1, F2
    )
    assert all(r.cells_surviving == 0 for r in rows1)
    assert rows1[-1].empirical_dim is None


def test_box_count_monotone_in_K_and_cap():
    prev = None
    for K_exp in (-12, -9, -6, -3):
        rows = dim.box_count_bad(
            Magnitude.power(2, K_exp), Magnitude.power(2, 4), 10, 1, 1, F2
        )
        count = rows[-1].cells_surviving
        if prev is not None:
            assert count <= prev
        prev = count
    by_cap = []
    for cap in (2, 3, 4):
        rows = dim.box_count_bad(
            Magnitude.power(2, -6), Magnitude.power(2, cap), 10, 1, 1, F2
        )
        by_cap.append(rows[-1].cells_surviving)
    assert by_cap == sorted(by_cap, reverse=True)


def oracle_depth(K_exp, cap, t, m, n):
    """Refinement depth below which no window coefficient of qA looks."""
    return max([t] + [h - math.floor(Fraction(K_exp - h * m, n)) for h in range(cap + 1)])


def oracle_box_count(K_exp, cap, t, m, n, spec):
    """The former exhaustive path: every cell at the oracle depth is tested
    against every q under the cap, and the survivors' prefixes counted."""
    depth = oracle_depth(K_exp, cap, t, m, n)
    qs = [
        (q, math.ceil(Fraction(K_exp - h * m, n)))
        for h in range(cap + 1)
        for q in iter_height_class(spec, m, h)
    ]
    coeff_space = list(itertools.product(range(spec.k), repeat=depth))
    survivors = [
        combo
        for combo in itertools.product(coeff_space, repeat=m * n)
        if oracle_cell_survives(oracle_cell_matrix(combo, m, n, spec), qs)
    ]
    return [
        len({tuple(c[:r] for c in combo) for combo in survivors})
        for r in range(1, t + 1)
    ]


def oracle_cell_matrix(combo, m, n, spec):
    entries = iter(combo)
    return SeriesMatrix(
        spec,
        [
            [
                LaurentSeries(spec, {-(d + 1): c for d, c in enumerate(next(entries)) if c})
                for _j in range(n)
            ]
            for _i in range(m)
        ],
    )


def oracle_cell_survives(A, qs):
    for q, theta_ceil in qs:
        if not any(
            theta_ceil <= e <= -1 and c
            for j in range(A.cols)
            for e, c in vec_dot(q, A.col(j)).coeffs.items()
        ):
            return False
    return True


def surviving(rows):
    return [r.cells_surviving for r in rows]


def test_box_count_fast_path_matches_generic():
    for (K_exp, cap, t) in ((-4, 2, 4), (-6, 3, 5), (-5, 2, 3)):
        fast = dim.box_count_bad(
            Magnitude.power(2, K_exp), Magnitude.power(2, cap), t, 1, 1, F2
        )
        assert surviving(fast) == oracle_box_count(K_exp, cap, t, 1, 1, F2)


BOX_FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)]


@settings(max_examples=100)
@given(
    st.sampled_from(BOX_FIELDS),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(-5, 0),
)
# the generic box-count jobs of perfbench/workloads.py
@example(FieldSpec(3), (1, 1), 3, 2, -2)
@example(FieldSpec(2, 2), (1, 1), 3, 1, -3)
@example(FieldSpec(2), (1, 2), 3, 2, -4)
@example(FieldSpec(2), (2, 1), 2, 1, -3)
def test_box_count_walk_matches_the_exhaustive_oracle(spec, shape, t, cap, K_exp):
    m, n = shape
    assume(spec.k ** (oracle_depth(K_exp, cap, t, m, n) * m * n) <= 5000)
    rows = dim.box_count_bad(
        Magnitude.power(spec.k, K_exp), Magnitude.power(spec.k, cap), t, m, n, spec
    )
    assert [r.cells_total for r in rows] == [spec.k ** (r * m * n) for r in range(1, t + 1)]
    assert surviving(rows) == oracle_box_count(K_exp, cap, t, m, n, spec)


def test_box_count_walk_matches_the_gf2_fast_path():
    for t in range(1, 9):
        for cap in range(5):
            for K_exp in range(-9, 1):
                dead = dim._dead_prefix_counts_gf2(K_exp, cap, t, 1 << 20)
                walk = dim._box_count_walk(K_exp, cap, t, 1, 1, F2, 1 << 20)
                assert surviving(walk) == [2**r - dead[r] for r in range(1, t + 1)]


def test_box_count_roadmap_case_finishes():
    """(m, n) = (2, 1), t = 3, cap 2, K = 2^-4: 2^20 cells for the oracle."""
    rows = dim.box_count_bad(
        Magnitude.power(2, -4), Magnitude.power(2, 2), 3, 2, 1, F2
    )
    assert surviving(rows) == [4, 16, 63]


def test_box_count_budget_bounds_the_cells_visited():
    with pytest.raises(SearchBudgetExceeded) as err:
        dim.box_count_bad(
            Magnitude.power(2, -4), Magnitude.power(2, 2), 3, 2, 1, F2, budget=10
        )
    assert err.value.count == 10
    assert "resolution" in str(err.value)


@pytest.mark.parametrize("K_exp, cap, t", [(-6, 4, 6), (-3, 2, 4), (-9, 3, 5)])
def test_gf2_box_count_budget_bounds_the_prefix_tests(K_exp, cap, t):
    """The GF(2) path counts the prefixes it tests for cover: it raises with
    the count reached one budget short of what it needs, and that budget
    itself gives the unbudgeted counts.  A budget below 2^(t+1) - 2, the
    prefixes of every resolution, raises before any test."""
    want = dim._dead_prefix_counts_gf2(K_exp, cap, t, 1 << 20)
    floor = (1 << (t + 1)) - 2
    with pytest.raises(SearchBudgetExceeded) as err:
        dim._dead_prefix_counts_gf2(K_exp, cap, t, floor - 1)
    assert err.value.count == 0
    budget = floor
    while True:
        try:
            got = dim._dead_prefix_counts_gf2(K_exp, cap, t, budget)
            break
        except SearchBudgetExceeded as exc:
            assert exc.count == budget
            budget += 1
    assert got == want and budget > floor


def test_box_count_generic_other_field():
    rows = dim.box_count_bad(
        Magnitude.power(3, -3), Magnitude.power(3, 1), 2, 1, 1, F3
    )
    assert rows[0].cells_total == 3
    assert 0 <= rows[-1].cells_surviving <= rows[-1].cells_total


def test_box_count_counts_are_prefix_consistent():
    rows = dim.box_count_bad(
        Magnitude.power(2, -8), Magnitude.power(2, 4), 10, 1, 1, F2
    )
    for a, b in zip(rows, rows[1:]):
        assert a.cells_surviving <= b.cells_surviving <= 2 * a.cells_surviving
