"""Differential tests of the level walk (``linalg.LevelWalk`` and
``first_vector``) and of ``badness_constant`` and ``certify_bad`` built on
it, against the exhaustive searches they replaced (``oracles.py``)."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import oracle_badness_constant, oracle_certify_bad, oracle_fq_nullspace

from lsdioph.approx import LinearFormSystem, badness_constant, exact_dist, height_class_rank
from lsdioph.approx import iter_height_class, iter_polys
from lsdioph.errors import CounterexampleFound, PrecisionExhausted, SearchBudgetExceeded
from lsdioph.field import FieldSpec, Magnitude, Poly
from lsdioph.linalg import FqEchelon, first_vector, least_levels
from lsdioph.series import LaurentSeries, RationalFn, SeriesMatrix, parse_poly, parse_series
from lsdioph.strategy import StrategyConfig, certify_bad

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2)]
SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]
# the oracles visit k^(m(cap+1)) - 1 vectors; caps are lowered below this
ORACLE_VECTORS = 5000

SETTINGS = settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])


def outcome(fn, *args, **kwargs):
    """What a call returned, as JSON, or what it raised, with the q an error
    carries, its count and its message."""
    try:
        result = fn(*args, **kwargs)
    except (ArithmeticError, CounterexampleFound, SearchBudgetExceeded) as exc:
        q = getattr(exc, "q", None)
        q = q and [str(p) for p in q]
        return ("raise", type(exc).__name__, q, getattr(exc, "count", None), str(exc))
    if isinstance(result, tuple):
        K, witness = result
        return ("value", str(K), witness.to_json())
    return ("value", result.to_json())


@st.composite
def matrices(draw, fields=FIELDS):
    """A matrix of one kind of entry: exact finite support, rational, or
    truncated at one precision floor."""
    spec = draw(st.sampled_from(fields))
    m, n = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from(["exact", "rational", "truncated"]))
    floor = draw(st.integers(-10, -2))
    elem = st.integers(0, spec.k - 1)

    def entry():
        if kind == "rational":
            den = Poly(spec, draw(st.lists(elem, max_size=4)) + [1])
            return RationalFn(Poly(spec, draw(st.lists(elem, max_size=5))), den)
        lo = floor if kind == "truncated" else -draw(st.integers(0, 8))
        digits = draw(st.lists(elem, min_size=2 - lo, max_size=2 - lo))
        coeffs = dict(zip(range(1, lo - 1, -1), digits))
        if kind == "exact":
            return LaurentSeries(spec, coeffs)
        coeffs[draw(st.integers(floor, 1))] = draw(st.integers(1, spec.k - 1))
        return LaurentSeries(spec, coeffs, floor)

    A = SeriesMatrix(spec, [[entry() for _ in range(n)] for _ in range(m)])
    cap = draw(st.sampled_from(range(6)))
    while cap and spec.k ** (m * (cap + 1)) > ORACLE_VECTORS:
        cap -= 1
    return A, cap, kind


def badness_outcome(fn, *args, **kwargs):
    """``outcome``, less the message of PrecisionExhausted: the level walk
    names the height it cannot decide, the search named a q."""
    out = outcome(fn, *args, **kwargs)
    return out[:4] if out[1] == "PrecisionExhausted" else out


def declared(kind, A, new, old):
    """The declared differences of ``badness_constant`` from its oracle,
    both for truncated entries: with n > 1 the oracle raises
    PrecisionExhausted for a q one of whose columns has no known fractional
    digit, even where another column rules q out; and truncation and the
    budget may trip in either order."""
    if kind != "truncated":
        return False
    one_column = A.cols > 1 and old[:2] == ("raise", "PrecisionExhausted") and new[0] == "value"
    return one_column or "SearchBudgetExceeded" in (new[1], old[1])


@SETTINGS
@given(matrices())
def test_badness_matches_the_oracle(case):
    A, cap, kind = case
    sys_ = LinearFormSystem(A)
    bound = Magnitude.power(A.spec.k, cap)
    new = badness_outcome(badness_constant, sys_, bound)
    old = badness_outcome(oracle_badness_constant, sys_, bound)
    assert new == old or declared(kind, A, new, old)


@SETTINGS
@given(matrices(), st.integers(1, 2), st.sampled_from(["none", "floor", "low"]))
def test_certify_matches_the_oracle(case, R_exp, depth):
    A, cap, kind = case
    spec = A.spec
    cfg = StrategyConfig(spec, A.rows, A.cols, R_exp=R_exp)
    known_below = {"none": None, "floor": -10, "low": -4}[depth]
    args = (A, cfg, Magnitude.power(spec.k, cap))
    new = outcome(certify_bad, *args, known_below=known_below)
    assert new == outcome(oracle_certify_bad, *args, known_below=known_below)


F2 = FIELDS[0]
CFG = StrategyConfig(F2, 1, 1, R_exp=1)


def test_certify_rational_point_raises_the_oracle_counterexample():
    q0 = parse_poly("X^3 + X + 1", F2)
    point = SeriesMatrix(F2, [[RationalFn(parse_poly("X^2 + 1", F2), q0)]])
    args = (point, CFG, Magnitude.power(2, 5))
    with pytest.raises(CounterexampleFound) as new:
        certify_bad(*args)
    with pytest.raises(CounterexampleFound) as old:
        oracle_certify_bad(*args)
    assert new.value.q == old.value.q == (q0,)
    assert str(new.value) == str(old.value)


def test_certify_precision_exhausted_at_a_low_floor():
    x = LaurentSeries(F2, {-1: 1, -3: 1, -4: 1, -6: 1, -9: 1})
    args = (SeriesMatrix(F2, [[x]]), CFG, Magnitude.power(2, 4))
    with pytest.raises(PrecisionExhausted) as new:
        certify_bad(*args, known_below=-5)
    with pytest.raises(PrecisionExhausted) as old:
        oracle_certify_bad(*args, known_below=-5)
    assert str(new.value) == str(old.value)


# the matrix of tests/test_cli.py::test_budget_diagnostic_reports_how_far_the_search_got
CLI_BUDGET = SeriesMatrix(F2, [[parse_series("X^-1 + X^-2 + X^-4 + X^-7 + X^-11", F2)]])
# (X^-1; X^-1 + X^-2): q = (1, X) is its first annihilator, the 6th vector
ANNIHILATED = SeriesMatrix(F2, [[LaurentSeries(F2, {-1: 1})], [LaurentSeries(F2, {-1: 1, -2: 1})]])


def test_badness_zero_score_is_the_first_annihilator():
    sys_ = LinearFormSystem(ANNIHILATED)
    new = outcome(badness_constant, sys_, Magnitude.power(2, 3))
    assert new == outcome(oracle_badness_constant, sys_, Magnitude.power(2, 3))
    assert new[1] == "0"


@settings(max_examples=80)
@given(matrices(fields=FIELDS[:2]), st.integers(0, 300))
@example((CLI_BUDGET, 6, "exact"), 10)
@example((CLI_BUDGET, 6, "exact"), 7)  # exactly the vectors of height <= k^2
@example((CLI_BUDGET, 6, "exact"), 0)
@example((ANNIHILATED, 3, "exact"), 5)
@example((ANNIHILATED, 3, "exact"), 6)
def test_budget_trips_where_the_oracle_does(case, budget):
    A, cap, kind = case
    sys_ = LinearFormSystem(A)
    bound = Magnitude.power(A.spec.k, cap)
    new = badness_outcome(badness_constant, sys_, bound, budget=budget)
    old = badness_outcome(oracle_badness_constant, sys_, bound, budget=budget)
    assert new == old or declared(kind, A, new, old)


@pytest.mark.parametrize(
    "spec, m, h", [(F2, 2, 2), (FIELDS[1], 2, 1), (F2, 3, 1), (FIELDS[2], 1, 2)]
)
def test_height_class_rank_counts_the_vectors_before(spec, m, h):
    for i, q in enumerate(iter_height_class(spec, m, h)):
        assert height_class_rank(q, h, spec.k) == i


@SETTINGS
@given(matrices(fields=FIELDS[:2]), st.integers(-8, -1))
def test_first_vector_is_the_first_in_enumeration_order(case, level):
    A, cap, kind = case
    if kind == "truncated":
        return
    spec, bound = A.spec, Magnitude.power(A.spec.k, level)
    for h in range(cap + 1):
        expected = next(
            (q for q in iter_height_class(spec, A.rows, h) if exact_dist(q, A) <= bound), None
        )
        assert first_vector(A, h, level) == expected
    # up to height k^cap, in the order of the Dirichlet pigeonhole search
    vectors = itertools.product(iter_polys(spec, cap), repeat=A.rows)
    nonzero = (q for q in vectors if any(not p.is_zero for p in q))
    expected = next((q for q in nonzero if exact_dist(q, A) <= bound), None)
    assert first_vector(A, cap, level, exact=False) == expected


# X^-3 at cap 0: the least distance k^-3 lies below two levels of zero rows
GAP = SeriesMatrix(F2, [[LaurentSeries(F2, {-3: 1})]])


@SETTINGS
@given(matrices(), st.integers(-10, 0), st.integers(-2, 2))
@example((GAP, 0, "exact"), -3, 0)
@example((GAP, 1, "exact"), -4, 1)
def test_least_levels_decides_each_height_at_its_stop_level(case, stop, slope):
    # stop levels at, above and below the least distances, so a height whose
    # least distance sits exactly at its stop level is None
    A, cap, kind = case
    if kind == "truncated":
        return
    levels = least_levels(A, cap, lambda h: stop + slope * h)
    for h in range(cap + 1):
        least = min(exact_dist(q, A) for q in iter_height_class(A.spec, A.rows, h))
        e = None if least.is_zero else int(least.exponent())
        assert levels[h] == (None if e is None or e <= stop + slope * h else e)


@SETTINGS
@given(st.sampled_from(FIELDS), st.integers(1, 6), st.data())
def test_nullspace_matches_the_old_elimination(spec, ncols, data):
    elem = st.integers(0, spec.k - 1)
    rows = data.draw(st.lists(st.lists(elem, min_size=ncols, max_size=ncols), max_size=6))
    ech = FqEchelon(spec, ncols)
    for row in rows:
        ech.add(row + [0])
    assert ech.nullspace() == oracle_fq_nullspace(rows, ncols, spec)


def test_library_rejects_a_negative_cap_and_budget():
    sys_ = LinearFormSystem.single(LaurentSeries(F2, {-1: 1}))
    with pytest.raises(ValueError, match="height bound"):
        badness_constant(sys_, Magnitude.power(2, -1))
    with pytest.raises(ValueError, match="budget"):
        badness_constant(sys_, Magnitude.power(2, 1), budget=-1)
    with pytest.raises(ValueError, match="cap"):
        certify_bad(sys_.matrix, CFG, Magnitude.power(2, Fraction(-1, 2)))


def test_a_deep_sparse_entry_skips_its_empty_levels():
    # the walk jumps over the levels whose rows are all zero; one row per
    # level down to X^-10^6 took seconds
    deep = LaurentSeries(F2, {-(10**6): 1})
    start = time.perf_counter()
    K, witness = badness_constant(LinearFormSystem.single(deep), Magnitude.power(2, 1))
    pair = SeriesMatrix(F2, [[deep], [LaurentSeries(F2, {-(10**6) + 1: 1, -3: 1})]])
    K2, _ = badness_constant(LinearFormSystem(pair), Magnitude.power(2, 3))
    assert time.perf_counter() - start < 2
    assert (K, witness.q) == (Magnitude.power(2, -(10**6)), (Poly.one(F2),))
    assert K2 == Magnitude.power(2, -(10**6))
