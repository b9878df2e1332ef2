"""Differential tests of the Dirichlet witness read off the level walk
against the pigeonhole search it replaced (``oracles.py``), and of
``floor_log`` and ``limit_point`` against the loops they replaced, which
stepped once per unit of exponent and once per round."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import oracle_dirichlet_pigeonhole
from test_level_space import outcome

from lsdioph.approx import DEFAULT_SEARCH_BUDGET, LinearFormSystem, _dirichlet_pigeonhole
from lsdioph.errors import InsufficientDepth, PrecisionExhausted, SearchBudgetExceeded
from lsdioph.field import FieldSpec, Poly, floor_log
from lsdioph.game import FormalBall, GameParams, GameTranscript, limit_point
from lsdioph.series import LaurentSeries, RationalFn, SeriesMatrix

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2)]
SHAPES = [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
# the oracle visits k^(m(t+1)) vectors; t is lowered below this
ORACLE_VECTORS = 1024

SETTINGS = settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])

F2 = FIELDS[0]


@st.composite
def dirichlet_cases(draw):
    """A matrix of exact, rational or truncated entries, each truncated one
    at its own precision floor, and a t up to 3 (4 over F2)."""
    spec = draw(st.sampled_from(FIELDS))
    m, n = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from(["exact", "rational", "truncated"]))
    elem = st.integers(0, spec.k - 1)

    def entry():
        if kind == "rational":
            den = Poly(spec, draw(st.lists(elem, max_size=3)) + [1])
            return RationalFn(Poly(spec, draw(st.lists(elem, max_size=4))), den)
        lo = draw(st.integers(-24, -1))
        digits = draw(st.lists(elem, min_size=2 - lo, max_size=2 - lo))
        coeffs = dict(zip(range(1, lo - 1, -1), digits))
        if kind == "exact":
            return LaurentSeries(spec, coeffs)
        coeffs[draw(st.integers(lo, 1))] = draw(st.integers(1, spec.k - 1))
        return LaurentSeries(spec, coeffs, lo)

    A = SeriesMatrix(spec, [[entry() for _ in range(n)] for _ in range(m)])
    t = draw(st.integers(1, 4 if spec.k == 2 else 3))
    while spec.k ** (m * (t + 1)) > ORACLE_VECTORS:
        t -= 1
    assume(t >= 1)
    return A, t, kind


def dirichlet_outcome(fn, A, t, budget=DEFAULT_SEARCH_BUDGET):
    """``outcome``, less the message of PrecisionExhausted: the search
    named the series it could not read, the port names a column."""
    out = outcome(fn, LinearFormSystem(A), t, budget)
    return out[:4] if out[1] == "PrecisionExhausted" else out


# a column of X^-1 + O(X^-5) twice: q = (1, 1) cancels every known digit
CANCEL = SeriesMatrix(F2, [[LaurentSeries(F2, {-1: 1}, -5)], [LaurentSeries(F2, {-1: 1}, -5)]])
# X^-1 + X^-4 + O(X^-9) above an exact row: the pigeonhole window
# X^-1..X^-3 at t = 1 is known, and every q meeting the truncated entry has a known digit
PINNED = SeriesMatrix(F2, [[LaurentSeries(F2, {-1: 1, -4: 1}, -9)], [LaurentSeries(F2, {-2: 1})]])

# X^-2 + O(X^-3) over X^-5 at t = 1: q = (X, 0) has its floor X^-2 above
# the window X^-1..X^-3, though its first known digit pins it
BOUNDARY = SeriesMatrix(F2, [[LaurentSeries(F2, {-2: 1}, -3)], [LaurentSeries(F2, {-5: 1})]])

# at t = 2, column 0 of q = X^2 + X + 1 is X^3 + O(X^-2), with no known
# fractional digit, while column 1 makes X^2 + X the minimiser
UNKNOWN = SeriesMatrix(F2, [[
    LaurentSeries(F2, {1: 1, 0: 1, -2: 1, -3: 1}, -4),
    LaurentSeries(F2, {1: 1, -1: 1, -4: 1, -6: 1, -7: 1, -8: 1}, -13),
]])


@SETTINGS
@given(dirichlet_cases())
@example((BOUNDARY, 1, "truncated"))
@example((UNKNOWN, 2, "truncated"))
@example((CANCEL, 1, "truncated"))
@example((PINNED, 1, "truncated"))
@example((PINNED, 4, "truncated"))
def test_dirichlet_matches_the_oracle(case):
    A, t, kind = case
    assert dirichlet_outcome(_dirichlet_pigeonhole, A, t) == dirichlet_outcome(
        oracle_dirichlet_pigeonhole, A, t
    )


@SETTINGS
@given(dirichlet_cases(), st.integers(0, 300))
def test_dirichlet_budget_trips_where_the_oracle_does(case, budget):
    # truncated entries are left out: see the declared difference below
    A, t, kind = case
    if kind == "truncated":
        return
    new = dirichlet_outcome(_dirichlet_pigeonhole, A, t, budget)
    assert new == dirichlet_outcome(oracle_dirichlet_pigeonhole, A, t, budget)
    assert (new[1] == "SearchBudgetExceeded") == (A.spec.k ** (A.rows * (t + 1)) > budget)


def test_a_budget_below_the_vectors_trips_before_any_precision_check():
    # the declared difference: the search raised PrecisionExhausted at its
    # third vector, (0, X), before it had visited a budget of 10 vectors
    A = SeriesMatrix(F2, [[LaurentSeries(F2, {-1: 1}, -4)], [LaurentSeries(F2, {-1: 1}, -4)]])
    with pytest.raises(SearchBudgetExceeded) as new:
        _dirichlet_pigeonhole(LinearFormSystem(A), 2, budget=10)
    assert new.value.count == 10
    with pytest.raises(PrecisionExhausted):
        oracle_dirichlet_pigeonhole(LinearFormSystem(A), 2, budget=10)
    with pytest.raises(PrecisionExhausted):
        _dirichlet_pigeonhole(LinearFormSystem(A), 2)


def test_a_huge_t_trips_the_budget_without_a_huge_power():
    A = SeriesMatrix(F2, [[LaurentSeries(F2, {-1: 1})], [LaurentSeries(F2, {-2: 1})]])
    with pytest.raises(SearchBudgetExceeded, match=r"5 vectors of height <= k\^1000000000$"):
        _dirichlet_pigeonhole(LinearFormSystem(A), 10**9, budget=5)


def old_floor_log(value, k):
    """The loop ``floor_log`` replaced: one step per unit of exponent."""
    value, e = Fraction(value), 0
    if value >= 1:
        while value >= k:
            value, e = value / k, e + 1
    else:
        while value < 1:
            value, e = value * k, e - 1
    return e


@SETTINGS
@given(
    st.sampled_from([2, 3, 4, 5, 8, 9, 25, 27]),
    st.integers(-80, 80),
    st.sampled_from([Fraction(1), Fraction(999, 1000), Fraction(1001, 1000), Fraction(7, 3)]),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
)
def test_floor_log_matches_the_loop(k, e, near, other):
    for value in (Fraction(k) ** e * near, other):
        assert floor_log(value, k) == old_floor_log(value, k)
        if value.denominator == 1:
            assert floor_log(value.numerator, k) == old_floor_log(value, k)


@pytest.mark.parametrize("precision", [7, 40, 200])
@pytest.mark.parametrize("alpha, beta", [("1/4", "1/2"), ("1/3", "1/2"), ("9/10", "9/10")])
def test_limit_point_counts_the_missing_rounds_as_the_loop_did(precision, alpha, beta):
    params = GameParams(Fraction(alpha), Fraction(beta), F2)
    centre = SeriesMatrix(F2, [[LaurentSeries(F2, {-1: 1})]])
    t = GameTranscript(params, [FormalBall(centre, Fraction(1, 2**7))])
    r, rounds = Fraction(1, 2**7), 0
    while old_floor_log(r, 2) >= -precision:
        r, rounds = r * params.alpha * params.beta, rounds + 1
    with pytest.raises(InsufficientDepth) as exc:
        limit_point(t, precision)
    assert exc.value.required_moves == rounds
