"""Differential tests of successive minima by weak Popov reduction and of
the polar body's closed-form (det, adj), against the level walk over every
value level (``oracles.py``) and a second elimination; and the wide-spread
geometry inputs that only the reduction reaches."""

import json
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracles import oracle_successive_minima

from lsdioph.cli import main
from lsdioph.errors import SearchIncomplete
from lsdioph.field import FieldSpec, Magnitude
from lsdioph.geom import Parallelepiped, check_duality, polar, successive_minima
from lsdioph.linalg import det, weak_popov
from lsdioph.series import LaurentSeries, SeriesMatrix, parse_matrix

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)]
SETTINGS = settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def bodies(draw, max_d=5, spread=40):
    """An invertible body over F2, F3, 2^2 or 3^2 with k-power bounds: entries
    of up to three terms at exponents -2..2, and up to two terms anywhere in
    -spread..spread."""
    spec = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, max_d))
    coeff = st.integers(1, spec.k - 1)
    rows = [
        [draw(st.dictionaries(st.integers(-2, 2), coeff, max_size=3)) for _ in range(d)]
        for _ in range(d)
    ]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j][draw(st.integers(-spread, spread))] = draw(coeff)
    M = SeriesMatrix(spec, [[LaurentSeries(spec, c) for c in row] for row in rows])
    assume(not det(M)[0].is_zero)
    bounds = [Magnitude.power(spec.k, draw(st.integers(-3, 3))) for _ in range(d)]
    return Parallelepiped(M, tuple(bounds))


def minima_outcome(fn, P, degree_bound):
    """Values and witnesses, or the message and bound of a SearchIncomplete."""
    try:
        result = fn(P, degree_bound)
    except SearchIncomplete as exc:
        return ("raise", str(exc), exc.required_bound)
    values, witnesses = result if isinstance(result, tuple) else (result.values, result.witnesses)
    return (values, witnesses)


@SETTINGS
@given(bodies(), st.sampled_from([None, -1, 0, 1, 2]))
def test_minima_match_the_level_walk(P, degree_bound):
    assert minima_outcome(successive_minima, P, degree_bound) == minima_outcome(
        oracle_successive_minima, P, degree_bound
    )


@SETTINGS
@given(bodies())
def test_reduced_rows_are_their_transforms_times_the_matrix(P):
    B = P.scaled_matrix
    rows, xs = weak_popov(B.entries)
    heads = set()
    for row, x in zip(rows, xs):
        assert all(c.is_exact and all(e >= 0 for e in c.coeffs) for c in x)
        for j, entry in enumerate(row):
            prod = LaurentSeries.zero(P.spec)
            for xi, bi in zip(x, B.col(j)):
                prod = prod + xi * bi
            assert prod == entry
        deg = max(c.lead_exp for c in row if c.coeffs)
        heads.add(max(j for j, c in enumerate(row) if c.coeffs and c.lead_exp == deg))
    assert len(heads) == P.dim  # weak Popov: distinct leading positions


@settings(SETTINGS, max_examples=80)
@given(bodies(spread=10))
def test_polar_closed_form_matches_an_elimination(P):
    """The closed form against a second elimination (entries of the polar's
    scaled matrix are degree-(d-1) minors, so spreads stay smaller here)."""
    Q = polar(P)
    assert Q.det_adj == det(Q.scaled_matrix)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_polar_closed_form_in_each_dimension(d):
    F3 = FieldSpec(3)
    text = "; ".join(
        ", ".join(f"X^{(3 * i + 2 * j) % 7 - 3} + {1 + (i + j) % 2}" if i <= j else "1"
                  for j in range(d))
        for i in range(d)
    )
    P = Parallelepiped(parse_matrix(text, F3), tuple(Magnitude.power(3, i - 1) for i in range(d)))
    Q = polar(P)
    assert Q.det_adj == det(Q.scaled_matrix)


def run(argv, capsys):
    assert main(argv + ["--no-timestamp"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


@pytest.mark.parametrize(
    "matrix, m, n, lambdas, sigmas",
    [
        ("X^1000, 1, 0; 1, X^-1000, 1; 0, 1, X^500", 1, 2, [0, 500, 500], [-500, -500, 0]),
        ("X^200000, 1; 1, X^-3", 1, 1, [0, 199997], [-199997, 0]),
    ],
)
def test_duality_on_wide_exponent_spreads(matrix, m, n, lambdas, sigmas, capsys):
    argv = ["duality", "--field", "2", "--matrix", matrix, "--m", str(m), "--n", str(n)]
    result = run(argv, capsys)
    assert (result["lambdas"], result["sigmas"]) == (lambdas, sigmas)


@pytest.mark.parametrize(
    "matrix", ["X^50, 1, 0; 1, X^-50, 1; 0, 1, X^25", "X^50, 1; 1, X^-3"]
)
def test_wide_spread_analogues_match_the_level_walk(matrix):
    """X^50-sized analogues of the inputs above: the reduction agrees with
    the level walk, which cannot reach the X^1000 and X^200000 ones."""
    P = Parallelepiped.unit_bounds(parse_matrix(matrix, FieldSpec(2)))
    for body in (P, polar(P)):
        sm = successive_minima(body)
        assert (sm.values, sm.witnesses) == oracle_successive_minima(body)
    report = check_duality(P, 1, P.dim - 1)
    assert report.lambda_exps == tuple(int(v.exponent()) for v in oracle_successive_minima(P)[0])


def test_measure_of_a_huge_body_prints_exactly(capsys):
    """A measure past Python's int-to-string digit limit prints in full, and
    the limit is as it was once main returns."""
    limit = sys.get_int_max_str_digits()
    argv = ["measure", "--field", "2", "--matrix", "X^200000, 1; 1, X^-200000 + 1"]
    result = run(argv, capsys)
    assert sys.get_int_max_str_digits() == limit
    assert result["measure_exp"] == -200000
    sys.set_int_max_str_digits(0)
    try:
        assert result["measure"] == f"1/{2**200000}"
    finally:
        sys.set_int_max_str_digits(limit)
