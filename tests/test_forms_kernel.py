"""Property tests of the one q.A kernel, ``series.vec_dot``, against the
hand-written accumulation loops it replaced, which are kept here as
oracles."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import dist_with_cutoff

from lsdioph.approx import exact_dist
from lsdioph.errors import PrecisionExhausted
from lsdioph.field import FieldSpec, Magnitude, Poly
from lsdioph.series import LaurentSeries, RationalFn, SeriesMatrix, vec_dot

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)]
F2 = FIELDS[0]

SETTINGS = settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])


def inline_loop(q, column):
    """The accumulation as it was written out by hand: zero q_i skipped,
    None when every q_i is zero."""
    acc = None
    for qi, a in zip(q, column):
        if qi.is_zero:
            continue
        term = a * qi
        acc = term if acc is None else acc + term
    return acc


def unskipped_loop(q, column):
    """The former ``poly_vec_dot``: every product summed, zeros included."""
    out = None
    for qi, a in zip(q, column):
        term = a * qi
        out = term if out is None else out + term
    return out


def point_dist(q, point):
    """The former certification distance, column by column."""
    out = Magnitude.zero(point.spec.k)
    for j in range(point.cols):
        acc = inline_loop(q, point.col(j))
        if acc is not None:
            out = max(out, acc.frac_norm())
    return out


def outcome(fn, *args):
    """("raised", None) on PrecisionExhausted, else ("value", result)."""
    try:
        return "value", fn(*args)
    except PrecisionExhausted:
        return "raised", None


def polys(spec):
    return st.lists(st.integers(0, spec.k - 1), max_size=4).map(lambda c: Poly(spec, c))


def exact_series(spec):
    return st.dictionaries(
        st.integers(-5, 3), st.integers(0, spec.k - 1), max_size=5
    ).map(lambda c: LaurentSeries(spec, c))


@st.composite
def truncated_series(draw, spec):
    known_below = draw(st.integers(-6, 0))
    lead = draw(st.integers(known_below, 3))
    coeffs = draw(
        st.dictionaries(st.integers(known_below, lead), st.integers(0, spec.k - 1))
    )
    coeffs[lead] = draw(st.integers(1, spec.k - 1))
    return LaurentSeries(spec, coeffs, known_below)


def series(spec):
    return st.one_of(exact_series(spec), truncated_series(spec))


def rationals(spec):
    nonzero = polys(spec).filter(lambda p: not p.is_zero)
    return st.builds(RationalFn, polys(spec), nonzero)


@st.composite
def q_and_column(draw):
    """A vector q and a same-length column: q of polynomials (zero ones
    likely) or of series, the column of series or of rational functions."""
    spec = draw(st.sampled_from(FIELDS))
    size = draw(st.integers(1, 4))
    scalars = draw(st.sampled_from([series, rationals]))
    column = tuple(draw(st.lists(scalars(spec), min_size=size, max_size=size)))
    coords = polys(spec)
    if scalars is series and draw(st.booleans()):
        coords = series(spec)
    q = tuple(draw(st.lists(coords, min_size=size, max_size=size)))
    return q, column


@st.composite
def cancelling(draw):
    """c*a + (-c)*a for a truncated a: zero to precision, so both raise."""
    spec = draw(st.sampled_from(FIELDS))
    a = draw(truncated_series(spec))
    c = draw(st.integers(1, spec.k - 1))
    q = (Poly.constant(spec, c), Poly.constant(spec, spec.neg(c)))
    return q, (a, a)


def cancelling_pair():
    a = LaurentSeries(F2, {-1: 1}, known_below=-3)
    return (Poly.one(F2), Poly.one(F2)), (a, a)


@SETTINGS
@given(st.one_of(q_and_column(), cancelling()))
@example(cancelling_pair())
def test_kernel_matches_the_inline_loops(case):
    q, column = case
    kind, value = outcome(vec_dot, q, column)
    old_kind, old = outcome(inline_loop, q, column)
    assert kind == old_kind
    assert outcome(unskipped_loop, q, column)[0] == kind
    if kind == "raised":
        return
    if old is None:
        assert value.is_zero and value.is_exact
        assert type(value) is type(column[0])
    else:
        assert value == old
    assert value == unskipped_loop(q, column)


def test_kernel_raises_on_cancellation_below_precision():
    q, column = cancelling_pair()
    with pytest.raises(PrecisionExhausted):
        vec_dot(q, column)


def test_kernel_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        vec_dot((Poly.one(F2),), (LaurentSeries.one(F2),) * 2)


@st.composite
def q_and_matrix(draw):
    spec = draw(st.sampled_from(FIELDS))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.lists(series(spec), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    q = tuple(draw(st.lists(polys(spec), min_size=m, max_size=m)))
    return q, SeriesMatrix(spec, rows)


@SETTINGS
@given(q_and_matrix())
def test_distance_helpers_match_the_certification_loop(case):
    q, A = case
    kind, dist = outcome(exact_dist, q, A)
    old_kind, old = outcome(point_dist, q, A)
    assert kind == old_kind
    assert outcome(dist_with_cutoff, q, A, None) == (kind, dist)
    if kind == "value":
        assert dist == old
