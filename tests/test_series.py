import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lsdioph.errors import (
    CoefficientOutOfRange,
    DivisionByZero,
    PrecisionExhausted,
    SeriesSyntaxError,
)
from lsdioph.field import FieldSpec, Magnitude, Poly
from lsdioph.series import (
    LaurentSeries,
    RationalFn,
    SeriesMatrix,
    _split_top,
    format_matrix,
    format_series,
    lattice_distance,
    parse_field,
    parse_matrix,
    parse_poly,
    parse_series,
    vec_height,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)


@given(st.text(alphabet="()+,;X^1- ", max_size=30), st.sampled_from("+,;"))
@example("(1,0)*X + (0,1", "+")
@example("1 + X)", "+")
@example("X^-1 + 1 + ", "+")
def test_split_top_splits_outside_parentheses(text, sep):
    depths = list(itertools.accumulate((ch == "(") - (ch == ")") for ch in text))
    if min(depths, default=0) < 0 or depths and depths[-1]:
        with pytest.raises(SeriesSyntaxError) as exc:
            _split_top(text, sep)
        assert exc.value.position == (depths.index(-1) if -1 in depths else len(text))
        return
    terms = _split_top(text, sep)
    assert sep.join(chunk for chunk, _ in terms) == text
    cuts = [i for i, ch in enumerate(text) if ch == sep and depths[i] == 0]
    assert [offset for _, offset in terms] == [0] + [i + 1 for i in cuts]


def rand_series(rng, spec, lead_hi=4, depth=9):
    coeffs = {}
    for e in range(lead_hi - depth + 1, lead_hi + 1):
        coeffs[e] = rng.randrange(spec.k)
    if not any(coeffs.values()):
        coeffs[lead_hi] = rng.randrange(1, spec.k)
    return LaurentSeries(spec, coeffs)


def test_parse_examples():
    x = parse_series("X^2 + 1 + X^-3", F2)
    assert x.lead_exp == 2
    assert parse_series("0", F2).is_zero
    with pytest.raises(CoefficientOutOfRange):
        parse_series("2*X^-1", F2)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(SeriesSyntaxError) as err:
        parse_series("X^2 + Y", F2)
    assert err.value.position == 6
    with pytest.raises(SeriesSyntaxError):
        parse_series("X^2 + + 1", F2)
    with pytest.raises(SeriesSyntaxError):
        parse_series("(1,0)", F2)  # tuple coefficient in a prime field
    with pytest.raises(SeriesSyntaxError):
        parse_series("(1,0,1)*X", F4)  # wrong tuple arity


def test_parse_extension_field_and_duplicates():
    a = parse_series("(1,1)*X^2 + (0,1)", F4)
    assert a.lead_exp == 2
    # duplicates are summed in the field
    b = parse_series("X + X", F2)
    assert b.is_zero
    c = parse_series("X + 2*X", F3)
    assert c.is_zero


def test_format_parse_round_trip_bulk():
    rng = random.Random(5)
    for spec in (F2, F3, F4):
        for _ in range(3500):
            x = rand_series(rng, spec, lead_hi=rng.randint(-4, 5), depth=rng.randint(1, 8))
            assert parse_series(format_series(x), spec) == x
    assert parse_series(format_series(LaurentSeries.zero(F2)), F2).is_zero


def test_add_identities():
    rng = random.Random(7)
    x = rand_series(rng, F2)
    assert x + LaurentSeries.zero(F2) == x
    xp1 = parse_series("X + 1", F2)
    assert (xp1 + xp1).is_zero


def test_norm_examples():
    assert parse_series("X^2 + 1 + X^-1", F2).norm() == Magnitude.power(2, 2)
    assert LaurentSeries.zero(F2).norm().is_zero
    assert parse_series("X^-5", F2).norm() == Magnitude.power(2, -5)


def test_norm_multiplicative_and_ultrametric():
    rng = random.Random(13)
    for spec in (F2, F3, F4):
        k = spec.k
        for _ in range(500):
            x = rand_series(rng, spec, lead_hi=rng.randint(-3, 3))
            y = rand_series(rng, spec, lead_hi=rng.randint(-3, 3))
            assert (x * y).norm() == x.norm() * y.norm()
            s = x + y
            assert s.norm() <= max(x.norm(), y.norm())
            if x.norm() != y.norm():
                assert s.norm() == max(x.norm(), y.norm())


def test_mul_norm_spec_example():
    # ||x*y|| = ||x||*||y|| for x = X^2, y = X^-3 + 1: 4 * 1 = 4 over F_2
    x = parse_series("X^2", F2)
    y = parse_series("X^-3 + 1", F2)
    assert y.norm() == Magnitude.power(2, 0)
    assert (x * y).norm() == Magnitude.power(2, 2)
    assert (x * y).norm().as_fraction() == 4


def test_division_round_trip_and_exactness():
    rng = random.Random(3)
    for spec in (F2, F3):
        for _ in range(200):
            x = rand_series(rng, spec, lead_hi=rng.randint(-2, 3), depth=5)
            y = rand_series(rng, spec, lead_hi=rng.randint(-2, 3), depth=5)
            q = x.divide(y, precision=40)
            back = q * y
            # agreement on every exponent the quotient certifies
            for e in range(back.known_below or -60, x.lead_exp + 1):
                assert back.coefficient(e) == x.coefficient(e)
    # exact divisibility is detected
    a = parse_series("X^2 + 1", F2)  # (X+1)^2 over F_2
    b = parse_series("X + 1", F2)
    q = a / b
    assert q.is_exact and q == b
    with pytest.raises(DivisionByZero):
        a / LaurentSeries.zero(F2)


def test_precision_propagation_rules():
    x = LaurentSeries(F2, {2: 1, -1: 1}, known_below=-4)
    y = LaurentSeries(F2, {0: 1, -2: 1}, known_below=-6)
    s = x + y
    assert s.known_below == -4
    p = x * y
    # lead-exponent-shifted rule: max(2 + -6, 0 + -4)
    assert p.known_below == max(2 - 6, 0 - 4)
    with pytest.raises(PrecisionExhausted):
        x - x  # cancellation below the precision floor
    with pytest.raises(PrecisionExhausted):
        x.coefficient(-5)


def test_polynomial_part_examples():
    assert parse_series("X + 1 + X^-2", F2).polynomial_part() == parse_poly("X + 1", F2)
    assert parse_series("X^-1", F2).polynomial_part().is_zero
    assert LaurentSeries.zero(F2).polynomial_part().is_zero
    trunc = LaurentSeries(F2, {2: 1}, known_below=1)
    with pytest.raises(PrecisionExhausted):
        trunc.polynomial_part()


def test_height_examples():
    v = (parse_series("X^2", F2), parse_series("X^-1", F2))
    assert vec_height(v) == Magnitude.power(2, 2)
    zeros = (LaurentSeries.zero(F2), LaurentSeries.zero(F2))
    assert vec_height(zeros).is_zero
    ones = tuple(LaurentSeries.one(F2) for _ in range(3))
    assert vec_height(ones) == Magnitude.power(2, 0)


def test_height_scaling():
    rng = random.Random(23)
    for _ in range(200):
        v = tuple(rand_series(rng, F3, lead_hi=rng.randint(-2, 3)) for _ in range(3))
        c = rand_series(rng, F3, lead_hi=rng.randint(-2, 2))
        scaled = tuple(c * x for x in v)
        assert vec_height(scaled) == c.norm() * vec_height(v)


def test_lattice_distance_examples():
    assert lattice_distance([parse_series("X + 1 + X^-2", F2)]) == Magnitude.power(2, -2)
    lattice_point = (parse_series("X^2 + X", F2), parse_series("1", F2))
    assert lattice_distance(lattice_point).is_zero
    v = (parse_series("X^-1", F2), parse_series("X^-3", F2))
    assert lattice_distance(v) == Magnitude.power(2, -1)


def test_lattice_distance_invariance_under_lattice_shift():
    rng = random.Random(31)
    for _ in range(200):
        v = [rand_series(rng, F2, lead_hi=rng.randint(-2, 2)) for _ in range(2)]
        d = lattice_distance(v)
        assert d < Magnitude.power(2, 0)
        shifted = [
            x + LaurentSeries.from_poly(Poly(F2, [rng.randrange(2) for _ in range(4)]))
            for x in v
        ]
        assert lattice_distance(shifted) == d


def test_rational_fn_matches_series_arithmetic():
    rng = random.Random(41)
    for _ in range(100):
        num = Poly(F2, [rng.randrange(2) for _ in range(5)])
        den = Poly(F2, [rng.randrange(2) for _ in range(3)] + [1])
        r = RationalFn(num, den)
        s = r.to_series(precision=30)
        if r.is_zero:
            assert s.is_zero
            continue
        assert r.norm() == s.norm()
        if not (num % den).is_zero:
            assert r.frac_norm() == s.frac_norm()
        assert r.polynomial_part() == s.polynomial_part()
    x = parse_series("X^-1 + X^-3", F2)
    r = RationalFn.from_series_exact(x)
    assert str(r.num) == "X^2 + 1"
    assert str(r.den) == "X^3"
    assert r.to_series(precision=10) == x


def test_rational_division_by_zero():
    r = RationalFn(Poly.one(F2), Poly.x(F2))
    with pytest.raises(DivisionByZero):
        r / RationalFn.from_poly(Poly.zero(F2))
    with pytest.raises(DivisionByZero):
        RationalFn(Poly.one(F2), Poly.zero(F2))


def test_parse_field_flags():
    assert parse_field("3").k == 3
    f4 = parse_field("2^2")
    assert f4.k == 4
    f4b = parse_field("2^2:X^2+X+1")
    assert f4b == f4
    with pytest.raises(ValueError):
        parse_field("2^2:X^2")  # reducible modulus


def test_matrix_basics():
    m = SeriesMatrix(F2, [[parse_series("X", F2), LaurentSeries.one(F2)]])
    assert m.shape == (1, 2)
    assert m.height() == Magnitude.power(2, 1)
    t = m.transpose()
    assert t.shape == (2, 1)
    diff = m - m
    assert all(x.is_zero for row in diff.entries for x in row)


@st.composite
def series_matrices(draw):
    spec = draw(st.sampled_from([F4, FieldSpec(3, 2)]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.dictionaries(
        st.integers(-5, 3), st.integers(0, spec.k - 1), max_size=4
    ).map(lambda c: LaurentSeries(spec, c))
    return SeriesMatrix(
        spec, [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    )


@given(series_matrices())
def test_format_parse_matrix_round_trip_extension_fields(m):
    assert parse_matrix(format_matrix(m), m.spec) == m
