"""Differential tests of the fraction-free elimination in ``linalg``: ``det``
and the adjugate it returns against the cofactor expansion they replaced,
and ``PolyEchelon``/``poly_rank`` against the column-by-column rank
(``oracles.py``)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import oracle_adjugate, oracle_det, oracle_poly_rank

from lsdioph import linalg
from lsdioph.field import FieldSpec, Poly
from lsdioph.linalg import PolyEchelon, det, poly_rank
from lsdioph.series import LaurentSeries, RationalFn, SeriesMatrix, parse_matrix

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(3, 2)]
SETTINGS = settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])


def adjugate(matrix: SeriesMatrix) -> SeriesMatrix:
    """Adjugate, M * adj(M) = det(M) * I, of an invertible matrix of exact
    finite-support entries; a singular matrix raises ``ValueError``."""
    adj = det(matrix)[1]
    if adj is None:
        raise ValueError("adjugate of a singular matrix")
    return adj


def laurent(spec, lo=-3, hi=3, max_terms=2):
    """Exact Laurent polynomials with exponents in [lo, hi], zero included."""
    terms = st.dictionaries(st.integers(lo, hi), st.integers(1, spec.k - 1), max_size=max_terms)
    return terms.map(lambda c: LaurentSeries(spec, c))


@st.composite
def matrices(draw, max_d=6):
    """A square matrix, d from 1 to max_d; some of its last rows are then
    replaced by Laurent combinations of the others, so ranks d - 1 and
    lower (down to the zero matrix) come up as well as full ranks."""
    spec = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, max_d))
    entry = laurent(spec)
    rows = [[draw(entry) for _ in range(d)] for _ in range(d)]
    keep = draw(st.sampled_from([d] * 3 + list(range(d))))
    for i in range(keep, d):
        coeffs = [draw(laurent(spec, -1, 1, 1)) for _ in range(keep)]
        rows[i] = [
            sum((c * rows[j][col] for j, c in enumerate(coeffs)), LaurentSeries.zero(spec))
            for col in range(d)
        ]
    return SeriesMatrix(spec, rows)


def power(x, e):
    out = LaurentSeries.one(x.spec)
    for _ in range(e):
        out = out * x
    return out


@SETTINGS
@given(matrices())
def test_det_and_adjugate_match_cofactor_expansion(M):
    d, adj = det(M)
    assert d == oracle_det(M)
    if d.is_zero:
        assert adj is None
        with pytest.raises(ValueError):
            adjugate(M)
    else:
        assert adj == adjugate(M) == oracle_adjugate(M)


@SETTINGS
@given(matrices(max_d=5))
def test_adjugate_identities(M):
    """adj(adj M) = det^(d-2) M and det(adj M) = det^(d-1) for d >= 2."""
    d, n = det(M)[0], M.rows
    if d.is_zero or n < 2:
        return
    adj = adjugate(M)
    assert det(adj)[0] == power(d, n - 1)
    scale = power(d, n - 2)
    assert adjugate(adj) == M.map(lambda x: scale * x)


@pytest.mark.parametrize(
    "field, text, expected",
    [
        ("3", "0, 1; 1, 0", "2"),  # one swap: det = -1
        ("3", "0, 1, 0; 0, 0, 1; 1, 0, 0", "1"),  # two swaps
        ("3", "0, X; X^-1, 1", "2"),
        ("2", "X, 0; 0, X", "X^2"),  # a zero below the pivot still scales
        ("3", "X, 0, 0; 0, 2*X^-1, 0; 0, 0, X^2 + 1", "2*X^2 + 2"),
    ],
)
def test_det_of_small_matrices(field, text, expected):
    spec = FieldSpec(int(field))
    M = parse_matrix(text, spec)
    assert str(det(M)[0]) == expected
    assert adjugate(M) == oracle_adjugate(M)


def test_quotients_wider_than_the_default_division(monkeypatch):
    """Quotients spanning more than ``LaurentSeries.divide``'s default 64
    positions are taken whole: a truncating division would fail here."""
    spans = []

    def spy(*args):
        q = cross(*args)
        if q.coeffs:
            spans.append(max(q.coeffs) - min(q.coeffs) + 1)
        return q

    cross = linalg._cross
    monkeypatch.setattr(linalg, "_cross", spy)
    M = parse_matrix("X^20 + 1, X, 0; 2*X^-2, X^-45 + 1, X; X^-20, 1, X^3", FieldSpec(3))
    assert adjugate(M) == oracle_adjugate(M)
    assert det(M)[0] == oracle_det(M)
    assert max(spans) > 64


def test_exact_division_raises_on_a_remainder():
    F2 = FieldSpec(2)
    one, zero = LaurentSeries.one(F2), LaurentSeries.zero(F2)
    x1, x2 = (LaurentSeries(F2, {1: 1, 0: 1}), LaurentSeries(F2, {2: 1, 0: 1}))
    assert linalg._cross(one, x2, zero, one, x1) == x1  # (X + 1)^2 / (X + 1)
    X = LaurentSeries(F2, {1: 1})
    assert linalg._cross(x1, x1, one, one, X) == X  # ((X + 1)^2 - 1) / X
    with pytest.raises(ArithmeticError):
        linalg._cross(one, x1, zero, one, x2)  # (X + 1) / (X + 1)^2
    with pytest.raises(ArithmeticError):
        linalg._cross(one, one, zero, one, x1)  # 1 / (X + 1)


def test_det_accepts_square_exact_matrices_only():
    F2 = FieldSpec(2)
    one = LaurentSeries.one(F2)
    truncated = LaurentSeries(F2, {0: 1}, known_below=-5)
    rational = RationalFn(Poly.one(F2), Poly(F2, [1, 1]))
    for rows in ([[one, one]], [[truncated]], [[rational]]):
        with pytest.raises(ValueError):
            det(SeriesMatrix(F2, rows))
        with pytest.raises(ValueError):
            adjugate(SeriesMatrix(F2, rows))


@st.composite
def poly_families(draw):
    """Polynomial vectors, some of them combinations of earlier ones."""
    spec = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 4))
    poly = st.lists(st.integers(0, spec.k - 1), max_size=3).map(lambda c: Poly(spec, c))
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        if vectors and draw(st.booleans()):
            cs = [draw(poly) for _ in vectors]
            vectors.append(tuple(
                sum((c * v[i] for c, v in zip(cs, vectors)), Poly.zero(spec)) for i in range(width)
            ))
        else:
            vectors.append(tuple(draw(poly) for _ in range(width)))
    return spec, vectors


@SETTINGS
@given(poly_families())
def test_incremental_independence_matches_the_rank(family):
    spec, vectors = family
    echelon = PolyEchelon()
    for i, v in enumerate(vectors):
        before = oracle_poly_rank(vectors[:i], spec)
        assert echelon.add(v) == (oracle_poly_rank(vectors[: i + 1], spec) > before)
    assert poly_rank(vectors) == oracle_poly_rank(vectors, spec)
