"""Seeded random polynomials and polynomial matrices for the tests.  Every
generator takes an explicit ``random.Random``, so a test is reproducible
from its seed."""

from lsdioph.field import FieldSpec, Poly
from lsdioph.linalg import det
from lsdioph.series import LaurentSeries, SeriesMatrix


def random_poly(rng, spec: FieldSpec, max_deg: int, nonzero: bool = False) -> Poly:
    while True:
        coeffs = [rng.randrange(spec.k) for _ in range(max_deg + 1)]
        p = Poly(spec, coeffs)
        if not nonzero or not p.is_zero:
            return p


def random_poly_matrix(rng, spec: FieldSpec, d: int, max_deg: int) -> SeriesMatrix:
    return SeriesMatrix(
        spec,
        [
            [LaurentSeries.from_poly(random_poly(rng, spec, max_deg)) for _ in range(d)]
            for _ in range(d)
        ],
    )


def random_invertible_poly_matrix(rng, spec: FieldSpec, d: int, max_deg: int) -> SeriesMatrix:
    while True:
        m = random_poly_matrix(rng, spec, d, max_deg)
        if not det(m)[0].is_zero:
            return m
