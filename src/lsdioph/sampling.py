"""Seeded random generators for balls and orthonormal bases.  Everything
takes an explicit ``random.Random`` so runs are reproducible from a single
seed."""

from __future__ import annotations

from .field import FieldSpec, Magnitude
from .game import FormalBall
from .linalg import series_vec_rank_at_zero
from .series import LaurentSeries, SeriesMatrix


def random_ball(
    rng, spec: FieldSpec, m: int, n: int, radius_exp: int, center_depth: int
) -> FormalBall:
    """Ball of radius k^radius_exp whose center carries coefficients down to
    the ball's own resolution (deeper ones would be invisible)."""
    center = SeriesMatrix(
        spec,
        [
            [
                _centered_series(rng, spec, radius_exp, center_depth)
                for _ in range(n)
            ]
            for _ in range(m)
        ],
    )
    return FormalBall(center, Magnitude.power(spec.k, radius_exp).as_fraction())


def _centered_series(rng, spec, radius_exp, depth):
    coeffs = {}
    for e in range(radius_exp + 1, radius_exp + 1 + depth):
        coeffs[e] = rng.randrange(spec.k)
    return LaurentSeries(spec, coeffs)


def random_orthonormal_basis(rng, spec: FieldSpec, count: int, dim: int, depth: int = 3):
    """``count`` vectors in L^dim, entry norms <= 1, residues at exponent 0
    linearly independent over F_q (that is exactly ultrametric
    orthonormality)."""
    while True:
        vecs = []
        for _ in range(count):
            vec = []
            for _ in range(dim):
                coeffs = {-e: rng.randrange(spec.k) for e in range(depth)}
                vec.append(LaurentSeries(spec, coeffs))
            vecs.append(tuple(vec))
        if series_vec_rank_at_zero(vecs, spec) == count:
            return tuple(vecs)
