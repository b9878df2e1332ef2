"""Geometry of numbers over the Laurent series field: parallelepipeds,
distance functions, successive minima, Haar measure, and polar bodies.

A parallelepiped is the sublevel set ``{x : ||(xA)_j|| < c_j for all j}`` of
the distance function ``F(x) = max_j ||(xA)_j|| / c_j`` for an invertible
matrix A with exact finite-support entries and k-power bounds c.  Bounds
fold into the matrix exactly (scaling a column by X^-e multiplies its norms
by k^-e), so everything reduces to the unit-bound case.

Successive minima are computed exactly: the set of lattice vectors with
F-value <= k^e is an F_q-vector space cut out by linear conditions on the
coefficients, so each value level is one nullspace computation, and the
Minkowski-type product law (the product of the minima equals the reciprocal
of the measure) certifies that no smaller vector exists outside the
enumerated degree box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import SearchIncomplete
from .field import Magnitude
from .linalg import PolyEchelon, det, level_space
from .series import LaurentSeries, SeriesMatrix, vec_dot


@dataclass(frozen=True)
class Parallelepiped:
    """Invertible exact matrix plus k-power bound vector."""

    matrix: SeriesMatrix
    bounds: tuple

    def __post_init__(self):
        d = self.matrix.rows
        if self.matrix.cols != d:
            raise ValueError("parallelepiped matrix must be square")
        if len(self.bounds) != d:
            raise ValueError("bound vector length mismatch")
        for x in (e for row in self.matrix.entries for e in row):
            if not isinstance(x, LaurentSeries) or not x.is_exact:
                raise ValueError("matrix entries must be exact finite-support series")
        for c in self.bounds:
            if c.is_zero or c.exponent().denominator != 1:
                raise ValueError("bounds must be positive integer powers of k")
        if self.det_adj[0].is_zero:
            raise ValueError("matrix is singular")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def spec(self):
        return self.matrix.spec

    @classmethod
    def unit_bounds(cls, matrix: SeriesMatrix) -> "Parallelepiped":
        one = Magnitude.power(matrix.spec.k, 0)
        return cls(matrix, (one,) * matrix.rows)

    @cached_property
    def scaled_matrix(self) -> SeriesMatrix:
        """Fold the bounds into the matrix: F(x) = ||x . scaled||_inf."""
        cols = []
        for j in range(self.dim):
            e = int(self.bounds[j].exponent())
            cols.append([x.shift(-e) for x in self.matrix.col(j)])
        return SeriesMatrix(
            self.spec, [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]
        )

    @cached_property
    def det_adj(self):
        """(det, adj) of the scaled matrix, from one elimination; adj is None if singular."""
        return det(self.scaled_matrix)


def distance_value(P: Parallelepiped, x) -> Magnitude:
    """F(x) = max_j ||(xA)_j|| / c_j for a vector of scalars."""
    x = tuple(x)
    scaled = P.scaled_matrix
    return max(vec_dot(x, scaled.col(j)).norm() for j in range(P.dim))


def parallelepiped_measure(P: Parallelepiped) -> Fraction:
    """Haar measure of the sublevel set at 1, normalised so the unit ball of
    the sup norm has measure 1 per coordinate: prod(c_j) / ||det A||."""
    return Magnitude.power(P.spec.k, -measure_exponent_dual(P)).as_fraction()


def measure_exponent_dual(P: Parallelepiped) -> int:
    """Exponent e with measure = k^-e; equals the det exponent of the scaled
    matrix (the product law reads: minima exponents sum to e)."""
    return int(P.det_adj[0].norm().exponent())


@dataclass(frozen=True)
class SuccessiveMinima:
    values: tuple
    witnesses: tuple
    measure: Fraction

    def to_json(self):
        return {
            "lambdas": [int(v.exponent()) for v in self.values],
            "witnesses": [[str(p) for p in w] for w in self.witnesses],
            "measure_exponent": -sum(int(v.exponent()) for v in self.values),
        }


def successive_minima(P: Parallelepiped, degree_bound: int | None = None) -> SuccessiveMinima:
    """Exact successive minima with attaining lattice witnesses.

    For each value level k^e the solution set within its degree box is an
    F_q-nullspace; scanning levels upward and keeping vectors independent
    over F_q(X) yields the minima.  The product law against the measure is
    asserted at the end, certifying completeness.
    """
    spec, d = P.spec, P.dim
    det_exp = measure_exponent_dual(P)
    adj_lead = max(x.lead_exp for row in P.det_adj[1].entries for x in row if not x.is_zero)
    slack = adj_lead - det_exp

    witnesses = []
    values = []
    echelon = PolyEchelon()
    e = -slack
    e_cap = det_exp + max(0, (d - 1) * slack) + 1
    while len(witnesses) < d:
        if e > e_cap:
            raise SearchIncomplete(
                "minima search overran its certified level range", e + slack
            )
        box = e + slack
        if box < 0:
            e += 1
            continue
        if degree_bound is not None and box > degree_bound:
            raise SearchIncomplete(
                f"level k^{e} needs vectors of degree up to {box}", box
            )
        for vec in level_space(P.scaled_matrix, e, box):
            if len(witnesses) == d:
                break
            if echelon.add(vec):
                val = distance_value(P, vec)
                if val != Magnitude.power(spec.k, e):
                    raise SearchIncomplete(
                        f"witness at level {e} has value {val}; enumeration bug", box
                    )
                witnesses.append(vec)
                values.append(val)
        e += 1

    if sum(int(v.exponent()) for v in values) != det_exp:
        raise SearchIncomplete(
            "product law failed to certify the found minima", e + slack
        )
    return SuccessiveMinima(tuple(values), tuple(witnesses), parallelepiped_measure(P))


def polar(P: Parallelepiped) -> Parallelepiped:
    """The parallelepiped whose distance function is
    F*(y) = sup_{x != 0} ||x . y|| / F(x).

    After folding bounds, F(x) = ||x B||, and the sup over x of
    ||x . y|| / ||x B|| is ||B^-1 y||_inf, so the polar body has matrix
    adj(B)^T and every bound equal to ||det B||.
    """
    det_b, adj = P.det_adj
    return Parallelepiped(adj.transpose(), (det_b.norm(),) * P.dim)


def structured_pair(C: SeriesMatrix, m: int, n: int, level: int, R_exp: int):
    """The two explicitly-bounded parallelepipeds built from the hat matrices
    of a center C (coordinate windows paired with hat-column windows); they
    are mutually polar up to a lattice-preserving signed coordinate swap."""
    from .approx import LinearFormSystem, build_hat

    spec = C.spec
    hats = build_hat(LinearFormSystem(C))
    d = m + n
    zero, one = LaurentSeries.zero(spec), LaurentSeries.one(spec)
    k = spec.k

    def body(coord_count, hat_matrix, hat_cols, plus_exp, minus_exp):
        cols = []
        for j in range(coord_count):
            cols.append([one if r == j else zero for r in range(d)])
        for l in range(hat_cols):
            cols.append([hat_matrix.entry(r, l) for r in range(d)])
        matrix = SeriesMatrix(
            spec, [[cols[j][i] for j in range(d)] for i in range(d)]
        )
        bounds = tuple(
            [Magnitude.power(k, plus_exp)] * coord_count
            + [Magnitude.power(k, minus_exp)] * hat_cols
        )
        return Parallelepiped(matrix, bounds)

    P = body(
        n, hats.hat_star, m, R_exp * m * (1 + level), -R_exp * n * (1 + level)
    )
    P_star = body(
        m, hats.hat, n, R_exp * n * (1 + level), -R_exp * m * (1 + level)
    )
    return P, P_star


@dataclass(frozen=True)
class DualityReport:
    lambda_exps: tuple
    sigma_exps: tuple
    pair_products: tuple  # exponents of lambda_j * sigma_{d+1-j}
    m: int
    n: int

    @property
    def identity_exponent(self) -> int:
        return self.lambda_exps[self.m - 1] + self.sigma_exps[self.n]

    def to_json(self):
        return {
            "lambdas": list(self.lambda_exps),
            "sigmas": list(self.sigma_exps),
            "pair_product_exps": list(self.pair_products),
            "lambda_m_sigma_n1_exp": self.identity_exponent,
        }


def check_duality(
    P: Parallelepiped, m: int, n: int, degree_bound: int | None = None
) -> DualityReport:
    """Assert lambda_m * sigma_{n+1} = 1 for d = m + n; report all pairwise
    products lambda_j * sigma_{d+1-j} for diagnostics (those are empirical
    observations, not asserted)."""
    d = P.dim
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if m + n != d:
        raise ValueError("m + n must equal the dimension")
    sm = successive_minima(P, degree_bound)
    sp = successive_minima(polar(P), degree_bound)
    lam = tuple(int(v.exponent()) for v in sm.values)
    sig = tuple(int(v.exponent()) for v in sp.values)
    pairs = tuple(lam[j] + sig[d - 1 - j] for j in range(d))
    report = DualityReport(lam, sig, pairs, m, n)
    if report.identity_exponent != 0:
        raise ArithmeticError(
            f"duality identity violated: lambda_{m} * sigma_{n + 1} = "
            f"k^{report.identity_exponent}"
        )
    return report
