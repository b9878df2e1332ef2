"""Geometry of numbers over the Laurent series field: parallelepipeds,
distance functions, successive minima, Haar measure, and polar bodies.

A parallelepiped is the sublevel set ``{x : ||(xA)_j|| < c_j for all j}`` of
the distance function ``F(x) = max_j ||(xA)_j|| / c_j`` for an invertible
matrix A with exact finite-support entries and k-power bounds c.  Bounds
fold into the matrix exactly (scaling a column by X^-e multiplies its norms
by k^-e), so everything reduces to the unit-bound case.

Successive minima are computed exactly: over F_q[X] they are the row
degrees of a weak Popov basis of the lattice, and the Minkowski-type product
law (the product of the minima equals the reciprocal of the measure)
certifies them.  Witnesses come from the level walk: the lattice vectors
with F-value <= k^e and bounded degree are an F_q-vector space cut out by
linear conditions on the coefficients, one nullspace per minima level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import SearchIncomplete
from .field import Magnitude
from .linalg import PolyEchelon, det, level_space, weak_popov
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
        if not self.matrix.is_exact:
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
    measure: Fraction
    body: Parallelepiped
    budget: int | None = field(default=None, compare=False)  # per level walk

    @cached_property
    def witnesses(self) -> tuple:
        """Attaining vectors from the level walk, run at the minima levels only:
        any other level adds no vector independent over F_q(X) of those kept.
        Each walk writes at most ``budget`` row entries."""
        P, slack = self.body, _slack(self.body)
        witnesses, echelon = [], PolyEchelon()
        for e in sorted({int(v.exponent()) for v in self.values}):
            for vec in level_space(P.scaled_matrix, e, e + slack, self.budget):
                if len(witnesses) < P.dim and echelon.add(vec):
                    if (val := distance_value(P, vec)) != Magnitude.power(P.spec.k, e):
                        raise SearchIncomplete(
                            f"witness at level {e} has value {val}; enumeration bug", e + slack
                        )
                    witnesses.append(vec)
        return tuple(witnesses)

    def to_json(self):
        return {
            "lambdas": [int(v.exponent()) for v in self.values],
            "witnesses": [[str(p) for p in w] for w in self.witnesses],
            "measure_exponent": -sum(int(v.exponent()) for v in self.values),
        }


def _slack(P: Parallelepiped) -> int:
    """x = xB adj(B) / det(B): a vector of value k^e has degree <= e + slack."""
    adj_lead = max(x.lead_exp for row in P.det_adj[1].entries for x in row if x.coeffs)
    return adj_lead - measure_exponent_dual(P)


def successive_minima(
    P: Parallelepiped, degree_bound: int | None = None, budget: int | None = None
) -> SuccessiveMinima:
    """Exact successive minima: the row degrees of a weak Popov basis of the
    lattice {xB}, B the scaled matrix, each checked on its x and certified by
    the product law.  A degree bound raises where a walk up from level -slack
    would: at the first box above it.  ``budget`` bounds the witness walks."""
    k, slack = P.spec.k, _slack(P)
    exps = []
    for row, x in zip(*weak_popov(P.scaled_matrix.entries)):
        exps.append(max(y.lead_exp for y in row if y.coeffs))
        if (val := distance_value(P, x)) != Magnitude.power(k, exps[-1]):
            raise SearchIncomplete(f"basis vector has value {val}", exps[-1] + slack)
    exps.sort()
    if sum(exps) != measure_exponent_dual(P):
        raise SearchIncomplete(
            "product law failed to certify the found minima", exps[-1] + 1 + slack
        )
    if degree_bound is not None and exps[-1] + slack > degree_bound:
        box = max(0, degree_bound + 1)
        raise SearchIncomplete(f"level k^{box - slack} needs vectors of degree up to {box}", box)
    values = tuple(Magnitude.power(k, e) for e in exps)
    return SuccessiveMinima(values, parallelepiped_measure(P), P, budget)


def polar(P: Parallelepiped) -> Parallelepiped:
    """The parallelepiped whose distance function is
    F*(y) = sup_{x != 0} ||x . y|| / F(x).

    After folding bounds, F(x) = ||x B||, and the sup over x of
    ||x . y|| / ||x B|| is ||B^-1 y||_inf, so the polar body has matrix
    adj(B)^T and every bound equal to ||det B|| = k^e.  Its scaled matrix
    X^-e adj(B)^T has det X^-de det(B)^(d-1) and adjugate
    X^-(d-1)e det(B)^(d-2) B^T ([1] for d = 1): its cache is filled from
    these, with no second elimination.
    """
    d, (det_b, adj) = P.dim, P.det_adj
    e, powers = det_b.lead_exp, [LaurentSeries.one(P.spec)]
    while len(powers) < d:
        powers.append(powers[-1] * det_b)
    adj_q = SeriesMatrix.identity(P.spec, 1)
    if d > 1:
        c = powers[d - 2].shift(-(d - 1) * e)
        adj_q = P.scaled_matrix.transpose().map(lambda x: c * x)
    Q = object.__new__(Parallelepiped)
    Q.__dict__.update(matrix=adj.transpose(), bounds=(det_b.norm(),) * d)
    Q.__dict__["det_adj"] = (powers[d - 1].shift(-d * e), adj_q)
    Q.__post_init__()
    return Q


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
