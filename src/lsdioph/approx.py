"""Badly-approximable machinery: truncated badness constants and Dirichlet
witnesses read off the level walk of ``linalg`` (no q is enumerated), the
hat-matrix reformulation, and continued fractions for a single linear form.

A system of m linear forms in n variables is a matrix A; the quantity of
interest for a nonzero polynomial vector q is the score
``height(q)^m * dist(qA)^n`` where dist is the distance to the polynomial
lattice.  A is badly approximable when the scores are bounded away from
zero; here we compute the exact minimum over a finite height window
instead (a truncated certificate, never a membership proof).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PrecisionExhausted, SearchBudgetExceeded, WitnessNotFound
from .field import FieldSpec, Magnitude, Poly
from .linalg import LevelWalk, first_vector, least_levels
from .series import (
    LaurentSeries,
    RationalFn,
    SeriesMatrix,
    lattice_distance,
    lift_poly,
    scalar_one,
    scalar_zero,
    vec_dot,
    vec_height,
)

DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class LinearFormSystem:
    """An m x n matrix of series (or exact rational) entries."""

    matrix: SeriesMatrix

    @property
    def m(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols

    @property
    def spec(self) -> FieldSpec:
        return self.matrix.spec

    @classmethod
    def single(cls, x) -> "LinearFormSystem":
        return cls(SeriesMatrix(x.spec, [[x]]))


@dataclass(frozen=True)
class HatMatrices:
    """The two (m+n) x (m+n) block matrices [[A, I],[I, 0]] built from a
    system and from its transpose; their columns turn lattice distances into
    plain norms of dot products."""

    hat: SeriesMatrix
    hat_star: SeriesMatrix


def build_hat(sys: LinearFormSystem) -> HatMatrices:
    A = sys.matrix
    m, n = sys.m, sys.n
    like = A.entry(0, 0)
    one = scalar_one(A.spec, like)
    zero = scalar_zero(A.spec, like)

    def ident(i, j):
        return one if i == j else zero

    hat_rows = []
    for i in range(m):
        hat_rows.append([A.entry(i, j) for j in range(n)] + [ident(i, j) for j in range(m)])
    for i in range(n):
        hat_rows.append([ident(i, j) for j in range(n)] + [zero] * m)

    star_rows = []
    for i in range(n):
        star_rows.append([A.entry(j, i) for j in range(m)] + [ident(i, j) for j in range(n)])
    for i in range(m):
        star_rows.append([ident(i, j) for j in range(m)] + [zero] * n)

    return HatMatrices(
        SeriesMatrix(A.spec, hat_rows), SeriesMatrix(A.spec, star_rows)
    )


@dataclass(frozen=True)
class ApproxWitness:
    q: tuple
    height: Magnitude
    dist: Magnitude
    score: Magnitude

    def to_json(self):
        return {
            "q": [str(p) for p in self.q],
            "height_exp": _exp_or_none(self.height),
            "dist_exp": _exp_or_none(self.dist),
            "score_exp": _exp_or_none(self.score),
        }


def _exp_or_none(mag: Magnitude):
    if mag.is_zero:
        return None
    e = mag.exponent()
    return int(e) if e.denominator == 1 else str(e)


# ---------------------------------------------------------------------------
# Enumeration of polynomial vectors
# ---------------------------------------------------------------------------


def iter_polys(spec: FieldSpec, max_deg: int):
    """All polynomials of degree <= max_deg, zero first, then by degree."""
    yield Poly.zero(spec)
    for d in range(max_deg + 1):
        for lead in range(1, spec.k):
            for lower in itertools.product(spec.elements(), repeat=d):
                yield Poly(spec, list(lower) + [lead])


def iter_height_class(spec: FieldSpec, m: int, h: int):
    """Vectors in F_q[X]^m whose height is exactly k^h."""
    pool = list(iter_polys(spec, h))
    for q in itertools.product(pool, repeat=m):
        if max(p.degree for p in q) == h:
            yield q


def badness_constant(
    sys: LinearFormSystem,
    height_bound: Magnitude,
    budget: int = DEFAULT_SEARCH_BUDGET,
):
    """Exact min of height(q)^m * dist(qA)^n over 0 < height(q) <= bound,
    and its first minimiser in ``iter_height_class`` order.

    No q is enumerated.  A level walk gives the least distance exponent e_h
    of each height k^h; the minimum is k^(min_h hm + n e_h), or zero at the
    first q with dist 0, and the witness is the first vector of the lowest
    height attaining it.  ``budget`` bounds, in closed form, the vectors an
    enumeration in that order would have visited.
    """
    h_max = None if height_bound.is_zero else _floor_int_exponent(height_bound)
    if h_max is None or h_max < 0:
        raise ValueError(f"height bound must be at least 1, got {height_bound}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    m, n, k, A = sys.m, sys.n, sys.spec.k, sys.matrix
    # the heights an enumeration would reach: past g it is out of budget,
    # and before that only a zero score can stop it
    g = next(h for h in itertools.count() if k ** (m * h) > budget)
    total = k ** (m * (min(h_max, g) + 1)) - 1
    cap = h_max if total <= budget else min(h_max, g - 1)
    trunc = truncation_depth(A)
    zero = zero_level(A)

    def deepest(h):
        return zero if trunc is None else h + trunc - 1

    q, reached = None, total
    levels = least_levels(A, cap, deepest) if cap >= 0 else []
    if None in levels:
        h = levels.index(None)
        if trunc is not None:
            raise PrecisionExhausted(
                f"badness at height k^{h} needs coefficients below X^{trunc}"
            )
        q = first_vector(A, h, zero)
        reached = k ** (m * h) + height_class_rank(q, h, k)
    if reached > budget:
        h = next(h for h in itertools.count() if k ** (m * (h + 1)) - 1 > budget)
        raise SearchBudgetExceeded(
            f"badness search exceeded the budget of {budget} vectors at height k^{h}",
            count=budget,
        )
    if q is None:
        exps = [h * m + n * e for h, e in enumerate(levels)]
        h = exps.index(min(exps))
        q = first_vector(A, h, levels[h])
    height = Magnitude.power(k, h)
    dist = exact_dist(q, A)
    score = height**m * dist**n
    return score, ApproxWitness(q, height, dist, score)


def height_class_rank(q, h: int, k: int) -> int:
    """Number of vectors before q in ``iter_height_class(spec, len(q), h)``."""
    rank, top = 0, False
    for i, p in enumerate(q):
        rest = len(q) - 1 - i
        r = 0  # p's place among the polynomials of degree <= h
        for c in () if p.is_zero else (p.lead,) + p.coeffs[:-1]:
            r = r * k + c
        rank += r * k ** ((h + 1) * rest) - (0 if top else min(r, k**h) * k ** (h * rest))
        top = top or p.degree == h
    return rank


def truncation_depth(A: SeriesMatrix):
    """The highest precision floor of a truncated entry, or None."""
    return max((x.known_below for r in A.entries for x in r if not x.is_exact), default=None)


def zero_level(A: SeriesMatrix) -> int:
    """A level c such that dist(qA) = 0 once qA has no nonzero coefficient
    from X^-1 down to X^(c+1), truncated entries read as their known
    coefficients: D * qA is a polynomial vector for D the product of the
    denominators."""
    return -1 - sum(
        x.den.degree if isinstance(x, RationalFn) else max(0, -min(x.coeffs, default=0))
        for row in A.entries
        for x in row
    )


def _floor_int_exponent(mag: Magnitude) -> int:
    e = mag.exponent()
    return int(e) if e.denominator == 1 else int(e.__floor__())


# ---------------------------------------------------------------------------
# Dirichlet witnesses
# ---------------------------------------------------------------------------


def default_dirichlet_constant(m: int, n: int) -> int:
    """Pigeonhole exponent margin; empirical for general (m, n), verified by
    the calibration oracle (ceil((t+1)m/n) - ceil(tm/n) minimised over t)."""
    return 1 if m >= n else 0


def dirichlet_witness(
    sys: LinearFormSystem, t: int, c0: int | None = None, budget: int = DEFAULT_SEARCH_BUDGET
) -> ApproxWitness:
    """A nonzero q with height <= k^t and dist(qA) <= k^(-ceil(tm/n) - c0).

    Existence is guaranteed for every A; failure to find one signals a
    miscalibrated c0 and raises WitnessNotFound.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    m, n = sys.m, sys.n
    if c0 is None:
        c0 = default_dirichlet_constant(m, n)
    k = sys.spec.k
    required = Magnitude.power(k, -((t * m + n - 1) // n) - c0)
    if m == 1 and n == 1:
        witness = _dirichlet_cf(sys, t)
    else:
        witness = _dirichlet_pigeonhole(sys, t, budget)
    if witness.dist > required:
        raise WitnessNotFound(
            f"best distance {witness.dist} exceeds required {required}; "
            "c0 calibration bug"
        )
    return witness


def _dirichlet_cf(sys: LinearFormSystem, t: int) -> ApproxWitness:
    """Largest convergent denominator of height <= k^t is the witness."""
    x = sys.matrix.entry(0, 0)
    spec = sys.spec
    if isinstance(x, LaurentSeries) and x.is_exact:
        x = RationalFn.from_series_exact(x)
    q_prev, q_cur = Poly.zero(spec), Poly.one(spec)  # q_{-1}, q_0
    rem = x
    consumed_a0 = False
    while True:
        try:
            a = rem.polynomial_part()
        except PrecisionExhausted:
            break
        if consumed_a0:
            q_next = a * q_cur + q_prev
            if q_next.degree > t:
                break
            q_prev, q_cur = q_cur, q_next
        consumed_a0 = True
        frac = rem - lift_poly(a, rem)
        if frac.is_zero:
            break
        rem = scalar_one(spec, frac) / frac
    q = (q_cur,)
    dist = exact_dist(q, sys.matrix)
    h = vec_height(q)
    return ApproxWitness(q, h, dist, h * dist)


def exact_dist(q, A: SeriesMatrix) -> Magnitude:
    """dist(qA), the distance of the linear forms qA to the lattice."""
    return lattice_distance(vec_dot(q, A.col(j)) for j in range(A.cols))


def _dirichlet_pigeonhole(
    sys: LinearFormSystem, t: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> ApproxWitness:
    """The first nonzero q in ``itertools.product(iter_polys(spec, t),
    repeat=m)`` order with the least dist(qA), read off the level walk: the
    witness and the errors of the pigeonhole search over those k^(m(t+1))
    vectors, which ``budget`` bounds in closed form.  Each difference of
    two vectors that search tried before the first minimiser was that
    minimiser or farther, so it returned the first minimiser too."""
    m, n, k, A = sys.m, sys.n, sys.spec.k, sys.matrix
    # k^(bit_length + 1) > budget, so a huge t costs no huge power
    if k ** min(m * (t + 1), budget.bit_length() + 1) > budget:
        raise SearchBudgetExceeded(
            f"dirichlet enumeration exceeded the budget of {budget} vectors"
            f" of height <= k^{t}",
            count=budget,
        )
    _check_pinned(A, t, -(-(t + 1) * m // n) - 1)  # ceil((t+1)m/n) - 1
    zero = zero_level(A)
    levels = least_levels(A, t, lambda h: zero)
    q = first_vector(A, t, zero if None in levels else min(levels), exact=False)
    height, dist = vec_height(q), exact_dist(q, A)
    return ApproxWitness(q, height, dist, height**m * dist**n)


def _check_pinned(A: SeriesMatrix, t: int, u: int):
    """Raise PrecisionExhausted where the pigeonhole search did: where some
    nonzero q of degree <= t meets truncated entries in a column j, and the
    precision floor F of q.A_j, the largest deg q_i + known_below over
    them, lies above X^-u, the window it compared, or leaves no known
    nonzero coefficient from X^-1 down to X^F.  It is enough to ask, per
    truncated row i and degree d, whether some q with q_i's X^d coefficient
    nonzero has q.A_j vanish down to X^(d + known_below): such a q
    vanishes down to its own floor, which lies at least as high."""
    m = A.rows
    for j in range(A.cols):
        floors = {i: x.known_below for i, x in enumerate(A.col(j)) if not x.is_exact}
        if not floors:
            continue
        levels = sorted({b + d for b in floors.values() for d in range(t + 1)}, reverse=True)
        walk = LevelWalk(A, t, levels[-1] - t, cols=[j])
        for F in levels:
            while walk.level >= F:
                walk.descend(F)
            if any(0 <= F - b <= t and (F > -u or walk.echelon.value((F - b) * m + i) != 0)
                   for i, b in floors.items()):
                raise PrecisionExhausted(f"column {j} of some q is not known above X^{F}")


# ---------------------------------------------------------------------------
# Continued fractions (single linear form)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients [a_0; a_1, a_2, ...]; deg a_i >= 1 for i >= 1."""

    quotients: tuple
    exact: bool

    def __post_init__(self):
        for a in self.quotients[1:]:
            if a.degree < 1:
                raise ValueError("partial quotients after a_0 must have degree >= 1")

    @property
    def max_partial_degree(self) -> int:
        if len(self.quotients) < 2:
            return 0
        return max(a.degree for a in self.quotients[1:])


def cf_expand(x, max_terms: int) -> ContinuedFraction:
    """Continued fraction of a series or rational function.

    Exact inputs (finite support or rational) run the Euclidean algorithm and
    detect termination; truncated series consume roughly 2*deg(a_i)
    coefficients of precision per step and raise PrecisionExhausted (carrying
    the number of quotients produced) when the next one is undeterminable.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not isinstance(x, RationalFn):
        if not x.is_exact:
            return _cf_series(x, max_terms)
        x = RationalFn.from_series_exact(x)
    return _cf_rational(x.num, x.den, max_terms)


def _cf_rational(num: Poly, den: Poly, max_terms: int) -> ContinuedFraction:
    quotients = []
    a, b = num, den
    while len(quotients) < max_terms:
        q, r = divmod(a, b)
        quotients.append(q)
        if r.is_zero:
            return ContinuedFraction(tuple(quotients), True)
        a, b = b, r
    return ContinuedFraction(tuple(quotients), False)


def _cf_series(x: LaurentSeries, max_terms: int) -> ContinuedFraction:
    quotients = []
    rem = x
    while len(quotients) < max_terms:
        try:
            a = rem.polynomial_part()
            quotients.append(a)
            frac = rem - LaurentSeries.from_poly(a)
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(
                f"precision exhausted after {len(quotients)} quotients",
                count=len(quotients),
            ) from exc
        if frac.is_zero:
            return ContinuedFraction(tuple(quotients), True)
        rem = LaurentSeries.one(x.spec).divide(frac, precision=2 * frac._rel_precision())
    return ContinuedFraction(tuple(quotients), False)


def cf_convergents(cf: ContinuedFraction):
    """Convergents (p_j, q_j) by the standard recurrence; each pair coprime,
    deg q_j = sum of the partial-quotient degrees."""
    if not cf.quotients:
        raise ValueError("empty continued fraction")
    spec = cf.quotients[0].spec
    out = []
    p_prev, p_cur = Poly.one(spec), cf.quotients[0]
    q_prev, q_cur = Poly.zero(spec), Poly.one(spec)
    out.append((p_cur, q_cur))
    for a in cf.quotients[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append((p_cur, q_cur))
    return out


def is_bad_cf(x, depth: int):
    """Truncated badness verdict from the partial quotients.

    Returns (verdict, max_deg) where max_deg is the largest partial-quotient
    degree among a_1..a_depth.  The verdict is False when the expansion
    terminates strictly before ``depth`` quotients (rational x: the badness
    constant hits zero); otherwise the value is badly approximable as far as
    this depth can tell, with truncated constant k^(-max_deg).
    """
    cf = cf_expand(x, depth + 1)
    produced = len(cf.quotients) - 1  # partial quotients beyond a_0
    if cf.exact and produced < depth:
        return False, cf.max_partial_degree
    return True, cf.max_partial_degree
