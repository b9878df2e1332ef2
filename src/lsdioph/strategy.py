"""White's play in the ball game: marker schedules, the two families of
height-window inequalities the strategy keeps unsolvable, danger sets read
off level spaces over canonicalized balls, minor vectors with their discrete
gradients, the literal gradient-anchored move rule, a practical avoidance
strategy, and truncated badness certification of the game's limit point.

Level structure, for a scale constant R = k^w > 1 and tau = m/(m+n):

* k-type level i: no lattice vector may combine a first-block height in
  (0, delta * R^(n(tau+i))) with all hat-column values below
  delta * R^(-m(tau+i)-n), where delta = R^(-m(m+n)^2).
* h-type level j: the transposed analogue, with delta* = R^(-n(m+n)^2)
  and the hat matrix of the transpose.

Keeping every k-type level clean forces a positive lower bound on
height(q)^m * dist(qA)^n for every q up to the certification cap, which is
exactly what :func:`certify_bad` checks on the limit point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .approx import LinearFormSystem, build_hat, exact_dist, iter_polys
from .approx import height_class_rank, truncation_depth
from .errors import CounterexampleFound, SearchBudgetExceeded
from .field import FieldSpec, Magnitude, Poly, floor_log
from .game import FormalBall, GameTranscript, canonicalize, legal_center_shift_exponent
from .linalg import FqEchelon, coefficient_row, det_entries, first_vector, height_vectors
from .linalg import least_levels, poly_rank, series_vec_rank_at_zero
from .series import LaurentSeries, SeriesMatrix, vec_dot

DANGER_BUDGET = 200_000
TAIL_VARIANT_BUDGET = 64
# levels White defends beyond the last marker level Black's radius has passed
LOOKAHEAD = 2


@dataclass(frozen=True)
class StrategyConfig:
    """Game-scale constants.  delta, delta*, and tau are derived, never
    stored; the empirical constants K4..K7 live in the ``CalibrationReport``
    of ``calibrate_constants`` (the theory only asserts they exist)."""

    spec: FieldSpec
    m: int
    n: int
    R_exp: int = 2
    height_cap_exp: int = 4

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.R_exp < 1:
            raise ValueError("R must be a k-power > 1")

    @property
    def d(self) -> int:
        return self.m + self.n

    @property
    def tau(self) -> Fraction:
        return Fraction(self.m, self.d)

    @property
    def delta_exp(self) -> int:
        return -self.R_exp * self.m * self.d**2

    @property
    def delta_star_exp(self) -> int:
        return -self.R_exp * self.n * self.d**2

    def marker_exponent(self, kind: str, i: int) -> int:
        """Radius threshold exponent for B_{k_i} / B_{h_i}; the k-type
        exponent -R_exp*(m+n)*(tau+i) is an integer because (m+n)*tau = m."""
        if kind == "k":
            return -self.R_exp * (self.m + self.d * i)
        return -self.R_exp * self.d * (1 + i)

    def marker_level(self, kind: str, radius) -> int:
        """Number of levels whose marker threshold lies above ``radius``:
        the count of i >= 0 with radius < k^marker_exponent(kind, i)."""
        return self.marker_level_at(kind, floor_log(radius, self.spec.k))

    def marker_level_at(self, kind: str, fl: int) -> int:
        """``marker_level`` of a radius whose k-power floor is k^fl."""
        step = self.R_exp * self.d
        if kind == "k":
            return max(0, -((fl + self.R_exp * self.m) // step))
        return max(0, -(fl // step) - 1)

    def window_exponent(self, kind: str, i: int) -> int | Fraction:
        return _over(self.scaled_exponents(kind, i)[0], self.d)

    def threshold_exponent(self, kind: str, i: int) -> int | Fraction:
        return _over(self.scaled_exponents(kind, i)[1], self.d)

    def scaled_exponents(self, kind: str, i: int) -> tuple:
        """(m+n) times the level-i window and threshold exponents: integers,
        because (m+n)*tau = m."""
        R, m, n, d = self.R_exp, self.m, self.n, self.d
        if kind == "k":
            base = d * self.delta_exp
            return base + R * n * (m + d * i), base - R * (m * (m + d * i) + d * n)
        base = d * self.delta_star_exp
        return base + d * R * m * (1 + i), base - d * R * (n * (1 + i) + m)

    def first_block(self, kind: str) -> int:
        """Coordinates constrained by the height window (they multiply the
        matrix block; the remaining ones play the lattice role)."""
        return self.m if kind == "k" else self.n

    @property
    def certify_K_exponent(self) -> int:
        """Strictly inside the guaranteed interval: one k below
        delta^(m+n) * R^(-n^2 - mn)."""
        return self.d * self.delta_exp - self.R_exp * (self.n**2 + self.m * self.n) - 1


def _over(a: int, d: int) -> int | Fraction:
    """a/d, an ``int`` when d divides a."""
    return a // d if a % d == 0 else Fraction(a, d)


@dataclass(frozen=True)
class MarkerSchedule:
    """Transcript indices of the first Black balls below each level's radius
    threshold, per kind, consecutive levels from 0."""

    k_indices: tuple
    h_indices: tuple


def schedule_markers(t: GameTranscript, cfg: StrategyConfig) -> MarkerSchedule:
    out = {}
    for kind in ("k", "h"):
        found = []
        for i, b in enumerate(t.balls):
            if i % 2 == 0:
                # the first Black ball past level j's threshold marks level j
                found.extend([i] * (cfg.marker_level(kind, b.radius) - len(found)))
        out[kind] = tuple(found)
    return MarkerSchedule(out["k"], out["h"])


def _block_values(center: SeriesMatrix, kind: str, q_first):
    """Matrix-block part of the hat-column dot products: one series per
    tail column (columns of the center for kind k, rows for kind h)."""
    if kind == "k":
        return [vec_dot(q_first, center.col(l)) for l in range(center.cols)]
    return [vec_dot(q_first, center.row(l)) for l in range(center.rows)]


def _block_digits(center: SeriesMatrix, kind: str):
    """Coefficient dicts of the center, one list per tail column, in the
    order ``_block_values`` pairs them with q_first."""
    lines = zip(*center.entries) if kind == "k" else center.entries
    return [[x.coeffs for x in line] for line in lines]


def _danger_rows(blocks, h: int, top: int, floor: int):
    """Rows in the q_{i,t}, t <= h, of "the X^s coefficient of every block
    value vanishes" for top >= s > floor: q solves them all exactly when
    each value sum_i q_i a_i (coefficient dicts from ``_block_digits``) has
    frac <= k^floor."""
    return (coefficient_row(line, s, h) + [0] for s in range(top, floor, -1) for line in blocks)


def _add_danger_rows(space: FqEchelon, blocks, h: int, top: int, floor: int):
    """Add ``_danger_rows`` to the level space until its degree-h block is
    all pivots: no vector of height k^h is left then, whatever rows follow."""
    block = space.nvars - len(blocks[0])
    for row in _danger_rows(blocks, h, top, floor):
        p = space.add(row)
        if p is not None and p >= block and all(c in space.rows for c in range(block, space.nvars)):
            return


def check_inequalities(
    A: SeriesMatrix, q, i: int, kind: str, cfg: StrategyConfig
) -> bool:
    """Do both level-i inequalities of the given kind hold at A for the full
    (m+n)-vector q?  All comparisons exact on magnitudes."""
    spec = cfg.spec
    first = cfg.first_block(kind)
    q = tuple(q)
    if len(q) != cfg.d:
        raise ValueError("q must have m + n coordinates")
    head = q[:first]
    if all(p.is_zero for p in head):
        return False
    height = max((p.degree for p in head if not p.is_zero), default=-1)
    if not height < cfg.window_exponent(kind, i):
        return False
    hats = build_hat(LinearFormSystem(A))
    hat = hats.hat if kind == "k" else hats.hat_star
    thr = Magnitude(spec.k, cfg.threshold_exponent(kind, i))
    return all(vec_dot(q, hat.col(l)).norm() < thr for l in range(cfg.d - first))


@dataclass(frozen=True)
class DangerReport:
    level: int
    kind: str
    solutions: tuple
    rank: int

    @property
    def empty(self) -> bool:
        return not self.solutions


def danger_set(
    ball: FormalBall,
    i: int,
    kind: str,
    cfg: StrategyConfig,
    height_cap: Magnitude | None = None,
) -> DangerReport:
    """All lattice vectors in the level-i height window for which some matrix
    in the (canonicalized) ball satisfies the value inequality.

    Decidable exactly: the ball is ``center + perturbation`` with
    perturbation norm <= k^e, and a perturbation can cancel a block value
    precisely when the value's norm is at most height(q) * k^e.  So the
    dangers of height k^h are the height-h vectors of a level space, listed
    in ``iter_height_class`` order, each followed by its tail variants.  The
    budget counts the vectors an enumeration of the height classes in that
    order would visit: k^(first(h+1)) - 1 up to height k^h.
    """
    spec = cfg.spec
    k = spec.k
    canonical = canonicalize(ball)
    e = canonical.effective_exponent()
    C = canonical.center
    first = cfg.first_block(kind)
    window = cfg.window_exponent(kind, i)
    thr = Magnitude(k, cfg.threshold_exponent(kind, i))
    max_deg = _ceil_minus_one(window)
    if height_cap is not None:
        max_deg = min(max_deg, int(height_cap.exponent().__floor__()))
    h = 0
    while k ** (first * (h + 1)) - 1 <= DANGER_BUDGET:
        h += 1
    if h <= max_deg:
        raise SearchBudgetExceeded(
            f"danger enumeration exceeded the budget of {DANGER_BUDGET} vectors"
            f" at height k^{h}",
            count=DANGER_BUDGET,
        )
    blocks = _block_digits(C, kind)
    solutions = []
    for h in range(0, max_deg + 1):
        pert = Magnitude.power(k, h + e)
        floor = max(h + e, _ceil_minus_one(thr.exponent()))
        space = FqEchelon(spec, first * (h + 1))
        _add_danger_rows(space, blocks, h, -1, floor)
        vectors = height_vectors(space, h, first)
        for q_first in sorted(vectors, key=lambda q: height_class_rank(q, h, k)):
            values = _block_values(C, kind, q_first)
            tails = [(-v.polynomial_part()) for v in values]
            solutions.append(tuple(q_first) + tuple(tails))
            if pert >= Magnitude.power(k, 0):
                solutions.extend(
                    _tail_variants(q_first, values, tails, pert, thr, spec)
                )
    rank = poly_rank(solutions)
    return DangerReport(i, kind, tuple(solutions), rank)


def _tail_variants(q_first, values, tails, pert, thr, spec):
    """When the perturbation allowance reaches height 1, nearby lattice tails
    also solve the inequality; enumerate them within a budget."""
    out = []
    deg_cap = int(pert.exponent().__floor__())
    shifts = [s for s in iter_polys(spec, deg_cap) if not s.is_zero]
    combos = itertools.product(shifts + [Poly.zero(spec)], repeat=len(values))
    for combo in combos:
        if all(s.is_zero for s in combo):
            continue
        ok = True
        for s, v in zip(combo, values):
            if s.is_zero:
                continue
            # residual norm after the shift is max(||s||, frac) >= ||s||
            residual = max(Magnitude.power(spec.k, s.degree), v.frac_norm())
            reach = Magnitude.zero(spec.k) if residual <= pert else residual
            if not reach < thr:
                ok = False
                break
        if ok:
            out.append(tuple(q_first) + tuple(t + s for t, s in zip(tails, combo)))
        if len(out) >= TAIL_VARIANT_BUDGET:
            break
    return out


def _ceil_minus_one(x: Fraction) -> int:
    """Largest integer strictly below x."""
    from math import ceil

    c = ceil(x)
    return c - 1


# ---------------------------------------------------------------------------
# Orthonormal bases, minors, gradients
# ---------------------------------------------------------------------------


def orthonormalize(vectors, spec: FieldSpec, dim: int, count: int):
    """Reduce a family of vectors to an ultrametric-orthonormal basis of its
    span, padding with coordinate vectors up to ``count``.

    A family is orthonormal iff every vector has sup norm 1 and the residue
    vectors (coefficients at exponent 0) are independent over F_q; this is
    verified at the end, never assumed.
    """
    out = []

    def residue_ok(cands):
        return series_vec_rank_at_zero(cands, spec) == len(cands)

    for vec in vectors:
        v = list(_as_series_vec(vec, spec, dim))
        while True:
            norms = [x.norm() for x in v]
            top = max(norms)
            if top.is_zero:
                break
            shift = -int(top.exponent())
            v = [x.shift(shift) for x in v]
            if residue_ok(out + [tuple(v)]):
                out.append(tuple(v))
                break
            combo = _residue_combination(out, v, spec)
            if combo is None:
                break
            v = [x - c for x, c in zip(v, combo)]
            if all(x.is_zero for x in v):
                break
        if len(out) == count:
            break
    basis_units = _unit_vectors(spec, dim)
    for u in basis_units:
        if len(out) == count:
            break
        if residue_ok(out + [u]):
            out.append(u)
    if len(out) != count or not residue_ok(out):
        raise ValueError("could not build an orthonormal basis")
    return tuple(out)


def _as_series_vec(vec, spec, dim):
    out = []
    for x in vec:
        if isinstance(x, Poly):
            out.append(LaurentSeries.from_poly(x))
        else:
            out.append(x)
    if len(out) != dim:
        raise ValueError("vector dimension mismatch")
    return tuple(out)


def _unit_vectors(spec, dim):
    out = []
    for i in range(dim):
        vec = [LaurentSeries.zero(spec) for _ in range(dim)]
        vec[i] = LaurentSeries.one(spec)
        out.append(tuple(vec))
    return out


def _residue_combination(basis, v, spec):
    """Solve residue(v) = sum c_i residue(basis_i) over F_q; return the
    combination vectors c_i * basis_i summed coordinatewise, or None."""
    if not basis:
        return None
    ech = FqEchelon(spec, len(basis))
    for coord in range(len(v)):
        ech.add([b[coord].coeffs.get(0, 0) for b in basis] + [v[coord].coeffs.get(0, 0)])
    if not ech.consistent:
        return None
    # the residues of ``basis`` are independent, so the solution is unique
    coeffs = [ech.value(i) for i in range(len(basis))]
    combo = []
    for coord in range(len(v)):
        acc = LaurentSeries.zero(spec)
        for c, b in zip(coeffs, basis):
            acc = acc + b[coord].scale(c)
        combo.append(acc)
    return combo


def is_orthonormal(basis, spec: FieldSpec) -> bool:
    for vec in basis:
        norms = [x.norm() for x in vec]
        if max(norms) != Magnitude.power(spec.k, 0):
            return False
    return series_vec_rank_at_zero(list(basis), spec) == len(basis)


@dataclass(frozen=True)
class MinorVector:
    """All v x v determinants of basis-row against hat-column dot products,
    in lexicographic (row subset, column subset) order."""

    v: int
    entries: tuple

    def height(self) -> Magnitude:
        out = None
        for x in self.entries:
            n = x.norm()
            out = n if out is None else max(out, n)
        return out


def _gram(A: SeriesMatrix, basis):
    hat_star = build_hat(LinearFormSystem(A)).hat_star
    m = A.rows
    return [[vec_dot(y, hat_star.col(l)) for l in range(m)] for y in basis]


def minors(A: SeriesMatrix, basis, v: int) -> MinorVector:
    spec = A.spec
    if v <= 0:
        return MinorVector(v, (LaurentSeries.one(spec),))
    m = A.rows
    if v > len(basis) or v > m:
        raise ValueError("minor level exceeds basis or matrix size")
    G = _gram(A, basis)
    entries = []
    for rows in itertools.combinations(range(len(basis)), v):
        for cols in itertools.combinations(range(m), v):
            sub = [[G[r][c] for c in cols] for r in rows]
            entries.append(det_entries(sub, spec))
    return MinorVector(v, tuple(entries))


def principal_minor(A: SeriesMatrix, basis, v: int) -> LaurentSeries:
    """Determinant over the first v basis rows and first v hat columns."""
    spec = A.spec
    if v <= 0:
        return LaurentSeries.one(spec)
    G = _gram(A, basis)
    sub = [[G[r][c] for c in range(v)] for r in range(v)]
    return det_entries(sub, spec)


def _unit_matrix_shift(A: SeriesMatrix, i: int, j: int) -> SeriesMatrix:
    rows = [list(r) for r in A.entries]
    rows[i][j] = rows[i][j] + LaurentSeries.one(A.spec)
    return SeriesMatrix(A.spec, rows)


def discrete_gradient(A: SeriesMatrix, basis, v: int):
    """Unit-perturbation differences of the principal minor, one coordinate
    per matrix entry (row-major); each is a linear combination of the
    next-lower minor vector's coordinates."""
    base = principal_minor(A, basis, v)
    out = []
    for i in range(A.rows):
        for j in range(A.cols):
            shifted = principal_minor(_unit_matrix_shift(A, i, j), basis, v)
            out.append(shifted - base)
    return tuple(out)


def phi(z, A: SeriesMatrix, basis, v: int) -> Magnitude:
    """Norm of the last-column cofactor pairing: expanding the v x v
    determinant difference along its last column leaves
    ||(sum_h (-1)^(h+1) d_h y_h) . z||, homogeneous of degree 1 in z."""
    spec = A.spec
    if v < 1:
        raise ValueError("phi needs v >= 1")
    G = _gram(A, basis)
    terms = None
    for h in range(v):
        rows = [r for r in range(v) if r != h]
        cols = list(range(v - 1))
        if rows and cols:
            sub = [[G[r][c] for c in cols] for r in rows]
            d_h = det_entries(sub, spec)
        else:
            d_h = LaurentSeries.one(spec)
        if h % 2 == 1:
            d_h = -d_h
        contrib = tuple(d_h * y for y in basis[h])
        terms = contrib if terms is None else tuple(a + b for a, b in zip(terms, contrib))
    return vec_dot(terms, tuple(z)).norm()


def minor_sup(ball: FormalBall, basis, v: int) -> Magnitude:
    """Sup of the minor-vector height over a ball, by enumerating the grid
    of representatives at the ball's own resolution."""
    canonical = canonicalize(ball)
    e = canonical.effective_exponent()
    C = canonical.center
    spec = C.spec
    cells = C.rows * C.cols
    best = minors(C, basis, v).height()
    if spec.k**cells <= 256:
        patterns = itertools.product(spec.elements(), repeat=cells)
    else:
        patterns = _single_entry_patterns(spec, cells)
    for pat in patterns:
        if all(c == 0 for c in pat):
            continue
        shifted = C + _pattern_matrix(spec, C.rows, C.cols, pat, e)
        best = max(best, minors(shifted, basis, v).height())
    return best


def _pattern_matrix(spec, rows: int, cols: int, pat, e: int) -> SeriesMatrix:
    """The matrix whose (i, j) entry is pat[i * cols + j] * X^e."""
    return SeriesMatrix(
        spec,
        [
            [LaurentSeries.monomial(spec, pat[i * cols + j], e) for j in range(cols)]
            for i in range(rows)
        ],
    )


def _single_entry_patterns(spec, cells):
    for idx in range(cells):
        for c in range(1, spec.k):
            pat = [0] * cells
            pat[idx] = c
            yield tuple(pat)


# ---------------------------------------------------------------------------
# White strategies
# ---------------------------------------------------------------------------


class AvoidanceWhite:
    """Dodge every danger vector visible under the height cap: among the
    legal sub-ball centers on the k-grid, pick the one maximizing the worst
    violation margin of the level inequalities.  Empty danger set means a
    concentric shrink."""

    name = "white-avoid"

    def __init__(self, cfg: StrategyConfig):
        self.cfg = cfg
        self._rows = {"k": [], "h": []}  # admitted-height rows, see _admitted
        self._next_level = {"k": 0, "h": 0}
        # (kind, h) -> (echelon of the danger rows, lowest exponent they
        # reach), or None once no vector of height k^h is left
        self._spaces = {}
        self._dead = {"k": 0, "h": 0}  # per kind, the heights set to None
        self._black = (None, 0, None)  # see black_radius
        self.dodges = 0

    def black_radius(self, t: GameTranscript):
        """``min(b.radius for b in t.black_balls())``, as a running minimum
        over the Black balls appended since the last call (a transcript only
        grows); a list of balls other than the last one seen is scanned
        afresh."""
        balls, i, low = self._black
        if balls is not t.balls:
            balls, i, low = t.balls, 0, None
        while i < len(balls):
            if low is None or balls[i].radius < low:
                low = balls[i].radius
            i += 2
        self._black = (balls, i, low)
        return low

    def active_dangers(self, t: GameTranscript):
        """Danger vectors of the current ball as ``(kind, q_first, h, block
        values at the center, threshold exponent)``, each once, at the lowest
        level whose window admits its height: thresholds fall as levels rise,
        so that level decides the test and gives the smallest margin.  The
        dangers of height k^h are the height-h vectors of a level space: a
        vector is safe once some block value has a fractional digit above
        both the perturbation allowance and the threshold.  Those digits lie
        above the radius, and the allowance only shrinks, so each (kind, h)
        keeps its rows for the game and adds only those of the exponents its
        floor newly passes."""
        cfg = self.cfg
        kinds = [kind for kind in ("k", "h") if self._dead[kind] <= cfg.height_cap_exp]
        if not kinds:  # no height up to the cap has a vector left
            return []
        prev = t.last()
        e = prev.effective_exponent()
        radius = self.black_radius(t)
        # in play the last ball is Black's, whose floor is e
        fl = e if radius is prev.radius else floor_log(radius, cfg.spec.k)
        out = []
        for kind in kinds:
            stop = cfg.marker_level_at(kind, fl) + LOOKAHEAD + 1
            first = cfg.first_block(kind)
            blocks = _block_digits(prev.center, kind)
            for h, i, thr_exp, thr_floor in self._admitted(kind, stop):
                if i >= stop:
                    break
                key = (kind, h)
                if key not in self._spaces:
                    self._spaces[key] = (FqEchelon(cfg.spec, first * (h + 1)), 0)
                if self._spaces[key] is None:
                    continue
                space, reach = self._spaces[key]
                floor = max(h + e, thr_floor)
                _add_danger_rows(space, blocks, h, reach - 1, floor)
                vectors = height_vectors(space, h, first)
                self._spaces[key] = (space, min(reach, floor + 1)) if vectors else None
                self._dead[kind] += not vectors
                for q_first in vectors:
                    values = _block_values(prev.center, kind, q_first)
                    out.append((kind, q_first, h, values, thr_exp))
        return out

    def _admitted(self, kind: str, stop: int) -> list:
        """Rows ``(h, i, thr, floor)``, extended up to level ``stop`` or the
        cap: i is the lowest level whose window admits height k^h, thr the
        exponent of its threshold and floor the largest integer below thr.
        Windows grow with i, so i does not decrease along the rows."""
        cfg = self.cfg
        rows = self._rows[kind]
        i = self._next_level[kind]
        d = cfg.d
        while i < stop and len(rows) <= cfg.height_cap_exp:
            # in integers: ceil(a/d) - 1 is the largest integer below a/d
            window, thr = cfg.scaled_exponents(kind, i)
            top = min(-(-window // d) - 1, cfg.height_cap_exp)
            level = (i, _over(thr, d), -(-thr // d) - 1)
            rows.extend((h, *level) for h in range(len(rows), top + 1))
            i += 1
        self._next_level[kind] = i
        return rows

    def propose(self, t: GameTranscript) -> FormalBall:
        cfg = self.cfg
        prev = t.last()
        alpha = t.params.alpha
        spec = cfg.spec
        radius = alpha * prev.radius
        dangers = self.active_dangers(t)
        if not dangers:
            return FormalBall(prev.center, radius)
        g = legal_center_shift_exponent(prev, alpha)
        e_sub = floor_log(radius, spec.k)
        best = None
        for delta_pat in self._candidate_patterns():
            shift = _pattern_matrix(spec, cfg.m, cfg.n, delta_pat, g)
            margin = min(self.margin(shift, e_sub, *danger) for danger in dangers)
            if best is None or margin > best[0]:
                best = (margin, delta_pat, shift)
        _, pat, shift = best
        if any(pat):
            self.dodges += 1
        return FormalBall(prev.center + shift, radius)

    # -- candidate grid ------------------------------------------------------

    def _candidate_patterns(self):
        spec = self.cfg.spec
        cells = self.cfg.m * self.cfg.n
        if spec.k**cells <= 81:
            return list(itertools.product(spec.elements(), repeat=cells))
        pats = [tuple([0] * cells)]
        pats.extend(_single_entry_patterns(spec, cells))
        return pats

    def margin(self, shift, e_sub, kind, q_first, h, values, thr_exp):
        """Worst-case violation margin of the danger on the sub-ball moved
        by the candidate ``shift`` matrix (in k-exponents; higher is safer,
        None-like floor is represented by a large negative number)."""
        k = self.cfg.spec.k
        pert = Magnitude.power(k, h + e_sub)
        moved = _block_values(shift, kind, q_first)
        best = -(10**9)
        for v, s in zip(values, moved):
            f = (v + s).frac_norm()
            if f <= pert:
                continue
            best = max(best, f.exponent() - thr_exp)
        return best


class LiteralWhite:
    """The gradient-anchored move rule: hold a direction anchor for t0
    rounds, recentering so the move's projection on the anchor is at least
    (1-alpha)/k of the ball radius times the anchor height; the anchor is
    the discrete gradient of the top principal minor at the current center.
    Falls back to avoidance play when the gradient vanishes, or when the
    anchored move leaves a k-type danger unresolved (margin <= 0)."""

    name = "white-literal"

    def __init__(self, cfg: StrategyConfig):
        self.cfg = cfg
        self.anchor = None
        self.hold = 0
        self._avoid = AvoidanceWhite(cfg)

    @staticmethod
    def anchor_rounds(params) -> int:
        """Smallest t0 with (alpha*beta)^t0 <= gamma/2 (then also
        (alpha*beta)^t0 > alpha*beta*gamma/2)."""
        gamma = params.gamma
        if gamma <= 0:
            raise ValueError("gamma must be positive for the literal rule")
        step = params.alpha * params.beta
        t0 = 1
        cur = step
        while cur > gamma / 2:
            cur *= step
            t0 += 1
        return t0

    def propose(self, t: GameTranscript) -> FormalBall:
        cfg = self.cfg
        prev = t.last()
        alpha = t.params.alpha
        spec = cfg.spec
        radius = alpha * prev.radius
        dangers = self._avoid.active_dangers(t)
        if not dangers:
            # no hypothetical bad matrix to refute: the anchored maneuver is
            # only engaged inside a danger episode
            self.anchor = None
            self.hold = 0
            return FormalBall(prev.center, radius)
        if self.anchor is None or self.hold <= 0:
            self.anchor = self._compute_anchor(t)
            self.hold = self.anchor_rounds(t.params)
        if self.anchor is None:
            return self._avoid.propose(t)
        self.hold -= 1
        norms = [x.norm() for x in self.anchor]
        top = max(norms)
        if top.is_zero:
            self.anchor = None
            return self._avoid.propose(t)
        pat = [0] * (cfg.m * cfg.n)
        pat[norms.index(top)] = 1
        g = legal_center_shift_exponent(prev, alpha)
        shift = _pattern_matrix(spec, cfg.m, cfg.n, pat, g)
        # the anchor comes from the h-type dangers only: a k-type one the
        # anchored move leaves standing is dodged by the avoidance move
        e_sub = floor_log(radius, spec.k)
        if any(self._avoid.margin(shift, e_sub, *d) <= 0 for d in dangers if d[0] == "k"):
            return self._avoid.propose(t)
        # the anchored-projection bound k^(g+1) > (1 - alpha) * prev.radius
        # holds: g is the largest exponent with k^g <= (1 - alpha) * prev.radius
        return FormalBall(prev.center + shift, radius)

    def _compute_anchor(self, t: GameTranscript):
        cfg = self.cfg
        canonical = canonicalize(t.last())
        basis = self._danger_basis(t, canonical)
        grad = discrete_gradient(canonical.center, basis, cfg.m)
        if all(x.is_zero for x in grad):
            return None
        return grad

    def _danger_basis(self, t, canonical):
        cfg = self.cfg
        level = cfg.marker_level("h", self._avoid.black_radius(t))
        report = danger_set(
            canonical,
            level,
            "h",
            cfg,
            height_cap=Magnitude.power(cfg.spec.k, cfg.height_cap_exp),
        )
        vecs = list(report.solutions[: cfg.m])
        return orthonormalize(vecs, cfg.spec, cfg.d, cfg.m)


def make_white(name: str, cfg: StrategyConfig):
    if name == "white-avoid":
        return AvoidanceWhite(cfg)
    if name == "white-literal":
        return LiteralWhite(cfg)
    raise ValueError(f"unknown white strategy {name!r}")


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BadnessCertificate:
    K_exponent: int
    cap_exponent: int
    min_margin_exponent: int
    witnesses_checked: int

    def to_json(self):
        return {
            "K_exponent": self.K_exponent,
            "cap_exponent": self.cap_exponent,
            "min_margin_exponent": self.min_margin_exponent,
            "witnesses_checked": self.witnesses_checked,
        }


def certify_bad(
    point: SeriesMatrix,
    cfg: StrategyConfig,
    height_cap: Magnitude,
    known_below: int | None = None,
) -> BadnessCertificate:
    """Verify dist(q.point)^n > K / height(q)^m for all nonzero q up to the
    cap, with K one k-power inside the guaranteed interval; returns the
    minimal margin, or raises CounterexampleFound.

    ``known_below`` declares the truncation depth of a limit point; a passing
    distance is only accepted if its leading exponent is pinned above the
    depth that the products q.point can still see.

    No q is enumerated.  A level walk gives the least distance exponent e_h
    of each height k^h: the margin is min_h(hm + n e_h) - K, and
    ``witnesses_checked`` the k^(m(cap+1)) - 1 vectors it covers.  Height h
    fails if some q of it has distance <= k^c, c the larger of the score
    and pinning failure levels, or (truncated entries) a column with no
    known fractional digit; the first failing q in ``iter_height_class``
    order gets the check the enumeration gave it.
    """
    from .errors import PrecisionExhausted

    spec = cfg.spec
    k = spec.k
    m, n = cfg.m, cfg.n
    K_exp = cfg.certify_K_exponent
    cap = int(height_cap.exponent().__floor__())
    if cap < 0:
        raise ValueError(f"certification cap must be at least 1, got {height_cap}")
    trunc = truncation_depth(point)

    def deepest(h):
        c = (K_exp - h * m) // n
        if known_below is not None:
            c = max(c, known_below + h)
        return c if trunc is None else max(c, h + trunc - 1)

    # the subspaces whose vectors fail, as (columns, level at height h)
    subspaces = [(None, deepest)]
    if trunc is not None and n > 1:  # one column with no known fraction fails
        subspaces += [((j,), lambda h: h + trunc - 1) for j in range(n)]
    levels = [least_levels(point, cap, c, cols) for cols, c in subspaces]
    fails = [(lv.index(None), cols, c) for (cols, c), lv in zip(subspaces, levels) if None in lv]
    if fails:
        h = min(f[0] for f in fails)
        q = min(
            (first_vector(point, h, c(h), cols) for g, cols, c in fails if g == h),
            key=lambda q: height_class_rank(q, h, k),
        )
        dist = exact_dist(q, point)
        score = Magnitude.power(k, h * m) * dist**n
        if score <= Magnitude.power(k, K_exp):
            raise CounterexampleFound(
                f"q = ({', '.join(str(p) for p in q)}) scores {score} <= k^{K_exp}",
                q,
            )
        # only failing vectors are flagged, and a column with no known
        # fractional digit made exact_dist raise: the distance is not pinned
        raise PrecisionExhausted(
            f"distance for q = ({', '.join(str(p) for p in q)}) is not "
            f"pinned above the truncation depth {known_below}"
        )
    margin = min(h * m + n * e for h, e in enumerate(levels[0])) - K_exp
    return BadnessCertificate(K_exp, cap, margin, k ** (m * (cap + 1)) - 1)


# ---------------------------------------------------------------------------
# Calibration of the empirical constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport:
    field: str
    m: int
    n: int
    samples: int
    seed: int
    alpha: Fraction
    beta: Fraction
    K4: Fraction
    K5: Fraction
    K6: Fraction
    K7: Fraction

    def to_json(self):
        return {
            "field": self.field,
            "m": self.m,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "K4": str(self.K4),
            "K5": str(self.K5),
            "K6": str(self.K6),
            "K7": str(self.K7),
            "provenance": "empirical sweep; existence-only constants",
        }


def calibrate_constants(
    spec: FieldSpec,
    m: int,
    n: int,
    samples: int = 200,
    seed: int = 0,
    alpha: Fraction = Fraction(1, 4),
    beta: Fraction = Fraction(1, 2),
) -> CalibrationReport:
    """Fix K4..K7 from sampled instances: K4 and K7 as the largest observed
    ratios of their inequalities' sides, K5 as the smallest gradient ratio
    over instances satisfying the hypotheses, K6 from the one-round
    overshoot of the marker rule."""
    import random

    from .game import GameParams
    from .sampling import random_ball, random_orthonormal_basis

    rng = random.Random(seed)
    k = spec.k
    k4_max = None
    k5_min = None
    k7_max = None
    for _ in range(samples):
        v = rng.randint(1, m)
        basis = random_orthonormal_basis(rng, spec, m, m + n)
        ball = random_ball(rng, spec, m, n, -rng.randint(2, 5), rng.randint(2, 4))
        e = ball.effective_exponent()
        A1 = ball.center
        A2 = _perturb(A1, rng, e)
        g1 = discrete_gradient(A1, basis, v)
        g2 = discrete_gradient(A2, basis, v)
        m1 = minors(A1, basis, v - 1)
        m2 = minors(A2, basis, v - 1)
        dg = _vec_height_of([a - b for a, b in zip(g1, g2)], k)
        dm = _vec_height_of([a - b for a, b in zip(m1.entries, m2.entries)], k)
        if not dm.is_zero and not dg.is_zero:
            ratio = dg / dm
            k4_max = ratio if k4_max is None or ratio > k4_max else k4_max
        sup_prev = minor_sup(ball, basis, v - 1)
        mv = minors(A1, basis, v).height()
        if (
            not sup_prev.is_zero
            and mv < Magnitude.power(k, -3) * sup_prev
            and _principal_attains_max(A1, basis, v)
        ):
            grad = _vec_height_of(list(g1), k)
            if not grad.is_zero:
                ratio = grad / sup_prev
                k5_min = ratio if k5_min is None or ratio < k5_min else k5_min
        dv = principal_minor(A1, basis, v)
        if not dv.is_zero:
            lhs = _anchored_projection(A1, ball, g1, k)
            if not lhs.is_zero:
                ratio = lhs / dv.norm()
                k7_max = ratio if k7_max is None or ratio > k7_max else k7_max
    params = GameParams(alpha, beta, spec)
    k4 = k4_max.as_fraction() if k4_max is not None else Fraction(1)
    k5 = k5_min.as_fraction() if k5_min is not None else Fraction(1, 8)
    k7 = k7_max.as_fraction() if k7_max is not None else Fraction(1)
    eps = params.gamma / 8 * k5 / k4
    k6 = alpha * beta * min(Fraction(1, 2), eps)
    return CalibrationReport(
        field=str(spec.p) if spec.r == 1 else f"{spec.p}^{spec.r}",
        m=m,
        n=n,
        samples=samples,
        seed=seed,
        alpha=alpha,
        beta=beta,
        K4=k4,
        K5=k5,
        K6=k6,
        K7=k7,
    )


def _perturb(A: SeriesMatrix, rng, e: int) -> SeriesMatrix:
    spec = A.spec
    rows = []
    for row in A.entries:
        out = []
        for x in row:
            c = rng.randrange(spec.k)
            if c:
                x = x + LaurentSeries.monomial(spec, c, e)
            out.append(x)
        rows.append(out)
    return SeriesMatrix(spec, rows)


def _vec_height_of(xs, k: int) -> Magnitude:
    out = Magnitude.zero(k)
    for x in xs:
        out = max(out, x.norm())
    return out


def _principal_attains_max(A, basis, v) -> bool:
    mv = minors(A, basis, v - 1)
    top = mv.height()
    if top.is_zero:
        return False
    principal = principal_minor(A, basis, v - 1)
    return principal.norm() == top


def _anchored_projection(A, ball, grad, k) -> Magnitude:
    """||(A - C) . grad|| for A on the ball's grid; here A is the center so
    the projection uses the ball radius as the displacement height."""
    e = ball.effective_exponent()
    disp = Magnitude.power(k, e)
    g = _vec_height_of(list(grad), k)
    return disp * g
