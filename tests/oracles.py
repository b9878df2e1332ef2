"""Code the level walk replaced, kept verbatim as test oracles: the three
exhaustive searches, two of which visit every q in ``iter_height_class``
order (only the import of PrecisionExhausted is rewritten) and the
pigeonhole one every q of bounded degree, and the old F_q null space.
Also the ``Magnitude`` that stored every exponent as a ``Fraction``,
renamed ``OracleMagnitude`` and otherwise verbatim; the ball containment
test and White's safe test that read whole differences and products; and
the danger-set enumeration and White's digit scan that level spaces
replaced, renamed with an ``oracle_`` prefix and otherwise verbatim.
Then the cofactor determinant and adjugate and the column-by-column
``poly_rank`` that one fraction-free elimination replaced, renamed the same
way (the adjugate's local import of ``scalar_one`` moved to the top).
Last, the level walk over every value level that weak Popov reduction
replaced in ``successive_minima``, renamed the same way; it returns the
pair (values, witnesses) instead of a ``SuccessiveMinima``.  And the text
grammar's splitter, term parser and formatter from before replay parsed each
distinct term once, renamed the same way; ``oracle_parse_series`` is the
old ``parse_series`` built on them.  Last, the game path before White's
danger scan skipped rows and transcripts skipped re-encoding (see the
section at the end)."""

import itertools
import json
from fractions import Fraction

from lsdioph.approx import (
    DEFAULT_SEARCH_BUDGET,
    ApproxWitness,
    LinearFormSystem,
    _floor_int_exponent,
    exact_dist,
    iter_height_class,
    iter_polys,
)
from lsdioph.errors import (
    CounterexampleFound,
    DivisionByZero,
    PrecisionExhausted,
    SearchBudgetExceeded,
    SearchIncomplete,
    WitnessNotFound,
)
from lsdioph.field import FieldSpec, Magnitude
from lsdioph.game import (
    FormalBall,
    GameParams,
    GameTranscript,
    IllegalMove,
    _field_flag,
    _require_keys,
    canonicalize,
)
from lsdioph.geom import Parallelepiped, distance_value, measure_exponent_dual
from lsdioph.linalg import FqEchelon, PolyEchelon, coefficient_row, height_vectors, level_space
from lsdioph.errors import SeriesSyntaxError
from lsdioph.series import (
    MAX_EXPONENT,
    LaurentSeries,
    RationalFn,
    SeriesMatrix,
    _parse_coeff_int,
    _parse_coeff_tuple,
    format_series,
    parse_field,
    parse_series,
    scalar_one,
    vec_dot,
    vec_height,
)
from lsdioph.strategy import (
    DANGER_BUDGET,
    LOOKAHEAD,
    AvoidanceWhite,
    BadnessCertificate,
    DangerReport,
    StrategyConfig,
    _block_digits,
    _block_values,
    _ceil_minus_one,
    _tail_variants,
)


def oracle_badness_constant(
    sys: LinearFormSystem,
    height_bound: Magnitude,
    budget: int = DEFAULT_SEARCH_BUDGET,
):
    """Exact min of height(q)^m * dist(qA)^n over 0 < height(q) <= bound.

    Enumerates by increasing height; inside a class, coordinates of qA whose
    fractional norm already meets the running minimum's requirement are
    dropped early (the height factor grows monotonically, so the required
    distance only shrinks).
    """
    if height_bound.is_zero:
        raise ValueError("height bound must be positive")
    m, n = sys.m, sys.n
    A = sys.matrix
    k = sys.spec.k
    h_max = _floor_int_exponent(height_bound)
    best = None
    best_witness = None
    seen = 0
    for h in range(h_max + 1):
        class_height = Magnitude.power(k, h)
        need_below = None
        if best is not None:
            # dist must satisfy k^{hm} * dist^n < best
            need_below = (best / class_height**m).root(n)
        for q in iter_height_class(sys.spec, m, h):
            if seen >= budget:
                raise SearchBudgetExceeded(
                    f"badness search exceeded the budget of {budget} vectors"
                    f" at height k^{h}",
                    count=seen,
                )
            seen += 1
            dist = dist_with_cutoff(q, A, need_below)
            if dist is None:
                continue
            score = class_height**m * dist**n
            if best is None or score < best:
                best = score
                best_witness = ApproxWitness(q, class_height, dist, score)
                if best.is_zero:
                    return best, best_witness
                need_below = (best / class_height**m).root(n)
    return best, best_witness


def dist_with_cutoff(q, A: SeriesMatrix, cutoff):
    """dist(qA), or None as soon as some coordinate's fractional norm shows
    the score cannot beat the running minimum."""
    dist = Magnitude.zero(A.spec.k)
    for j in range(A.cols):
        fn = vec_dot(q, A.col(j)).frac_norm()
        if cutoff is not None and fn >= cutoff:
            return None
        if fn > dist:
            dist = fn
    return dist


def oracle_certify_bad(
    point: SeriesMatrix,
    cfg: StrategyConfig,
    height_cap: Magnitude,
    known_below: int | None = None,
) -> BadnessCertificate:
    """Verify dist(q.point)^n > K / height(q)^m for all nonzero q up to the
    cap, with K one k-power inside the guaranteed interval; returns the
    minimal observed margin, or raises CounterexampleFound.

    ``known_below`` declares the truncation depth of a limit point; a passing
    distance is only accepted if its leading exponent is pinned above the
    depth that the products q.point can still see."""
    from lsdioph.errors import PrecisionExhausted

    spec = cfg.spec
    k = spec.k
    m, n = cfg.m, cfg.n
    K_exp = cfg.certify_K_exponent
    cap = int(height_cap.exponent().__floor__())
    checked = 0
    margin = None
    for h in range(0, cap + 1):
        for q in iter_height_class(spec, m, h):
            checked += 1
            dist = exact_dist(q, point)
            score = Magnitude.power(k, h * m) * dist**n
            if score <= Magnitude.power(k, K_exp):
                raise CounterexampleFound(
                    f"q = ({', '.join(str(p) for p in q)}) scores {score} <= k^{K_exp}",
                    q,
                )
            if known_below is not None and int(dist.exponent()) <= known_below + h:
                raise PrecisionExhausted(
                    f"distance for q = ({', '.join(str(p) for p in q)}) is not "
                    f"pinned above the truncation depth {known_below}"
                )
            mg = int(score.exponent()) - K_exp
            margin = mg if margin is None else min(margin, mg)
    return BadnessCertificate(K_exp, cap, margin, checked)


def oracle_fq_nullspace(rows, ncols: int, spec):
    """Basis of the right nullspace of a matrix over F_q.

    ``rows`` is a list of length-``ncols`` lists of ints.  Returns a list of
    length-``ncols`` int vectors.
    """
    mat = [list(r) for r in rows]
    pivots = {}  # col -> row index
    row_i = 0
    for col in range(ncols):
        pivot = None
        for i in range(row_i, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[row_i], mat[pivot] = mat[pivot], mat[row_i]
        inv = spec.inv(mat[row_i][col])
        mat[row_i] = [spec.mul(inv, v) for v in mat[row_i]]
        for i in range(len(mat)):
            if i != row_i and mat[i][col]:
                c = mat[i][col]
                mat[i] = [
                    spec.sub(a, spec.mul(c, b)) for a, b in zip(mat[i], mat[row_i])
                ]
        pivots[col] = row_i
        row_i += 1
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for pc, pr in pivots.items():
            vec[pc] = spec.neg(mat[pr][fc])
        basis.append(vec)
    return basis


def oracle_dirichlet_pigeonhole(
    sys: LinearFormSystem, t: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> ApproxWitness:
    m, n = sys.m, sys.n
    spec = sys.spec
    u = -(-(t + 1) * m // n) - 1  # ceil((t+1)m/n) - 1
    buckets = {}
    best = None
    pool = list(iter_polys(spec, t))
    count = 0
    for q in itertools.product(pool, repeat=m):
        if count >= budget:
            raise SearchBudgetExceeded(
                f"dirichlet enumeration exceeded the budget of {budget} vectors"
                f" of height <= k^{t}",
                count=count,
            )
        count += 1
        key = _frac_window_key(q, sys.matrix, u)
        if key in buckets:
            other = buckets[key]
            diff = tuple(a - b for a, b in zip(q, other))
            if any(not p.is_zero for p in diff):
                dist = exact_dist(diff, sys.matrix)
                h = vec_height(diff)
                wit = ApproxWitness(diff, h, dist, h**m * dist**n)
                if best is None or wit.dist < best.dist:
                    best = wit
        else:
            buckets[key] = q
        if any(not p.is_zero for p in q):
            dist = exact_dist(q, sys.matrix)
            hq = vec_height(q)
            wit = ApproxWitness(q, hq, dist, hq**m * dist**n)
            if best is None or wit.dist < best.dist:
                best = wit
    if best is None:
        raise WitnessNotFound("no nonzero vector enumerated")
    return best


def _frac_window_key(q, A: SeriesMatrix, u: int):
    return tuple(_frac_digits(vec_dot(q, A.col(j)), u) for j in range(A.cols))


def _frac_digits(x, u: int):
    if isinstance(x, RationalFn):
        r = x.num % x.den
        series = RationalFn(r, x.den).to_series(precision=u + 2) if not r.is_zero else None
        coeffs = {} if series is None else series.coeffs
    else:
        coeffs = x.coeffs
        if x.known_below is not None and x.known_below > -u:
            raise PrecisionExhausted(f"need coefficients down to X^-{u}")
    return tuple(coeffs.get(-i, 0) for i in range(1, u + 1))


class OracleMagnitude:
    """Zero or an exact power k^e of the residue field size.

    Totally ordered; multiplication adds exponents.  Zero is the least
    element and absorbs multiplication.
    """

    __slots__ = ("k", "exp")

    def __init__(self, k: int, exp):
        self.k = k
        self.exp = exp if exp is None else Fraction(exp)

    @classmethod
    def zero(cls, k: int) -> "OracleMagnitude":
        return cls(k, None)

    @classmethod
    def power(cls, k: int, exp) -> "OracleMagnitude":
        return cls(k, Fraction(exp))

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    def exponent(self) -> Fraction:
        if self.exp is None:
            raise ValueError("zero magnitude has no exponent")
        return self.exp

    def as_fraction(self) -> Fraction:
        if self.exp is None:
            return Fraction(0)
        if self.exp.denominator != 1:
            raise ValueError(f"k^{self.exp} is not rational")
        e = int(self.exp)
        return Fraction(self.k**e) if e >= 0 else Fraction(1, self.k**-e)

    def root(self, n: int) -> "OracleMagnitude":
        if self.exp is None:
            return self
        return OracleMagnitude(self.k, self.exp / n)

    def _check(self, other):
        if not isinstance(other, OracleMagnitude):
            raise TypeError(f"cannot combine Magnitude with {type(other).__name__}")
        if other.k != self.k:
            raise ValueError("magnitudes over different fields")

    def __mul__(self, other):
        self._check(other)
        if self.exp is None or other.exp is None:
            return OracleMagnitude.zero(self.k)
        return OracleMagnitude(self.k, self.exp + other.exp)

    def __truediv__(self, other):
        self._check(other)
        if other.exp is None:
            raise DivisionByZero("division by zero magnitude")
        if self.exp is None:
            return self
        return OracleMagnitude(self.k, self.exp - other.exp)

    def __pow__(self, n: int):
        if self.exp is None:
            if n <= 0:
                raise DivisionByZero("0 ** nonpositive")
            return self
        return OracleMagnitude(self.k, self.exp * n)

    def __lt__(self, other):
        self._check(other)
        if self.exp is None:
            return other.exp is not None
        if other.exp is None:
            return False
        return self.exp < other.exp

    def __le__(self, other):
        return self < other or self == other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __eq__(self, other):
        return (
            isinstance(other, OracleMagnitude) and self.k == other.k and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.k, self.exp))

    def __repr__(self):
        if self.exp is None:
            return "0"
        return f"{self.k}^{self.exp}"


def oracle_formal_contains(inner, outer) -> bool:
    """Exact test of rho_in + ||c_in - c_out|| <= rho_out."""
    if inner.center.shape != outer.center.shape:
        raise ValueError("dimension mismatch")
    delta = inner.center - outer.center
    gap = delta.height()
    return inner.radius + gap.as_fraction() <= outer.radius


def oracle_pinned_safe(center: SeriesMatrix, kind: str, q_first, pert, thr) -> bool:
    """``AvoidanceWhite.active_dangers``'s test that a vector is safe: some
    block value at the center lies above both the perturbation allowance
    ``pert`` and the threshold ``thr``."""
    values = _block_values(center, kind, q_first)
    fracs = [v.frac_norm() for v in values]
    return any(f > pert and f >= thr for f in fracs)


def oracle_danger_set(
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
    precisely when the value's norm is at most height(q) * k^e.
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
    solutions = []
    count = 0
    for h in range(0, max_deg + 1):
        pert = Magnitude.power(k, h + e)
        for q_first in iter_height_class(spec, first, h):
            if count >= DANGER_BUDGET:
                raise SearchBudgetExceeded(
                    f"danger enumeration exceeded the budget of {DANGER_BUDGET} vectors"
                    f" at height k^{h}",
                    count=count,
                )
            count += 1
            values = _block_values(C, kind, q_first)
            fractional = [v.frac_norm() for v in values]
            reachable = [
                Magnitude.zero(k) if f <= pert else f for f in fractional
            ]
            if not all(r < thr for r in reachable):
                continue
            tails = [(-v.polynomial_part()) for v in values]
            solutions.append(tuple(q_first) + tuple(tails))
            if pert >= Magnitude.power(k, 0):
                solutions.extend(
                    _tail_variants(q_first, values, tails, pert, thr, spec)
                )
    rank = oracle_poly_rank(solutions, spec) if solutions else 0
    return DangerReport(i, kind, tuple(solutions), rank)


def oracle_has_frac_digit(blocks, q_first, floor: int, spec: FieldSpec) -> bool:
    """Does some block value sum_i q_i a_i (exact, from ``_block_digits``)
    have a nonzero coefficient at an exponent in (floor, -1]?  Each
    coefficient is sum_i sum_j q_i[j] a_i[x - j]; the scan runs down from
    x = -1 and stops at the first nonzero one."""
    terms = [(i, j, c) for i, p in enumerate(q_first) for j, c in enumerate(p.coeffs) if c]
    add, mul = spec.add, spec.mul
    for x in range(-1, floor, -1):
        for line in blocks:
            s = 0
            for i, j, c in terms:
                a = line[i].get(x - j)
                if a:
                    s = add(s, mul(c, a))
            if s:
                return True
    return False


def oracle_det(matrix: SeriesMatrix):
    """Determinant of a square scalar matrix by cofactor expansion."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a nonsquare matrix")
    return _det_rows(matrix.entries, matrix.spec)


def _det_rows(rows, spec):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    cofactors = []
    for j in range(n):
        minor = [
            [row[jj] for jj in range(n) if jj != j] for row in rows[1:]
        ]
        d = _det_rows(minor, spec)
        cofactors.append(-d if j % 2 else d)
    return vec_dot(cofactors, rows[0])


def oracle_adjugate(matrix: SeriesMatrix) -> SeriesMatrix:
    """Adjugate (transposed cofactor matrix): M * adj(M) = det(M) * I."""
    n = matrix.rows
    if n != matrix.cols:
        raise ValueError("adjugate of a nonsquare matrix")
    if n == 1:
        return SeriesMatrix(matrix.spec, [[scalar_one(matrix.spec, matrix.entry(0, 0))]])
    rows = matrix.entries
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[ii][jj] for jj in range(n) if jj != j]
                for ii in range(n)
                if ii != i
            ]
            c = _det_rows(minor, matrix.spec)
            if (i + j) % 2:
                c = -c
            out[j][i] = c  # transpose
    return SeriesMatrix(matrix.spec, out)


def oracle_poly_rank(vectors, spec: FieldSpec) -> int:
    """Rank over F_q(X) of a family of polynomial vectors.

    Fraction-free elimination: rows are cross-multiplied by pivots, which
    changes nothing over the fraction field.
    """
    rows = [list(v) for v in vectors if any(not p.is_zero for p in v)]
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    col = 0
    while rows and col < width:
        pivot_idx = next((i for i, r in enumerate(rows) if not r[col].is_zero), None)
        if pivot_idx is None:
            col += 1
            continue
        pivot_row = rows.pop(pivot_idx)
        piv = pivot_row[col]
        rank += 1
        nxt = []
        for r in rows:
            if r[col].is_zero:
                nxt.append(r)
                continue
            c = r[col]
            new = [piv * r[j] - c * pivot_row[j] for j in range(width)]
            if any(not p.is_zero for p in new):
                nxt.append(new)
        rows = nxt
        col += 1
    return rank


def oracle_successive_minima(P: Parallelepiped, degree_bound: int | None = None):
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
    return tuple(values), tuple(witnesses)


def oracle_parse_series(text: str, spec: FieldSpec) -> LaurentSeries:
    f = spec
    coeffs: dict = {}
    for chunk, offset in oracle_split_top(text, "+"):
        c, e = oracle_parse_term(chunk, offset, spec)
        s = f.add(coeffs.get(e, 0), c)
        if s:
            coeffs[e] = s
        else:
            coeffs.pop(e, None)
    return LaurentSeries(spec, coeffs)


def oracle_split_top(text: str, sep: str):
    """Split at ``sep`` outside parentheses, as (chunk, offset) pairs."""
    terms = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SeriesSyntaxError("unbalanced parenthesis", i)
        elif ch == sep and depth == 0:
            terms.append((text[start:i], start))
            start = i + 1
    if depth:
        raise SeriesSyntaxError("unbalanced parenthesis", len(text))
    terms.append((text[start:], start))
    return terms


def oracle_parse_term(chunk: str, offset: int, spec: FieldSpec):
    raw = chunk.strip()
    if not raw:
        raise SeriesSyntaxError("empty term", offset)
    pos = offset + chunk.index(raw[0])

    coeff = None
    rest = raw
    if raw[0] == "(":
        close = raw.find(")")
        if close < 0:
            raise SeriesSyntaxError("unterminated coefficient tuple", pos)
        coeff = _parse_coeff_tuple(raw[: close + 1], pos, spec)
        rest = raw[close + 1 :].lstrip()
    elif raw[0].isdigit():
        i = 0
        while i < len(raw) and raw[i].isdigit():
            i += 1
        coeff = _parse_coeff_int(raw[:i], pos, spec)
        rest = raw[i:].lstrip()

    if coeff is not None and rest.startswith("*"):
        rest = rest[1:].lstrip()
        if not rest:
            raise SeriesSyntaxError("dangling '*'", pos + len(raw) - 1)

    if not rest:
        if coeff is None:
            raise SeriesSyntaxError("empty term", pos)
        return coeff, 0

    if rest[0] != "X":
        raise SeriesSyntaxError(f"expected 'X', found {rest[0]!r}", pos + raw.find(rest))
    rest = rest[1:].lstrip()
    exp = 1
    if rest:
        if rest[0] != "^":
            raise SeriesSyntaxError("expected '^' after X", pos + raw.rfind(rest[0]))
        try:
            exp = int(rest[1:].strip())
        except ValueError:
            raise SeriesSyntaxError("bad exponent", pos + len(raw) - len(rest)) from None
        if abs(exp) > MAX_EXPONENT:
            raise SeriesSyntaxError(
                f"exponent {exp} beyond +-{MAX_EXPONENT}", pos + len(raw) - len(rest)
            )
    if coeff is None:
        coeff = 1
    return coeff, exp


def oracle_format_series(x: LaurentSeries) -> str:
    if x.is_zero:
        return "0"
    f = x.spec
    terms = []
    for e in sorted(x.coeffs, reverse=True):
        c = x.coeffs[e]
        cs = f.format_element(c)
        if e == 0:
            terms.append(cs)
            continue
        xs = "X" if e == 1 else f"X^{e}"
        if f.r == 1 and c == 1:
            terms.append(xs)
        else:
            terms.append(f"{cs}*{xs}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# The game path before White's danger scan skipped rows and transcripts
# skipped re-encoding: FqEchelon.add, the level-window formulas with tau,
# AvoidanceWhite.active_dangers and _admitted, GameTranscript.to_jsonl and
# from_jsonl, renamed with an ``oracle_`` prefix and otherwise verbatim, save
# that the scan adds its rows to an ``OracleFqEchelon`` and reads the
# formulas below, and that replay checks moves with ``oracle_validate_move``.
# ---------------------------------------------------------------------------


class OracleFqEchelon(FqEchelon):
    def add(self, row):
        """Insert a row; return its pivot, or None when the kept rows imply it."""
        row = self._reduce(list(row))
        c = next((i for i, a in enumerate(row) if a), None)
        if c is not None:
            inv = self.spec.inv(row[c])
            self.rows[c] = [self.spec.mul(inv, a) for a in row[c:]]
        return c


def oracle_window_exponent(cfg, kind: str, i: int):
    if kind == "k":
        return cfg.delta_exp + cfg.R_exp * cfg.n * (cfg.tau + i)
    return cfg.delta_star_exp + cfg.R_exp * cfg.m * (1 + i)


def oracle_threshold_exponent(cfg, kind: str, i: int):
    if kind == "k":
        return cfg.delta_exp - cfg.R_exp * (cfg.m * (cfg.tau + i) + cfg.n)
    return cfg.delta_star_exp - cfg.R_exp * (cfg.n * (1 + i) + cfg.m)


def _oracle_danger_rows(blocks, h: int, top: int, floor: int):
    return [coefficient_row(line, s, h) + [0] for s in range(top, floor, -1) for line in blocks]


class OracleFullScanWhite(AvoidanceWhite):
    """``AvoidanceWhite`` with the scan it had before: every row of every
    newly passed exponent is built and reduced, zero rows included."""

    def active_dangers(self, t: GameTranscript):
        cfg = self.cfg
        prev = t.last()
        e = prev.effective_exponent()
        radius = self.black_radius(t)
        out = []
        for kind in ("k", "h"):
            stop = cfg.marker_level(kind, radius) + LOOKAHEAD + 1
            first = cfg.first_block(kind)
            blocks = _block_digits(prev.center, kind)
            for h, i, thr in self._admitted(kind, stop):
                if i >= stop:
                    break
                key = (kind, h)
                if key not in self._spaces:
                    self._spaces[key] = (OracleFqEchelon(cfg.spec, first * (h + 1)), 0)
                if self._spaces[key] is None:
                    continue
                space, reach = self._spaces[key]
                thr_exp = thr.exponent()
                floor = max(h + e, _ceil_minus_one(thr_exp))
                for row in _oracle_danger_rows(blocks, h, reach - 1, floor):
                    space.add(row)
                vectors = height_vectors(space, h, first)
                self._spaces[key] = (space, min(reach, floor + 1)) if vectors else None
                for q_first in vectors:
                    values = _block_values(prev.center, kind, q_first)
                    out.append((kind, q_first, h, values, thr_exp))
        return out

    def _admitted(self, kind: str, stop: int) -> list:
        cfg = self.cfg
        rows = self._rows[kind]
        i = self._next_level[kind]
        while i < stop and len(rows) <= cfg.height_cap_exp:
            top = min(_ceil_minus_one(oracle_window_exponent(cfg, kind, i)), cfg.height_cap_exp)
            thr = Magnitude(cfg.spec.k, oracle_threshold_exponent(cfg, kind, i))
            rows.extend((h, i, thr) for h in range(len(rows), top + 1))
            i += 1
        self._next_level[kind] = i
        return rows


def oracle_validate_move(prev, proposal, ratio) -> bool:
    """The radius law in ``Fraction``s, then ``oracle_formal_contains``."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    if proposal.radius != ratio * prev.radius:
        return False
    return oracle_formal_contains(proposal, prev)


def oracle_to_jsonl(self) -> str:
    p = self.params
    lines = [
        json.dumps(
            {
                "type": "header",
                "field": _field_flag(p.spec),
                "alpha": str(p.alpha),
                "beta": str(p.beta),
                "shape": list(self.shape),
            },
            sort_keys=True,
        )
    ]
    terms, center, text = {}, None, None
    for i, b in enumerate(self.balls):
        if b.center is not center:
            center = b.center
            text = [[format_series(x, terms) for x in row] for row in center.entries]
        lines.append(
            json.dumps(
                {"player": self.player_at(i), "center": text, "radius": str(b.radius)},
                sort_keys=True,
            )
        )
    if self.forfeit is not None:
        lines.append(
            json.dumps(
                {
                    "type": "forfeit",
                    "player": self.forfeit.player,
                    "index": self.forfeit.index,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def oracle_from_jsonl(text: str) -> GameTranscript:
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("replay: empty transcript")
    header = lines[0]
    _require_keys(header, ("field", "alpha", "beta"), "header record")
    spec = parse_field(header["field"])
    params = GameParams(
        Fraction(header["alpha"]), Fraction(header["beta"]), spec
    )
    t = GameTranscript(params)
    terms, text, center = {}, None, None
    for number, rec in enumerate(lines[1:], 2):
        where = f"record {number}"
        if isinstance(rec, dict) and rec.get("type") == "forfeit":
            _require_keys(rec, ("player", "index"), where)
            t.forfeit = IllegalMove(rec["player"], rec["index"])
            continue
        _require_keys(rec, ("center", "radius"), where)
        if rec["center"] != text:
            text = rec["center"]
            center = SeriesMatrix(
                spec, [[parse_series(s, spec, terms) for s in row] for row in text]
            )
        ball = FormalBall(center, Fraction(rec["radius"]))
        if t.balls:
            ratio = params.alpha if t.player_at(len(t.balls)) == "white" else params.beta
            if not oracle_validate_move(t.balls[-1], ball, ratio):
                raise ValueError(f"replay: illegal move at index {len(t.balls)}")
        t.balls.append(ball)
    return t
