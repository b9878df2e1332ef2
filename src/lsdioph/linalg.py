"""Small exact linear algebra: determinants and adjugates of scalar
matrices, rank of polynomial vectors over the rational function field, weak
Popov reduction of lattices over F_q[X], one incremental elimination over
F_q, and the level spaces built on it: the F_q-subspaces of bounded-degree q
whose products qA are small.

Dimensions in this package are tiny (d <= 6 or so).  Determinants and
adjugates of exact matrices come from one fraction-free elimination;
cofactor expansion is left only for small minors of truncated entries.
"""

from __future__ import annotations

import bisect

from .errors import SearchBudgetExceeded
from .field import FieldSpec, Poly
from .series import LaurentSeries, RationalFn, SeriesMatrix, vec_dot


def det(matrix: SeriesMatrix):
    """(det, adj) of a square matrix of exact finite-support entries, from
    one fraction-free (Bareiss) Gauss-Jordan elimination of [M | I], whose
    right block ends as adj: Laurent polynomials form an integral domain,
    so by Sylvester's identity each division by the previous pivot is
    exact.  A singular M gives (0, None)."""
    n, spec = matrix.rows, matrix.spec
    if n != matrix.cols or not matrix.is_exact:
        raise ValueError("det needs a square matrix of exact finite-support entries")
    zero, one = LaurentSeries.zero(spec), LaurentSeries.one(spec)
    a = [
        list(r) + [one if i == j else zero for j in range(n)]
        for i, r in enumerate(matrix.entries)
    ]
    prev = one
    for k in range(n):
        p = next((i for i in range(k, n) if not a[i][k].is_zero), None)
        if p is None:
            return zero, None
        if p != k:  # a swap and a negated row: the determinant stays
            a[k], a[p] = a[p], [-x for x in a[k]]
        piv, row = a[k][k], a[k][k + 1 :]
        for i in range(n):
            if i != k:
                c, tail = a[i][k], a[i][k + 1 :]
                a[i][k + 1 :] = [_cross(piv, x, c, y, prev) for x, y in zip(tail, row)]
        prev = piv
    return prev, SeriesMatrix(spec, [r[n:] for r in a])


def _cross(piv, x, c, y, prev):
    """(piv * x - c * y) / prev when prev divides it: the division runs over
    the quotient's whole span, and a remainder raises."""
    num = piv * x if not c.coeffs or not y.coeffs else piv * x - c * y
    if not num.coeffs or prev.coeffs == {0: 1}:
        return num
    span = num.lead_exp - prev.lead_exp - min(num.coeffs) + min(prev.coeffs) + 1
    if span < 1 or not (q := num.divide(prev, span)).is_exact:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def det_entries(rows, spec):
    """Determinant of a square list-of-lists of scalars by cofactor
    expansion: its callers pass <= 3x3 minors of truncated entries, where
    dividing would lose precision."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    cofactors = []
    for j in range(n):
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        d = det_entries(minor, spec)
        cofactors.append(-d if j % 2 else d)
    return vec_dot(cofactors, rows[0])


class PolyEchelon:
    """Incremental fraction-free echelon of polynomial vectors over F_q(X): a
    kept row is zero before its pivot and at the pivots of earlier rows."""

    def __init__(self):
        self.rows = {}  # pivot -> row

    def add(self, vector) -> bool:
        """Keep ``vector`` if it is outside the span of the kept rows; say so."""
        v = list(vector)
        for c in self.rows:
            if not v[c].is_zero:
                r = self.rows[c]
                v = [r[c] * x - v[c] * y for x, y in zip(v, r)]
        c = next((i for i, x in enumerate(v) if not x.is_zero), None)
        if c is not None:
            self.rows[c] = v
        return c is not None


def poly_rank(vectors) -> int:
    """Rank over F_q(X) of a family of polynomial vectors."""
    echelon = PolyEchelon()
    return sum(echelon.add(v) for v in vectors)


def weak_popov(rows):
    """Weak Popov form (Mulders and Storjohann, J. Symbolic Comput. 35, 2003)
    of the F_q[X]-lattice spanned by independent rows of exact series, and
    per reduced row the polynomial vector x giving it as x . rows; its row
    degrees are the minima of the sup norm.  While two rows lead at one
    column (the rightmost attaining a row's degree), the row r_i of higher or
    equal degree loses q * r_j, q the quotient of their entries there down to
    where another column of r_i may lead: the simple transformations
    c * X^t * r_j that would follow, at once.  Each lowers r_i's head."""
    spec, d = rows[0][0].spec, len(rows)
    unit = [[LaurentSeries(spec, {0: 1} if i == j else {}) for j in range(d)] for i in range(d)]
    rows = [list(r) + u for r, u in zip(rows, unit)]  # x rides along after column d
    while True:
        heads = [_head(r[:d]) for r in rows]
        clash = [(heads[i], i, j) for i in range(d) for j in range(d) if i != j]
        clash = [c for c in clash if c[0][1] == heads[c[2]][1]]
        if not clash:
            return [r[:d] for r in rows], [r[d:] for r in rows]
        _, i, j = max(clash)
        (deg, p), b = heads[i], heads[j][0]
        tops = [x.lead_exp for c, x in enumerate(rows[i][:d]) if c != p and x.coeffs]
        tops += [deg - b + y.lead_exp for c, y in enumerate(rows[j][:d]) if c != p and y.coeffs]
        low = max(0, max(tops, default=b) - b)
        q = rows[i][p].divide(rows[j][p], deg - b - low + 1).coeffs
        rows[i] = [_submul(x, q, y) for x, y in zip(rows[i], rows[j])]
        if _head(rows[i][:d]) >= (deg, p):
            raise ArithmeticError("weak Popov step did not lower its row")


def _submul(x, q: dict, y):
    """x - q * y for exact series x and y and the coefficients q of another."""
    f, out = x.spec, dict(x.coeffs)
    for s, c in q.items():
        for e, a in y.coeffs.items():
            out[s + e] = f.sub(out.get(s + e, 0), f.mul(c, a))
    return LaurentSeries(f, out)


def _head(row):
    """(degree, leading column) of a nonzero row."""
    return max((x.lead_exp, j) for j, x in enumerate(row) if x.coeffs)


class FqEchelon:
    """Incremental row echelon form over F_q.  A row ``a | b`` (``nvars + 1``
    elements) means a . x = b; each kept row starts with a 1 at its pivot,
    its first nonzero column, and no two share one, so the pivots among the
    first c columns count their rank.  ``add`` only inserts: deleting the
    rows it just added undoes it.  A pivot at ``nvars`` means no solution."""

    def __init__(self, spec: FieldSpec, nvars: int):
        self.spec = spec
        self.nvars = nvars
        self.rows = {}  # pivot -> the row from its pivot column on

    def _reduce(self, row, start=0):
        for c in range(start, len(row)):
            if row[c] and c in self.rows:
                row[c:] = _sub_multiple(self.spec, row[c:], row[c], self.rows[c])
        return row

    def add(self, row):
        """Insert a row; return its pivot, or None when the kept rows imply it."""
        if not any(row):  # 0 = 0; a row 0 = b with b != 0 goes on to pivot nvars
            return None
        row = self._reduce(list(row))
        c = next((i for i, a in enumerate(row) if a), None)
        if c is not None:
            inv = self.spec.inv(row[c])
            self.rows[c] = [self.spec.mul(inv, a) for a in row[c:]]
        return c

    @property
    def consistent(self) -> bool:
        return self.nvars not in self.rows

    def value(self, var: int):
        """The value every solution gives x[var], or None when it varies."""
        row = self._reduce([0] * var + [1] + [0] * (self.nvars - var), var)
        return None if any(row[:-1]) else self.spec.neg(row[-1])

    def nullspace(self):
        """Basis of the solutions of a homogeneous system, as reduced row
        echelon form gives it: per free column f, 1 at f, 0 at the others."""
        full = {c: [0] * c + r for c, r in self.rows.items()}
        for c in sorted(full, reverse=True):
            for p, r in full.items():
                if p < c and r[c]:
                    full[p] = _sub_multiple(self.spec, r, r[c], full[c])
        basis = []
        for f in range(self.nvars):
            if f in full:
                continue
            vec = [0] * self.nvars
            vec[f] = 1
            for c, r in full.items():
                vec[c] = self.spec.neg(r[f])
            basis.append(vec)
        return basis


def _sub_multiple(spec: FieldSpec, xs, a: int, ys):
    """xs - a * ys, entry by entry."""
    return [spec.sub(x, spec.mul(a, y)) for x, y in zip(xs, ys)]


def series_vec_rank_at_zero(vectors, spec: FieldSpec) -> int:
    """Rank over F_q of the exponent-0 coefficient vectors (used to verify
    ultrametric orthonormality)."""
    if not vectors:
        return 0
    ech = FqEchelon(spec, len(vectors[0]))
    return sum(ech.add([x.coeffs.get(0, 0) for x in v] + [0]) is not None for v in vectors)


# ---------------------------------------------------------------------------
# Level spaces: the norm is ultrametric, so the q with deg q_i <= h whose
# products qA have no nonzero coefficient in a window of exponents form an
# F_q-subspace, cut out by one row per (column, exponent).
# ---------------------------------------------------------------------------


def coefficient_row(coeffs, s: int, h: int):
    """The X^s coefficient of sum_i q_i * x_i as a linear form in the
    q_{i,t}, t <= h, ordered by t and then i; ``coeffs[i]`` maps the
    exponents of x_i to its coefficients."""
    return [c.get(s - t, 0) for t in range(h + 1) for c in coeffs]


def level_space(A: SeriesMatrix, e: int, h: int, budget: int | None = None):
    """F_q-basis of {x : deg x_i <= h, ||x . A_j|| <= k^e for every column j}
    for exact finite-support entries, as polynomial vectors.  The walk's
    variables run by degree, which fixes the basis: a coordinate-major order
    gives other witnesses in ``successive_minima`` on some inputs.  ``budget``
    bounds the row entries the walk writes."""
    top = h + max((s for r in A.entries for x in r for s in x.coeffs), default=e)
    walk = LevelWalk(A, h, e + 1 - h, top=top, budget=budget)
    while walk.level > e:
        walk.descend(e + 1)
    d = A.rows
    return [
        tuple(Poly(A.spec, v[i::d]) for i in range(d)) for v in walk.echelon.nullspace()
    ]


class LevelWalk:
    """The subspaces {q : deg q_i <= cap, qA has no nonzero coefficient at
    X^s for level < s <= top}, level = top, top - 1, ...: ``descend`` adds,
    per column, the row "the X^level coefficient of qA vanishes".  With
    top = -1 this is dist(qA) <= k^level; with top at least the degree of
    qA, ||qA|| <= k^level.  Variables run by degree, so ``pivots[h]`` counts
    the rank gained on the degree-h block, and some q of height exactly k^h
    is left iff it is below m.  Entries are read down to X^lo; an unknown
    coefficient reads 0, so block h is exact while level >= h + floor - 1
    for the precision floor of a truncated entry.  A ``budget`` bounds the
    row entries written, which grow with the walk's work."""

    def __init__(self, A: SeriesMatrix, cap: int, lo: int, cols=None, top: int = -1,
                 budget: int | None = None):
        cols = range(A.cols) if cols is None else cols
        self.m, self.cap = A.rows, cap
        self.columns = [[_coefficients(x, lo) for x in A.col(j)] for j in cols]
        # the exponents of nonzero coefficients: a level's rows are zero
        # unless one of them lies within cap below it
        self.exps = sorted({s for col in self.columns for c in col for s, a in c.items() if a})
        self.echelon = FqEchelon(A.spec, A.rows * (cap + 1))
        self.level = top
        self.pivots = [0] * (cap + 1)
        self.budget, self.written = budget, 0

    def descend(self, floor: int):
        """Add the rows of the next level with a nonzero row, or of ``floor``
        if that comes first: the levels skipped add nothing."""
        i = bisect.bisect_right(self.exps, self.level)
        nxt = min(self.level, self.exps[i - 1] + self.cap) if i else floor
        self.level = max(floor, nxt)
        width = self.echelon.nvars + 1
        for coeffs in self.columns:
            if self.budget is not None and self.written + width > self.budget:
                raise SearchBudgetExceeded(
                    f"level walk exceeded the budget of {self.budget} row entries"
                    f" at level {self.level}",
                    count=self.written,
                )
            self.written += width
            p = self.echelon.add(coefficient_row(coeffs, self.level, self.cap) + [0])
            if p is not None:
                self.pivots[p // self.m] += 1
        self.level -= 1


def _coefficients(x, lo: int) -> dict:
    """Exponent -> coefficient, down to X^lo at least (every known one of a
    truncated series)."""
    if not isinstance(x, RationalFn):
        return x.coeffs
    if x.is_zero:
        return {}
    lead = x.num.degree - x.den.degree
    return x.to_series(precision=max(1, lead - lo + 1)).coeffs


def height_vectors(echelon: FqEchelon, h: int, m: int):
    """The solutions of height exactly k^h of a homogeneous system in the
    q_{i,t}, t <= h, ordered as ``coefficient_row`` orders them, as tuples
    of m polynomials; none, with no enumeration, once the degree-h block is
    all pivots."""
    spec, top = echelon.spec, h * m
    if all(c in echelon.rows for c in range(top, top + m)):
        return []
    vecs = [[0] * echelon.nvars]
    for b in echelon.nullspace():
        vecs = [_sub_multiple(spec, v, c, b) for c in spec.elements() for v in vecs]
    return [tuple(Poly(spec, v[i::m]) for i in range(m)) for v in vecs if any(v[top:])]


def least_levels(A: SeriesMatrix, cap: int, deepest, cols=None):
    """Per height h <= cap, the least distance exponent of a q of height
    exactly k^h, or None when some q has distance <= k^deepest(h)."""
    walk = LevelWalk(A, cap, min(map(deepest, range(cap + 1))) + 1 - cap, cols)
    out = {}
    while True:
        for h in range(cap + 1):
            if h in out:
                continue
            if walk.pivots[h] == walk.m:
                out[h] = walk.level + 1
            elif walk.level <= deepest(h):
                out[h] = None
        if len(out) > cap:
            return [out[h] for h in range(cap + 1)]
        walk.descend(1 + max(deepest(h) for h in range(cap + 1) if h not in out))


def first_vector(A: SeriesMatrix, h: int, level: int, cols=None, exact=True):
    """The first q in ``iter_height_class`` order of height exactly k^h with
    dist(qA) <= k^level over the columns ``cols``, or None; with ``exact``
    false, the first nonzero q of height <= k^h in the order of
    ``itertools.product(iter_polys(spec, h), repeat=m)``.  Coefficients are
    fixed as both orders compare them: x^h, x^(h-1), ... down to the first
    nonzero one, then x^0, x^1, ...; each takes the first value in
    ``spec.elements()`` that keeps the system solvable with some coordinate
    still able to reach degree h (or to be nonzero)."""
    walk = LevelWalk(A, h, level + 1 - h, cols)
    while walk.level > level:
        walk.descend(level + 1)
    ech, m, spec = walk.echelon, A.rows, A.spec
    goal = range(h * m if exact else 0, (h + 1) * m)

    def viable():
        return ech.consistent and any(ech.value(var) != 0 for var in goal)

    def choose(var):
        for v in spec.elements():
            p = ech.add([0] * var + [1] + [0] * (ech.nvars - var - 1) + [v])
            if viable():
                return v
            del ech.rows[p]

    if not viable():
        return None
    q = []
    for i in range(m):
        coeffs = [0] * (h + 1)
        for t in range(h, -1, -1):
            coeffs[t] = choose(t * m + i)
            if coeffs[t]:
                for u in range(t):
                    coeffs[u] = choose(u * m + i)
                break
        q.append(Poly(spec, coeffs))
    return tuple(q)
