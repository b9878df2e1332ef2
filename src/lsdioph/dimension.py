"""Hausdorff-dimension machinery: disjoint-ball packing counts, the winning
set dimension lower bound log N(beta) / |log alpha*beta|, the branch digit
map onto [0,1], exact s-lengths of covers, and empirical box counting of
truncated badly-approximable sets.

Packing counts come in two flavours: ``coarse_count`` places centers one
resolution level coarser than necessary (spacing k^(i+1) for radius-beta
balls with k^(i-1) <= beta < k^i), and ``max_count`` uses the finest
admissible spacing.  The dimension bound uses the larger; both are exact
and the constant-factor gap is irrelevant in the limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BranchOutOfRange, SearchBudgetExceeded
from .field import FieldSpec, Magnitude, floor_log
from .game import GameTranscript


@dataclass(frozen=True)
class PackingCount:
    """Disjoint radius-beta*rho balls inside a radius-rho ball, per the two
    center constructions."""

    beta: Fraction
    i: int  # the integer with k^(i-1) <= beta < k^i
    coarse_count: int
    max_count: int
    m: int
    n: int
    k: int


def packing_count(beta, m: int, n: int, k: int) -> PackingCount:
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    i = floor_log(beta, k) + 1
    mn = m * n
    coarse = k ** (max(0, -i - 1) * mn)
    dense = k ** (max(0, -i) * mn)
    return PackingCount(beta, i, coarse, dense, m, n, k)


def dim_lower_bound(alpha, beta, m: int, n: int, k: int) -> Fraction:
    """log N(beta) / |log alpha*beta| for k-power alpha = k^-a, beta = k^-j:
    exactly (j-1)mn / (a+j), monotone toward mn as j grows."""
    a = _kpower_exponent(alpha, k, "alpha")
    j = _kpower_exponent(beta, k, "beta")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return Fraction((j - 1) * m * n, a + j)


def _kpower_exponent(value, k: int, name: str) -> int:
    value = Fraction(value)
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1)")
    e = floor_log(value, k)
    if Magnitude.power(k, e).as_fraction() != value:
        raise ValueError(f"{name} must be an exact power of k for an exact bound")
    return -e


def digit_map(t: GameTranscript, labels) -> Fraction:
    """Base-N(beta) expansion 0.i_1 i_2 ... of the branch labels, truncated
    at the transcript depth; distinct label tuples of one depth map to
    distinct values."""
    m, n = t.shape
    N = packing_count(t.params.beta, m, n, t.params.spec.k).max_count
    if len(labels) > max(t.full_rounds(), 0):
        raise BranchOutOfRange("more labels than completed rounds")
    out = Fraction(0)
    scale = Fraction(1)
    for lab in labels:
        if not 0 <= lab < N:
            raise BranchOutOfRange(f"label {lab} outside [0, {N})")
        scale /= N
        out += lab * scale
    return out


@dataclass(frozen=True)
class CoverEntry:
    """A cover ball annotated with its tree depth j = floor(log 2rho /
    log alpha*beta): any ball of radius rho < (alpha*beta)^j meets at most
    one depth-j branch ball."""

    radius: Fraction
    alpha: Fraction
    beta: Fraction

    @property
    def tree_depth(self) -> int:
        step = self.alpha * self.beta
        target = 2 * self.radius
        j = 0
        power = Fraction(1)
        while power >= target:
            power *= step
            j += 1
        return j - 1


@dataclass(frozen=True)
class SLength:
    """Sum of radius^s over a cover; exact when representable."""

    fraction: Fraction | None  # exact value when s is a nonnegative integer
    power_terms: tuple | None  # ((exponent, count), ...) when radii are k-powers
    value: float
    k: int
    s: Fraction

    def __float__(self):
        return self.value


def cover_s_length(radii, s, k: int) -> SLength:
    s = Fraction(s)
    if s < 0:
        raise ValueError("s must be >= 0")
    radii = [Fraction(r) for r in radii]
    fraction = None
    if s.denominator == 1:
        fraction = sum((r ** int(s) for r in radii), Fraction(0))
    power_terms = None
    exps = []
    for r in radii:
        e = floor_log(r, k)
        if Magnitude.power(k, e).as_fraction() != r:
            exps = None
            break
        exps.append(e)
    if exps is not None:
        counts: dict = {}
        for e in exps:
            key = e * s
            counts[key] = counts.get(key, 0) + 1
        power_terms = tuple(sorted(counts.items()))
    if fraction is not None:
        value = float(fraction)
    elif power_terms is not None:
        value = sum(c * k ** float(e) for e, c in power_terms)
    else:
        value = sum(float(r) ** float(s) for r in radii)
    return SLength(fraction, power_terms, value, k, s)


# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxCountRow:
    resolution: int
    cells_total: int
    cells_surviving: int

    @property
    def empirical_dim(self) -> float | None:
        if self.cells_surviving <= 0:
            return None
        return math.log(self.cells_surviving) / (self.resolution * math.log(self.k_base))

    k_base: int = 2


def box_count_bad(
    K: Magnitude,
    height_cap: Magnitude,
    t: int,
    m: int,
    n: int,
    spec: FieldSpec,
    budget: int = 1 << 22,
):
    """Per-resolution counts of cells of the unit polydisc containing at
    least one matrix whose badness score stays >= K for every vector under
    the cap.

    A cell at resolution t is the coset fixing coefficients at exponents
    -1..-t; the survival condition only reads coefficients above a finite
    depth, so the count is exact.  K = 0 keeps every cell; K >= 1 kills
    every cell (a Dirichlet-type witness always scores below 1).  ``budget``
    bounds the cells the prefix walk visits, or over GF(2) with one form the
    prefixes tested for cover.
    """
    if t < 1 or m < 1 or n < 1:
        raise ValueError("t, m and n must be >= 1")
    k = spec.k
    mn = m * n
    cap = int(height_cap.exponent().__floor__())
    if K.is_zero:
        return [
            BoxCountRow(r, k ** (r * mn), k ** (r * mn), k_base=k)
            for r in range(1, t + 1)
        ]
    if K.exponent().denominator != 1:
        raise ValueError("K must be an exact power of k (or zero)")
    K_exp = int(K.exponent())
    if k == 2 and spec.r == 1 and m == 1 and n == 1:
        dead = _dead_prefix_counts_gf2(K_exp, cap, t, budget)
        return [
            BoxCountRow(r, 2**r, 2**r - dead[r], k_base=2) for r in range(1, t + 1)
        ]
    return _box_count_walk(K_exp, cap, t, m, n, spec, budget)


def _dead_prefix_counts_gf2(K_exp: int, cap: int, t: int, budget: int):
    """Exact dead-cell counts per resolution over GF(2), single form.

    For each q the failing set {A : dist(qA) < K/||q||} is an affine
    subspace: the window coefficients of the carryless product q*A are a
    triangular linear system in A's bits, leaving the first deg(q) bits and
    everything below the window free.  Enumerate each failing set as 2^deg q
    fixed bit patterns (a subcube), then count the cell prefixes entirely
    covered by the union of subcubes.
    """
    prefixes = (1 << (t + 1)) - 2  # of every resolution up to t: each is tested
    if prefixes > budget:
        raise SearchBudgetExceeded(
            f"box count needs {prefixes} prefix tests at least, over the budget of {budget}",
            count=0,
        )
    subcubes = []  # (fixed_len, pattern_int) bits 0.. fixed_len-1 <-> exps -1..-fixed_len
    for d in range(0, cap + 1):
        window = d - K_exp  # number of vanishing window coefficients
        if window < 0:
            window = 0
        fixed_len = window + d
        for q_low in range(1 << d):
            q = q_low | (1 << d)
            for head in range(1 << d):
                # head bits = a_1..a_d; each window coefficient of q*A,
                # c_e = sum_j q_j a_{e+j} = 0, is triangular in a_{e+d}
                bits = [(head >> b) & 1 for b in range(d)]
                for e in range(1, window + 1):
                    s = 0
                    for j in range(d):
                        if (q >> j) & 1:
                            s ^= bits[e + j - 1]
                    bits.append(s)
                pattern = 0
                for idx, b in enumerate(bits):
                    if b:
                        pattern |= 1 << idx
                subcubes.append((fixed_len, pattern))
    # deduplicate; drop subcubes refined by a coarser identical prefix
    subcubes = sorted(set(subcubes))
    max_len = max((L for L, _ in subcubes), default=0)

    from functools import lru_cache

    tested = 0

    @lru_cache(maxsize=None)
    def covered(depth: int, prefix: int) -> bool:
        nonlocal tested
        if tested >= budget:
            raise SearchBudgetExceeded(
                f"box count exceeded the budget of {budget} prefix tests at resolution {depth}",
                count=tested,
            )
        tested += 1
        live = []
        for L, pat in subcubes:
            mask = (1 << min(L, depth)) - 1
            if (pat ^ prefix) & mask:
                continue
            if L <= depth:
                return True
            live.append((L, pat))
        if not live or depth >= max_len:
            return False
        return covered(depth + 1, prefix) and covered(depth + 1, prefix | (1 << depth))

    dead = {0: 0}
    for r in range(1, t + 1):
        dead[r] = sum(1 for p in range(1 << r) if covered(r, p))
    covered.cache_clear()
    return dead


def _box_count_walk(K_exp, cap, t, m, n, spec, budget):
    """Exact survivor counts by a depth-first walk over cell prefixes.

    Level r fixes the X^-r coefficient of all mn entries, so for q of height
    k^h the coefficient of (qA)_j at X^(h-r) becomes known at level r.  A
    cell carries the vectors q whose known window coefficients all vanish
    in every column: q kills the cell once its window theta_q..-1 is fully
    known (r >= h - theta_q), and a cell that no q threatens keeps every
    sub-cell.  For fixed q the killed matrices form an F_q-linear subspace,
    and c*q kills the same one, so only one q per line is kept.
    """
    from .approx import iter_height_class

    k = spec.k
    mn = m * n
    add = [[spec.add(a, b) for b in range(k)] for a in range(k)]
    mul = [[spec.mul(a, b) for b in range(k)] for a in range(k)]
    thetas = {h: -((h * m - K_exp) // n) for h in range(cap + 1)}  # ceil((K-hm)/n)
    depth = max([t] + [h - theta for h, theta in thetas.items()])
    # digits[i][j][s]: the X^-s coefficient of A_ij in the current cell
    digits = [[[0] * (depth + 1) for _ in range(n)] for _ in range(m)]
    qs = []
    for h, theta in thetas.items():
        for q in iter_height_class(spec, m, h):
            if next(p.coeffs[h] for p in q if p.degree == h) != 1:
                continue  # a scalar multiple of a kept q
            # column j: terms (digits of A_ij, h - d, q_i[d]) of (qA)_j
            columns = [
                [(digits[i][j], h - d, c) for i, p in enumerate(q)
                 for d, c in enumerate(p.coeffs) if c]
                for j in range(n)
            ]
            qs.append((h, theta, columns))
    slots = [row[j] for row in digits for j in range(n)]
    counts = [0] * (t + 1)
    visited = 0

    def window_coeff(terms, r):
        acc = 0
        for entry, off, c in terms:
            acc = add[acc][mul[c][entry[r - off]]]
        return acc

    def survives(r, live):
        nonlocal visited
        if visited >= budget:
            raise SearchBudgetExceeded(
                f"box count exceeded the budget of {budget} cells at resolution {r}",
                count=visited,
            )
        visited += 1
        threats = []
        for q in live:
            h, theta, columns = q
            if theta <= h - r <= -1 and any(window_coeff(c, r) for c in columns):
                continue
            if r >= h - theta:
                return False
            threats.append(q)
        if not threats:
            for s in range(max(r, 1), t + 1):
                counts[s] += k ** (mn * (s - r))
            return True
        alive = False
        for child in itertools.product(range(k), repeat=mn):
            for slot, c in zip(slots, child):
                slot[r + 1] = c
            if survives(r + 1, threats):
                alive = True
                if r >= t:
                    break
        if alive and 1 <= r <= t:
            counts[r] += 1
        return alive

    survives(0, qs)
    return [
        BoxCountRow(r, k ** (r * mn), counts[r], k_base=k) for r in range(1, t + 1)
    ]
