"""Small exact linear algebra: determinants and adjugates of scalar
matrices, rank of polynomial vectors over the rational function field, and
nullspaces over F_q.

Dimensions in this package are tiny (d <= 6 or so); cofactor expansion and
plain Gaussian elimination are the right tools.
"""

from __future__ import annotations

from .field import FieldSpec
from .series import SeriesMatrix, scalar_zero, vec_dot


def det(matrix: SeriesMatrix):
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


def det_entries(rows, spec):
    """Determinant of a square list-of-lists of scalars."""
    return _det_rows(rows, spec)


def adjugate(matrix: SeriesMatrix) -> SeriesMatrix:
    """Adjugate (transposed cofactor matrix): M * adj(M) = det(M) * I."""
    n = matrix.rows
    if n != matrix.cols:
        raise ValueError("adjugate of a nonsquare matrix")
    if n == 1:
        from .series import scalar_one

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


def poly_rank(vectors, spec: FieldSpec) -> int:
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


def poly_independent(vector, basis, spec: FieldSpec) -> bool:
    """Is ``vector`` outside the F_q(X)-span of ``basis``?"""
    return poly_rank(list(basis) + [vector], spec) > poly_rank(basis, spec)


def fq_nullspace(rows, ncols: int, spec: FieldSpec):
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


def series_vec_rank_at_zero(vectors, spec: FieldSpec) -> int:
    """Rank over F_q of the exponent-0 coefficient vectors (used to verify
    ultrametric orthonormality)."""
    if not vectors:
        return 0
    rows = [[x.coeffs.get(0, 0) for x in v] for v in vectors]
    return len(rows[0]) - len(fq_nullspace(rows, len(rows[0]), spec))


def mat_mul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    zero = scalar_zero(a.spec, a.entry(0, 0))
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for t in range(a.cols):
                acc = acc + a.entry(i, t) * b.entry(t, j)
            row.append(acc)
        out.append(row)
    return SeriesMatrix(a.spec, out)
