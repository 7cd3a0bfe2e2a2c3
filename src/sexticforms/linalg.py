"""Exact linear algebra over Q via Gauss-Jordan elimination.

Small dense problems only: rank of coefficient matrices of modular forms and
solving for linear-combination coefficients.  Everything works on lists of
lists of ints/Fractions.
"""

from __future__ import annotations

from fractions import Fraction


def _row_reduce(matrix):
    """Return (rref rows, pivot column list) over Q. Input is not mutated."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    _, pivots = _row_reduce(matrix)
    return len(pivots)


def solve_linear(matrix, rhs):
    """One exact solution of M x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not matrix:
        return [] if not any(rhs) else None
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = _row_reduce(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][-1]
    return x
