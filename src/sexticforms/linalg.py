"""Exact linear algebra over Q via fraction-free elimination over Z.

Small dense problems only: rank of coefficient matrices of modular forms and
solving for linear-combination coefficients.  Matrices are lists of lists of
ints/Fractions.  Each row is cleared of denominators once and then eliminated
over Z, every updated row divided by its content (Bareiss, Math. Comp. 1968),
so no Fraction is formed until back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(row):
    """The integer row divided by its content (gcd of its entries)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _cleared(row):
    """The rational row cleared of denominators and made primitive."""
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _eliminate(row, c, pivot):
    """The integer row with its column c cleared by the pivot row, primitive."""
    a, b = pivot[c], row[c]
    g = gcd(a, b)
    ag, bg = a // g, b // g
    return _primitive([ag * x - bg * y for x, y in zip(row, pivot)])


def echelon(matrix):
    """Row echelon form of the matrix over Z: a list of (pivot column,
    primitive integer row), pivot columns increasing, each row zero before
    its pivot column.  The pivot columns are the column-rank profile.
    Input is not mutated."""
    pending = []
    for row in matrix:
        row = _cleared(row)
        if any(row):
            pending.append(row)
    rows = []
    for c in range(len(matrix[0]) if matrix else 0):
        if not pending:  # every row is a pivot or eliminated to zero
            break
        i = next((i for i, row in enumerate(pending) if row[c]), None)
        if i is None:
            continue
        pivot = pending.pop(i)
        rest = []
        for row in pending:
            if row[c]:
                row = _eliminate(row, c, pivot)
                if not any(row):
                    continue
            rest.append(row)
        pending = rest
        rows.append((c, pivot))
    return rows


def rank(matrix) -> int:
    return len(echelon(matrix))


def in_span(echelon_rows, row) -> bool:
    """Whether ``row`` lies in the row space over Q of ``echelon_rows``, the
    output of ``echelon``: the row, cleared of denominators, is eliminated
    over Z at each pivot column in turn and must end as zero."""
    row = _cleared(row)
    for c, pivot in echelon_rows:
        if row[c]:
            row = _eliminate(row, c, pivot)
    return not any(row)


def solve_linear(matrix, rhs):
    """One exact solution of M x = rhs, or None if inconsistent.

    Free variables are set to zero; the pivot unknowns are Fractions.
    """
    if not matrix:
        return [] if not any(rhs) else None
    ncols = len(matrix[0])
    rows = echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    if rows and rows[-1][0] == ncols:
        return None
    x = [0] * ncols
    for c, row in reversed(rows):
        known = sum(row[j] * x[j] for j in range(c + 1, ncols) if x[j])
        x[c] = Fraction(row[ncols] - known, row[c])
    return x
