"""Exact linear algebra over the rationals.

Dense Gaussian elimination on ``fractions.Fraction`` entries: rank, span
membership and solving.  P-polynomial certification does not use it
(polynomials come from the recurrence, the boundary test from a
triangular elimination in :mod:`mdrg.ppoly`); it remains a public helper
and the test suite's oracle for those routes.  No floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


class SingularSystemError(ValueError):
    """A solve had no unique solution (rank-deficient coefficient matrix)."""


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch: %dx%d times %d"
                         % (len(a), len(a[0]), len(v)))
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def _echelon(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Row-reduce in place; returns the matrix and pivot column list."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rank(columns: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix whose columns are given."""
    if not columns:
        return 0
    rows = [[Fraction(col[i]) for col in columns] for i in range(len(columns[0]))]
    _, pivots = _echelon(rows)
    return len(pivots)


def in_span(columns: Sequence[Sequence[Fraction]],
            target: Sequence[Fraction]) -> bool:
    """True iff ``target`` lies in the column span."""
    if not columns:
        return all(x == 0 for x in target)
    return rank(list(columns) + [list(target)]) == rank(columns)


def solve_columns(columns: Sequence[Sequence[Fraction]],
                  target: Sequence[Fraction]) -> Optional[Vector]:
    """Solve ``sum_j x_j * columns[j] = target`` exactly.

    Returns the unique coefficient vector, or None when the system is
    inconsistent.  Raises :class:`SingularSystemError` when solutions
    exist but are not unique (linearly dependent columns).
    """
    n_cols = len(columns)
    if n_cols == 0:
        if all(x == 0 for x in target):
            return []
        return None
    height = len(columns[0])
    rows: Matrix = [[Fraction(columns[j][i]) for j in range(n_cols)] + [Fraction(target[i])]
                    for i in range(height)]
    reduced, pivots = _echelon(rows)
    for row in reduced:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    column_pivots = [p for p in pivots if p < n_cols]
    if len(column_pivots) < n_cols:
        raise SingularSystemError("columns are linearly dependent")
    solution: Vector = [Fraction(0)] * n_cols
    for r, c in enumerate(column_pivots):
        solution[c] = reduced[r][-1]
    return solution
