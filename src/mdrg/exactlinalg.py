"""Exact linear algebra over the rationals.

Dense Gaussian elimination on ``fractions.Fraction`` entries: rank, span
membership and solving.  P-polynomial certification does not use it
(polynomials come from the recurrence, the boundary span from a
triangularity proof in :mod:`mdrg.ppoly`); it remains a public helper
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
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)  # rows above r hold the pivots so far
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _rows(columns: Sequence[Sequence[Fraction]], *extra: Sequence[Fraction]) -> Matrix:
    """The rows of the matrix whose columns are ``columns`` and ``extra``."""
    return [list(map(Fraction, row)) for row in zip(*columns, *extra, strict=True)]


def rank(columns: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix whose columns are given."""
    return len(_echelon(_rows(columns))[1])


def in_span(columns: Sequence[Sequence[Fraction]],
            target: Sequence[Fraction]) -> bool:
    """True iff ``target`` lies in the column span."""
    return rank([*columns, target]) == rank(columns)


def solve_columns(columns: Sequence[Sequence[Fraction]],
                  target: Sequence[Fraction]) -> Optional[Vector]:
    """Solve ``sum_j x_j * columns[j] = target`` exactly.

    Returns the unique coefficient vector, or None when the system is
    inconsistent.  Raises :class:`SingularSystemError` when solutions
    exist but are not unique (linearly dependent columns).
    """
    reduced, pivots = _echelon(_rows(columns, target))
    if len(columns) in pivots:  # a pivot in the target column: 0 = 1
        return None
    if len(pivots) < len(columns):
        raise SingularSystemError("columns are linearly dependent")
    return [row[-1] for row in reduced[:len(columns)]]
