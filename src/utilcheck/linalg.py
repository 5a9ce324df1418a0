"""Exact row reduction by fraction-free integer elimination.

One kernel, ``reduce_rows``, answers every row-space question in the
package.  Each row is multiplied by the LCM of its own denominators, which
keeps the row space, so the reduced row echelon form and its pivots need no
unscaling.  Bareiss elimination (Bareiss 1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination") then runs on ints,
every division exact, taking the rows in order until every column has a
pivot; back-substitution on those few rows gives the rref times one
determinant.  The package's matrices are tall (one row per state), so its
rows, and their LCMs, stay short.  Inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .rationals import scale_to_ints


class Reduction(NamedTuple):
    """The nonzero rows of a reduced row echelon form, and where each came from.

    ``rows[r]`` has 1 in column ``pivots[r]`` (increasing) and 0 in every
    other pivot column.  ``origins[r]`` is the input row whose elimination
    first left a nonzero in column ``pivots[r]``; in increasing order the
    origins are the greedy first-independent input rows, each independent
    of the rows before it.
    """

    pivots: list[int]
    rows: list[list[Fraction]]
    origins: list[int]


def reduce_rows(rows) -> Reduction:
    """Reduce a matrix given as rows of rationals (Fractions or ints)."""
    basis: list[tuple[int, int, list[int]]] = []  # (origin, pivot column, Bareiss row)
    for i, row in enumerate(rows):
        x = scale_to_ints(row)[1]
        prev = 1
        for _, c, b in basis:  # row i's Bareiss state after each earlier pivot step
            p, f = b[c], x[c]
            if f:
                x = [(p * a - f * e) // prev for a, e in zip(x, b)]
            else:
                x = [p * a // prev for a in x]
            prev = p
        lead = next((j for j, a in enumerate(x) if a), None)
        if lead is not None:
            basis.append((i, lead, x))
            if len(basis) == len(x):
                break
    # The last Bareiss pivot is the determinant of the pivot minor, so it
    # times each rref row is an int row (Cramer's rule); solve for those
    # from the last pivot row up, every division exact.
    det = basis[-1][2][basis[-1][1]] if basis else 1
    done: list[tuple[int, list[int], int]] = []  # (pivot column, det * rref row, origin)
    for origin, c, b in reversed(basis):
        x = [det * a for a in b]
        for c2, y, _ in done:
            if f := b[c2]:
                x = [a - f * e for a, e in zip(x, y)]
        done.append((c, [a // b[c] for a in x], origin))
    done.sort()
    return Reduction(
        pivots=[c for c, _, _ in done],
        rows=[[Fraction(a, det) for a in y] for _, y, _ in done],
        origins=[origin for _, _, origin in done],
    )
