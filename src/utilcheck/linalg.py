"""Exact row reduction by incremental fraction-free Gauss-Jordan elimination.

One kernel, ``reduce_rows``, answers every row-space question in the
package.  It takes rows of ints: a caller holding rationals scales each row
by the LCM of its own denominators first, which keeps the row space, so the
rref and its pivots need no unscaling.  The rows are taken in order and
the basis stays reduced: each basis row is ``det`` times its rref row, in
ints, with ``det`` the pivot minor's determinant (Cramer's rule).  A row x
is in the span iff ``det * x`` matches the basis rows weighted by x's pivot
entries on every column without a pivot.  At the first column where they
differ, x's residue joins the basis with its pivot there, each basis row is
updated by one exact division, and ``det`` becomes that pivot, until every
column has a pivot.  Once a row is in the span, every later row is tested
at once: one pass per column without a pivot runs that test down the
transposed tail in C-level ``map``s and finds its first nonzero with
``compress``, and the elimination resumes at the earliest such row, or
stops if there is none.  The rows skipped are exactly those the
row-at-a-time test would skip.  The input is read once into a list, and
its rows are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import mul, sub
from typing import NamedTuple


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
    """Reduce a matrix given as rows of ints, each read as it is and left unchanged.

    ``rows`` may be any iterable of rows, such as a ``zip`` of columns.
    """
    rows = list(rows)
    det = 1
    basis: list[tuple[int, int, list[int]]] = []  # (pivot column, origin, det * rref row)
    free: dict[int, list[int]] = {}  # each column with no pivot: its basis entries
    i = 0
    while i < len(rows):
        x = rows[i]
        if not basis:
            free = {j: [] for j in range(len(x))}
        lead = [x[c] for c, _, _ in basis]
        for j, column in free.items():
            if det * x[j] != sum(map(mul, lead, column)):
                break
        else:  # x is in the span of the basis: skip it and every later row that is too
            i += _spanned(rows[i:], det, basis, free)
            continue
        y = [det * a for a in x]  # det * x minus its projection: 0 on every pivot column
        for f, (_, _, b) in zip(lead, basis):
            if f:
                y = [a - f * e for a, e in zip(y, b)]
        basis = [(c, o, [(y[j] * a - b[j] * e) // det for a, e in zip(b, y)]) for c, o, b in basis]
        basis.append((j, i, y))
        det = y[j]
        del free[j]
        if not free:
            break
        free = {k: [b[k] for _, _, b in basis] for k in free}
        i += 1
    basis.sort()
    return Reduction(
        pivots=[c for c, _, _ in basis],
        rows=[[Fraction(a, det) for a in b] for _, _, b in basis],
        origins=[o for _, o, _ in basis],
    )


def _spanned(tail: list, det: int, basis: list, free: dict[int, list[int]]) -> int:
    """How many of the tail's leading rows the basis spans, by one lazy pass per free column.

    Column j of ``det * x`` minus the basis rows weighted by x's pivot
    entries is 0 on a spanned row; each column's pass stops at its first
    nonzero or at the earliest one an earlier column found.
    """
    columns = list(zip(*tail))
    end = len(tail)
    for j, entries in free.items():
        gap = map(mul, repeat(det), columns[j])
        for (c, _, _), e in zip(basis, entries):
            if e:
                gap = map(sub, gap, map(mul, repeat(e), columns[c]))
        end = next(compress(range(end), gap), end)
    return end
