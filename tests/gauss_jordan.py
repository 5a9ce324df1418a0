"""Fraction Gauss-Jordan elimination: the oracle for the integer kernel.

Plain Gauss-Jordan elimination over Fractions, as the package ran it before
``utilcheck.linalg.reduce_rows``: with rational scalars every step is
exact, so there is no pivoting strategy beyond "first nonzero" and no
tolerance anywhere.  Matrices are lists of row lists; functions never
mutate their arguments.  ``profile_rows`` and ``profile_target`` read a
``utilcheck.SpanProblem`` as such a matrix and vector.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _copy(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = _copy(rows)
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve(rows, rhs) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent.

    When the system is underdetermined the free variables are set to 0,
    which makes the returned solution deterministic.
    """
    m = _copy(rows)
    if not m:
        return None
    if len(rhs) != len(m):
        raise ValueError("rhs length does not match row count")
    n_cols = len(m[0])
    aug = [row + [Fraction(b)] for row, b in zip(m, rhs)]
    red, pivots = rref(aug)
    if n_cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        x[c] = red[r][n_cols]
    return x


def null_space(rows) -> list[Vector]:
    """Basis of {x : A x = 0}, one vector per free column of A.

    Canonical form: each basis vector has 1 in its free column and 0 in all
    other free columns, so the basis is deterministic.
    """
    m = _copy(rows)
    if not m:
        return []
    n_cols = len(m[0])
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


def greedy_pivots(rows) -> dict[int, int]:
    """Each row independent of the rows before it, mapped to its pivot column.

    Row i's pivot is the least c where the rank of rows[:i+1] on columns
    [:c+1] exceeds the rank of rows[:i] on those columns.  The rows chosen
    before i span rows[:i], so they stand in for it.
    """
    chosen: list[list[Fraction]] = []
    out = {}
    for i, row in enumerate(rows):
        if rank(chosen + [row]) > len(chosen):
            out[i] = next(
                c
                for c in range(len(row))
                if rank([r[: c + 1] for r in chosen + [row]]) > rank([r[: c + 1] for r in chosen])
            )
            chosen.append(row)
    return out


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat_vec(rows, v) -> Vector:
    return [dot(row, v) for row in rows]


def profile_rows(problem) -> Matrix:
    """A ``SpanProblem``'s profile matrix as Fractions: the constant row 1, then u_1 ... u_n."""
    ones = [Fraction(1)] * len(problem.states)
    return [ones, *([Fraction(p, q) for p, q in zip(*c)] for c in problem.columns[:-1])]


def profile_target(problem) -> Vector:
    """A ``SpanProblem``'s ethical table v as Fractions, in state order."""
    return [Fraction(p, q) for p, q in zip(*problem.columns[-1])]
