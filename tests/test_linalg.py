"""The integer reduction kernel against the Fraction Gauss-Jordan oracle."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import primes
from gauss_jordan import rank, rref, solve
from utilcheck import express_in_span
from utilcheck.linalg import reduce_rows

F = Fraction
PRIMES = primes(400)


@st.composite
def matrices(draw):
    """0-40 rows by 0-8 columns: fresh, zero, duplicate and affinely dependent
    columns, negative values, denominators 1, 2, 3, 5, 7 or a distinct prime
    under every fresh value, and sometimes a repeated or zero row."""
    n_rows, n_cols = draw(st.integers(0, 40)), draw(st.integers(0, 8))
    numerators = st.lists(st.integers(-9, 9), min_size=n_rows, max_size=n_rows)
    per_value = iter(PRIMES[4:]) if draw(st.booleans()) else None  # primes above 9
    small = st.sampled_from([1, 2, 3, 5, 7])
    columns: list[list[Fraction]] = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "duplicate", "affine"]))
        if kind == "zero":
            columns.append([F(0)] * n_rows)
        elif kind == "duplicate" and columns:
            columns.append(list(draw(st.sampled_from(columns))))
        elif kind == "affine" and columns:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            ca, cb, c0 = (F(draw(st.integers(-4, 4)), draw(small)) for _ in range(3))
            columns.append([c0 + ca * x + cb * y for x, y in zip(a, b)])
        else:
            dens = [next(per_value) if per_value else draw(small) for _ in range(n_rows)]
            columns.append([F(a, d) for a, d in zip(draw(numerators), dens)])
    rows = [list(row) for row in zip(*columns)] if n_cols else [[] for _ in range(n_rows)]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * n_cols)
    return rows


def greedy_rows(rows) -> list[int]:
    """Indices of the rows independent of the rows before them, by one rank each."""
    chosen: list[list[Fraction]] = []
    out = []
    for i, row in enumerate(rows):
        if rank(chosen + [row]) > len(chosen):
            chosen.append(row)
            out.append(i)
    return out


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_equals_fraction_gauss_jordan(rows):
    red = reduce_rows(rows)
    oracle, pivots = rref(rows)
    assert red.pivots == pivots
    assert red.rows == oracle[: len(pivots)]
    assert sorted(red.origins) == greedy_rows(rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_express_in_span_equals_fraction_solve(rows):
    width = len(rows[0]) if rows else 0
    if width < 2:
        return
    fs = [[row[j] for row in rows] for j in range(width - 1)]
    f0 = [row[-1] for row in rows]
    # The oracle's solve reports an empty system as inconsistent; the zero
    # vector of a zero-dimensional space is in every span.
    sol = solve([row[:-1] for row in rows], f0) if rows else [F(0)] * len(fs)
    assert express_in_span(f0, fs) == (tuple(sol) if sol is not None else None)


def test_express_in_span_zero_dimensional():
    assert express_in_span([], [[], []]) == (F(0), F(0))


def test_kernel_reads_ints_and_keeps_its_input():
    rows = [[2, F(4)], [1, 2], (0, F(1, 3))]
    red = reduce_rows(rows)
    assert red.pivots == [0, 1] and red.rows == [[1, 0], [0, 1]] and red.origins == [0, 2]
    assert rows == [[2, F(4)], [1, 2], (0, F(1, 3))]
