"""The integer reduction kernel against the Fraction Gauss-Jordan oracle, and its int-row contract."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import express_in_span, planted_society, primes
from gauss_jordan import greedy_pivots, rref, solve
from utilcheck import (
    Society,
    StateSpace,
    UtilityTable,
    check_axiom_i,
    cli,
    linalg,
    simplex_counterexample,
    witness_lotteries_for_sign,
)
from utilcheck.linalg import reduce_rows
from utilcheck.rationals import scale_to_ints

F = Fraction
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
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


@st.composite
def span_problems(draw):
    """The matrix of ``SpanProblem``: rows [1 | u_1 ... u_n | v] for up to 100
    states, some agents affine in an earlier one, v a combination of 1 and
    the u_i, and sometimes one state's v bumped off that combination."""
    n_rows, n_agents = draw(st.integers(0, 100)), draw(st.integers(1, 4))
    value = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7]))
    agents: list[list[Fraction]] = []
    for _ in range(n_agents):
        if agents and draw(st.booleans()):
            u, a, b = draw(st.sampled_from(agents)), draw(value), draw(value)
            agents.append([a + b * x for x in u])
        else:
            agents.append(draw(st.lists(value, min_size=n_rows, max_size=n_rows)))
    c, *weights = draw(st.lists(value, min_size=n_agents + 1, max_size=n_agents + 1))
    v = [c + sum(w * u[s] for w, u in zip(weights, agents)) for s in range(n_rows)]
    if n_rows and draw(st.booleans()):
        v[draw(st.integers(0, n_rows - 1))] += draw(value.filter(bool))
    return [[F(1), *(u[s] for u in agents), v[s]] for s in range(n_rows)]


@st.composite
def long_tails(draw):
    """150-300 rows whose basis fills within the first few, late pivots
    apart, so that most rows reach the kernel's column pass over its in-span
    tail: columns 1, one to three fresh ones and affine images of them, then
    one equal to an earlier column except at one late row (a late pivot in a
    free column that is not the last), then v, a combination of all of them
    that may be bumped at the last row only.  A zero row and a repeated row
    may go in before the basis is full."""
    n_rows = draw(st.integers(150, 300))
    value = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7]))
    nonzero = value.filter(bool)
    columns = [[F(1)] * n_rows]
    n_fresh = draw(st.integers(1, 3))
    for _ in range(n_fresh):
        columns.append(draw(st.lists(value, min_size=n_rows, max_size=n_rows)))
    for _ in range(draw(st.integers(0, 2))):
        u, a, b = draw(st.sampled_from(columns)), draw(value), draw(value)
        columns.append([a + b * x for x in u])
    late = list(draw(st.sampled_from(columns)))
    late[draw(st.integers(n_rows // 2, n_rows - 2))] += draw(nonzero)
    columns.append(late)
    weights = draw(st.lists(value, min_size=len(columns), max_size=len(columns)))
    v = [sum(w * x for w, x in zip(weights, row)) for row in zip(*columns)]
    if draw(st.booleans()):
        v[-1] += draw(nonzero)
    columns.append(v)
    rows = [list(row) for row in zip(*columns)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, n_fresh)), [F(0)] * len(columns))
    if draw(st.booleans()):
        at = draw(st.integers(1, n_fresh))
        rows.insert(at, list(draw(st.sampled_from(rows[:at]))))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), span_problems(), long_tails()), st.booleans())
def test_kernel_equals_fraction_gauss_jordan(rows, as_zip):
    # The kernel reads each row scaled by its own LCM; the oracle reads the
    # Fractions.  ``SpanProblem.reduction`` hands the kernel a zip of columns.
    scaled = [scale_to_ints(row)[1] for row in rows]
    red = reduce_rows(zip(*zip(*scaled)) if as_zip and scaled and scaled[0] else scaled)
    oracle, pivots = rref(rows)
    assert red.pivots == pivots
    assert red.rows == oracle[: len(pivots)]
    assert dict(zip(red.origins, red.pivots)) == greedy_pivots(rows)


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
    rows = [[2, 4], [1, 2], (0, 1)]
    red = reduce_rows(rows)
    assert red.pivots == [0, 1] and red.rows == [[1, 0], [0, 1]] and red.origins == [0, 2]
    assert rows == [[2, 4], [1, 2], (0, 1)]


@pytest.fixture
def kernel_inputs(monkeypatch):
    """Every matrix handed to ``linalg.reduce_rows`` while the test runs, as read."""
    seen = []
    real = linalg.reduce_rows

    def recording(rows):
        rows = [tuple(row) for row in rows]
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "reduce_rows", recording)
    return seen


def _non_ints(matrices) -> list:
    return [a for rows in matrices for row in rows for a in row if type(a) is not int]


COMMANDS = (["validate"], ["recover", "--mode", "harsanyi"], ["recover", "--mode", "harvey"], ["coincide"])


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_every_command_hands_the_kernel_int_rows(kernel_inputs, capsys, fixture):
    for name, *flags in COMMANDS:
        assert cli.main([name, str(fixture), *flags, "--json"]) in (0, 1)
    capsys.readouterr()
    assert kernel_inputs
    assert _non_ints(kernel_inputs) == []


def test_witness_paths_hand_the_kernel_int_rows(kernel_inputs):
    # A failed axiom (i) reduces [1 | u | v], then solves for its null
    # vector; each sign witness reduces [1 | u | v] and inverts a regular
    # square submatrix; the simplex fixture's battery reduces each of its
    # two profiles once: the base side for the Pareto record's and axiom
    # (I)'s certificate, since no state of the budget line has a
    # single-agent neighbour, and the lottery side for axiom (i).  The same
    # two reductions show both profiles independent.
    space = StateSpace.explicit(["a", "b", "c", "d"])

    def table(*values):
        return UtilityTable(dict(zip(space.states, values)))

    halves, thirds = table(F(0), F(1, 2), F(0), F(1, 2)), table(F(0), F(0), F(1, 3), F(1, 3))
    product = Society.from_tables(space, {"x": halves, "y": thirds}, table(0, 0, 0, F(1, 7)))
    assert not check_axiom_i(product).passed
    assert len(kernel_inputs) == 2
    soc, _, _ = planted_society(random.Random(43), 2, 5)
    for agent in soc.agents:
        witness_lotteries_for_sign(soc, agent)
    assert len(kernel_inputs) == 6
    simplex_counterexample(F(1, 4))
    assert len(kernel_inputs) == 8
    assert _non_ints(kernel_inputs) == []
