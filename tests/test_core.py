"""Core types and society-level axioms."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
from conftest import letters_space, planted_society, rand_fraction
from utilcheck import (
    AltSystem,
    CheckResult,
    GridDim,
    Profile,
    SimpleLottery,
    Society,
    StateSpace,
    UtilityTable,
    check_pareto_criterion,
    check_semi_separable,
    expectation,
    harvey_recover,
    linear_combination,
    matches,
    parse_rational,
    pareto_dominates,
)
from utilcheck.societyfile import payload_to_society

F = Fraction

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=40)


# ---------------------------------------------------------------------------
# Spaces and tables


def test_explicit_space_rejects_duplicates():
    with pytest.raises(ValueError):
        StateSpace.explicit(["a", "a"])


def test_product_grid_states_and_coords():
    space = StateSpace.product_grid(
        [
            GridDim("x", F(0), F(1), F(1, 2)),
            GridDim("y", F(0), F(1), F(1)),
        ]
    )
    assert space.states == ("0,0", "0,1", "1/2,0", "1/2,1", "1,0", "1,1")
    assert space.coords("1/2,1") == (F(1, 2), F(1))


def test_grid_requires_power_of_two_step():
    with pytest.raises(ValueError):
        GridDim("x", F(0), F(1), F(1, 3))


def test_grid_dims_refuse_inexact_bounds_and_keep_their_messages():
    # A float bound once failed with AttributeError: 'float' object has no
    # attribute 'denominator'.
    with pytest.raises(TypeError, match=r"dimension 'x': hi: float 0\.1 is not an int or"):
        GridDim("x", 0, 0.1, 0.025)
    with pytest.raises(TypeError, match=r"dimension 'y': step: float 0\.5 is not an int"):
        GridDim("y", F(0), F(1), 0.5)
    for bounds, message in (
        ((F(1), F(1), F(1, 2)), "need hi > lo"),
        ((F(0), F(1), F(0)), "step must be positive"),
        ((F(0), F(1), F(-1, 2)), "step must be positive"),
        ((F(0), F(1), F(1, 3)), "(hi-lo)/step must be a power of two, got 3"),
        ((F(0), F(1), F(2, 5)), "(hi-lo)/step must be a power of two, got 5/2"),
    ):
        with pytest.raises(ValueError) as caught:
            GridDim("x", *bounds)
        assert str(caught.value) == f"dimension 'x': {message}"
    dim = GridDim("x", -1, 1, F(1, 2))
    assert (dim.lo, dim.hi, dim.size) == (F(-1), F(1), 5)
    assert type(dim.lo) is type(dim.hi) is Fraction
    assert dim.labels() == ["-1", "-1/2", "0", "1/2", "1"]
    assert dim == GridDim("x", F(-1), F(1), F(1, 2))


def test_table_must_cover_space():
    space = letters_space(3)
    table = UtilityTable({"s0": F(1), "s1": F(2)})
    assert not table.covers(space)
    exact = UtilityTable({s: F(1) for s in space.states})
    assert exact.covers(space)
    extra = UtilityTable({**exact.values, "zz": F(2)})
    assert not extra.covers(space)


def test_tables_hold_ints_as_fractions():
    table = UtilityTable({"a": 3, "b": F(1, 2), "c": -1})
    assert table.values == {"a": F(3), "b": F(1, 2), "c": F(-1)}
    assert all(type(v) is Fraction for v in table.values.values())
    assert table == UtilityTable({"a": F(3), "b": F(1, 2), "c": F(-1)})
    assert table.literals(["a", "b", "c"]) == ["3", "1/2", "-1"]
    space = StateSpace.product_grid([GridDim("x", F(0), F(1), F(1, 2))])
    doubled = UtilityTable.on_coords(space, lambda x: 2 * x if x else 0)
    assert doubled.values == {"0": F(0), "1/2": F(1), "1": F(2)}
    assert type(doubled["0"]) is Fraction


def test_tables_refuse_inexact_values():
    # A float kept in a table turned the arithmetic on it float: a grid
    # society with E = 0.1 * x + y failed Harvey's recovery and the pipeline.
    with pytest.raises(TypeError, match=r"state 'b': float 0\.1 is not an int or a Fraction"):
        UtilityTable({"a": F(0), "b": 0.1})
    with pytest.raises(TypeError, match=r"state 'a': str '1/2' is not an int or a Fraction"):
        UtilityTable({"a": "1/2"})
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1, 2)), GridDim("y", F(0), F(1), F(1))]
    )
    with pytest.raises(TypeError, match=r"state '0,0': float 0\.0 is not"):
        UtilityTable.on_coords(space, lambda x, y: 0.1 * x + y)
    exact = UtilityTable.on_coords(space, lambda x, y: F(1, 10) * x + y)
    u1 = UtilityTable.on_coords(space, lambda x, y: x)
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    assert harvey_recover(Society.from_tables(space, {"a1": u1, "a2": u2}, exact)).success


def test_table_arithmetic_refuses_inexact_scalars():
    # Wrapped in Fraction(), the float 0.1 became 3602879701896397/36028797018963968.
    u = UtilityTable({"a": F(0), "b": F(1)})
    with pytest.raises(TypeError, match=r"alpha: float 0\.1 is not an int or a Fraction"):
        u.affine(0.1, 0)
    with pytest.raises(TypeError, match=r"beta: float 2\.0 is not an int or a Fraction"):
        u.affine(1, 2.0)
    with pytest.raises(TypeError, match=r"weight 1: float 0\.1 is not an int or a Fraction"):
        linear_combination([u, u], [F(1, 2), 0.1])
    with pytest.raises(TypeError, match=r"constant: float 0\.5 is not an int or a Fraction"):
        linear_combination([u], [1], 0.5)
    with pytest.raises(TypeError, match=r"weight 0: str '1/10' is not an int or a Fraction"):
        linear_combination([u], ["1/10"])
    assert u.affine(F(1, 10), 3) == UtilityTable({"a": F(3), "b": F(31, 10)})
    assert linear_combination([u, u], [F(1, 10), 2], -1) == UtilityTable({"a": F(-1), "b": F(11, 10)})


def test_society_rejects_a_table_with_a_state_outside_the_space():
    # Left in, the extra state makes a table constant on the space read as
    # nonconstant, and reaches the weight recoveries from the ethical table.
    space = letters_space(4)
    u1 = UtilityTable({s: F(i) for i, s in enumerate(space.states)})
    u2 = UtilityTable({s: F(7) for s in space.states})
    v = linear_combination([u1, u2], [1, 1])

    def widened(table):
        return UtilityTable({**table.values, "zz": F(0)})

    for agents, ethical in (({"a1": u1, "a2": widened(u2)}, v), ({"a1": u1, "a2": u2}, widened(v))):
        with pytest.raises(ValueError, match="does not cover exactly the space"):
            Society.from_tables(space, agents, ethical)


# ---------------------------------------------------------------------------
# Lotteries and expectation


def test_lottery_validation():
    with pytest.raises(ValueError):
        SimpleLottery.from_mapping({"a": F(1, 2)})  # does not sum to 1
    with pytest.raises(ValueError):
        SimpleLottery.from_mapping({"a": F(3, 2), "b": F(-1, 2)})


def test_lottery_sum_is_exact_over_large_coprime_denominators():
    # The sum is decided in ints over the LCM of the denominators, here the
    # product of pairwise coprime ints near 2**61; a total off by one part
    # in such a product is rejected with the reduced Fraction in the message.
    p1, p2, p3 = 2**61 - 1, 2**61 + 15, 2**61 + 21  # pairwise coprime
    a, b = F(1, p1), F(1, p2)
    rest = 1 - a - b
    assert rest.denominator == p1 * p2
    lottery = SimpleLottery.from_mapping({"a": a, "b": b, "c": rest})
    assert lottery.as_dict() == {"a": a, "b": b, "c": rest}
    off = rest + F(1, p3)
    with pytest.raises(ValueError, match=f"probabilities sum to {1 + F(1, p3)}, not 1"):
        SimpleLottery.from_mapping({"a": a, "b": b, "c": off})


def test_lottery_bad_sum_message():
    with pytest.raises(ValueError) as raised:
        SimpleLottery.from_mapping({"a": F(1, 3), "b": F(1, 3)})
    assert str(raised.value) == "probabilities sum to 2/3, not 1"
    with pytest.raises(ValueError) as raised:
        SimpleLottery((("a", 1), ("b", F(1, 2)), ("c", F(0))))  # ints are wrapped
    assert str(raised.value) == "probabilities sum to 3/2, not 1"


def test_lottery_keeps_fraction_entries_and_drops_zeros():
    half = F(1, 2)
    lottery = SimpleLottery((("b", half), ("z", F(0)), ("a", half)))
    assert lottery.probs == (("a", half), ("b", half))
    assert all(p is half for _, p in lottery.probs)
    assert SimpleLottery((("a", 1),)).probs == (("a", F(1)),)


def test_lotteries_refuse_inexact_probabilities():
    # Wrapped in Fraction(), 0.1 + 0.9 summed to 36028797018963969/36028797018963968,
    # and the error named neither the float nor its state.
    with pytest.raises(TypeError, match=r"state 'a': float 0\.1 is not an int or a Fraction"):
        SimpleLottery.from_mapping({"a": 0.1, "b": 0.9})
    with pytest.raises(TypeError, match=r"state 'b': float 0\.5 is not an int or a Fraction"):
        SimpleLottery((("a", F(1, 2)), ("b", 0.5)))
    with pytest.raises(TypeError, match=r"state 'a': str '1' is not an int or a Fraction"):
        SimpleLottery((("a", "1"),))
    assert SimpleLottery.from_mapping({"a": 0, "b": 1}).probs == (("b", F(1)),)


def test_tables_are_immutable_in_every_view():
    # A table holds its numerators and denominators and builds its
    # Fractions when read; no view can be reassigned or fall out of step.
    built = UtilityTable({"x": F(-1, 2), "y": F(3)})
    parsed = UtilityTable.from_ratios(("x", "y"), (-1, 3), (2, 1))
    assert built == parsed
    assert parsed["x"] == F(-1, 2) and "values" not in vars(parsed)
    for table in (built, parsed):
        for view in ("values", "ratios", "scale"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(table, view, {"x": F(0), "y": F(0)})
            with pytest.raises(AttributeError, match="immutable"):
                delattr(table, view)
        assert table.values == {"x": F(-1, 2), "y": F(3)}
        assert (table.scale, table.column()) == (2, [-1, 6])


@settings(max_examples=200, deadline=None)
@given(st.lists(fractions_st, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_every_construction_holds_one_state_ordered_column(values, rng):
    # From Fractions, from ints where a value is whole, from ratios, and by
    # parsing a file whose table lists the states shuffled.
    states = tuple(f"s{i}" for i in range(len(values)))
    shuffled = list(zip(states, map(str, values)))
    rng.shuffle(shuffled)
    payload = {
        "space": {"kind": "explicit", "states": list(states)},
        "agents": [{"name": a, "utility": dict(shuffled)} for a in ("a", "b")],
        "ethical": dict(shuffled),
    }
    parsed = payload_to_society(payload)
    tables = [
        UtilityTable(dict(zip(states, values))),
        UtilityTable({s: v.numerator if v.denominator == 1 else v for s, v in zip(states, values)}),
        UtilityTable.from_ratios(
            states, [v.numerator for v in values], [v.denominator for v in values]
        ),
        parsed.base.tables["a"],
    ]
    assert parsed.base.tables["a"].states() is parsed.space.states
    scale = math.lcm(*(v.denominator for v in values))
    order = [s for s, _ in shuffled]
    for table in tables:
        assert table == tables[0]
        assert table.states() == states
        assert table.column() is table.column(states) == [int(v * scale) for v in values]
        assert table.column(order) == [int(F(text) * scale) for _, text in shuffled]
        assert list(table.values.items()) == list(zip(states, values))
        assert table.scale == scale
        assert table.literals(order) == [text for _, text in shuffled]
        assert table.literals(states) == list(map(str, values))


def test_expectation_dirac():
    u = UtilityTable({"x": F(7, 3), "y": F(0)})
    assert expectation(SimpleLottery((("x", F(1)),)), u) == F(7, 3)


def test_expectation_simple():
    u = UtilityTable({"a": F(4), "b": F(0)})
    p = SimpleLottery.from_mapping({"a": F(1, 4), "b": F(3, 4)})
    assert expectation(p, u) == 1


def test_expectation_matches_bruteforce_sum():
    rng = random.Random(7)
    states = [f"s{i}" for i in range(5)]
    u = UtilityTable({s: rand_fraction(rng) for s in states})
    weights = [F(1, 10), F(2, 10), F(3, 10), F(1, 10), F(3, 10)]
    p = SimpleLottery.from_mapping(dict(zip(states, weights)))
    oracle = sum((w * u[s] for s, w in zip(states, weights)), F(0))
    assert expectation(p, u) == oracle


def test_expectation_missing_state():
    u = UtilityTable({"a": F(1)})
    with pytest.raises(KeyError):
        expectation(SimpleLottery((("b", F(1)),)), u)


# ---------------------------------------------------------------------------
# Dominance


def _two_agent_society(u1_vals, u2_vals, v_vals):
    space = letters_space(len(u1_vals))
    tables = {
        "a1": UtilityTable(dict(zip(space.states, map(F, u1_vals)))),
        "a2": UtilityTable(dict(zip(space.states, map(F, u2_vals)))),
    }
    ethical = UtilityTable(dict(zip(space.states, map(F, v_vals))))
    return Society.from_tables(space, tables, ethical)


def test_pareto_dominates_basic():
    soc = _two_agent_society([1, 0], [1, 1], [0, 0])
    assert pareto_dominates(soc, "s0", "s1")
    assert not pareto_dominates(soc, "s1", "s0")
    assert not pareto_dominates(soc, "s0", "s0")


def test_pareto_dominates_disagreement():
    soc = _two_agent_society([1, 0], [0, 1], [0, 0])
    assert not pareto_dominates(soc, "s0", "s1")
    assert not pareto_dominates(soc, "s1", "s0")


def test_pareto_dominates_unknown_state():
    soc = _two_agent_society([1, 0], [0, 1], [0, 0])
    with pytest.raises(KeyError):
        pareto_dominates(soc, "s0", "zz")


def test_pareto_irreflexive_asymmetric():
    rng = random.Random(3)
    for _ in range(20):
        soc, _, _ = planted_society(rng, 2, 4)
        for x in soc.space.states:
            assert not pareto_dominates(soc, x, x)
            for y in soc.space.states:
                if pareto_dominates(soc, x, y):
                    assert not pareto_dominates(soc, y, x)


def test_pareto_criterion_sum_passes():
    soc = _two_agent_society([1, 0, 2], [3, 1, 1], [4, 1, 3])  # v = u1 + u2
    assert check_pareto_criterion(soc).passed


def test_pareto_criterion_constant_agents_vacuous():
    soc = _two_agent_society([1, 1, 1], [2, 2, 2], [9, 0, 5])
    assert check_pareto_criterion(soc).passed


def pareto_pair_scan(soc):
    """The former double loop through ``pareto_dominates``, kept as the oracle:
    the first (x, y) in state order where x dominates y but is not ethically
    better, or None."""
    v = soc.base.ethical
    for x in soc.space.states:
        for y in soc.space.states:
            if pareto_dominates(soc, x, y) and not v[x] > v[y]:
                return (x, y)
    return None


def pareto_loop(soc) -> CheckResult:
    """The former ``check_pareto_criterion``, kept as the oracle for the bitset pass.

    For each x in state order, ``first_dominated`` scans the scaled tables
    for y; O(|X|^2 n), and it stops at the first witness.
    """
    states = soc.space.states
    vectors = list(zip(*(soc.base.tables[a].column(states) for a in soc.agents)))
    ethical = soc.base.ethical.column(states)
    for x, cx, vx in zip(states, vectors, ethical):
        y = first_dominated(states, vectors, ethical, cx, vx)
        if y is not None:
            return CheckResult(False, (x, y))
    return CheckResult(True)


def first_dominated(states, vectors, ethical, cx, vx):
    """The first y in state order that cx dominates and whose ethical value is >= vx, or None.

    cx dominates cy when they differ and cx is at least cy in every coordinate.
    """
    for y, cy, vy in zip(states, vectors, ethical):
        if vx <= vy and cx != cy and all(map(ge, cx, cy)):
            return y
    return None


def test_pareto_criterion_witness_matches_bruteforce():
    # u1 constant, u2 rising, v = u1 - u2 must fail where u2 strictly rises.
    soc = _two_agent_society([5, 5, 5], [0, 1, 2], [5, 4, 3])
    result = check_pareto_criterion(soc)
    assert not result.passed
    assert result.witness == pareto_pair_scan(soc) == ("s1", "s0")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 2), min_size=m, max_size=m), min_size=3, max_size=5
        )
    )
)
def test_pareto_criterion_equals_pair_scan(rows):
    # rows[0] is the ethical table, the rest are 2-4 agents; ties abound.
    space = letters_space(len(rows[0]))
    tables = {
        f"a{i}": UtilityTable(dict(zip(space.states, map(F, row))))
        for i, row in enumerate(rows[1:])
    }
    ethical = UtilityTable(dict(zip(space.states, map(F, rows[0]))))
    soc = Society.from_tables(space, tables, ethical)
    result = check_pareto_criterion(soc)
    expected = pareto_pair_scan(soc)
    assert result.passed == (expected is None)
    assert result.witness == expected


@st.composite
def dominance_societies(draw):
    """Societies aimed at the bitset pass's masks, in a drawn state order.

    2-4 agents, each perhaps constant.  The vectors come from a product of
    the agents' levels with states dropped, or from a small pool drawn with
    repeats, often equal in the first agent's value; a few draws hold
    30-60 states.  The ethical table is drawn state by state, so a repeated
    vector may carry different values, or is a weighted sum (weights of
    every sign) with a bumped state.
    """
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        level = st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)
        levels = [draw(level) for _ in range(n)]
        points = list(itertools.product(*levels))
        kept = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
        vectors = [p for p, keep in zip(points, kept) if keep] or points[:1]
        vectors += draw(st.lists(st.sampled_from(vectors), max_size=3))
    else:
        large = draw(st.integers(0, 4)) == 0
        size = draw(st.integers(30, 60) if large else st.integers(1, 12))
        firsts = st.integers(0, draw(st.sampled_from([0, 1, 3])))
        vector = st.tuples(firsts, *(st.integers(0, 3) for _ in range(n - 1)))
        pool = draw(st.lists(vector, min_size=1, max_size=max(1, size // 2)))
        vectors = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        vectors = [v[:i] + (0,) + v[i + 1 :] for v in vectors]
    if draw(st.booleans()):
        ethical = draw(st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors)))
    else:
        weights = [draw(st.sampled_from([-1, 0, 1, 2])) for _ in range(n)]
        ethical = [sum(w * u for w, u in zip(weights, v)) for v in vectors]
        ethical[draw(st.integers(0, len(vectors) - 1))] += draw(st.sampled_from([-1, 0, 1]))
    order = draw(st.permutations(range(len(vectors))))
    space = letters_space(len(vectors))
    tables = {
        f"a{i}": UtilityTable({s: F(vectors[k][i], 3) for s, k in zip(space.states, order)})
        for i in range(n)
    }
    values = UtilityTable({s: F(ethical[k], 2) for s, k in zip(space.states, order)})
    return Society.from_tables(space, tables, values)


@settings(max_examples=200, deadline=None)
@given(dominance_societies())
def test_pareto_pass_equals_pair_scan_on_ties_repeats_and_dropped_states(soc):
    result = check_pareto_criterion(soc)
    expected = pareto_pair_scan(soc)
    assert result.passed == (expected is None)
    assert result.witness == expected


def test_pareto_criterion_planted_positive_weights():
    rng = random.Random(11)
    for _ in range(10):
        soc, _, _ = planted_society(rng, 3, 5)
        assert check_pareto_criterion(soc).passed


# ---------------------------------------------------------------------------
# Semi-separability


def test_semi_separable_product_society():
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1, 2)), GridDim("y", F(0), F(1), F(1))]
    )
    u1 = UtilityTable.on_coords(space, lambda x, y: x * 2)
    u2 = UtilityTable.on_coords(space, lambda x, y: y + 1)
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, linear_combination([u1, u2], [1, 1]))
    assert check_semi_separable(soc).passed


def test_semi_separable_production_economy_shape():
    # Consumers own a coordinate each; an extra production coordinate affects
    # nobody's order.  Not separable as a product of per-agent factors, but
    # every profile can be matched coordinate-wise, verified here against the
    # brute-force definition.
    space = StateSpace.product_grid(
        [
            GridDim("x1", F(0), F(1), F(1)),
            GridDim("x2", F(0), F(1), F(1)),
            GridDim("y", F(0), F(1), F(1)),
        ]
    )
    u1 = UtilityTable.on_coords(space, lambda x1, x2, y: 3 * x1)
    u2 = UtilityTable.on_coords(space, lambda x1, x2, y: 5 * x2)
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, linear_combination([u1, u2], [1, 1]))
    result = check_semi_separable(soc)
    assert result.passed

    tables = (u1, u2)
    for profile in itertools.product(space.states, repeat=2):
        assert any(all(t[x] == t[xi] for t, xi in zip(tables, profile)) for x in space.states)


def test_semi_separable_failure_witness_is_first():
    # Both agents keyed to the same coordinate: mixed profiles cannot be matched.
    space = letters_space(3)
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2)})
    u2 = UtilityTable({"s0": F(0), "s1": F(2), "s2": F(4)})
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, u1)
    result = check_semi_separable(soc)
    assert not result.passed
    assert result.witness == ("s0", "s1")  # first profile in state order that fails


def test_semi_separable_matches_bruteforce_random():
    rng = random.Random(23)
    for _ in range(15):
        soc, _, _ = planted_society(rng, 2, 4)
        got = check_semi_separable(soc)
        tables = [soc.base.tables[a] for a in soc.agents]
        expected = all(
            any(all(t[x] == t[xi] for t, xi in zip(tables, profile)) for x in soc.space.states)
            for profile in itertools.product(soc.space.states, repeat=2)
        )
        assert got.passed == expected


def first_unmatched_profile(soc):
    """Brute-force oracle: the first profile in state order whose class
    combination no state realizes, or None.  |X|**n profiles."""
    tables = [soc.base.tables[a] for a in soc.agents]
    realized = {tuple(t[s] for t in tables) for s in soc.space.states}
    for profile in itertools.product(soc.space.states, repeat=len(soc.agents)):
        if tuple(t[s] for t, s in zip(tables, profile)) not in realized:
            return profile
    return None


@st.composite
def small_societies(draw):
    """2-4 agents on a product of per-agent value axes (ties allowed), some
    states removed and the rest shuffled; agents may also read several
    coordinates, so both verdicts occur."""
    n = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 3 if n < 4 else 2)) for _ in range(n)]
    points = list(itertools.product(*(range(k) for k in sizes)))
    keep = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    points = [p for p, k in zip(points, keep) if k] or points[:1]
    points = draw(st.permutations(points))
    states = [",".join(map(str, p)) for p in points]
    tables = {}
    for i in range(n):
        values = draw(st.lists(st.integers(0, 2), min_size=sizes[i], max_size=sizes[i]))
        mixed = draw(st.booleans())
        tables[f"a{i}"] = UtilityTable(
            {s: F(values[p[i]] + (p[(i + 1) % n] if mixed else 0)) for s, p in zip(states, points)}
        )
    space = StateSpace.explicit(states)
    return Society.from_tables(space, tables, tables["a0"])


@settings(max_examples=150, deadline=None)
@given(small_societies())
def test_semi_separable_witness_equals_profile_scan(soc):
    result = check_semi_separable(soc)
    expected = first_unmatched_profile(soc)
    assert result.passed == (expected is None)
    assert result.witness == expected
    # Read from another profile of a society with constant base tables, the
    # same tables give the same verdict and witness.
    flat = UtilityTable({s: F(0) for s in soc.space.states})
    wrapped = Society(
        space=soc.space,
        agents=soc.agents,
        base=Profile({a: flat for a in soc.agents}, flat),
        alt=soc.base,
    )
    assert check_semi_separable(wrapped, wrapped.alt) == result


def test_semi_separable_large_society_has_no_cap():
    # |X|**(n+1) = 81**5 is far beyond any profile scan; class counting decides.
    space = StateSpace.product_grid([GridDim(f"x{i}", F(0), F(1), F(1, 2)) for i in range(4)])
    tables = {
        f"a{i}": UtilityTable.on_coords(space, lambda *xs, i=i: xs[i]) for i in range(4)
    }
    soc = Society.from_tables(space, tables, linear_combination(list(tables.values()), [1] * 4))
    assert check_semi_separable(soc).passed
    holed = Society.from_tables(
        StateSpace.explicit(space.states[:-1]),
        {a: UtilityTable({s: t[s] for s in space.states[:-1]}) for a, t in tables.items()},
        UtilityTable({s: F(0) for s in space.states[:-1]}),
    )
    result = check_semi_separable(holed)
    assert result.witness == ("1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1")


# ---------------------------------------------------------------------------
# Matching


def test_matches_same_generator():
    u = UtilityTable({"a": F(0), "b": F(2), "c": F(5)})
    assert matches(u, u, ("a", "b", "c"))


def test_matches_negated_generator():
    u = UtilityTable({"a": F(0), "b": F(2), "c": F(5)})
    assert not matches(u, u.affine(F(-1), F(0)), ("a", "b", "c"))


def test_matches_affine_generator_bruteforce():
    # An order matches the intensity system of a table when x >= y exactly
    # when [x,y] >= [y,y] in the system.
    u = UtilityTable({"a": F(0), "b": F(2), "c": F(5), "d": F(-1)})
    scaled = u.affine(F(3), F(7))
    system = AltSystem.from_utility(scaled)
    assert matches(u, scaled, tuple(u.states()))
    for x in u.states():
        for y in u.states():
            assert (u[x] >= u[y]) == system.geq((x, y), (y, y))


#: Few distinct values, so ties are common in both tables.
tied_values = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=9)


@settings(max_examples=300, deadline=None)
@given(tied_values, st.sampled_from(["drawn", "constant", "equal"]))
def test_matches_equals_fraction_oracle(values, kind):
    states = [f"s{i}" for i in range(len(values))]
    t1 = UtilityTable({s: F(a) for s, (a, _) in zip(states, values)})
    if kind == "drawn":
        t2 = UtilityTable({s: F(b, 3) for s, (_, b) in zip(states, values)})
    elif kind == "constant":
        t2 = UtilityTable({s: F(values[0][1]) for s in states})
    else:
        t2 = UtilityTable(dict(t1.values))
    expected = oracle.same_weak_order(t1, t2, states)
    assert matches(t1, t2, states) == matches(t2, t1, states) == expected
    # A system ranked pair by pair, with no table, agrees with the tables' verdict.
    system = AltSystem.from_pair_ranking(states, lambda x, y: t2[x] - t2[y])
    assert expected == all((t1[x] >= t1[y]) == system.geq((x, y), (y, y)) for x in states for y in states)
    assert matches(t1, t1, states)


# ---------------------------------------------------------------------------
# Rational wire format


@pytest.mark.parametrize(
    "text", ["1/2\n", "\u0661/\u0662", "+3", "06/08", "2/4", "3/1", "-0"]
)
def test_parse_rational_rejects_non_canonical(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["0", "7", "-7", "1/2", "-3/4", "123456789/1000"])
def test_parse_rational_accepts_canonical_and_round_trips(text):
    assert str(parse_rational(text)) == text


# ---------------------------------------------------------------------------
# Determinism


def test_checks_are_deterministic():
    soc = _two_agent_society([5, 5, 5], [0, 1, 2], [5, 4, 3])
    first = check_pareto_criterion(soc)
    second = check_pareto_criterion(soc)
    assert first == second
