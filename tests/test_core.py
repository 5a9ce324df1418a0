"""Core types and society-level axioms."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import letters_space, planted_society, rand_fraction
from utilcheck import (
    AltSystem,
    GridDim,
    Profile,
    SimpleLottery,
    Society,
    StateSpace,
    UtilityTable,
    WeakOrder,
    check_pareto_criterion,
    check_probabilistic_extension,
    check_semi_separable,
    dirac,
    expectation,
    linear_combination,
    matches,
    mix,
    parse_rational,
    pareto_dominates,
    same_weak_order,
)

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


def test_table_must_cover_space():
    space = letters_space(3)
    table = UtilityTable({"s0": F(1), "s1": F(2)})
    assert not table.covers(space)


# ---------------------------------------------------------------------------
# Lotteries: mix and expectation


def test_mix_at_zero_is_identity():
    p = SimpleLottery.from_mapping({"a": F(1, 4), "b": F(3, 4)})
    q = dirac("c")
    assert mix(p, q, F(0)) == p
    assert mix(p, q, F(1)) == q


def test_mix_of_diracs_half():
    out = mix(dirac("a"), dirac("b"), F(1, 2))
    assert out.as_dict() == {"a": F(1, 2), "b": F(1, 2)}


def test_mix_three_support_at_three_eighths():
    # Oracle: each coordinate expanded by hand as (5/8) * p + (3/8) * q.
    p = SimpleLottery.from_mapping({"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)})
    q = SimpleLottery.from_mapping({"b": F(1, 4), "c": F(1, 4), "d": F(1, 2)})
    out = mix(p, q, F(3, 8))
    assert out.as_dict() == {
        "a": F(5, 16),  # 5/8 * 1/2
        "b": F(29, 96),  # 5/8 * 1/3 + 3/8 * 1/4 = 20/96 + 9/96
        "c": F(19, 96),  # 5/8 * 1/6 + 3/8 * 1/4 = 10/96 + 9/96
        "d": F(3, 16),  # 3/8 * 1/2
    }


def test_mix_prunes_zero_entries():
    p = dirac("a")
    q = SimpleLottery.from_mapping({"a": F(1, 2), "b": F(1, 2)})
    out = mix(p, q, F(1))  # equals q; no stray zero entries
    assert out.support == ("a", "b")
    out2 = mix(dirac("a"), dirac("b"), F(1))
    assert out2.support == ("b",)


def test_mix_rejects_weight_outside_unit_interval():
    with pytest.raises(ValueError):
        mix(dirac("a"), dirac("b"), F(3, 2))
    with pytest.raises(ValueError):
        mix(dirac("a"), dirac("b"), F(-1, 8))


def test_lottery_validation():
    with pytest.raises(ValueError):
        SimpleLottery.from_mapping({"a": F(1, 2)})  # does not sum to 1
    with pytest.raises(ValueError):
        SimpleLottery.from_mapping({"a": F(3, 2), "b": F(-1, 2)})


def test_expectation_dirac():
    u = UtilityTable({"x": F(7, 3), "y": F(0)})
    assert expectation(dirac("x"), u) == F(7, 3)


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
        expectation(dirac("b"), u)


@given(
    st.lists(fractions_st, min_size=3, max_size=3),
    st.lists(fractions_st, min_size=3, max_size=3),
    st.integers(min_value=0, max_value=16),
)
def test_mix_expectation_linearity(uvals, pvals, k):
    # expectation(mix(P,Q,t), u) = (1-t) E_P[u] + t E_Q[u], exactly.
    t = F(k, 16)
    states = ["a", "b", "c"]
    u = UtilityTable(dict(zip(states, uvals)))
    p = SimpleLottery.from_mapping({"a": F(1, 2), "b": F(1, 2)})
    q = SimpleLottery.from_mapping(dict(zip(states, pvals_to_probs(pvals))))
    left = expectation(mix(p, q, t), u)
    right = (1 - t) * expectation(p, u) + t * expectation(q, u)
    assert left == right


def pvals_to_probs(vals):
    """Turn arbitrary fractions into a strictly positive probability vector."""
    shifted = [v - min(vals) + 1 for v in vals]
    total = sum(shifted)
    return [v / total for v in shifted]


# ---------------------------------------------------------------------------
# Weak orders


def test_weak_order_from_pairs_validates():
    items = ("a", "b")
    with pytest.raises(ValueError):  # incomplete
        WeakOrder.from_pairs(items, {("a", "a"), ("b", "b")})
    items3 = ("a", "b", "c")
    cyclic = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("c", "a")}
    with pytest.raises(ValueError):  # a >= b >= c but c >= a breaks transitivity
        WeakOrder.from_pairs(items3, cyclic)


def test_weak_order_strict_and_indiff():
    u = UtilityTable({"a": F(2), "b": F(2), "c": F(0)})
    order = WeakOrder.from_utility(u)
    assert order.indiff("a", "b")
    assert order.strict("a", "c")
    assert not order.strict("a", "b")


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

    orders = soc.orders()
    for profile in itertools.product(space.states, repeat=2):
        assert any(
            all(order.indiff(x, xi) for order, xi in zip(orders, profile))
            for x in space.states
        )


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
        orders = soc.orders()
        expected = all(
            any(
                all(order.indiff(x, xi) for order, xi in zip(orders, profile))
                for x in soc.space.states
            )
            for profile in itertools.product(soc.space.states, repeat=2)
        )
        assert got.passed == expected


def first_unmatched_profile(soc):
    """Brute-force oracle: the first profile in state order whose class
    combination no state realizes, or None.  |X|**n profiles."""
    class_ids = [o.indifference_class_ids() for o in soc.orders()]
    realized = {tuple(ids[s] for ids in class_ids) for s in soc.space.states}
    for profile in itertools.product(soc.space.states, repeat=soc.n):
        if tuple(ids[s] for ids, s in zip(class_ids, profile)) not in realized:
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
# Probabilistic extension and matching


def _lottery_order_from(u, lotteries):
    values = {lot: expectation(lot, u) for lot in lotteries}
    return WeakOrder.from_values(tuple(lotteries), values)


def test_probabilistic_extension_consistent():
    space = letters_space(3)
    u = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(5)})
    lots = [dirac(s) for s in space.states]
    lots.append(mix(dirac("s0"), dirac("s2"), F(1, 2)))
    ext = _lottery_order_from(u, lots)
    base = WeakOrder.from_utility(u)
    assert check_probabilistic_extension(ext, base)


def test_probabilistic_extension_reversed_pair():
    space = letters_space(2)
    u = UtilityTable({"s0": F(0), "s1": F(1)})
    w = UtilityTable({"s0": F(1), "s1": F(0)})
    lots = [dirac(s) for s in space.states]
    ext = _lottery_order_from(u, lots)
    base = WeakOrder.from_utility(w)
    assert not check_probabilistic_extension(ext, base)


def test_probabilistic_extension_missing_dirac():
    u = UtilityTable({"s0": F(0), "s1": F(1)})
    ext = _lottery_order_from(u, [dirac("s0")])
    base = WeakOrder.from_utility(u)
    with pytest.raises(KeyError):
        check_probabilistic_extension(ext, base)


def test_probabilistic_extension_random_agrees_with_bruteforce():
    rng = random.Random(5)
    for _ in range(10):
        states = [f"s{i}" for i in range(4)]
        u = UtilityTable({s: rand_fraction(rng) for s in states})
        w = UtilityTable({s: rand_fraction(rng) for s in states})
        lots = [dirac(s) for s in states]
        ext = _lottery_order_from(u, lots)
        base = WeakOrder.from_utility(w)
        oracle = all(
            (w[x] >= w[y]) == (u[x] >= u[y]) for x in states for y in states
        )
        assert check_probabilistic_extension(ext, base) == oracle


def test_matches_same_generator():
    u = UtilityTable({"a": F(0), "b": F(2), "c": F(5)})
    assert matches(WeakOrder.from_utility(u), AltSystem.from_utility(u))


def test_matches_negated_generator():
    u = UtilityTable({"a": F(0), "b": F(2), "c": F(5)})
    neg = u.affine(F(-1), F(0))
    assert not matches(WeakOrder.from_utility(u), AltSystem.from_utility(neg))


def test_matches_affine_generator_bruteforce():
    u = UtilityTable({"a": F(0), "b": F(2), "c": F(5), "d": F(-1)})
    scaled = u.affine(F(3), F(7))
    order = WeakOrder.from_utility(u)
    system = AltSystem.from_utility(scaled)
    assert matches(order, system)
    for x in u.states():
        for y in u.states():
            assert order.geq(x, y) == system.geq((x, y), (y, y))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=9
    )
)
def test_same_weak_order_equals_matches(values):
    # Few distinct values, so ties are common in both tables.
    states = [f"s{i}" for i in range(len(values))]
    t1 = UtilityTable({s: F(a) for s, (a, _) in zip(states, values)})
    t2 = UtilityTable({s: F(b) for s, (_, b) in zip(states, values)})
    order = WeakOrder.from_utility(t1, items=states)
    # A pair ranking carries no table, so matches compares pair by pair.
    expected = matches(order, AltSystem.from_pair_ranking(states, lambda x, y: t2[x] - t2[y]))
    assert same_weak_order(t1, t2, states) == expected
    assert same_weak_order(t2, t1, states) == expected
    assert matches(order, AltSystem.from_utility(t2)) == expected


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
