"""Expected-utility machinery on enumerated lottery samples."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import letters_space, rand_fraction
from utilcheck import (
    LotteryOrderSample,
    UtilityTable,
    WeakOrder,
    affine_relation,
    check_independence,
    dirac,
    dyadic_mixture_lotteries,
    expectation,
    mix,
    nm_represents,
    random_dyadic_lotteries,
    sample_from_ranking,
    sample_from_utility,
)

F = Fraction

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=20)


def test_sample_requires_matching_order():
    lots = (dirac("a"), dirac("b"))
    order = WeakOrder.from_values((dirac("a"),), {dirac("a"): F(0)})
    with pytest.raises(ValueError):
        LotteryOrderSample(lots, order, 1)


def test_dyadic_mixture_lotteries_closure_membership():
    space = letters_space(3)
    lots = dyadic_mixture_lotteries(space, 2)
    assert dirac("s0") in lots
    assert mix(dirac("s0"), dirac("s1"), F(1, 4)) in lots
    assert len(lots) == len(set(lots))


def test_independence_passes_on_expectation_order():
    space = letters_space(3)
    u = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(3)})
    sample = sample_from_utility(u, dyadic_mixture_lotteries(space, 2), 2)
    result = check_independence(sample)
    assert result.passed


def test_independence_single_lottery_vacuous():
    sample = sample_from_utility(
        UtilityTable({"s0": F(1)}), [dirac("s0")], 3
    )
    result = check_independence(sample)
    assert result.passed and result.witness is None


def test_independence_max_support_utility_witness():
    # Ranking a lottery by the best state in its support is not linear in
    # probability; an exhaustive search over a three-lottery sample finds the
    # failure at the first tested mixture weight above zero.
    u = UtilityTable({"a": F(1), "b": F(0)})
    lots = [dirac("a"), dirac("b"), mix(dirac("a"), dirac("b"), F(1, 2))]

    def best_in_support(lottery):
        return max(u[s] for s in lottery.support)

    sample = sample_from_ranking(best_in_support, lots, 1)
    result = check_independence(sample)
    assert not result.passed
    p, q, r, t = result.witness
    assert (p, q, t) == (dirac("a"), dirac("b"), F(1, 2))
    # The witness is checkable by hand: both mixtures contain state a, so the
    # ranking ties them even though p was strictly preferred to q.
    assert best_in_support(mix(p, r, t)) == best_in_support(mix(q, r, t))


def test_independence_reports_escapes():
    u = UtilityTable({"a": F(1), "b": F(0)})
    sample = sample_from_utility(u, [dirac("a"), dirac("b")], 1)
    result = check_independence(sample)
    assert result.passed
    assert result.escapes  # the half-half mixture is not in the sample
    p, q, r, t = result.escapes[0]
    assert t == F(1, 2)


@settings(max_examples=30, deadline=None)
@given(st.lists(fractions_st, min_size=3, max_size=3), st.integers(1, 6))
def test_independence_property_expectation_orders(vals, depth):
    space = letters_space(3)
    u = UtilityTable(dict(zip(space.states, vals)))
    lots = [dirac(s) for s in space.states]
    lots.append(mix(dirac("s0"), dirac("s1"), F(1, 2)))
    sample = sample_from_utility(u, lots, depth)
    result = check_independence(sample)
    assert result.passed


def test_nm_represents_own_generator():
    space = letters_space(3)
    u = UtilityTable({"s0": F(0), "s1": F(2), "s2": F(7)})
    sample = sample_from_utility(u, dyadic_mixture_lotteries(space, 1), 1)
    assert nm_represents(u, sample)


def test_nm_represents_affine_invariance():
    space = letters_space(3)
    u = UtilityTable({"s0": F(0), "s1": F(2), "s2": F(7)})
    sample = sample_from_utility(u, dyadic_mixture_lotteries(space, 1), 1)
    assert nm_represents(u.affine(F(5), F(-2)), sample)


def test_nm_represents_rejects_cube():
    # u takes 0, 1, 2; the half-half mixture of the extremes has expected u
    # equal to the middle state but expected u**3 far above it.
    space = letters_space(3)
    u = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2)})
    cubed = UtilityTable({s: u[s] ** 3 for s in space.states})
    lots = [dirac(s) for s in space.states]
    lots.append(mix(dirac("s0"), dirac("s2"), F(1, 2)))
    sample = sample_from_utility(u, lots, 1)
    assert not nm_represents(cubed, sample)
    # Oracle for the failing pair.
    p, q = lots[3], dirac("s1")
    assert expectation(p, u) == expectation(q, u)
    assert expectation(p, cubed) > expectation(q, cubed)


def test_random_dyadic_lotteries_are_valid_and_seeded():
    space = letters_space(4)
    first = random_dyadic_lotteries(space, 6, 3, seed=9)
    second = random_dyadic_lotteries(space, 6, 3, seed=9)
    assert first == second
    assert len(set(first)) == 6


def test_random_dyadic_lotteries_reject_more_than_exist():
    # Two states at depth 1 carry exactly three lotteries: 1, 1/2 and 0 on
    # the first state.  Asking for all of them terminates; one more raises
    # instead of sampling forever.
    space = letters_space(2)
    every = random_dyadic_lotteries(space, 3, 1, seed=0)
    assert {lot.as_dict().get("s0", 0) for lot in every} == {0, Fraction(1, 2), 1}
    with pytest.raises(ValueError, match="only 3 exist"):
        random_dyadic_lotteries(space, 4, 1, seed=0)
    assert len(set(random_dyadic_lotteries(letters_space(3), 15, 2, seed=1))) == 15
    with pytest.raises(ValueError, match="only 15 exist"):
        random_dyadic_lotteries(letters_space(3), 16, 2, seed=1)


# ---------------------------------------------------------------------------
# Affine relation


def test_affine_relation_identity():
    u = UtilityTable({"a": F(1), "b": F(2)})
    assert affine_relation(u, u) == (F(1), F(0))


def test_affine_relation_scale_shift():
    u = UtilityTable({"a": F(1), "b": F(2), "c": F(-3)})
    w = u.affine(F(2), F(3))
    assert affine_relation(u, w) == (F(2), F(3))


def test_affine_relation_square_is_none():
    u = UtilityTable({"a": F(0), "b": F(1, 2), "c": F(1)})
    w = UtilityTable({s: u[s] ** 2 for s in u.states()})
    assert affine_relation(u, w) is None  # 1/4 != 1/2 at the midpoint


def test_affine_relation_negative_slope_is_none():
    u = UtilityTable({"a": F(0), "b": F(1)})
    assert affine_relation(u, u.affine(F(-2), F(0))) is None


def test_affine_relation_constant_cases():
    c1 = UtilityTable({"a": F(3), "b": F(3)})
    c2 = UtilityTable({"a": F(5), "b": F(5)})
    varying = UtilityTable({"a": F(0), "b": F(1)})
    assert affine_relation(c1, c2) == (F(1), F(2))
    assert affine_relation(c1, varying) is None


def test_affine_relation_domain_mismatch():
    with pytest.raises(ValueError):
        affine_relation(UtilityTable({"a": F(0)}), UtilityTable({"b": F(0)}))


@given(
    st.lists(fractions_st, min_size=4, max_size=4, unique=True),
    st.fractions(min_value="1/20", max_value=20, max_denominator=20),
    fractions_st,
)
def test_affine_relation_roundtrip(vals, alpha, beta):
    # Nonconstant tables: constant ones fall under the (1, shift) convention.
    states = ["a", "b", "c", "d"]
    u = UtilityTable(dict(zip(states, vals)))
    w = u.affine(alpha, beta)
    assert affine_relation(u, w) == (alpha, beta)


@given(
    st.lists(fractions_st, min_size=4, max_size=4, unique=True),
    st.fractions(min_value="1/20", max_value=20, max_denominator=20),
    fractions_st,
)
def test_affine_relation_inverse_consistency(vals, alpha, beta):
    states = ["a", "b", "c", "d"]
    u = UtilityTable(dict(zip(states, vals)))
    w = u.affine(alpha, beta)
    assert affine_relation(w, u) == (1 / alpha, -beta / alpha)


def test_nm_represents_shared_under_affine_relation():
    rng = random.Random(31)
    space = letters_space(4)
    for _ in range(10):
        u = UtilityTable({s: rand_fraction(rng) for s in space.states})
        w = u.affine(F(rng.randint(1, 9)), rand_fraction(rng))
        sample = sample_from_utility(u, dyadic_mixture_lotteries(space, 1), 1)
        assert affine_relation(u, w) is not None
        assert nm_represents(u, sample) and nm_represents(w, sample)
