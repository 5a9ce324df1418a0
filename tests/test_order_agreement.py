"""Order agreement: the one kernel and its readers against the kept pair loops.

``core.same_ranking`` decides by sorting, and ``core.first_disagreement``
searches for the first pair only after it fails, in O(N log N);
``fraction_checks.first_pair`` is the plain pair scan.  The bool checks
stop after the sort.  A weak order is one table: ``from_pairs`` ranks each
item by how many items it is weakly preferred to, and the pair-set order it
replaced is kept as ``fraction_checks.PairWeakOrder``.  The
probabilistic-extension and NM-representation checks are compared with
their former pair loops.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
from utilcheck import (
    AltSystem,
    LotteryOrderSample,
    UtilityTable,
    WeakOrder,
    check_probabilistic_extension,
    dirac,
    first_disagreement,
    matches,
    mix,
    nm_represents,
    same_weak_order,
    society,
)
from utilcheck.core import same_ranking

F = Fraction

#: Few distinct values, so ties are common in both rankings.
small_keys = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=9)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(small_keys)
@example([])
@example([(1, -2)])
@example([(0, 0), (0, 1)])
@example([(0, 1), (1, 0)])
@example([(2, 0), (1, 0), (0, 1)])
def test_kernel_matches_pair_scan(pairs):
    keys1 = [a for a, _ in pairs]
    keys2 = [b for _, b in pairs]
    assert first_disagreement(keys1, keys2) == oracle.first_pair(keys1, keys2)
    assert first_disagreement(keys2, keys1) == oracle.first_pair(keys2, keys1)
    assert first_disagreement(keys1, keys1) is None
    assert same_ranking(keys1, keys2) == (oracle.first_pair(keys1, keys2) is None)
    assert same_ranking(keys1, keys1)


def test_failing_bool_checks_stop_after_the_sort(monkeypatch):
    def search(*args):
        raise AssertionError("the witness search ran")

    monkeypatch.setattr(society, "first_disagreement", search)
    states = [f"s{j}" for j in range(6)]
    t1 = UtilityTable({s: F(j) for j, s in enumerate(states)})
    swapped = states[:-2] + [states[-1], states[-2]]
    t2 = UtilityTable({s: F(j) for j, s in enumerate(swapped)})
    assert same_weak_order(t1, t2, states) is False
    assert matches(WeakOrder.from_utility(t1, items=states), AltSystem.from_utility(t2)) is False
    ext = WeakOrder.from_values([dirac(s) for s in states], {dirac(s): t2[s] for s in states})
    assert check_probabilistic_extension(ext, WeakOrder.from_utility(t1)) is False


@st.composite
def relations(draw):
    """A relation on 1-4 items: a weak order's pairs, perhaps with one pair added or dropped."""
    items = ("a", "b", "c", "d")[: draw(st.integers(1, 4))]
    ranks = {x: draw(st.integers(0, 2)) for x in items}
    pairs = {(x, y) for x in items for y in items if ranks[x] >= ranks[y]}
    every = sorted(itertools.product(items, repeat=2))
    edit = draw(st.sampled_from(["none", "add", "drop", "random"]))
    if edit == "add":
        pairs.add(draw(st.sampled_from(every)))
    elif edit == "drop":
        pairs.discard(draw(st.sampled_from(every)))
    elif edit == "random":
        pairs = set(draw(st.sets(st.sampled_from(every))))
    return items, pairs


def _semantics(order):
    items = order.items
    return (
        [order.geq(x, y) for x in items for y in items],
        [order.strict(x, y) for x in items for y in items],
        [order.indiff(x, y) for x in items for y in items],
        order.indifference_class_ids(),
    )


@settings(max_examples=400, deadline=None)
@given(relations())
@example((("a", "b"), {("a", "a"), ("a", "b")}))  # not reflexive at 'b'
@example((("a", "b"), {("a", "a"), ("b", "b")}))  # not complete on ('a', 'b')
@example((("a", "b", "c"), {(x, x) for x in "abc"} | {("a", "b"), ("b", "c"), ("c", "a")}))  # not transitive
def test_from_pairs_matches_pair_set_order(relation):
    items, pairs = relation
    expected = _outcome(oracle.PairWeakOrder, items, pairs)
    got = _outcome(WeakOrder.from_pairs, items, pairs)
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok"
    assert _semantics(got[1]) == _semantics(expected[1])
    assert got[1].table is not None


values_st = st.lists(st.integers(-2, 2), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(values_st, st.data())
def test_probabilistic_extension_matches_pair_loop(base_values, data):
    states = [f"s{i}" for i in range(len(base_values))]
    base = WeakOrder.from_utility(UtilityTable(dict(zip(states, map(F, base_values)))))
    lotteries = [dirac(s) for s in states]
    if len(states) > 1:
        lotteries.append(mix(dirac(states[0]), dirac(states[-1]), F(1, 2)))
    if len(states) > 1 and data.draw(st.integers(0, 4)) == 0:
        lotteries.pop(data.draw(st.integers(0, len(states) - 1)))
    ext_values = {p: F(data.draw(st.integers(-2, 2))) for p in lotteries}
    ext = WeakOrder.from_values(lotteries, ext_values)
    expected = _outcome(oracle.check_probabilistic_extension, ext, base)
    assert _outcome(check_probabilistic_extension, ext, base) == expected


@settings(max_examples=300, deadline=None)
@given(values_st, st.data())
def test_nm_represents_matches_pair_loop(u_values, data):
    states = [f"s{i}" for i in range(len(u_values))]
    u = UtilityTable(dict(zip(states, map(F, u_values))))
    lotteries = [dirac(s) for s in states]
    lotteries += [mix(dirac(x), dirac(y), F(1, 2)) for x, y in zip(states, states[1:])]
    if data.draw(st.booleans()):
        ranks = {p: F(data.draw(st.integers(-2, 2))) for p in lotteries}
    else:  # ranked by expected u: represents unless a rank is bumped
        ranks = {p: sum((q * u[s] for s, q in p.probs), F(0)) for p in lotteries}
        if data.draw(st.booleans()):
            ranks[data.draw(st.sampled_from(lotteries))] += F(1, 4)
    sample = LotteryOrderSample(tuple(lotteries), WeakOrder.from_values(lotteries, ranks), 1)
    assert nm_represents(u, sample) == oracle.nm_represents(u, sample)
