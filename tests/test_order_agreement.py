"""Order agreement: the one kernel and its readers against the kept pair loops.

``core.same_ranking`` decides by sorting, and ``core.first_disagreement``
searches for the first pair only after it fails, in O(N log N);
``fraction_checks.first_pair`` is the plain pair scan.  The bool checks
stop after the sort.  A weak order is one table: ``from_pairs`` ranks each
item by how many items it is weakly preferred to, and the pair-set order it
replaced is kept as ``fraction_checks.PairWeakOrder``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
from utilcheck import (
    AltSystem,
    UtilityTable,
    WeakOrder,
    first_disagreement,
    matches,
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
