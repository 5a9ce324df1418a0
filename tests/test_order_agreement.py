"""Order agreement: the one kernel and its readers against the kept pair loops.

``core.same_ranking`` decides by sorting, and ``core.first_disagreement``
searches for the first pair only after it fails, in O(N log N);
``fraction_checks.first_pair`` is the plain pair scan.  The bool check,
``society.matches``, stops after the sort.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
from utilcheck import UtilityTable, first_disagreement, matches, society
from utilcheck.core import same_ranking

F = Fraction

#: Few distinct values, so ties are common in both rankings.
small_keys = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=9)


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
    assert matches(t1, t2, states) is False
