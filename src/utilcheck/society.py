"""Societies and their order-level axioms.

A society is an ethical order plus n >= 2 individual orders on one state
space, all given here as utility tables.  Coincidence runs carry two extra
table profiles: a lottery-side profile (u*, v*) and an intensity-side
profile (u, v); either defaults to the base profile when absent.

The checks compare each table's scaled ints in state order
(``UtilityTable.column``), which keep every order and equality of the
values.  Failing checks return the first witness in state order, so
results are reproducible byte for byte.  Pareto is one bitset pass over
the states (``check_pareto_criterion``), whatever the shape of the space;
``pareto_dominates`` is the pairwise relation it decides.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Mapping, Sequence

from .core import Record, StateKey, StateSpace, UtilityTable, first_disagreement, same_ranking


class CheckResult(Record):
    """PASS, or a witness demonstrating failure; a caller words the failure (a record's detail)."""

    passed: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.passed


class Profile(Record):
    """Named agent tables plus one ethical table on a common space."""

    tables: dict[str, UtilityTable]
    ethical: UtilityTable

    def __post_init__(self):
        object.__setattr__(self, "tables", dict(self.tables))


class Society(Record):
    space: StateSpace
    agents: tuple[str, ...]
    base: Profile
    nm: Profile | None = None
    alt: Profile | None = None
    #: Free-form; each society gets its own empty dict when none is given.
    metadata: dict | None = None

    def __post_init__(self):
        if self.metadata is None:
            object.__setattr__(self, "metadata", {})
        if len(self.agents) < 2:
            raise ValueError("a society needs at least two individuals")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent names")
        for label, profile in (("base", self.base), ("nm", self.nm), ("alt", self.alt)):
            if profile is None:
                continue
            if set(profile.tables) != set(self.agents):
                raise ValueError(f"{label} profile does not cover exactly the agents")
            for name, table in profile.tables.items():
                if not table.covers(self.space):
                    raise ValueError(f"{label} table for {name!r} does not cover exactly the space")
            if not profile.ethical.covers(self.space):
                raise ValueError(f"{label} ethical table does not cover exactly the space")

    @classmethod
    def from_tables(
        cls,
        space: StateSpace,
        utilities: Mapping[str, UtilityTable],
        ethical: UtilityTable,
        *,
        nm: Profile | None = None,
        alt: Profile | None = None,
        metadata: dict | None = None,
    ) -> "Society":
        return cls(
            space=space,
            agents=tuple(utilities),
            base=Profile(dict(utilities), ethical),
            nm=nm,
            alt=alt,
            metadata=dict(metadata or {}),
        )

    def nm_side(self) -> Profile:
        """Tables feeding the expected-utility theorems (u*, v*)."""
        return self.nm if self.nm is not None else self.base

    def alt_side(self) -> Profile:
        """Tables feeding the intensity theorems (u, v)."""
        return self.alt if self.alt is not None else self.base


def pareto_dominates(soc: Society, x: StateKey, y: StateKey) -> bool:
    """True iff every individual weakly prefers x to y and someone strictly does."""
    for s in (x, y):
        if s not in soc.space:
            raise KeyError(f"unknown state {s!r}")
    strict = False
    for a in soc.agents:
        u = soc.base.tables[a]
        if u[x] < u[y]:
            return False
        if u[x] > u[y]:
            strict = True
    return strict


def check_pareto_criterion(soc: Society) -> CheckResult:
    """Every dominated pair must be ranked strictly by the ethical order.

    The witness is the first (x, y) in state order with x dominating y and
    v(x) <= v(y).  One bitset pass finds it, bit k standing for the k-th
    state: each state gets the set of states whose agent vector is
    lexicographically strictly below its own, the set whose ethical value
    is at least its own, and, for each agent after the first, the set whose
    value for that agent is at most its own.  A lexicographically smaller
    vector differs from x's and is at most x's in the first agent, so the
    intersection is exactly the y that x dominates with v(y) >= v(x); the
    first state with a nonempty intersection and its lowest bit are the
    witness.  The comparisons run on the scaled tables; a positive scale
    keeps every one of them, so the verdict and the witness are those on
    the Fractions.  The work is O((n+1) |X|^2 / 64) word operations on
    masks of at most (n+1) |X|^2 / 8 bytes.  The pareto hypothesis record
    runs it only where the base tables' linear certificate does not prove
    the criterion.
    """
    states = soc.space.states
    columns = [soc.base.tables[a].column(states) for a in soc.agents]
    masks = [
        _masks_below(list(zip(*columns)), strict=True),
        _masks_below([-e for e in soc.base.ethical.column(states)], strict=False),
        *(_masks_below(column, strict=False) for column in columns[1:]),
    ]
    for x, sets in zip(states, zip(*masks)):
        dominated = reduce(and_, sets)
        if dominated:
            return CheckResult(False, (x, states[(dominated & -dominated).bit_length() - 1]))
    return CheckResult(True)


def _masks_below(keys: Sequence, strict: bool) -> list[int]:
    """For each state, the bitset of the states whose key is below its own, or at most it.

    One sort ranks the states by key, and ``prefix[p]`` holds the first p
    of them; a state's mask is the prefix before its group of equal keys
    (``strict``), or through it.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    prefix = [0, *accumulate(map((1).__lshift__, order), or_)]
    ranked = list(map(keys.__getitem__, order))
    if strict:  # each key's first position, which the reversed walk writes last
        bound = dict(zip(reversed(ranked), range(len(ranked) - 1, -1, -1)))
    else:  # one past each key's last position
        bound = dict(zip(ranked, range(1, len(ranked) + 1)))
    return [prefix[bound[key]] for key in keys]


def semi_separability(tables: Sequence[UtilityTable], states: Sequence[StateKey]) -> CheckResult:
    """For every profile (x_1..x_n) some single state must be i-indifferent to x_i.

    Equivalent to requiring every combination of per-table indifference
    classes to be realized by an actual state, which class counting decides
    in O(|X| n): a class is named by its scaled value, a state realizes the
    tuple of its classes, and ``completions[j]`` counts the combinations of
    tables j.. (the product of their class counts).  On failure the witness
    is the first failing profile in state order (the first one
    ``itertools.product(states, repeat=n)`` meets), built one coordinate at
    a time: a class prefix can still be completed to a missing combination
    exactly when fewer realized combinations extend it than the remaining
    tables' class counts allow.
    """
    columns = [t.column(states) for t in tables]
    realized = set(zip(*columns))
    completions = [1] * (len(tables) + 1)
    for j in range(len(tables) - 1, -1, -1):
        completions[j] = completions[j + 1] * len(set(columns[j]))
    if len(realized) == completions[0]:
        return CheckResult(True)
    extending = Counter(combo[:j] for combo in realized for j in range(1, len(tables) + 1))
    prefix: tuple = ()
    witness = []
    for j, column in enumerate(columns):
        k = next(k for k, c in enumerate(column) if extending[prefix + (c,)] < completions[j + 1])
        prefix += (column[k],)
        witness.append(states[k])
    return CheckResult(False, tuple(witness))


def check_semi_separable(soc: Society, profile: Profile | None = None) -> CheckResult:
    """``semi_separability`` of the society's agent tables on its states.

    The orders are the base profile's unless ``profile`` names another.
    """
    profile = soc.base if profile is None else profile
    return semi_separability([profile.tables[a] for a in soc.agents], soc.space.states)


def order_disagreement(
    t1: UtilityTable, t2: UtilityTable, states: Sequence[StateKey]
) -> tuple[StateKey, StateKey] | None:
    """The first (x, y) in state order that t1 and t2 compare differently, or None.

    ``core.first_disagreement`` on the two scaled tables in state order.
    """
    pair = first_disagreement(t1.column(states), t2.column(states))
    return None if pair is None else (states[pair[0]], states[pair[1]])


def matches(t1: UtilityTable, t2: UtilityTable, states: Sequence[StateKey]) -> bool:
    """True iff t1[x] >= t1[y] exactly when t2[x] >= t2[y], for all states x, y.

    ``core.same_ranking`` on the two scaled tables in state order.  An
    order matches the intensity system of a table exactly when it is that
    table's order, since [x,y] >= [y,y] reads t(x) >= t(y).
    """
    return same_ranking(t1.column(states), t2.column(states))
