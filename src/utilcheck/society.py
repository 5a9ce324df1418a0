"""Societies and their order-level axioms.

A society is an ethical order plus n >= 2 individual orders on one state
space, all given here as utility tables.  Coincidence runs carry two extra
table profiles: a lottery-side profile (u*, v*) and an intensity-side
profile (u, v); either defaults to the base profile when absent.

The checks compare each table's scaled ints in state order
(``UtilityTable.column``), which keep every order and equality of the
values.  Failing checks return the first witness in state order, so
results are reproducible byte for byte.
"""

from __future__ import annotations

from collections import Counter
from operator import ge
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

    @property
    def n(self) -> int:
        return len(self.agents)

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
    v(x) <= v(y): for each x in turn, ``_first_dominated``, the dominance
    test ``check_pareto_on_lattice`` shares, scans for y.  The comparisons
    run on the scaled tables; a positive scale keeps every one of them, so
    the verdict and the witness are those on the Fractions.  The loop is
    O(|X|^2 n), and it stops at the first witness.  The pareto hypothesis
    record, which ``validate``, ``coincide`` and the simplex fixture's
    self-check share, runs it only when a linear certificate of the base
    tables has a nonpositive slope, or when there is no certificate and the
    society is not semi-separable.  A slope read off the first state's
    single-agent neighbour makes that pair a witness, so the loop stops by
    the neighbour's row.  A semi-separable society without a certificate is
    decided by ``check_pareto_on_lattice``.
    """
    states = soc.space.states
    vectors = list(zip(*(soc.base.tables[a].column(states) for a in soc.agents)))
    ethical = soc.base.ethical.column(states)
    for x, cx, vx in zip(states, vectors, ethical):
        y = _first_dominated(states, vectors, ethical, cx, vx)
        if y is not None:
            return CheckResult(False, (x, y))
    return CheckResult(True)


def check_pareto_on_lattice(soc: Society) -> CheckResult:
    """``check_pareto_criterion``'s verdict and first witness, from the product of the classes.

    A state's rank vector c(x) holds each agent's rank of its value among
    that agent's distinct values, so x dominates y exactly when c(y) < c(x)
    in the product order.  With G(c) the largest ethical value over the
    states whose rank vector is at most c (the largest at c itself, then
    prefix maxima along one axis after another), the largest value over
    the vectors strictly below c is D(c) = max_i G(c - e_i).  So some state
    x dominates is valued at least E(x) exactly when D(c(x)) >= E(x): the
    first such x in state order is the loop's, and one pass over the states
    finds its first y.  The lattice has as many points as the product of
    the agents' class counts, and a point no state realizes holds a value
    below every ethical value; on a semi-separable society every point is
    realized, so the work is O(|X| n).
    """
    states = soc.space.states
    columns = [soc.base.tables[a].column(states) for a in soc.agents]
    ethical = soc.base.ethical.column(states)
    # Each state's lattice point as a flat index, the last agent's rank
    # varying fastest; ``axes`` holds each agent's stride and class count,
    # last agent first.
    points = [0] * len(states)
    axes = []
    size = 1
    for column in reversed(columns):
        levels = sorted(set(column))
        offsets = {u: r * size for r, u in enumerate(levels)}
        points = [k + offsets[u] for k, u in zip(points, column)]
        axes.append((size, len(levels)))
        size *= len(levels)
    best = [min(ethical) - 1] * size
    for k, e in zip(points, ethical):
        if e > best[k]:
            best[k] = e
    for stride, count in axes:
        block = stride * count
        for start in range(0, size, block):
            for k in range(start + stride, start + block):
                if best[k - stride] > best[k]:
                    best[k] = best[k - stride]
    for j, (k, e) in enumerate(zip(points, ethical)):
        if any(k // stride % count and best[k - stride] >= e for stride, count in axes):
            break
    else:
        return CheckResult(True)
    cx = tuple(column[j] for column in columns)
    return CheckResult(False, (states[j], _first_dominated(states, zip(*columns), ethical, cx, e)))


def _first_dominated(states, vectors, ethical, cx, vx) -> StateKey | None:
    """The first y in state order that cx dominates and whose ethical value is >= vx, or None.

    cx dominates cy when they differ and cx is at least cy in every coordinate.
    """
    for y, cy, vy in zip(states, vectors, ethical):
        if vx <= vy and cx != cy and all(map(ge, cx, cy)):
            return y
    return None


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
