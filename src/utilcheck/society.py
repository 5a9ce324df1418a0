"""Societies and their order-level axioms.

A society is an ethical order plus n >= 2 individual orders on one state
space, all given here as utility tables.  Coincidence runs carry two extra
table profiles: a lottery-side profile (u*, v*) and an intensity-side
profile (u, v); either defaults to the base profile when absent.

Failing checks return the first witness in state order, so results are
reproducible byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import ge
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import StateKey, StateSpace, UtilityTable, WeakOrder, dirac

if TYPE_CHECKING:  # pragma: no cover
    from .alt import AltSystem


@dataclass(frozen=True)
class CheckResult:
    """PASS, or a witness demonstrating failure."""

    passed: bool
    witness: tuple | None = None
    description: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class Profile:
    """Named agent tables plus one ethical table on a common space."""

    tables: dict[str, UtilityTable]
    ethical: UtilityTable

    def __post_init__(self):
        object.__setattr__(self, "tables", dict(self.tables))


@dataclass(frozen=True)
class Society:
    space: StateSpace
    agents: tuple[str, ...]
    base: Profile
    nm: Profile | None = None
    alt: Profile | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
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
                    raise ValueError(f"{label} table for {name!r} misses states")
            if not profile.ethical.covers(self.space):
                raise ValueError(f"{label} ethical table misses states")

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

    def order(self, agent: str) -> WeakOrder:
        return WeakOrder.from_utility(self.base.tables[agent], items=self.space.states)

    def ethical_order(self) -> WeakOrder:
        return WeakOrder.from_utility(self.base.ethical, items=self.space.states)

    def orders(self) -> list[WeakOrder]:
        return [self.order(a) for a in self.agents]


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

    Each state's value vector is read once; x dominates y exactly when the
    vectors differ and x's is weakly greater in every coordinate.
    """
    states = soc.space.states
    tables = [soc.base.tables[a] for a in soc.agents]
    vectors = [tuple(t[s] for t in tables) for s in states]
    ethical = [soc.base.ethical[s] for s in states]
    for x, cx, vx in zip(states, vectors, ethical):
        for y, cy, vy in zip(states, vectors, ethical):
            if vx <= vy and cx != cy and all(map(ge, cx, cy)):
                return CheckResult(
                    False,
                    witness=(x, y),
                    description=f"{x!r} dominates {y!r} but is not ethically better",
                )
    return CheckResult(True)


def class_combinations(
    tables: Sequence[UtilityTable], states: Sequence[StateKey]
) -> tuple[set[tuple], list[int]]:
    """Realized combinations of per-table indifference classes, and how many exist.

    A state realizes the tuple of its values, one per table.
    ``completions[j]`` counts the combinations of tables j.. (the product
    of their class counts), so the classes all combine exactly when
    ``len(realized) == completions[0]``.
    """
    realized = {tuple(t[s] for t in tables) for s in states}
    completions = [1] * (len(tables) + 1)
    for j in range(len(tables) - 1, -1, -1):
        completions[j] = completions[j + 1] * len({tables[j][s] for s in states})
    return realized, completions


def check_semi_separable(soc: Society, profile: Profile | None = None) -> CheckResult:
    """For every profile (x_1..x_n) some single state must be i-indifferent to x_i.

    Equivalent to requiring every combination of per-agent indifference
    classes to be realized by an actual state, which class counting decides
    in O(|X| n).  On failure the witness is the first failing profile in
    state order (the first one ``itertools.product(states, repeat=n)``
    meets), built one coordinate at a time: a class prefix can still be
    completed to a missing combination exactly when fewer realized
    combinations extend it than the remaining agents' class counts allow.
    The orders are the base profile's unless ``profile`` names another.
    """
    states = soc.space.states
    if profile is None:
        profile = soc.base
    tables = [profile.tables[a] for a in soc.agents]
    realized, completions = class_combinations(tables, states)
    if len(realized) == completions[0]:
        return CheckResult(True)
    extending = Counter(combo[:j] for combo in realized for j in range(1, soc.n + 1))
    prefix: tuple = ()
    witness = []
    for j, t in enumerate(tables):
        state = next(s for s in states if extending[prefix + (t[s],)] < completions[j + 1])
        prefix += (t[state],)
        witness.append(state)
    return CheckResult(
        False,
        witness=tuple(witness),
        description="no single state is indifferent to this profile agent-wise",
    )


def check_probabilistic_extension(ext: WeakOrder, base: WeakOrder) -> bool:
    """True iff ext agrees with base on all point-mass lotteries."""
    for x in base.items:
        if dirac(x) not in ext.items:
            raise KeyError(f"point-mass lottery for {x!r} missing from the extension")
    for x in base.items:
        for y in base.items:
            if base.geq(x, y) != ext.geq(dirac(x), dirac(y)):
                return False
    return True


def same_weak_order(t1: UtilityTable, t2: UtilityTable, states: Sequence[StateKey]) -> bool:
    """True iff t1[x] >= t1[y] exactly when t2[x] >= t2[y], for all states x, y.

    Decided by sorting: in (t1, t2) order, t2 never decreases between
    neighbours, so the orders agree iff t2 rises strictly exactly where t1
    does.
    """
    ranked = sorted((t1[s], t2[s]) for s in states)
    return all(
        (a1 < b1) == (a2 < b2) for (a1, a2), (b1, b2) in zip(ranked, ranked[1:])
    )


def matches(order: WeakOrder, alt: "AltSystem") -> bool:
    """True iff x >= y in the order exactly when [x,y] >= [y,y] in the system.

    When both come from tables, [x,y] >= [y,y] reads t(x) >= t(y), so the
    question is decided by ``same_weak_order``; any other system is
    compared pair by pair.
    """
    if order.table is not None and alt.table is not None:
        return same_weak_order(order.table, alt.table, order.items)
    for x in order.items:
        for y in order.items:
            if order.geq(x, y) != alt.geq((x, y), (y, y)):
                return False
    return True
