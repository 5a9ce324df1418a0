"""Fraction table checks: the oracles for the checks on scaled tables.

The package compares each table's scaled int form (``UtilityTable.scaled``).
These are the same checks as it ran them before, on the Fractions
themselves: order agreement by sorting value pairs, indifference classes
named by their values, per-agent affinity verdicts from value maps, and an
identity tested by building the table sum and comparing it with the target.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from utilcheck import CheckResult, UtilityTable, linear_combination
from utilcheck.coincidence import (
    COINCIDE,
    CONSTANT,
    VIOLATION,
    AgentVerdict,
    StepWitness,
    ViolationWitness,
)


def same_weak_order(t1: UtilityTable, t2: UtilityTable, states) -> bool:
    ranked = sorted((t1[s], t2[s]) for s in states)
    return all(
        (a1 < b1) == (a2 < b2) for (a1, a2), (b1, b2) in zip(ranked, ranked[1:])
    )


def first_disagreement(t1: UtilityTable, t2: UtilityTable, states):
    return next(
        (x, y)
        for x in states
        for y in states
        if (t1[x] >= t1[y]) != (t2[x] >= t2[y])
    )


def class_combinations(tables, states) -> tuple[set[tuple], list[int]]:
    realized = {tuple(t[s] for t in tables) for s in states}
    completions = [1] * (len(tables) + 1)
    for j in range(len(tables) - 1, -1, -1):
        completions[j] = completions[j + 1] * len({tables[j][s] for s in states})
    return realized, completions


def check_semi_separable(soc, profile=None) -> CheckResult:
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


def is_combination(target, tables, weights, constant=Fraction(0)) -> bool:
    return linear_combination(tables, weights, constant) == target


def _value_map(base: UtilityTable, starred: UtilityTable, states):
    by_value: dict = {}
    for s in states:
        t = base[s]
        if t not in by_value:
            by_value[t] = (starred[s], s)
    grid = sorted(by_value)
    return grid, [by_value[t][0] for t in grid], [by_value[t][1] for t in grid]


def _axis_exemplars(agent_index, agents, tables, states, grid):
    ref = states[0]
    pins = [tables[k][ref] for k in range(len(agents))]
    out = {}
    for s in states:
        if any(
            k != agent_index and tables[k][s] != pins[k] for k in range(len(agents))
        ):
            continue
        t = tables[agent_index][s]
        if t not in out:
            out[t] = s
    return [out.get(t) for t in grid]


def agent_verdicts(agents, tables, starred, states) -> tuple[AgentVerdict, ...]:
    verdicts: list[AgentVerdict] = []
    for i, name in enumerate(agents):
        if tables[i].is_constant():
            verdicts.append(AgentVerdict(agent=name, kind=CONSTANT))
            continue
        grid, images, exemplars = _value_map(tables[i], starred[i], states)
        axis = _axis_exemplars(i, agents, tables, states, grid)
        witnesses = [a if a is not None else e for a, e in zip(axis, exemplars)]
        steps = [
            StepWitness(
                lo_state=witnesses[k],
                hi_state=witnesses[k + 1],
                base_increment=grid[k + 1] - grid[k],
                starred_increment=images[k + 1] - images[k],
            )
            for k in range(len(grid) - 1)
        ]
        slope_num = images[1] - images[0]
        slope_den = grid[1] - grid[0]
        bad = next(
            (
                st
                for st in steps
                if st.starred_increment * slope_den != slope_num * st.base_increment
            ),
            None,
        )
        if bad is not None:
            verdicts.append(
                AgentVerdict(
                    agent=name,
                    kind=VIOLATION,
                    witness=ViolationWitness(
                        first=steps[0],
                        second=bad,
                        increments=tuple(
                            (st.base_increment, st.starred_increment) for st in steps
                        ),
                    ),
                )
            )
            continue
        alpha = slope_num / slope_den
        beta = images[0] - alpha * grid[0]
        if alpha <= 0:
            raise AssertionError("shared order should force a positive slope")
        for s in states:
            if starred[i][s] != alpha * tables[i][s] + beta:
                raise AssertionError("affine verdict failed pointwise re-verification")
        verdicts.append(AgentVerdict(agent=name, kind=COINCIDE, alpha=alpha, beta=beta))
    return tuple(verdicts)
