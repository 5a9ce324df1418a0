"""Fraction table checks: the oracles for the checks on scaled tables.

The package compares each table's scaled int form (``UtilityTable.column``).
These are the same checks as it ran them before, on the Fractions
themselves: order agreement by sorting value pairs, indifference classes
named by their values, the affinity of two tables solved and checked in
Fractions, per-agent affinity verdicts from value maps, and an identity
tested by building the table sum and comparing it with the target.
The intensity side's linearity decision is kept the same way: the package
decides it once per component on the difference map's ints
(``DifferenceMap.bends``); here the additivity skip and the slope
extraction each test F_i(c) = a * c on the Fraction components decoded
from the map's ints (``components``), and
``harvey_recover`` is the pipeline that ran them, with the additivity
check on those components.

Order agreement is one sort in the package (``core.same_ranking``), which
``society.matches`` runs and ``core.first_disagreement`` runs before its
search.  Kept here: the value-pair sort and the brute-force pair scan.

The intensity-system checks decide on an ``AltSystem``'s int pair ranks
(``AltSystem.ranks``): consistency by one sort per rank column, crossover
by grouping the pairs into rank classes, and representation by one
``first_disagreement`` over the pairs.  Kept here: the exhaustive triple
and quadruple loops over ``AltSystem.geq`` that they replaced.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from utilcheck import (
    CheckResult,
    DifferenceMapError,
    HarveyReport,
    UtilityTable,
    build_difference_map,
    check_axiom_I,
    linear_combination,
    recover_constant,
)
from utilcheck.coincidence import (
    COINCIDE,
    CONSTANT,
    VIOLATION,
    AgentVerdict,
    StepWitness,
    ViolationWitness,
)
from utilcheck.harvey import SlopeReport


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


def first_pair(keys1, keys2):
    """The first (i, j) in index order with the two key rankings comparing i, j differently."""
    n = len(keys1)
    return next(
        (
            (i, j)
            for i in range(n)
            for j in range(n)
            if (keys1[i] >= keys1[j]) != (keys2[i] >= keys2[j])
        ),
        None,
    )


def semi_separability(tables, states) -> CheckResult:
    realized = {tuple(t[s] for t in tables) for s in states}
    completions = [1] * (len(tables) + 1)
    for j in range(len(tables) - 1, -1, -1):
        completions[j] = completions[j + 1] * len({tables[j][s] for s in states})
    if len(realized) == completions[0]:
        return CheckResult(True)
    extending = Counter(combo[:j] for combo in realized for j in range(1, len(tables) + 1))
    prefix: tuple = ()
    witness = []
    for j, t in enumerate(tables):
        state = next(s for s in states if extending[prefix + (t[s],)] < completions[j + 1])
        prefix += (t[state],)
        witness.append(state)
    return CheckResult(False, witness=tuple(witness))


def is_combination(target, tables, weights, constant=Fraction(0)) -> bool:
    return linear_combination(tables, weights, constant) == target


def affine_relation(u: UtilityTable, w: UtilityTable):
    keys = list(u.values.keys())
    if set(keys) != set(w.values.keys()):
        raise ValueError("tables must share a domain")
    anchor = keys[0]
    other = next((s for s in keys if u[s] != u[anchor]), None)
    if other is None:
        if w.is_constant():
            return Fraction(1), w[anchor] - u[anchor]
        return None
    alpha = (w[other] - w[anchor]) / (u[other] - u[anchor])
    if alpha <= 0:
        return None
    beta = w[anchor] - alpha * u[anchor]
    return (alpha, beta) if is_combination(w, [u], [alpha], beta) else None


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


def components(dm) -> tuple[dict[Fraction, Fraction], ...]:
    """Each agent's F_i on its grid, decoded from the map's ints: c / s_i to table[c R_i] / e."""
    return tuple(
        {Fraction(c, s): Fraction(dm.table[c * r], dm.ethical_scale) for c in grid}
        for grid, s, r in zip(dm.grids, dm.scales, dm.radices)
    )


def is_linear(dm, i: int) -> bool:
    """True iff F_i(c) = a * c on the whole grid for a single a."""
    grid = dm.diff_grids[i]
    comp = components(dm)[i]
    top = grid[-1]
    a = comp[top] / top if top else Fraction(0)
    return all(comp[c] == a * c for c in grid)


def extract_slopes(dm) -> SlopeReport:
    slopes: list[Fraction] = []
    constant_agents: list[str] = []
    for i, name in enumerate(dm.agents):
        grid = dm.diff_grids[i]
        comp = components(dm)[i]
        positives = [c for c in grid if c > 0]
        if not positives:
            slopes.append(Fraction(1))
            constant_agents.append(name)
            continue
        h = positives[0]
        a = comp[h] / h
        for c in grid:
            if comp[c] != a * c:
                raise ValueError(f"component {name!r} is not linear at {c}: {comp[c]} != {a * c}")
        if a <= 0:
            raise ValueError(f"component slope for {name!r} is not positive: {a}")
        slopes.append(a)
    return SlopeReport(slopes=tuple(slopes), constant_agents=tuple(constant_agents))


def verify_component_additivity(dm, i: int) -> CheckResult:
    comp = components(dm)[i]
    grid = dm.diff_grids[i]
    zero = Fraction(0)
    if comp[zero] != 0:
        return CheckResult(False, witness=(zero, zero))
    for c in grid:
        if comp[-c] != -comp[c]:
            return CheckResult(False, witness=(c, -c))
    grid_set = set(grid)
    for c in grid:
        for c1 in grid:
            if c + c1 in grid_set and comp[c] + comp[c1] != comp[c + c1]:
                return CheckResult(False, witness=(c, c1))
    return CheckResult(True)


def component_monotone(dm, i: int) -> bool:
    grid = dm.diff_grids[i]
    comp = components(dm)[i]
    return all(comp[a] < comp[b] for a, b in zip(grid, grid[1:]))


def harvey_recover(soc) -> HarveyReport:
    axiom = check_axiom_I(soc)
    if not axiom:
        return HarveyReport(False, soc.agents, failed_stage="axiom-I", witness=axiom.witness)
    try:
        dm = build_difference_map(soc)
    except ValueError as exc:
        stage = "difference-map" if isinstance(exc, DifferenceMapError) else "semi-separability"
        return HarveyReport(False, soc.agents, failed_stage=stage, witness=str(exc))
    for i, name in enumerate(soc.agents):
        if is_linear(dm, i):
            continue
        add = verify_component_additivity(dm, i)
        if not add:
            return HarveyReport(
                False, soc.agents, failed_stage=f"additivity:{name}", witness=add.witness
            )
    try:
        slope_report = extract_slopes(dm)
        b = recover_constant(soc, slope_report.slopes)
    except ValueError as exc:
        return HarveyReport(False, soc.agents, failed_stage="slopes", witness=str(exc))
    return HarveyReport(
        True,
        soc.agents,
        weights=slope_report.slopes,
        constant=b,
        constant_agents=slope_report.constant_agents,
    )


def check_consistency(a) -> CheckResult:
    for x, y, z in itertools.product(a.states, repeat=3):
        if a.geq((x, y), (y, y)) != a.geq((x, z), (y, z)):
            return CheckResult(False, witness=(x, y, z))
    return CheckResult(True)


def check_crossover(a) -> CheckResult:
    for x, y, z, w in itertools.product(a.states, repeat=4):
        if a.eq((x, y), (z, w)) != a.eq((x, z), (y, w)):
            return CheckResult(False, witness=(x, y, z, w))
    return CheckResult(True)


def alt_represents(u, a) -> CheckResult:
    for x, y, z, w in itertools.product(a.states, repeat=4):
        if (u[x] - u[y] >= u[z] - u[w]) != a.geq((x, y), (z, w)):
            return CheckResult(False, witness=(x, y, z, w))
    return CheckResult(True)
