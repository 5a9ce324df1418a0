"""Certifying when two cardinal scales for the same preferences coincide.

Given one profile recovered from lottery data and one from intensity data,
the pipeline recovers the weights that make each ethical table the plain
sum of its reweighted agent tables, then asks, agent by agent, whether the
two input tables are positive affine images of each other.  Reweighting
either table by a positive factor cannot change that answer, so it is
decided once, on the tables as given.  On a finite grid this is decidable
outright: the value-for-value map between the two tables either has one
slope everywhere (a coincidence certificate with exact coefficients) or two
steps with different per-unit increments (a violation witness anyone can
recheck by hand).

The two shipped fixtures exercise both outcomes.  The square-root fixture
arranges every aggregation hypothesis to hold while the scales differ by a
square root, which surfaces as step increments that grow with the step
index.  The constraint-line fixture puts all states on a one-dimensional
family where ranges cannot form a product; every hypothesis except
semi-separability passes, and the scales genuinely fail to be affine
images, showing that hypothesis is load-bearing.

Only the algebraic content of the continuum statements is checked here: a
finite grid cannot distinguish continuous tables from arbitrary ones, so
grids stand in for connectedness throughout.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg
from .alt import AltSystem
from .core import StateKey, StateSpace, UtilityTable, WeakOrder, linear_combination
from .harsanyi import (
    check_axiom_i,
    positive_reweighting,
    recover_weights,
    select_dependency_basis,
)
from .harvey import Analysis, check_axiom_I, harvey_recover
from .nm import affine_relation
from .society import (
    Profile,
    Society,
    check_pareto_criterion,
    check_semi_separable,
    class_combinations,
    matches,
    same_weak_order,
)

COINCIDE = "coincide"
VIOLATION = "violation"
CONSTANT = "constant"
HYPOTHESIS_FAILURE = "hypothesis-failure"
RECOVERY_FAILURE = "recovery-failure"


class NormalizationError(ValueError):
    pass


@dataclass(frozen=True)
class StepWitness:
    """One single-coordinate grid step with its increment on both scales."""

    lo_state: StateKey
    hi_state: StateKey
    base_increment: Fraction
    starred_increment: Fraction


@dataclass(frozen=True)
class ViolationWitness:
    """Two steps whose starred-per-base increment ratios differ.

    ``increments`` lists (base, starred) increment pairs for every
    consecutive step of the agent's realized value grid, in grid order.
    """

    first: StepWitness
    second: StepWitness
    increments: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class AgentVerdict:
    agent: str
    kind: str  # COINCIDE | VIOLATION | CONSTANT
    alpha: Fraction | None = None
    beta: Fraction | None = None
    witness: ViolationWitness | None = None


@dataclass(frozen=True)
class AffineReport:
    status: str  # COINCIDE | VIOLATION | HYPOTHESIS_FAILURE
    agents: tuple[AgentVerdict, ...] = ()
    failed_hypothesis: str | None = None
    failure_detail: str = ""


@dataclass(frozen=True)
class NormalizationRecord:
    agents: tuple[str, ...]
    alt_weights: tuple[Fraction, ...]
    alt_constant: Fraction
    nm_weights: tuple[Fraction, ...]
    nm_constant: Fraction
    #: Per-agent slope of the reweighted starred table (nm weight times u*_i)
    #: against the reweighted base table (alt weight times u_i); None for
    #: constant or violating agents or before the affinity analysis.
    slopes: tuple[Fraction | None, ...] | None = None


def normalize_for_theorem3(
    soc: Society, analysis: Analysis | None = None
) -> NormalizationRecord:
    """Recover the weights that make each ethical table the plain sum of its agents.

    With the recorded weights and constants, v = sum alt_i u_i + alt_constant
    and v* = sum nm_i u*_i + nm_constant; each recovery re-verifies its
    identity pointwise before returning.  The intensity-side weights are
    positive by construction; the lottery-side weights must be positive for
    every nonconstant agent, and when the canonical solution of a dependent
    profile misses that, the positive reweighting is tried before giving up.
    ``analysis`` carries the pair scan of checks already run on ``soc``.
    """
    alt_report = harvey_recover(soc, analysis)
    if not alt_report.success:
        raise NormalizationError(
            f"intensity-side recovery failed at {alt_report.failed_stage}: {alt_report.witness}"
        )
    nm_report = recover_weights(soc)
    if not nm_report.success:
        raise NormalizationError(
            f"lottery-side recovery failed at state {nm_report.residual_witness}"
        )
    nm_profile = soc.nm_side()
    nm_weights, nm_constant = nm_report.weights, nm_report.constant
    needs_positive = any(
        w <= 0 and not nm_profile.tables[a].is_constant()
        for a, w in zip(soc.agents, nm_weights)
    )
    if needs_positive:
        basis = select_dependency_basis(nm_profile, soc.agents, soc.space.states)
        improved = positive_reweighting(soc, nm_report, basis)
        if improved is None or improved.positive_variant is None:
            bad = next(
                a
                for a, w in zip(soc.agents, nm_weights)
                if w <= 0 and not nm_profile.tables[a].is_constant()
            )
            raise NormalizationError(
                f"lottery-side weight for nonconstant agent {bad!r} is not positive"
            )
        nm_weights, nm_constant = improved.positive_variant
    return NormalizationRecord(
        agents=soc.agents,
        alt_weights=alt_report.weights,
        alt_constant=alt_report.constant,
        nm_weights=tuple(nm_weights),
        nm_constant=nm_constant,
    )


def _value_map(base: UtilityTable, starred: UtilityTable, states):
    """Sorted base values with their starred images and first exemplar states."""
    by_value: dict[Fraction, tuple[Fraction, StateKey]] = {}
    for s in states:
        t = base[s]
        if t not in by_value:
            by_value[t] = (starred[s], s)
    grid = sorted(by_value)
    return grid, [by_value[t][0] for t in grid], [by_value[t][1] for t in grid]


def _axis_exemplars(agent_index, agents, tables, states, grid):
    """For each grid value, the first state moving only this agent's coordinate.

    Other agents are pinned to their value at the first state; the
    range-product hypothesis guarantees each combination is realized.
    """
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


def _first_disagreement(t1: UtilityTable, t2: UtilityTable, states):
    """The first (x, y) in state order where t1 and t2 compare x with y differently."""
    return next(
        (x, y)
        for x in states
        for y in states
        if (t1[x] >= t1[y]) != (t2[x] >= t2[y])
    )


def _agent_verdicts(agents, tables, starred, states) -> tuple[AgentVerdict, ...]:
    """Per agent: CONSTANT, or COINCIDE with exact (alpha, beta), or VIOLATION.

    Needs each agent's two tables to order the states alike and the
    realized value vectors to fill the product of the ranges.  Every
    COINCIDE is re-verified pointwise as starred = alpha * table + beta.
    """
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


def proposition1_check(
    space: StateSpace,
    u_tables: Mapping[str, UtilityTable],
    u_star_tables: Mapping[str, UtilityTable],
) -> AffineReport:
    """Decide per agent whether the starred table is a positive affine image.

    Hypotheses are reported individually: each agent pair must order states
    identically, the realized value vectors must fill the product of the
    per-agent ranges, and at least two agents must be nonconstant.  The
    per-agent verdicts are computed before the two table sums are compared,
    so a concrete affinity violation is reported as such rather than hiding
    behind the diverging ethical orders it causes.
    """
    agents = tuple(u_tables)
    if tuple(u_star_tables) != agents:
        raise ValueError("profiles must cover the same agents in the same order")
    tables = [u_tables[a] for a in agents]
    starred = [u_star_tables[a] for a in agents]
    states = space.states

    for a, t, t_star in zip(agents, tables, starred):
        if not same_weak_order(t, t_star, states):
            x, y = _first_disagreement(t, t_star, states)
            return AffineReport(
                status=HYPOTHESIS_FAILURE,
                failed_hypothesis="shared-agent-order",
                failure_detail=f"agent {a!r} tables disagree on ({x!r}, {y!r})",
            )

    realized, completions = class_combinations(tables, states)
    if len(realized) != completions[0]:
        return AffineReport(
            status=HYPOTHESIS_FAILURE,
            failed_hypothesis="range-product",
            failure_detail=(
                f"{len(realized)} realized value vectors but the range product needs "
                f"{completions[0]}"
            ),
        )

    nonconstant = [a for a, t in zip(agents, tables) if not t.is_constant()]
    if len(nonconstant) < 2:
        return AffineReport(
            status=HYPOTHESIS_FAILURE,
            failed_hypothesis="two-nonconstant-agents",
            failure_detail=f"only {nonconstant} nonconstant",
        )

    verdicts = _agent_verdicts(agents, tables, starred, states)
    if any(v.kind == VIOLATION for v in verdicts):
        return AffineReport(status=VIOLATION, agents=verdicts)

    v_sum = linear_combination(tables, [1] * len(tables))
    v_star_sum = linear_combination(starred, [1] * len(starred))
    if not same_weak_order(v_sum, v_star_sum, states):
        x, y = _first_disagreement(v_sum, v_star_sum, states)
        return AffineReport(
            status=HYPOTHESIS_FAILURE,
            agents=verdicts,
            failed_hypothesis="shared-ethical-order",
            failure_detail=f"table sums disagree on ({x!r}, {y!r})",
        )
    return AffineReport(status=COINCIDE, agents=verdicts)


@dataclass(frozen=True)
class HypothesisRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Theorem3Report:
    status: str  # COINCIDE | VIOLATION | HYPOTHESIS_FAILURE | RECOVERY_FAILURE
    hypotheses: tuple[HypothesisRecord, ...]
    failed_hypothesis: str | None = None
    agents: tuple[AgentVerdict, ...] = ()
    normalization: NormalizationRecord | None = None
    detail: str = ""

    def hypothesis(self, name: str) -> HypothesisRecord:
        for rec in self.hypotheses:
            if rec.name == name:
                return rec
        raise KeyError(name)


def _two_nonconstant_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    alt_profile = soc.alt_side()
    nonconstant = [a for a in soc.agents if not alt_profile.tables[a].is_constant()]
    return HypothesisRecord(
        "two-nonconstant-agents",
        len(nonconstant) >= 2,
        f"nonconstant agents: {nonconstant}",
    )


def _semi_separability_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    semi = analysis.semi_separability
    return HypothesisRecord(
        "semi-separability", semi.passed, "" if semi else f"witness profile {semi.witness}"
    )


def _pareto_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    pareto = check_pareto_criterion(soc)
    return HypothesisRecord(
        "pareto", pareto.passed, "" if pareto else f"witness pair {pareto.witness}"
    )


def _matching_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    """Per-agent matching across all three table sources, plus base-vs-intensity
    for the ethical order.  The two ethical tables are never cross-compared
    here: their agreement is what the affinity analysis itself adjudicates.
    """
    alt_profile = soc.alt_side()
    nm_profile = soc.nm_side()
    pairs = [(name, nm_profile.tables[name], alt_profile.tables[name]) for name in soc.agents]
    pairs += [(name, soc.base.tables[name], alt_profile.tables[name]) for name in soc.agents]
    pairs.append(("ethical", soc.base.ethical, alt_profile.ethical))
    for name, order_table, alt_table in pairs:
        system = AltSystem.from_utility(alt_table)
        order = WeakOrder.from_utility(order_table, items=soc.space.states)
        if not matches(order, system):
            return HypothesisRecord(
                "matching", False, f"order for {name!r} does not match its intensity system"
            )
    return HypothesisRecord("matching", True)


def _axiom_i_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    result = check_axiom_i(soc)
    if result.passed:
        return HypothesisRecord("axiom-i", True)
    pair = result.witness

    def show(lottery):
        return "{" + ", ".join(f"{s}: {p}" for s, p in lottery.probs) + "}"

    return HypothesisRecord(
        "axiom-i",
        False,
        f"agents indifferent but ethics not: p={show(pair.p)} q={show(pair.q)}",
    )


def _axiom_cap_i_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    result = check_axiom_I(soc, analysis)
    return HypothesisRecord(
        "axiom-I", result.passed, "" if result else f"witness quadruple {result.witness}"
    )


#: Named hypothesis checks in canonical reporting order; each takes the
#: society and the run's ``Analysis`` of it.
HYPOTHESIS_CHECKS: tuple = (
    ("two-nonconstant-agents", _two_nonconstant_record),
    ("semi-separability", _semi_separability_record),
    ("pareto", _pareto_record),
    ("matching", _matching_record),
    ("axiom-i", _axiom_i_record),
    ("axiom-I", _axiom_cap_i_record),
)


def _check_hypotheses(soc: Society, analysis: Analysis) -> list[HypothesisRecord]:
    return [fn(soc, analysis) for _, fn in HYPOTHESIS_CHECKS]


def theorem3_pipeline(soc: Society) -> Theorem3Report:
    """Hypothesis battery, both weight recoveries, per-agent affinity.

    Every hypothesis is evaluated (each gets a named record) before the
    pipeline decides; recoveries only run when all hypotheses hold.  The
    passing battery already settles what the per-agent analysis needs:
    matching gives each agent's two tables one order, semi-separability
    with matching fills the range product, and two agents are nonconstant.
    Verdicts are decided on the input tables, so a COINCIDE carries the
    exact (alpha, beta) with starred = alpha * base + beta.  The one
    remaining gate compares the two ethical orders; the reweighted table
    sums are the ethical tables minus their recovered constants, so they
    order states, and first disagree, alike.
    """
    analysis = Analysis(soc)
    records = tuple(_check_hypotheses(soc, analysis))
    failed = next((r.name for r in records if not r.passed), None)
    if failed is not None:
        return Theorem3Report(
            status=HYPOTHESIS_FAILURE, hypotheses=records, failed_hypothesis=failed
        )
    try:
        norm = normalize_for_theorem3(soc, analysis)
    except NormalizationError as exc:
        return Theorem3Report(status=RECOVERY_FAILURE, hypotheses=records, detail=str(exc))
    alt, nm = soc.alt_side(), soc.nm_side()
    states = soc.space.states
    agents = _agent_verdicts(
        soc.agents,
        [alt.tables[a] for a in soc.agents],
        [nm.tables[a] for a in soc.agents],
        states,
    )
    violation = any(v.kind == VIOLATION for v in agents)
    if not violation and not same_weak_order(alt.ethical, nm.ethical, states):
        x, y = _first_disagreement(alt.ethical, nm.ethical, states)
        return Theorem3Report(
            status=HYPOTHESIS_FAILURE,
            hypotheses=records
            + (
                HypothesisRecord(
                    "shared-ethical-order", False, f"table sums disagree on ({x!r}, {y!r})"
                ),
            ),
            failed_hypothesis="shared-ethical-order",
            agents=agents,
            normalization=norm,
        )
    slopes = tuple(
        v.alpha * w_nm / w_alt if v.kind == COINCIDE else None
        for v, w_alt, w_nm in zip(agents, norm.alt_weights, norm.nm_weights)
    )
    return Theorem3Report(
        status=VIOLATION if violation else COINCIDE,
        hypotheses=records,
        agents=agents,
        normalization=dataclasses.replace(norm, slopes=slopes),
    )


# ---------------------------------------------------------------------------
# Worked fixtures


@dataclass(frozen=True)
class SqrtFixture:
    """Society whose two scales differ by a square root on the first coordinate."""

    society: Society
    eps: Fraction
    kmax: int
    #: Pairs of states verified ethically indifferent on the starred side.
    chain: tuple[tuple[StateKey, StateKey], ...]
    #: Base-scale increment of agent 1 between consecutive first-coordinate states.
    increments: tuple[Fraction, ...]


def sqrt_fixture(kmax: int, eps: Fraction, *, degenerate_second_agent: bool = False) -> SqrtFixture:
    """Two-agent society on {(k*eps)^2 : k <= kmax} x {low, high}.

    Agent 1's intensity table is the first coordinate and its lottery table
    is the exact square root; agent 2's tables step by eps.  Both ethical
    tables are plain sums.  Every aggregation hypothesis holds by
    construction, but the two scales for agent 1 cannot be affine images:
    the intensity increments grow like (2k+1) * eps**2 while the lottery
    increments stay flat.  With ``degenerate_second_agent`` the second agent
    is everywhere indifferent and the contradiction dissolves into a
    hypothesis failure instead.
    """
    eps = Fraction(eps)
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    x1_values = [(k * eps) ** 2 for k in range(kmax + 1)]
    x2_values = [Fraction(0), Fraction(1)]
    keys = [
        f"{x1},{x2}" for x1 in map(str, x1_values) for x2 in map(str, x2_values)
    ]
    space = StateSpace.explicit(keys)
    coord = {key: (x1, x2) for key, (x1, x2) in zip(keys, itertools.product(x1_values, x2_values))}

    def table(fn) -> UtilityTable:
        return UtilityTable({s: fn(*coord[s]) for s in keys})

    gap = Fraction(0) if degenerate_second_agent else eps
    u1 = table(lambda x1, x2: x1)
    u2 = table(lambda x1, x2: gap * x2)
    root = {x1: k * eps for k, x1 in enumerate(x1_values)}
    u1_star = table(lambda x1, x2: root[x1])
    u2_star = table(lambda x1, x2: gap * x2)
    v = linear_combination([u1, u2], [1, 1])
    v_star = linear_combination([u1_star, u2_star], [1, 1])
    society = Society.from_tables(
        space,
        {"agent1": u1, "agent2": u2},
        v,
        nm=Profile({"agent1": u1_star, "agent2": u2_star}, v_star),
        metadata={"title": f"sqrt-fixture k={kmax} eps={eps}"
                  + (" degenerate" if degenerate_second_agent else "")},
    )
    chain: list[tuple[StateKey, StateKey]] = []
    if not degenerate_second_agent:
        low, high = x2_values
        for k in range(kmax):
            a = f"{x1_values[k + 1]},{low}"
            b = f"{x1_values[k]},{high}"
            if v_star[a] != v_star[b]:
                raise AssertionError("starred indifference chain failed")
            chain.append((a, b))
    increments = tuple(b - a for a, b in zip(x1_values, x1_values[1:]))
    for k, inc in enumerate(increments):
        if inc != (2 * k + 1) * eps**2:
            raise AssertionError("increment table does not match its closed form")
    return SqrtFixture(
        society=society, eps=eps, kmax=kmax, chain=tuple(chain), increments=increments
    )


@dataclass(frozen=True)
class SimplexFixture:
    """Society on the line x1 + x2 = 1 where only semi-separability fails."""

    society: Society
    resolution: Fraction
    x1_values: tuple[Fraction, ...]
    semi_separability_witness: tuple[StateKey, ...]


def simplex_counterexample(resolution: Fraction) -> SimplexFixture:
    """Both profiles on the budget line, sharing every order but never affine.

    States are (x1, 1 - x1) with sqrt(x1) running over the dyadic grid of
    the given resolution, so both sqrt(x1) and x1**2 are exact.  The
    construction verifies its own advertised facts: the starred ethical
    table collapses to 2*x1 pointwise, the profiles are linearly
    independent, agent 1's two tables are not affinely related, and the
    society fails semi-separability (with the first witness profile) while
    every other aggregation hypothesis holds.
    """
    resolution = Fraction(resolution)
    if not (0 < resolution <= 1) or resolution.numerator != 1:
        raise ValueError("resolution must be a unit fraction in (0, 1]")
    den = resolution.denominator
    if den & (den - 1):
        raise ValueError("resolution must be a negative power of two")
    roots = [k * resolution for k in range(den + 1)]
    x1_values = [r**2 for r in roots]
    keys = [f"{x1},{1 - x1}" for x1 in x1_values]
    space = StateSpace.explicit(keys)
    x1 = {key: val for key, val in zip(keys, x1_values)}
    sqrt_x1 = {key: r for key, r in zip(keys, roots)}

    u1 = UtilityTable({s: sqrt_x1[s] for s in keys})
    u2 = UtilityTable({s: x1[s] for s in keys})
    u1_star = UtilityTable({s: x1[s] ** 2 for s in keys})
    u2_star = UtilityTable({s: 1 - (1 - x1[s]) ** 2 for s in keys})
    v = linear_combination([u1, u2], [1, 1])
    v_star = linear_combination([u1_star, u2_star], [1, 1])

    for s in keys:
        if v_star[s] != 2 * x1[s]:
            raise AssertionError("starred ethical table is not 2*x1")
    if affine_relation(u1, u1_star) is not None:
        raise AssertionError("agent 1 tables unexpectedly affine")
    for pair in ([u1, u2], [u1_star, u2_star]):
        rows = [[t[s] for s in keys] for t in pair]
        if linalg.rank(rows) != 2:
            raise AssertionError("profile tables are linearly dependent")

    society = Society.from_tables(
        space,
        {"agent1": u1, "agent2": u2},
        v,
        nm=Profile({"agent1": u1_star, "agent2": u2_star}, v_star),
        metadata={"title": f"simplex-fixture resolution={resolution}"},
    )
    semi = check_semi_separable(society)
    if semi.passed:
        raise AssertionError("fixture unexpectedly semi-separable")
    for name, result in (
        ("pareto", check_pareto_criterion(society)),
        ("axiom-I", check_axiom_I(society)),
        ("axiom-i", check_axiom_i(society)),
    ):
        if not result:
            raise AssertionError(f"fixture unexpectedly fails {name}")
    return SimplexFixture(
        society=society,
        resolution=resolution,
        x1_values=tuple(x1_values),
        semi_separability_witness=tuple(semi.witness),
    )
