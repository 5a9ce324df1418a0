"""Certifying when two cardinal scales for the same preferences coincide.

Given one profile recovered from lottery data and one from intensity data,
the pipeline recovers the weights that make each ethical table the plain
sum of its reweighted agent tables, then asks, agent by agent, whether the
two input tables are positive affine images of each other.  Reweighting
either table by a positive factor cannot change that answer, so it is
decided once, on the tables as given.  On a finite grid this is decidable
outright.  ``affine_relation`` decides it on both tables' scaled ints and
returns the exact coefficients (a coincidence certificate).  Only when it
fails is the value-for-value map built, to find two steps with different
per-unit increments (a violation witness anyone can recheck by hand).
Fractions appear only in the reported coefficients and steps.

Both theorems answer with one ``CoincidenceReport``.  Proposition 1
(``proposition1_check``, on two given profiles) and Theorem 3
(``theorem3_pipeline``, after both weight recoveries) each record their
hypotheses as named records, then share one verdict tail that adds the
per-agent verdicts and the ethical-order gate.

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

import itertools
from fractions import Fraction
from typing import Mapping

from .core import Record, StateKey, StateSpace, UtilityTable, linear_combination, replace
from .harsanyi import SpanProblem, check_axiom_i, recover_weights
from .harvey import Analysis, check_axiom_I, harvey_recover
from .society import (
    Profile,
    Society,
    check_pareto_criterion,
    matches,
    order_disagreement,
    semi_separability,
)

COINCIDE = "coincide"
VIOLATION = "violation"
CONSTANT = "constant"
HYPOTHESIS_FAILURE = "hypothesis-failure"
RECOVERY_FAILURE = "recovery-failure"


class NormalizationError(ValueError):
    pass


class StepWitness(Record):
    """One single-coordinate grid step with its increment on both scales."""

    lo_state: StateKey
    hi_state: StateKey
    base_increment: Fraction
    starred_increment: Fraction


class ViolationWitness(Record):
    """Two steps whose starred-per-base increment ratios differ.

    ``increments`` lists (base, starred) increment pairs for every
    consecutive step of the agent's realized value grid, in grid order.
    """

    first: StepWitness
    second: StepWitness
    increments: tuple[tuple[Fraction, Fraction], ...]


class AgentVerdict(Record):
    agent: str
    kind: str  # COINCIDE | VIOLATION | CONSTANT
    alpha: Fraction | None = None
    beta: Fraction | None = None
    witness: ViolationWitness | None = None


class HypothesisRecord(Record):
    name: str
    passed: bool
    detail: str = ""


class NormalizationRecord(Record):
    agents: tuple[str, ...]
    alt_weights: tuple[Fraction, ...]
    alt_constant: Fraction
    nm_weights: tuple[Fraction, ...]
    nm_constant: Fraction
    #: Per-agent slope of the reweighted starred table (nm weight times u*_i)
    #: against the reweighted base table (alt weight times u_i); None for
    #: constant or violating agents or before the affinity analysis.
    slopes: tuple[Fraction | None, ...] | None = None


class CoincidenceReport(Record):
    """One theorem's verdict: its hypothesis records, then the per-agent verdicts.

    A failing record carries its own detail; ``detail`` holds only a
    recovery failure's message.
    """

    status: str  # COINCIDE | VIOLATION | HYPOTHESIS_FAILURE | RECOVERY_FAILURE
    hypotheses: tuple[HypothesisRecord, ...]
    agents: tuple[AgentVerdict, ...] = ()
    normalization: NormalizationRecord | None = None
    detail: str = ""

    @property
    def failed_hypothesis(self) -> str | None:
        """The name of the first failed record, or None when every one passed."""
        return next((r.name for r in self.hypotheses if not r.passed), None)

    def hypothesis(self, name: str) -> HypothesisRecord:
        for rec in self.hypotheses:
            if rec.name == name:
                return rec
        raise KeyError(name)


def normalize_for_theorem3(
    soc: Society, analysis: Analysis | None = None
) -> NormalizationRecord:
    """Recover the weights that make each ethical table the plain sum of its agents.

    With the recorded weights and constants, v = sum alt_i u_i + alt_constant
    and v* = sum nm_i u*_i + nm_constant; each recovery re-verifies its
    identity pointwise before returning.  The intensity-side weights are
    positive by construction; the lottery-side weights are the canonical
    ones and must be positive for every nonconstant agent.  This assumes
    the hypothesis battery passed: then the nonconstant agents' lottery
    tables are independent together with 1 (matching gives each the
    indifference classes of its base table, and semi-separability realizes
    every combination of them), so their weights are unique and a
    nonpositive one has no positive alternative.  On a society that fails
    the battery it may raise where another solution is positive.
    ``analysis`` carries both sides' certificates, pair scan or reduction
    from checks already run on ``soc``.
    """
    if analysis is None:
        analysis = Analysis(soc)
    alt_report = harvey_recover(soc, analysis)
    if not alt_report.success:
        raise NormalizationError(
            f"intensity-side recovery failed at {alt_report.failed_stage}: {alt_report.witness}"
        )
    nm_report = recover_weights(soc, analysis)
    if not nm_report.success:
        raise NormalizationError(
            f"lottery-side recovery failed at state {nm_report.residual_witness}"
        )
    nm_tables = soc.nm_side().tables
    for a, w in zip(soc.agents, nm_report.weights):
        if w <= 0 and not nm_tables[a].is_constant():
            raise NormalizationError(
                f"lottery-side weight for nonconstant agent {a!r} is not positive"
            )
    return NormalizationRecord(
        agents=soc.agents,
        alt_weights=alt_report.weights,
        alt_constant=alt_report.constant,
        nm_weights=nm_report.weights,
        nm_constant=nm_report.constant,
    )


def affine_relation(
    u: UtilityTable, w: UtilityTable
) -> tuple[Fraction, Fraction] | None:
    """The unique (alpha > 0, beta) with w = alpha*u + beta, or None.

    ``SpanProblem(states, (u, w)).certificate`` in u's state order reads
    alpha at the first state where u differs from the first state x0, and
    checks the identity and fixes beta at every state in one pass; a
    nonpositive alpha gives None.  One table always has a neighbour, so no
    reduction is built.  A constant u has weight None there, and the
    certificate's constant is w's one value, so a constant u relates only
    to a constant w, with alpha 1 and beta w(x0) - u(x0).
    """
    states = u.states()
    if states != w.states() and set(states) != set(w.states()):
        raise ValueError("tables must share a domain")
    found = SpanProblem(states, (u, w)).certificate
    if found is None:
        return None
    (alpha,), beta = found
    if alpha is None:
        return Fraction(1), beta - u[states[0]]
    return (alpha, beta) if alpha > 0 else None


def _agent_verdicts(agents, tables, starred, states) -> tuple[AgentVerdict, ...]:
    """Per agent: CONSTANT, or COINCIDE with exact (alpha, beta), or VIOLATION.

    Needs each agent's two tables to order the states alike and the
    realized value vectors to fill the product of the ranges.  The
    coincidence decision is ``affine_relation``'s, which checks every
    state.  Only when it fails is the agent's value map built, from the
    scaled ints, to find the witness: two steps whose scaled increments
    differ under cross multiplication.  A step's states are the first on
    the agent's axis (the others pinned at the first state) with its two
    values, else the first with them.
    """
    columns = [t.column(states) for t in tables]
    verdicts: list[AgentVerdict] = []
    for i, name in enumerate(agents):
        if tables[i].is_constant():
            verdicts.append(AgentVerdict(agent=name, kind=CONSTANT))
            continue
        relation = affine_relation(tables[i], starred[i])
        if relation is not None:
            verdicts.append(AgentVerdict(name, COINCIDE, *relation))
            continue
        base, image = columns[i], starred[i].column(states)
        others = [(column, column[0]) for k, column in enumerate(columns) if k != i]
        first: dict[int, tuple[int, StateKey]] = {}
        axis: dict[int, StateKey] = {}
        for j, (s, t) in enumerate(zip(states, base)):
            if t not in first:
                first[t] = (image[j], s)
            if t not in axis and all(column[j] == pin for column, pin in others):
                axis[t] = s
        grid = sorted(first)
        images = [first[t][0] for t in grid]
        exemplars = [axis.get(t, first[t][1]) for t in grid]
        rises = [(b - a, y - x) for a, b, x, y in zip(grid, grid[1:], images, images[1:])]
        run, lift = rises[0]
        bad = next((k for k, (db, ds) in enumerate(rises) if ds * run != lift * db), None)
        if bad is None:
            if lift <= 0:
                raise AssertionError("shared order should force a positive slope")
            raise AssertionError("affine verdict failed pointwise re-verification")
        steps = [
            StepWitness(lo, hi, Fraction(db, tables[i].scale), Fraction(ds, starred[i].scale))
            for lo, hi, (db, ds) in zip(exemplars, exemplars[1:], rises)
        ]
        increments = tuple((st.base_increment, st.starred_increment) for st in steps)
        witness = ViolationWitness(first=steps[0], second=steps[bad], increments=increments)
        verdicts.append(AgentVerdict(agent=name, kind=VIOLATION, witness=witness))
    return tuple(verdicts)


def _affinity_report(
    records, agents, tables, starred, sums, states, norm=None
) -> CoincidenceReport:
    """The verdict tail both theorems share, after their hypothesis records passed.

    The agent verdicts come first; unless one is a violation, the order of
    the two sums is compared next, and a disagreement adds a failing
    ``shared-ethical-order`` record.  ``sums`` is one table summing
    ``tables`` and one summing ``starred``, each reweighted as the caller's
    theorem needs; a violation is reported as such rather than hiding
    behind the diverging orders it causes.  A COINCIDE or VIOLATION fills
    ``norm``'s slopes, when one is given.
    """
    verdicts = _agent_verdicts(agents, tables, starred, states)
    status = VIOLATION if any(v.kind == VIOLATION for v in verdicts) else COINCIDE
    if status == COINCIDE and (pair := order_disagreement(*sums, states)):
        failed = HypothesisRecord("shared-ethical-order", False, f"table sums disagree on {pair!r}")
        return CoincidenceReport(HYPOTHESIS_FAILURE, records + (failed,), verdicts, norm)
    if norm is not None:
        slopes = tuple(
            v.alpha * w_nm / w_alt if v.kind == COINCIDE else None
            for v, w_alt, w_nm in zip(verdicts, norm.alt_weights, norm.nm_weights)
        )
        norm = replace(norm, slopes=slopes)
    return CoincidenceReport(status, records, verdicts, norm)


def _check_record(name: str, result, label: str) -> HypothesisRecord:
    """A check's pass, or its failure with detail ``"<label> <witness>"``."""
    return HypothesisRecord(name, result.passed, "" if result else f"{label} {result.witness}")


def _two_nonconstant(agents, tables: Mapping[str, UtilityTable]) -> HypothesisRecord:
    """The one ``two-nonconstant-agents`` decision, for both theorems."""
    nonconstant = [a for a in agents if not tables[a].is_constant()]
    return HypothesisRecord(
        "two-nonconstant-agents", len(nonconstant) >= 2, f"nonconstant agents: {nonconstant}"
    )


def proposition1_check(
    space: StateSpace,
    u_tables: Mapping[str, UtilityTable],
    u_star_tables: Mapping[str, UtilityTable],
) -> CoincidenceReport:
    """Decide per agent whether the starred table is a positive affine image.

    Three hypotheses are recorded, in this order: each agent pair must
    order states identically (``shared-agent-order``, naming the first
    disagreeing agent), the realized value vectors must fill the product of
    the per-agent ranges (``range-product``, by ``semi_separability``), and
    at least two agents must be nonconstant.  When all three pass, the
    per-agent verdicts are computed before the two plain table sums are
    compared.  Raises ValueError unless every table covers exactly the space.
    """
    agents = tuple(u_tables)
    if tuple(u_star_tables) != agents:
        raise ValueError("profiles must cover the same agents in the same order")
    for side, profile in (("u", u_tables), ("u*", u_star_tables)):
        for a in agents:
            if not profile[a].covers(space):
                raise ValueError(f"{side} table for {a!r} does not cover exactly the space")
    tables = [u_tables[a] for a in agents]
    starred = [u_star_tables[a] for a in agents]
    states = space.states
    disagreement = next(
        (
            f"agent {a!r} tables disagree on {pair!r}"
            for a, t, t_star in zip(agents, tables, starred)
            if (pair := order_disagreement(t, t_star, states))
        ),
        "",
    )
    records = (
        HypothesisRecord("shared-agent-order", not disagreement, disagreement),
        _check_record("range-product", semi_separability(tables, states), "witness profile"),
        _two_nonconstant(agents, u_tables),
    )
    if not all(r.passed for r in records):
        return CoincidenceReport(HYPOTHESIS_FAILURE, records)
    ones = [1] * len(agents)
    sums = (linear_combination(tables, ones), linear_combination(starred, ones))
    return _affinity_report(records, agents, tables, starred, sums, states)


def _pareto_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    """PASS when ``_pareto_certified`` holds; otherwise ``check_pareto_criterion``'s verdict.

    Where the base tables have no linear certificate, or one with a
    nonpositive slope, the bitset pass decides, and a failure's witness is
    the first dominated pair not ranked above.
    """
    if _pareto_certified(soc, analysis):
        return HypothesisRecord("pareto", True)
    return _check_record("pareto", check_pareto_criterion(soc), "witness pair")


def _pareto_certified(soc: Society, analysis: Analysis) -> bool:
    """True when the base tables' linear certificate proves the Pareto criterion.

    The certificate (``Analysis.certificate_of(soc.base)``) is the identity
    v(x) - v(x0) = sum a_i (u_i(x) - u_i(x0)) checked at every state, with
    each nonconstant agent's a_i a Fraction read off a single-agent
    neighbour or, on a space without one, off the base profile's reduction
    as the canonical weight.  If every such a_i is positive and x
    dominates y, each u_i(x) - u_i(y) is at least 0 and one is positive,
    for a nonconstant agent (a constant one has only zero differences), so
    v(x) > v(y).
    """
    certificate = analysis.certificate_of(soc.base)
    return certificate is not None and all(w is None or w > 0 for w in certificate[0])


def _matching_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    """Per-agent matching across all three table sources, plus base-vs-intensity
    for the ethical order.  The two ethical tables are never cross-compared
    here: their agreement is what the affinity analysis itself adjudicates.
    A missing profile stands in as the base one, and a table always matches
    itself, so those pairs are skipped.
    """
    alt_profile = soc.alt_side()
    nm_profile = soc.nm_side()
    pairs = [(name, nm_profile.tables[name], alt_profile.tables[name]) for name in soc.agents]
    pairs += [(name, soc.base.tables[name], alt_profile.tables[name]) for name in soc.agents]
    pairs.append(("ethical", soc.base.ethical, alt_profile.ethical))
    for name, order_table, alt_table in pairs:
        if order_table is not alt_table and not matches(order_table, alt_table, soc.space.states):
            return HypothesisRecord(
                "matching", False, f"order for {name!r} does not match its intensity system"
            )
    return HypothesisRecord("matching", True)


def _axiom_i_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    result = check_axiom_i(soc, analysis)
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


def _two_nonconstant_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    return _two_nonconstant(soc.agents, soc.alt_side().tables)


def _semi_separability_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    semi = analysis.semi_separability_of(soc.base)
    return _check_record("semi-separability", semi, "witness profile")


def _axiom_cap_i_record(soc: Society, analysis: Analysis) -> HypothesisRecord:
    return _check_record("axiom-I", check_axiom_I(soc, analysis), "witness quadruple")


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


def theorem3_pipeline(soc: Society) -> CoincidenceReport:
    """Hypothesis battery, both weight recoveries, then the shared verdict tail.

    Every hypothesis in ``HYPOTHESIS_CHECKS`` is evaluated, in that order
    (each gets a named record), before the pipeline decides.  The records
    are those ``validate`` reports: the pareto record is certified by the
    base tables' linear certificate when it can be and decided by the
    bitset pass of ``check_pareto_criterion`` otherwise (``_pareto_record``),
    and normalization recovers both sides on the run's ``Analysis``.  The
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
    records = tuple(fn(soc, analysis) for _, fn in HYPOTHESIS_CHECKS)
    if not all(r.passed for r in records):
        return CoincidenceReport(HYPOTHESIS_FAILURE, records)
    try:
        norm = normalize_for_theorem3(soc, analysis)
    except NormalizationError as exc:
        return CoincidenceReport(status=RECOVERY_FAILURE, hypotheses=records, detail=str(exc))
    alt, nm = soc.alt_side(), soc.nm_side()
    return _affinity_report(
        records,
        soc.agents,
        [alt.tables[a] for a in soc.agents],
        [nm.tables[a] for a in soc.agents],
        (alt.ethical, nm.ethical),
        soc.space.states,
        norm,
    )


# ---------------------------------------------------------------------------
# Worked fixtures


class SqrtFixture(Record):
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
            if v_star.values[a] != v_star.values[b]:
                raise AssertionError("starred indifference chain failed")
            chain.append((a, b))
    increments = tuple(b - a for a, b in zip(x1_values, x1_values[1:]))
    for k, inc in enumerate(increments):
        if inc != (2 * k + 1) * eps**2:
            raise AssertionError("increment table does not match its closed form")
    return SqrtFixture(
        society=society, eps=eps, kmax=kmax, chain=tuple(chain), increments=increments
    )


class SimplexFixture(Record):
    """Society on the line x1 + x2 = 1 where only semi-separability fails."""

    society: Society
    resolution: Fraction
    x1_values: tuple[Fraction, ...]
    semi_separability_witness: tuple[StateKey, ...]


def simplex_counterexample(resolution: Fraction) -> SimplexFixture:
    """Both profiles on the budget line, sharing every order but never affine.

    States are (x1, 1 - x1) with sqrt(x1) running over the dyadic grid of
    the given resolution, a unit fraction in (0, 1/2], so both sqrt(x1) and
    x1**2 are exact (at resolution 1 the two states make any two tables
    affine).  The construction verifies its own advertised facts: the
    starred ethical table collapses to 2*x1 pointwise, agent 1's two tables
    are not affinely related, and of the ``HYPOTHESIS_CHECKS`` battery that
    ``validate`` prints, run on one ``Analysis``, only semi-separability
    fails (its first witness profile is kept).  The battery reduces each
    profile's rows once, the base one for the Pareto certificate (no state
    of the line has a single-agent neighbour) and the lottery one for axiom
    (i); those two reductions show each profile independent together with
    the constant row.
    """
    resolution = Fraction(resolution)
    if resolution.numerator != 1 or resolution.denominator == 1:
        raise ValueError("resolution must be a unit fraction in (0, 1/2]")
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
        if v_star.values[s] != 2 * x1[s]:
            raise AssertionError("starred ethical table is not 2*x1")
    if affine_relation(u1, u1_star) is not None:
        raise AssertionError("agent 1 tables unexpectedly affine")

    society = Society.from_tables(
        space,
        {"agent1": u1, "agent2": u2},
        v,
        nm=Profile({"agent1": u1_star, "agent2": u2_star}, v_star),
        metadata={"title": f"simplex-fixture resolution={resolution}"},
    )
    analysis = Analysis(society)
    failed = [name for name, check in HYPOTHESIS_CHECKS if not check(society, analysis).passed]
    if failed != ["semi-separability"]:
        raise AssertionError(f"fixture fails {failed}, not semi-separability alone")
    for profile in (society.base, society.nm):
        if not analysis.span_of(profile).rows_independent():
            raise AssertionError("profile tables are linearly dependent")
    return SimplexFixture(
        society=society,
        resolution=resolution,
        x1_values=tuple(x1_values),
        semi_separability_witness=tuple(analysis.semi_separability_of(society.base).witness),
    )
