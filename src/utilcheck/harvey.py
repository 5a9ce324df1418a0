"""Weight recovery from improvement-intensity data.

The engine is the difference map F: tabulate the ethical difference
v(x) - v(y) against the vector of agent differences u_i(x) - u_i(y).  When
unanimous intensity equality forces ethical intensity equality, F is a
well-defined function of the difference vector; semi-separability makes its
domain a full product, and then F splits into per-agent components that are
additive on their grids.  On a finite grid additivity does not imply
linearity (an additive component can still bend), so linearity is checked,
not implied: the slopes are read off and verified exhaustively instead of by
a limit argument, and additivity separates an ``additivity:`` failure from a
``slopes`` failure.  Any failure is a hard error, never an approximation.

A pass is certified first.  If v = sum a_i u_i + b holds at every state,
that identity proves axiom (I) and gives every component, F_i(c) = a_i * c.
``_linear_certificate`` reads each a_i off one state that differs from the
first state in agent i's value only and checks the identity in O(|X| n) int
operations; a semi-separable society with a linear ethical table always has
one.  A space where some agent has no such state reads the canonical a_i off
the profile's one reduction of [1 | u | v] instead, which the lottery side
shares.  Only without a certificate does one ordered-pair scan, O(|X|^2),
decide axiom (I), name the first conflicting pair in state order, and
tabulate F, bent components included.  An ``Analysis`` object carries the
certificate and the scan from the first check that asks to the next, so a
run scans each society's pairs at most once.  Either way the difference map
keeps F on the axis vectors only, the one part anything reads.  No
chain-rule pass follows the map: with V(a) the ethical value at any state
whose value vector is a (well defined because F(0) = 0), every scanned value
is F(b - a) = V(b) - V(a), so F(c' - c) + F(c'' - c') = F(c'' - c)
telescopes and cannot fail.  Each component's linearity is decided once, in
ints (``DifferenceMap.bends``): a linear component is additive, so only a
bent one gets the quadratic additivity scan, and the slopes read the same
decision.

Both paths run over Python ints: each table's column, its values in
state order times the LCM of its denominators (``UtilityTable.column``,
the list every other check reads too), is packed once per profile, and
the constant is re-verified on the same columns.  A positive per-table
scale keeps "these two differences are equal" exactly, so the verdict,
the first conflicting pair and its stored pair are those of a scan over
the Fractions.  Each state's scaled vector is then packed into one int,
P(x) = sum of U_i(x) * R_i, with R_0 = 1 and R_{i+1} = R_i * (2 * span_i + 1),
where span_i is max - min of agent i's scaled table.  Every component of a
difference vector lies in [-span_i, span_i], so P(x) - P(y) is a balanced
mixed-radix numeral with those components as digits and names the
difference vector uniquely, so each scanned pair costs one int subtraction
and one int dict lookup, and the certificate finds agent i's neighbour of a
state by adding (t - u) * R_i to its key.  Fractions are built for the
slopes and the reports; the Fraction components are decoded only when
something reads them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

from .core import Record, StateKey, combination_holds
from .harsanyi import SpanProblem
from .society import CheckResult, Profile, Society, check_semi_separable


class DifferenceMapError(ValueError):
    """Construction failed: two pairs share a difference vector but not an ethical difference."""

    def __init__(self, first: tuple[StateKey, StateKey], second: tuple[StateKey, StateKey]):
        super().__init__(f"conflicting pairs {first} and {second}")
        self.conflict = (first, second)


class PairScan(Record):
    """Scaled ethical differences by packed difference vector, from one pass over the pairs.

    The full scan: every realized difference vector is a key.  It runs only
    when no linear certificate decides axiom (I).  Agent i's values are
    scaled by ``scales[i]`` and weighted by ``radices[i]`` in each state's
    packed int; ethical values are scaled by ``ethical_scale``.
    ``conflict`` is the first pair, in state order, whose ethical difference
    differs from the one stored for its vector, together with the stored
    pair; the scan stops in that pair's row, so the table is partial when it
    is set.
    """

    table: dict[int, int]
    scales: tuple[int, ...]
    radices: tuple[int, ...]
    ethical_scale: int
    conflict: tuple[tuple[StateKey, StateKey], tuple[StateKey, StateKey]] | None


class DifferenceMap(PairScan):
    """F on the axis vectors (``conflict`` is None), with each agent's difference grid.

    ``grids`` holds agent i's scaled grid in ascending order; its point c is
    the axis vector keyed c * radices[i], and ``table`` holds exactly those
    keys, from the linear certificate or from a complete pair scan.
    ``components`` and ``diff_grids`` are the same grids decoded to
    Fractions on first read.
    """

    agents: tuple[str, ...]
    grids: tuple[tuple[int, ...], ...]

    @cached_property
    def steps(self) -> tuple[int | None, ...]:
        """Each agent's smallest positive scaled grid point, or None if its grid is {0}."""
        return tuple(next((c for c in grid if c > 0), None) for grid in self.grids)

    @cached_property
    def bends(self) -> tuple[int | None, ...]:
        """Each agent's first scaled grid point off the line F_i(c) = a_i * c, or None.

        With h the agent's step, a_i = F_i(h) / h, and F_i(c) = a_i * c reads
        table[c * R_i] * h == table[h * R_i] * c: the scales cancel.  A
        constant agent has no bend.
        """
        bends = []
        for grid, h, radix in zip(self.grids, self.steps, self.radices):
            if h is None:
                bends.append(None)
                continue
            f_h = self.table[h * radix]
            bends.append(next((c for c in grid if self.table[c * radix] * h != f_h * c), None))
        return tuple(bends)

    @cached_property
    def diff_grids(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(c, s) for c in g) for g, s in zip(self.grids, self.scales))

    @cached_property
    def components(self) -> tuple[dict[Fraction, Fraction], ...]:
        return tuple(
            {Fraction(c, s): Fraction(self.table[c * r], self.ethical_scale) for c in grid}
            for grid, s, r in zip(self.grids, self.scales, self.radices)
        )

    def component_monotone(self, i: int) -> bool:
        values = [self.table[c * self.radices[i]] for c in self.grids[i]]
        return all(a < b for a, b in zip(values, values[1:]))


class _Ints(Record):
    """One profile's tables in state order as scaled ints, and each state's packed vector.

    ``columns[i]`` is agent i's scaled column and ``packed`` holds P(x) =
    sum of U_i(x) * R_i; ``ethical`` is the scaled ethical column.
    """

    states: tuple[StateKey, ...]
    columns: tuple[list[int], ...]
    scales: tuple[int, ...]
    radices: tuple[int, ...]
    packed: list[int]
    ethical_scale: int
    ethical: list[int]


def _pack(soc: Society, profile: Profile) -> _Ints:
    states = soc.space.states
    tables = [profile.tables[a] for a in soc.agents]
    columns = tuple(t.column(states) for t in tables)
    packed, radices, radix = [0] * len(states), [], 1
    for column in columns:
        packed = [p + u * radix for p, u in zip(packed, column)]
        radices.append(radix)
        radix *= 2 * (max(column) - min(column)) + 1
    scales, ethical = tuple(t.scale for t in tables), profile.ethical
    return _Ints(
        states, columns, scales, tuple(radices), packed, ethical.scale, ethical.column(states)
    )


def _linear_certificate(
    ints: _Ints, span: Callable[[], SpanProblem]
) -> tuple[tuple[int, int] | None, ...] | None:
    """Each agent's scaled slope (dE, dU) if the ethical column is linear in the agents', else None.

    With x0 the first state, agent i's slope is read off one neighbour: a
    state whose vector differs from x0's in agent i's value only, found by
    one lookup of P(x0) + (t - U_i(x0)) * R_i per value t of agent i.  Over
    a common D, N_i = dE * D / dU, and the identity
    (E(x) - E(x0)) * D == sum of N_i * (U_i(x) - U_i(x0)) is then checked
    at every state, in O(|X| n) int operations.  It proves axiom (I), and
    F_i(c) = c * dE / dU.  A constant agent's slope is None.  A failed
    identity gives None: a linear ethical table would have shown each
    neighbour its weight.  Only when a nonconstant agent has no such
    neighbour does ``span()``, the profile's one reduction of [1 | u | v]
    (``SpanProblem``), decide instead (``_span_certificate``).
    Semi-separability puts every neighbour in the space, so a
    semi-separable society never reaches the reduction, and one with a
    linear ethical table is always certified by its neighbours.
    """
    index = dict(zip(ints.packed, range(len(ints.states))))
    p0, e0 = ints.packed[0], ints.ethical[0]
    slopes: list[tuple[int, int] | None] = []
    for column, radix in zip(ints.columns, ints.radices):
        u0, values = column[0], dict.fromkeys(column)
        if len(values) == 1:
            slopes.append(None)
            continue
        keys = (p0 + (t - u0) * radix for t in values if t != u0)
        j = next((index[key] for key in keys if key in index), None)
        if j is None:
            return _span_certificate(ints, span())
        slopes.append((ints.ethical[j] - e0, column[j] - u0))
    d = math.lcm(*(du for _, du in filter(None, slopes)))
    combination = [0] * len(ints.states)
    for column, slope in zip(ints.columns, slopes):
        if slope is not None:
            n, u0 = slope[0] * (d // slope[1]), column[0]
            combination = [r + n * (u - u0) for r, u in zip(combination, column)]
    if [(e - e0) * d for e in ints.ethical] != combination:
        return None
    return tuple(slopes)


def _span_certificate(
    ints: _Ints, problem: SpanProblem
) -> tuple[tuple[int, int] | None, ...] | None:
    """The canonical weights of v over [1 | u] as scaled slopes, or None if v is off the span.

    Weight w_i of the unscaled tables is the scaled slope
    (w_i * ethical_scale, scale_i).  A constant agent's slope is None, and a
    nonconstant agent outside the greedy basis has weight 0.
    """
    weights = problem.solution
    if weights is None:
        return None
    e_scale = ints.ethical_scale
    return tuple(
        None if min(column) == max(column) else (w.numerator * e_scale, w.denominator * scale)
        for column, scale, w in zip(ints.columns, ints.scales, weights[1:])
    )


def _scan_pairs(ints: _Ints) -> PairScan:
    states, packed, ethical = ints.states, ints.packed, ints.ethical
    table: dict[int, int] = {}
    conflict = None
    # Row x at a time: setdefault stores each key's first difference in
    # state order and hands back the stored one, so the first pair whose
    # stored difference is not its own is the first conflict.
    for x, px, vx in zip(states, packed, ethical):
        keys = [px - py for py in packed]
        diffs = [vx - vy for vy in ethical]
        stored = list(map(table.setdefault, keys, diffs))
        if stored != diffs:
            j = next(j for j, (s, d) in enumerate(zip(stored, diffs)) if s != d)
            conflict = ((x, states[j]), _first_pair(states, packed, keys[j]))
            break
    return PairScan(table, ints.scales, ints.radices, ints.ethical_scale, conflict)


def _first_pair(
    states: tuple[StateKey, ...], packed: list[int], key: int
) -> tuple[StateKey, StateKey]:
    """The first pair (x, y) in state order with P(x) - P(y) == key."""
    first: dict[int, int] = {}
    for j, p in enumerate(packed):
        first.setdefault(p, j)
    return next((x, states[first[px - key]]) for x, px in zip(states, packed) if px - key in first)


class Analysis:
    """Results that several checks of one run need, each computed on first use.

    That is the intensity side's packed ints, linear certificate, pair scan
    (read only when there is no certificate), semi-separability results and
    ``harvey`` recovery report, the base tables' certificate for the Pareto
    record, and one ``SpanProblem`` per profile (``span_of``), whose one
    reduction answers every span question on that profile: the lottery
    side's (``span``) every Harsanyi answer, and a certificate whose
    profile lacks a single-agent neighbour.  A society with no separate
    profiles reduces its rows once.
    A command creates one per society, passes it to its checks and drops it
    when it returns.  It is never stored on the society: a long-lived
    society would otherwise keep a quadratic pair table alive.
    """

    def __init__(self, soc: Society):
        self.soc = soc
        self._spans: dict[int, SpanProblem] = {}

    def span_of(self, profile: Profile) -> SpanProblem:
        """The span problem of one of the society's profiles, built once per profile."""
        problem = self._spans.get(id(profile))
        if problem is None:
            problem = SpanProblem.from_profile(profile, self.soc.agents, self.soc.space.states)
            self._spans[id(profile)] = problem
        return problem

    @property
    def span(self) -> SpanProblem:
        """The lottery side's span problem."""
        return self.span_of(self.soc.nm_side())

    @cached_property
    def semi_separability(self) -> CheckResult:
        """Semi-separability of the base orders, the hypothesis record's question."""
        return check_semi_separable(self.soc)

    @cached_property
    def alt_semi_separability(self) -> CheckResult:
        """Semi-separability of the intensity-side tables the difference map reads."""
        if self.soc.alt is None:
            return self.semi_separability
        return check_semi_separable(self.soc, self.soc.alt)

    @cached_property
    def _ints(self) -> _Ints:
        return _pack(self.soc, self.soc.alt_side())

    @cached_property
    def certificate(self) -> tuple[tuple[int, int] | None, ...] | None:
        """The intensity side's linear certificate (``_linear_certificate``), or None."""
        return _linear_certificate(self._ints, partial(self.span_of, self.soc.alt_side()))

    @cached_property
    def base_certificate(self) -> tuple[tuple[int, int] | None, ...] | None:
        """The same certificate on the base tables, which the Pareto record may read."""
        if self.soc.alt is None:
            return self.certificate
        ints = _pack(self.soc, self.soc.base)
        return _linear_certificate(ints, partial(self.span_of, self.soc.base))

    @cached_property
    def pair_scan(self) -> PairScan:
        return _scan_pairs(self._ints)

    @cached_property
    def harvey(self) -> HarveyReport:
        """The intensity-side recovery, which Theorem 3 normalizes with."""
        return harvey_recover(self.soc, self)


def check_axiom_I(soc: Society, analysis: Analysis | None = None) -> CheckResult:
    """Equal agent differences on all coordinates must give equal ethical differences.

    A linear certificate passes it outright, whether read off single-agent
    neighbours or, on a profile that lacks one, off the profile's
    reduction.  Otherwise the pair scan groups pairs by their difference
    vector, which decides the same condition as the quadruple formulation:
    a witness quadruple is two pairs in one group with different ethical
    differences, and the first one in state order is reported.
    """
    if analysis is None:
        analysis = Analysis(soc)
    if analysis.certificate is not None:
        return CheckResult(True)
    conflict = analysis.pair_scan.conflict
    if conflict is None:
        return CheckResult(True)
    pair, stored = conflict
    return CheckResult(False, pair + stored)


def build_difference_map(soc: Society, analysis: Analysis | None = None) -> DifferenceMap:
    """Tabulate F on the axis vectors, validating well-definedness.

    Semi-separability of the intensity-side tables is a hard precondition:
    it is what makes the realized difference vectors cover the full product
    of the per-agent grids, so a violation raises immediately rather than
    producing a partial map.  The values come from the linear certificate
    when there is one, and from the pair scan otherwise, which raises
    ``DifferenceMapError`` on its first conflict.
    """
    if analysis is None:
        analysis = Analysis(soc)
    semi = analysis.alt_semi_separability
    if not semi:
        raise ValueError(f"society is not semi-separable (witness profile {semi.witness})")
    ints, slopes = analysis._ints, analysis.certificate
    # Agent i's grid is its scaled range minus itself, and the axis vector
    # with scaled component c for agent i is the key c * R_i.
    ranges = [set(column) for column in ints.columns]
    grids = tuple(tuple(sorted({x - y for x in r for y in r})) for r in ranges)
    keys = [
        (c * radix, c, i) for i, (grid, radix) in enumerate(zip(grids, ints.radices)) for c in grid
    ]
    if slopes is None:
        scan = analysis.pair_scan
        if scan.conflict is not None:
            raise DifferenceMapError(*scan.conflict)
        if any(key not in scan.table for key, _, _ in keys):
            raise AssertionError("semi-separable map misses an axis vector")
        table = {key: scan.table[key] for key, _, _ in keys}
    else:
        # F_i(c) = c * dE / dU is the ethical difference of two states that
        # realize the axis vector, so the division is exact.
        table = {}
        for key, c, i in keys:
            de, du = slopes[i] or (0, 1)
            table[key], rest = divmod(de * c, du)
            if rest:
                raise AssertionError("certified axis value is not an int")
    return DifferenceMap(
        table, ints.scales, ints.radices, ints.ethical_scale, None, soc.agents, grids
    )


def verify_component_additivity(dm: DifferenceMap, i: int) -> CheckResult:
    """F_i(c) + F_i(c') must equal F_i(c + c') whenever all three lie on the grid.

    Also certifies the forced consequences F_i(0) = 0 and F_i(-c) = -F_i(c).
    All three read the scan's scaled ints: ``f`` maps each scaled grid point
    c to table[c * R_i], and a sum is tested against ``f``'s keys, the grid
    (a key (c + c') * R_i off the grid can be another vector's key).  Only a
    witness is decoded, to Fractions.
    """
    scale, radix = dm.scales[i], dm.radices[i]
    f = {c: dm.table[c * radix] for c in dm.grids[i]}
    if f[0] != 0:
        return CheckResult(False, (Fraction(0), Fraction(0)))
    for c in f:
        if f[-c] != -f[c]:
            return CheckResult(False, (Fraction(c, scale), Fraction(-c, scale)))
    for c in f:
        for c1 in f:
            if c + c1 in f and f[c] + f[c1] != f[c + c1]:
                return CheckResult(False, (Fraction(c, scale), Fraction(c1, scale)))
    return CheckResult(True)


class SlopeReport(Record):
    slopes: tuple[Fraction, ...]
    constant_agents: tuple[str, ...]  # agents with a trivial grid, slope fixed at 1


def extract_slopes(dm: DifferenceMap) -> SlopeReport:
    """Per-agent slope a_i with F_i(c) = a_i * c verified on the whole grid.

    The verification is the map's one linearity decision per agent
    (``DifferenceMap.bends``); a bent point is decoded only for the message.
    Agents whose difference grid is {0} contribute nothing to any
    difference; their slope is fixed at 1 by convention and flagged.
    A non-constant slope or a nonpositive slope (an upstream dominance
    violation) is a hard error.
    """
    slopes: list[Fraction] = []
    constant_agents: list[str] = []
    for name, h, bend, scale, radix in zip(dm.agents, dm.steps, dm.bends, dm.scales, dm.radices):
        if h is None:
            slopes.append(Fraction(1))
            constant_agents.append(name)
            continue
        a = Fraction(dm.table[h * radix] * scale, h * dm.ethical_scale)
        if bend is not None:
            c, value = Fraction(bend, scale), Fraction(dm.table[bend * radix], dm.ethical_scale)
            raise ValueError(f"component {name!r} is not linear at {c}: {value} != {a * c}")
        if a <= 0:
            raise ValueError(f"component slope for {name!r} is not positive: {a}")
        slopes.append(a)
    return SlopeReport(slopes=tuple(slopes), constant_agents=tuple(constant_agents))


def recover_constant(soc: Society, slopes, analysis: Analysis | None = None) -> Fraction:
    """The additive constant, fixed at the first state and re-verified pointwise.

    Both read the intensity side's scaled columns (``Analysis._ints``), the
    ints the difference map was built from.  With E the ethical column over
    scale e and U_i agent i's over s_i, v = sum a_i u_i + b reads
    E = sum (a_i * e / s_i) U_i + b * e at every state.  The slopes passed
    the linearity decision, so a failed re-verification is a bug, not a
    verdict: it raises ``AssertionError``.
    """
    ints = (Analysis(soc) if analysis is None else analysis)._ints
    e = ints.ethical_scale
    weights = [a * Fraction(e, s) for a, s in zip(slopes, ints.scales)]
    b = ints.ethical[0] - sum((w * u[0] for w, u in zip(weights, ints.columns)), Fraction(0))
    if not combination_holds([1] * len(ints.states), ints.ethical, ints.columns, weights, b):
        raise AssertionError("slopes and constant fail pointwise re-verification")
    return b / e


class HarveyReport(Record):
    success: bool
    agents: tuple[str, ...]
    weights: tuple[Fraction, ...] | None = None
    constant: Fraction | None = None
    constant_agents: tuple[str, ...] = ()
    failed_stage: str | None = None
    witness: object = None


def harvey_recover(soc: Society, analysis: Analysis | None = None) -> HarveyReport:
    """Full intensity-side pipeline: axiom check, map, additivity, slopes, constant.

    Every agent's additivity is decided before any slope is extracted.
    """
    if analysis is None:
        analysis = Analysis(soc)

    def failure(stage: str, witness) -> HarveyReport:
        return HarveyReport(success=False, agents=soc.agents, failed_stage=stage, witness=witness)

    axiom = check_axiom_I(soc, analysis)
    if not axiom:
        return failure("axiom-I", axiom.witness)
    try:
        dm = build_difference_map(soc, analysis)
    except ValueError as exc:  # the axiom-I pass leaves only semi-separability to fail
        return failure("semi-separability", str(exc))
    for i, (name, bend) in enumerate(zip(soc.agents, dm.bends)):
        if bend is None:
            continue
        add = verify_component_additivity(dm, i)
        if not add:
            return failure(f"additivity:{name}", add.witness)
    try:
        slope_report = extract_slopes(dm)
    except ValueError as exc:
        return failure("slopes", str(exc))
    return HarveyReport(
        success=True,
        agents=soc.agents,
        weights=slope_report.slopes,
        constant=recover_constant(soc, slope_report.slopes, analysis),
        constant_agents=slope_report.constant_agents,
    )
