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

One ordered-pair scan decides axiom (I) and tabulates F at once; an
``Analysis`` object carries it from the first check that asks to the next,
so a run scans each society's pairs once.  No chain-rule pass follows the
map: with V(a) the ethical value at any state whose value vector is a (well
defined because F(0) = 0), every tabulated value is F(b - a) = V(b) - V(a),
so F(c' - c) + F(c'' - c') = F(c'' - c) telescopes and cannot fail.  Each
component's linearity is decided once, in ints (``DifferenceMap.bends``):
a linear component is additive, so only a bent one gets the quadratic
additivity scan, and the slopes read the same decision.

The scan runs over Python ints: each table's scaled form, its values times
the LCM of its denominators (``UtilityTable.scaled``, shared with the
other checks), is read once.  A positive per-table scale keeps "these two differences are equal" exactly, so the
verdict, the first conflicting pair and its stored pair are those of a scan
over the Fractions.  Each state's scaled vector is then packed into one int,
P(x) = sum of U_i(x) * R_i, with R_0 = 1 and R_{i+1} = R_i * (2 * span_i + 1),
where span_i is max - min of agent i's scaled table.  Every component of a
difference vector lies in [-span_i, span_i], so P(x) - P(y) is a balanced
mixed-radix numeral with those components as digits and names the
difference vector uniquely, so each pair costs one int subtraction and one
int dict lookup.  Fractions are built for the slopes and the reports; the
Fraction components are decoded only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import StateKey, is_combination
from .harsanyi import SpanProblem
from .society import CheckResult, Society, check_semi_separable


class DifferenceMapError(ValueError):
    """Construction failed: two pairs share a difference vector but not an ethical difference."""

    def __init__(self, first: tuple[StateKey, StateKey], second: tuple[StateKey, StateKey]):
        super().__init__(f"conflicting pairs {first} and {second}")
        self.conflict = (first, second)


@dataclass(frozen=True)
class PairScan:
    """Scaled ethical differences by packed difference vector, from one pass over the pairs.

    Agent i's values are scaled by ``scales[i]`` and weighted by
    ``radices[i]`` in each state's packed int; ethical values are scaled by
    ``ethical_scale``.  ``conflict`` is the first pair, in state order,
    whose ethical difference differs from the one stored for its vector,
    together with the stored pair; the scan stops in that pair's row, so
    the table is partial when it is set.
    """

    table: dict[int, int]
    scales: tuple[int, ...]
    radices: tuple[int, ...]
    ethical_scale: int
    conflict: tuple[tuple[StateKey, StateKey], tuple[StateKey, StateKey]] | None


@dataclass(frozen=True)
class DifferenceMap(PairScan):
    """A complete pair scan (``conflict`` is None) with each agent's difference grid.

    ``grids`` holds agent i's scaled grid in ascending order; its point c is
    the axis vector keyed c * radices[i].  ``components`` and ``diff_grids``
    are the same grids decoded to Fractions on first read.
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


def _scan_pairs(soc: Society) -> PairScan:
    profile = soc.alt_side()
    states = soc.space.states
    packed = [0] * len(states)
    scales, radices, radix = [], [], 1
    for a in soc.agents:
        scale, ints = profile.tables[a].scaled
        column = [ints[s] for s in states]
        packed = [p + u * radix for p, u in zip(packed, column)]
        scales.append(scale)
        radices.append(radix)
        radix *= 2 * (max(column) - min(column)) + 1
    ethical_scale, ethical_ints = profile.ethical.scaled
    ethical = [ethical_ints[s] for s in states]
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
    return PairScan(table, tuple(scales), tuple(radices), ethical_scale, conflict)


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

    That is the intensity side's pair scan, semi-separability results and
    ``harvey`` recovery report, and the lottery side's ``span``, whose one
    reduction every Harsanyi answer reads.  A command creates one per
    society, passes it to its checks and drops it when it returns.  It is never stored on the society: a
    long-lived society would otherwise keep its quadratic pair tables alive.
    """

    def __init__(self, soc: Society):
        self.soc = soc

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
    def pair_scan(self) -> PairScan:
        return _scan_pairs(self.soc)

    @cached_property
    def span(self) -> SpanProblem:
        return SpanProblem.of(self.soc)

    @cached_property
    def harvey(self) -> HarveyReport:
        """The intensity-side recovery, which Theorem 3 normalizes with and may certify Pareto by."""
        return harvey_recover(self.soc, self)


def check_axiom_I(soc: Society, analysis: Analysis | None = None) -> CheckResult:
    """Equal agent differences on all coordinates must give equal ethical differences.

    Scans pairs grouped by their difference vector, which decides the same
    condition as the quadruple formulation: a witness quadruple is two pairs
    in one group with different ethical differences.
    """
    if analysis is None:
        analysis = Analysis(soc)
    conflict = analysis.pair_scan.conflict
    if conflict is None:
        return CheckResult(True)
    pair, stored = conflict
    return CheckResult(False, witness=pair + stored)


def build_difference_map(soc: Society, analysis: Analysis | None = None) -> DifferenceMap:
    """Tabulate F on every realized difference vector, validating well-definedness.

    Semi-separability of the intensity-side tables is a hard precondition:
    it is what makes the realized difference vectors cover the full product
    of the per-agent grids, so a violation raises immediately rather than
    producing a partial map.
    """
    if analysis is None:
        analysis = Analysis(soc)
    semi = analysis.alt_semi_separability
    if not semi:
        raise ValueError(f"society is not semi-separable (witness profile {semi.witness})")
    scan = analysis.pair_scan
    if scan.conflict is not None:
        raise DifferenceMapError(*scan.conflict)
    # The complete scan realizes every u_i(x) - u_i(y), so agent i's grid is
    # its scaled range minus itself; the axis vector with scaled component c
    # for agent i is the key c * R_i.
    profile = soc.alt_side()
    grids = []
    for a, radix in zip(soc.agents, scan.radices):
        values = set(profile.tables[a].scaled[1].values())
        grid = tuple(sorted({x - y for x in values for y in values}))
        if any(c * radix not in scan.table for c in grid):
            raise AssertionError("semi-separable map misses an axis vector")
        grids.append(grid)
    return DifferenceMap(**vars(scan), agents=soc.agents, grids=tuple(grids))


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
        return CheckResult(False, witness=(Fraction(0), Fraction(0)), description="F_i(0) != 0")
    for c in f:
        if f[-c] != -f[c]:
            witness = (Fraction(c, scale), Fraction(-c, scale))
            return CheckResult(False, witness=witness, description="F_i(-c) != -F_i(c)")
    for c in f:
        for c1 in f:
            if c + c1 in f and f[c] + f[c1] != f[c + c1]:
                return CheckResult(False, witness=(Fraction(c, scale), Fraction(c1, scale)))
    return CheckResult(True)


@dataclass(frozen=True)
class SlopeReport:
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


def recover_constant(soc: Society, slopes) -> Fraction:
    """The additive constant, fixed at the first state and re-verified pointwise.

    The slopes passed the linearity decision, so a failed re-verification
    is a bug, not a verdict: it raises ``AssertionError``.
    """
    profile = soc.alt_side()
    tables = [profile.tables[a] for a in soc.agents]
    anchor = soc.space.states[0]
    b = profile.ethical[anchor] - sum(
        (a * t[anchor] for a, t in zip(slopes, tables)), Fraction(0)
    )
    if not is_combination(profile.ethical, tables, slopes, b):
        raise AssertionError("slopes and constant fail pointwise re-verification")
    return b


@dataclass(frozen=True)
class HarveyReport:
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
    axiom = check_axiom_I(soc, analysis)
    if not axiom:
        return HarveyReport(False, soc.agents, failed_stage="axiom-I", witness=axiom.witness)
    try:
        dm = build_difference_map(soc, analysis)
    except ValueError as exc:  # the axiom-I pass leaves only semi-separability to fail
        return HarveyReport(False, soc.agents, failed_stage="semi-separability", witness=str(exc))
    for i, (name, bend) in enumerate(zip(soc.agents, dm.bends)):
        if bend is None:
            continue
        add = verify_component_additivity(dm, i)
        if not add:
            return HarveyReport(
                False, soc.agents, failed_stage=f"additivity:{name}", witness=add.witness
            )
    try:
        slope_report = extract_slopes(dm)
    except ValueError as exc:
        return HarveyReport(False, soc.agents, failed_stage="slopes", witness=str(exc))
    return HarveyReport(
        True,
        soc.agents,
        weights=slope_report.slopes,
        constant=recover_constant(soc, slope_report.slopes),
        constant_agents=slope_report.constant_agents,
    )
