"""Weight recovery from improvement-intensity data.

The engine is the difference map F: tabulate the ethical difference
v(x) - v(y) against the vector of agent differences u_i(x) - u_i(y).  When
unanimous intensity equality forces ethical intensity equality, F is a
well-defined function of the difference vector; semi-separability makes its
domain a full product, and then F splits into per-agent components that are
additive on their grids.  On a finite grid additivity plus the realized
step structure force each component to be exactly linear, so the slopes can
be read off and verified exhaustively instead of by a limit argument; any
failure is a hard error, never an approximation.

One ordered-pair scan decides axiom (I) and tabulates F at once; an
``Analysis`` object carries it from the first check that asks to the next,
so a run scans each society's pairs once.  No chain-rule pass follows the
map: with V(a) the ethical value at any state whose value vector is a (well
defined because F(0) = 0), every tabulated value is F(b - a) = V(b) - V(a),
so F(c' - c) + F(c'' - c') = F(c'' - c) telescopes and cannot fail.  A
component that is linear on its grid is additive, so the quadratic
additivity scan runs only for a component that is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub

from .core import StateKey, linear_combination
from .society import CheckResult, Society, check_semi_separable

DiffVector = tuple[Fraction, ...]


class DifferenceMapError(ValueError):
    """Construction failed: two pairs share a difference vector but not an ethical difference."""

    def __init__(self, first: tuple[StateKey, StateKey], second: tuple[StateKey, StateKey]):
        super().__init__(f"conflicting pairs {first} and {second}")
        self.conflict = (first, second)


@dataclass(frozen=True)
class DifferenceMap:
    """Tabulated ethical differences over realized agent-difference vectors."""

    agents: tuple[str, ...]
    table: dict[DiffVector, Fraction]
    exemplars: dict[DiffVector, tuple[StateKey, StateKey]]
    components: tuple[dict[Fraction, Fraction], ...]
    diff_grids: tuple[tuple[Fraction, ...], ...]

    def component_monotone(self, i: int) -> bool:
        grid = self.diff_grids[i]
        comp = self.components[i]
        return all(comp[a] < comp[b] for a, b in zip(grid, grid[1:]))


def _pair_groups(soc: Society):
    """Iterate (difference vector, ethical difference, pair) in state order."""
    profile = soc.alt_side()
    states = soc.space.states
    vectors = [tuple(profile.tables[a][s] for a in soc.agents) for s in states]
    ethical = [profile.ethical[s] for s in states]
    for x, cx, vx in zip(states, vectors, ethical):
        for y, cy, vy in zip(states, vectors, ethical):
            yield tuple(map(sub, cx, cy)), vx - vy, (x, y)


@dataclass(frozen=True)
class PairScan:
    """Ethical differences by difference vector, from one pass over the pairs.

    ``conflict`` is the first pair, in state order, whose ethical difference
    differs from the one stored for its vector, together with the stored
    pair; the scan stops there, so the tables are partial when it is set.
    """

    table: dict[DiffVector, Fraction]
    exemplars: dict[DiffVector, tuple[StateKey, StateKey]]
    conflict: tuple[tuple[StateKey, StateKey], tuple[StateKey, StateKey]] | None


def _scan_pairs(soc: Society) -> PairScan:
    table: dict[DiffVector, Fraction] = {}
    exemplars: dict[DiffVector, tuple[StateKey, StateKey]] = {}
    for c, dv, pair in _pair_groups(soc):
        stored = table.get(c)
        if stored is None:
            table[c] = dv
            exemplars[c] = pair
        elif stored != dv:
            return PairScan(table, exemplars, (pair, exemplars[c]))
    return PairScan(table, exemplars, None)


class Analysis:
    """Results that several checks of one run need, each computed on first use.

    A command creates one per society, passes it to its checks and drops it
    when it returns.  It is never stored on the society: a long-lived
    society would otherwise keep its quadratic pair tables alive.
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
    table = scan.table
    # The complete scan realizes every u_i(x) - u_i(y), so agent i's grid is
    # its range minus itself.
    profile = soc.alt_side()
    ranges = [profile.tables[a].range_values() for a in soc.agents]
    diff_grids = tuple(tuple(sorted({a - b for a in r for b in r})) for r in ranges)
    zero = Fraction(0)
    components = []
    for i, grid in enumerate(diff_grids):
        comp = {}
        for c in grid:
            axis = tuple(c if j == i else zero for j in range(len(soc.agents)))
            if axis not in table:
                raise AssertionError("semi-separable map misses an axis vector")
            comp[c] = table[axis]
        components.append(comp)
    return DifferenceMap(
        agents=soc.agents,
        table=table,
        exemplars=scan.exemplars,
        components=tuple(components),
        diff_grids=diff_grids,
    )


def verify_component_additivity(dm: DifferenceMap, i: int) -> CheckResult:
    """F_i(c) + F_i(c') must equal F_i(c + c') whenever all three lie on the grid.

    Also certifies the forced consequences F_i(0) = 0 and F_i(-c) = -F_i(c).
    """
    comp = dm.components[i]
    grid = dm.diff_grids[i]
    zero = Fraction(0)
    if comp[zero] != 0:
        return CheckResult(False, witness=(zero, zero), description="F_i(0) != 0")
    for c in grid:
        if comp[-c] != -comp[c]:
            return CheckResult(False, witness=(c, -c), description="F_i(-c) != -F_i(c)")
    grid_set = set(grid)
    for c in grid:
        for c1 in grid:
            if c + c1 in grid_set and comp[c] + comp[c1] != comp[c + c1]:
                return CheckResult(False, witness=(c, c1))
    return CheckResult(True)


def _is_linear(dm: DifferenceMap, i: int) -> bool:
    """True iff F_i(c) = a * c on the whole grid for a single a.

    A linear component is additive (a*c + a*c' = a*(c + c')) and passes the
    zero and negation checks, so it needs no quadratic additivity scan.
    """
    grid = dm.diff_grids[i]
    comp = dm.components[i]
    top = grid[-1]
    a = comp[top] / top if top else Fraction(0)
    return all(comp[c] == a * c for c in grid)


@dataclass(frozen=True)
class SlopeReport:
    slopes: tuple[Fraction, ...]
    constant_agents: tuple[str, ...]  # agents with a trivial grid, slope fixed at 1


def extract_slopes(dm: DifferenceMap) -> SlopeReport:
    """Per-agent slope a_i with F_i(c) = a_i * c verified on the whole grid.

    Agents whose difference grid is {0} contribute nothing to any
    difference; their slope is fixed at 1 by convention and flagged.
    A non-constant slope or a nonpositive slope (an upstream dominance
    violation) is a hard error.
    """
    slopes: list[Fraction] = []
    constant_agents: list[str] = []
    for i, name in enumerate(dm.agents):
        grid = dm.diff_grids[i]
        comp = dm.components[i]
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


def recover_constant(soc: Society, slopes) -> Fraction:
    """The additive constant, fixed at the first state and re-verified pointwise."""
    profile = soc.alt_side()
    tables = [profile.tables[a] for a in soc.agents]
    anchor = soc.space.states[0]
    b = profile.ethical[anchor] - sum(
        (a * t[anchor] for a, t in zip(slopes, tables)), Fraction(0)
    )
    if linear_combination(tables, slopes, b) != profile.ethical:
        raise ValueError("slopes and constant fail pointwise re-verification")
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

    def as_mapping(self) -> dict[str, Fraction]:
        if not self.success:
            raise ValueError("recovery failed; no weights")
        return dict(zip(self.agents, self.weights))


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
    except ValueError as exc:
        stage = "difference-map" if isinstance(exc, DifferenceMapError) else "semi-separability"
        return HarveyReport(False, soc.agents, failed_stage=stage, witness=str(exc))
    for i, name in enumerate(soc.agents):
        if _is_linear(dm, i):
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
