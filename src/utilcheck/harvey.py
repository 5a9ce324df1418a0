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
The profile's ``harsanyi.SpanProblem.certificate`` finds, on the tables'
numerators and denominators, one state that differs from the first state
in agent i's value only, reads a_i off it and checks the identity on the
scaled columns in O(|X| n) int operations, which also gives b; a
semi-separable society with a linear ethical table always has one.  A
profile where some agent has no such state reads the canonical a_i and b
off the problem's one reduction of [1 | u | v] instead.
``Analysis.certificate_of`` reads the certificate (weights, b) of the
profile's one ``SpanProblem``; axiom (I) and the difference map read its
weights, and so do the lottery side's axiom (i) and report and the Pareto
record, the report its b too.  Only without a certificate
does one ordered-pair scan, O(|X|^2), decide axiom (I), name the first
conflicting pair in state order, and tabulate F, bent components included.
An ``Analysis`` object carries the certificate and the scan from the first
check that asks to the next, so a run scans each society's pairs at most
once.  Either way the difference map keeps F on the axis vectors only, the
one part anything reads.  No chain-rule pass follows the map: with V(a) the
ethical value at any state whose value vector is a (well defined because
F(0) = 0), every scanned value is F(b - a) = V(b) - V(a), so
F(c' - c) + F(c'' - c') = F(c'' - c) telescopes and cannot fail.  Each
component's linearity is decided once, in ints (``DifferenceMap.bends``): a
linear component is additive, so only a bent one gets the quadratic
additivity scan, and the slopes read the same decision.

Both paths run over Python ints, each table's column: its values in state
order times the LCM of its denominators (``UtilityTable.column``, the list
every other check reads too), on which the constant is re-verified as well.
A positive per-table scale keeps "these two differences are equal" exactly,
so the verdict, the first conflicting pair and its stored pair are those of
a scan over the Fractions.  For the pair scan alone, each state's scaled
vector is packed into one int, P(x) = sum of U_i(x) * R_i, with R_0 = 1 and
R_{i+1} = R_i * (2 * span_i + 1), where span_i is max - min of agent i's
scaled table.  Every component of a difference vector lies in
[-span_i, span_i], so P(x) - P(y) is a balanced mixed-radix numeral with
those components as digits and names the difference vector uniquely, so
each scanned pair costs one int subtraction and one int dict lookup.
Fractions are built only for the slopes, the reports, the witnesses and
``DifferenceMap.diff_grids``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .core import Record, StateKey, fitted_constant
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
    ``diff_grids`` is the same grids decoded to Fractions on first read.
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


class _Ints(Record):
    """One profile's tables in state order as scaled ints, and their radices.

    ``columns[i]`` is agent i's scaled column and ``ethical`` the scaled
    ethical column.  Each state's packed vector P(x) = sum of U_i(x) * R_i
    (``packed``) is built on first read, by the pair scan alone.
    """

    states: tuple[StateKey, ...]
    columns: tuple[list[int], ...]
    scales: tuple[int, ...]
    radices: tuple[int, ...]
    ethical_scale: int
    ethical: list[int]

    @cached_property
    def packed(self) -> list[int]:
        packed = [0] * len(self.states)
        for column, radix in zip(self.columns, self.radices):
            packed = [p + u * radix for p, u in zip(packed, column)]
        return packed


def _pack(soc: Society, profile: Profile) -> _Ints:
    states = soc.space.states
    tables = [profile.tables[a] for a in soc.agents]
    columns = tuple(t.column(states) for t in tables)
    radices, radix = [], 1
    for column in columns:
        radices.append(radix)
        radix *= 2 * (max(column) - min(column)) + 1
    scales, ethical = tuple(t.scale for t in tables), profile.ethical
    return _Ints(states, columns, scales, tuple(radices), ethical.scale, ethical.column(states))


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

    That is one ``SpanProblem`` per profile (``span_of``), whose
    certificate (``certificate_of``) the lottery side, the Pareto record
    and the intensity side all read, and whose reduction is built only
    where the certificate lacks a neighbour or a lottery-side answer needs
    it; and the intensity side's scaled ints, pair scan (read only when
    there is no certificate) and semi-separability results.  A society
    whose profiles all have neighbours and a linear ethical table reduces
    no rows.
    A command creates one per society, passes it to its checks and drops it
    when it returns.  It is never stored on the society: a long-lived
    society would otherwise keep a quadratic pair table alive.
    """

    def __init__(self, soc: Society):
        self.soc = soc
        self._spans: dict[int, SpanProblem] = {}
        self._semi_separable: dict[int, CheckResult] = {}

    @staticmethod
    def _once(cache: dict, profile: Profile, build, *args):
        """``build(*args)`` for one of the society's profiles, called only on its first request."""
        if id(profile) not in cache:
            cache[id(profile)] = build(*args)
        return cache[id(profile)]

    def span_of(self, profile: Profile) -> SpanProblem:
        """The span problem of one of the society's profiles, built once per profile."""
        agents, states = self.soc.agents, self.soc.space.states
        return self._once(self._spans, profile, SpanProblem.from_profile, profile, agents, states)

    def certificate_of(
        self, profile: Profile
    ) -> tuple[tuple[Fraction | None, ...], Fraction] | None:
        """One of the society's profiles' ``SpanProblem.certificate``, (weights, b)."""
        return self.span_of(profile).certificate

    def semi_separability_of(self, profile: Profile) -> CheckResult:
        """Semi-separability of one of the society's profiles' agent tables."""
        return self._once(self._semi_separable, profile, check_semi_separable, self.soc, profile)

    @cached_property
    def _ints(self) -> _Ints:
        return _pack(self.soc, self.soc.alt_side())

    @cached_property
    def pair_scan(self) -> PairScan:
        return _scan_pairs(self._ints)


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
    if analysis.certificate_of(soc.alt_side()) is not None:
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
    semi = analysis.semi_separability_of(soc.alt_side())
    if not semi:
        raise ValueError(f"society is not semi-separable (witness profile {semi.witness})")
    ints, certificate = analysis._ints, analysis.certificate_of(soc.alt_side())
    # Agent i's grid is its scaled range minus itself, and the axis vector
    # with scaled component c for agent i is the key c * R_i.
    ranges = [set(column) for column in ints.columns]
    grids = tuple(tuple(sorted({x - y for x in r for y in r})) for r in ranges)
    keys = [
        (c * radix, c, i) for i, (grid, radix) in enumerate(zip(grids, ints.radices)) for c in grid
    ]
    if certificate is None:
        scan = analysis.pair_scan
        if scan.conflict is not None:
            raise DifferenceMapError(*scan.conflict)
        if any(key not in scan.table for key, _, _ in keys):
            raise AssertionError("semi-separable map misses an axis vector")
        table = {key: scan.table[key] for key, _, _ in keys}
    else:
        # With weight a_i = p / q, F_i(c) = c * p * e / (q * s_i) on the
        # scaled tables is the ethical difference of two states that realize
        # the axis vector, so the division is exact.
        e = ints.ethical_scale
        ratios = ((w or 0).as_integer_ratio() for w in certificate[0])
        rises = [(p * e, q * s) for (p, q), s in zip(ratios, ints.scales)]
        table = {}
        for key, c, i in keys:
            de, du = rises[i]
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


def recover_constant(soc: Society, slopes) -> Fraction:
    """The additive constant of the intensity side, by ``core.fitted_constant``.

    It reads the intensity side's scaled columns, the ints the difference
    map was built from.  The slopes passed the linearity decision, so a
    failed re-verification is a bug, not a verdict: it raises
    ``AssertionError``.
    """
    profile = soc.alt_side()
    tables = [profile.tables[a] for a in soc.agents]
    b = fitted_constant(tables, profile.ethical, slopes, soc.space.states)
    if b is None:
        raise AssertionError("slopes and constant fail pointwise re-verification")
    return b


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
        constant=recover_constant(soc, slope_report.slopes),
        constant_agents=slope_report.constant_agents,
    )
