"""Improvement-intensity systems: a weak order on ordered state pairs.

``[x, y] >= [z, w]`` reads "moving from y to x is at least as strong an
improvement as moving from w to z".  Every weak order on the n**2 ordered
pairs of a finite set has a rank function, so a system is one: a table's
differences or any exact pair ranking.  The checks decide the two
structural axioms (consistency and crossover) and whether a table
represents a system, on every tuple, by sorting or grouping the pairs'
scaled int ranks; only a failure searches for the first witness in state
order.  A utility table is rebuilt from comparisons alone by laying out a
dyadic standard sequence between two anchor states.

Reconstruction needs the space to be rich enough that every required
subdivision point is realized; on the dyadic product grids used throughout
this package that holds whenever the generating table is grid-aligned.
States whose value falls strictly inside a bracket get the lower dyadic
endpoint; this includes states below the bottom of the sequence, which get
the next bracket floor down even though no sequence state certifies it from
below (endpoints are treated uniformly rather than by a separate branch).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .core import Record, StateKey, UtilityTable, _exact, first_disagreement, same_ranking
from .rationals import scale_to_ints
from .society import CheckResult

Pair = tuple[StateKey, StateKey]


class MissingGridPointError(ValueError):
    """The space realizes values beyond a subdivision point but not the point itself."""

    def __init__(self, value: Fraction):
        super().__init__(f"no state realizes required sequence value {value}")
        self.value = value


class AltSystem:
    """Weak order on X^2: [x,y] >= [z,w] exactly when rank([x,y]) >= rank([z,w])."""

    def __init__(self, states: Sequence[StateKey], rank: Callable[[Pair], Fraction]):
        self.states = tuple(states)
        self._rank = rank
        #: The generating table when the system ranks pairs by its differences.
        self.table: UtilityTable | None = None

    @classmethod
    def from_utility(cls, table: UtilityTable) -> "AltSystem":
        system = cls(table.states(), lambda pair: table[pair[0]] - table[pair[1]])
        system.table = table
        return system

    @classmethod
    def from_pair_ranking(
        cls, states: Sequence[StateKey], fn: Callable[[StateKey, StateKey], Fraction]
    ) -> "AltSystem":
        """Rank pairs by an int or Fraction value, always a weak order; a float raises TypeError."""
        return cls(states, lambda pair: _exact(fn(*pair), f"pair {pair!r}"))

    @cached_property
    def ranks(self) -> list[int]:
        """Each pair's rank as a scaled int, pairs in (x, y) state order."""
        pairs = itertools.product(self.states, repeat=2)
        return scale_to_ints([self._rank(pair) for pair in pairs])[1]

    def geq(self, p: Pair, q: Pair) -> bool:
        return self._rank(p) >= self._rank(q)

    def strict(self, p: Pair, q: Pair) -> bool:
        return self.geq(p, q) and not self.geq(q, p)

    def eq(self, p: Pair, q: Pair) -> bool:
        return self.geq(p, q) and self.geq(q, p)


def check_consistency(a: AltSystem) -> CheckResult:
    """[x,y] >= [y,y] must hold exactly when [x,z] >= [y,z], for all triples.

    Column z of the rank matrix, rank([x,z]) over x, compares x with y as
    [x,z] >= [y,z], and column y's comparison of x with y is [x,y] >= [y,y];
    so the axiom holds exactly when every column ranks the states alike.  A
    table-backed system passes with no work; otherwise n sorts decide it in
    O(n**2 log n), and only a failure runs the cubic search for the first
    witness triple in state order.
    """
    if a.table is not None:
        return CheckResult(True)
    n, ranks = len(a.states), a.ranks
    columns = [ranks[z::n] for z in range(n)]
    if all(same_ranking(columns[0], column) for column in columns[1:]):
        return CheckResult(True)
    x, y, z = next(
        (x, y, z)
        for x, y, z in itertools.product(range(n), repeat=3)
        if (columns[y][x] >= columns[y][y]) != (columns[z][x] >= columns[z][y])
    )
    return CheckResult(False, (a.states[x], a.states[y], a.states[z]))


def check_crossover(a: AltSystem) -> CheckResult:
    """[x,y] = [z,w] must hold exactly when [x,z] = [y,w], for all quadruples.

    Swapping the two middle states is an involution on quadruples, so every
    violation is two pairs in one rank class whose crossed pairs fall in
    different classes, or such a quadruple with its middle states swapped.
    Grouping the pairs by rank finds them all in O(sum of |class|**2), and
    the witness is the least of them, the first in state order.  A
    table-backed system passes with no work.
    """
    if a.table is not None:
        return CheckResult(True)
    n, ranks = len(a.states), a.ranks
    classes: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, rank in enumerate(ranks):
        classes[rank].append(divmod(i, n))
    first = min(
        (
            quadruple
            for members in classes.values()
            for (x, y), (z, w) in itertools.product(members, repeat=2)
            if ranks[x * n + z] != ranks[y * n + w]
            for quadruple in ((x, y, z, w), (x, z, y, w))
        ),
        default=None,
    )
    if first is None:
        return CheckResult(True)
    return CheckResult(False, tuple(a.states[k] for k in first))


def alt_represents(u: UtilityTable, a: AltSystem) -> CheckResult:
    """Passes iff u's differences order pairs exactly as the system does.

    One ``first_disagreement`` of u's scaled differences against the
    system's ranks, both over the n**2 pairs in (x, y) order, decides it in
    O(n**2 log n).  Its (i, j) search order is the (x, y, z, w) order, so a
    failure names the first quadruple in state order.
    """
    column = u.column(a.states)
    found = first_disagreement([vx - vy for vx in column for vy in column], a.ranks)
    if found is None:
        return CheckResult(True)
    (i, j), n = found, len(a.states)
    return CheckResult(False, tuple(a.states[k] for k in (*divmod(i, n), *divmod(j, n))))


class StandardSequence(Record):
    """Equally spaced calibration states between (and beyond) two anchors.

    ``entries`` maps dyadic value s (in units where the anchors sit at 0 and
    1) to a state; consecutive entries carry the certificate that their
    improvement equals the reference step [z^h, z^0].
    """

    anchor_zero: StateKey
    anchor_one: StateKey
    depth: int
    entries: tuple[tuple[Fraction, StateKey], ...]

    @property
    def step(self) -> Fraction:
        return Fraction(1, 2**self.depth)

    def value_map(self) -> dict[Fraction, StateKey]:
        return dict(self.entries)

    def verify_spacing(self, a: AltSystem) -> bool:
        """Re-check the equal-spacing certificate against the system."""
        seq = self.entries
        h = self.step
        ref = (self.value_map()[h], self.anchor_zero)
        for (s0, st0), (s1, st1) in zip(seq, seq[1:]):
            if s1 - s0 != h or not a.eq((st1, st0), ref):
                return False
        return True


def _first_state(a: AltSystem, pred) -> StateKey | None:
    return next((s for s in a.states if pred(s)), None)


def build_standard_sequence(
    a: AltSystem, z0: StateKey, z1: StateKey, depth: int
) -> StandardSequence:
    """Lay out the dyadic calibration chain across the whole realized range.

    Successive halving between the anchors produces the reference step
    [z^h, z^0] with h = 2**-depth; the chain is then extended one step at a
    time in both directions while a matching state exists.  If some state
    lies strictly beyond the next subdivision point but none realizes the
    point itself, the space is not rich enough and
    MissingGridPointError is raised.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not a.strict((z1, z0), (z0, z0)):
        raise ValueError("anchor z1 must be strictly better than z0")

    # Halve down from the full anchor gap to the reference step.
    upper = z1
    for k in range(1, depth + 1):
        mid = _first_state(a, lambda w: a.eq((upper, w), (w, z0)))
        if mid is None:
            raise MissingGridPointError(Fraction(1, 2**k))
        upper = mid
    h = Fraction(1, 2**depth)
    ref = (upper, z0)  # improvement worth exactly h

    entries: dict[Fraction, StateKey] = {Fraction(0): z0, h: upper}
    # Walk up from h, each step [next, cur] = ref, then down from 0, each [cur, next] = ref.
    for s, step in ((h, h), (Fraction(0), -h)):
        for _ in range(len(a.states) + 1):
            cur = entries[s]
            pair = (lambda w: (w, cur)) if step > 0 else (lambda w: (cur, w))
            nxt = _first_state(a, lambda w: a.eq(pair(w), ref))
            if nxt is None:
                if _first_state(a, lambda w: a.strict(pair(w), ref)) is not None:
                    raise MissingGridPointError(s + step)
                break
            s += step
            entries[s] = nxt
        else:
            raise ValueError("sequence outgrew the state space; system is inconsistent")

    top = max(entries)
    if top < 1 or not a.eq((z1, entries[Fraction(1)]), (z0, z0)):
        raise ValueError("chain does not return to the far anchor; system is inconsistent")
    ordered = tuple(sorted(entries.items()))
    return StandardSequence(anchor_zero=z0, anchor_one=z1, depth=depth, entries=ordered)


def reconstruct_alt_utility(
    a: AltSystem, z0: StateKey, z1: StateKey, depth: int
) -> UtilityTable:
    """Rebuild a utility table from comparisons, normalized to u(z0)=0, u(z1)=1.

    Each state indifferent to a sequence point gets that point's exact
    dyadic value; anything strictly inside a bracket gets the bracket floor,
    so values are exact whenever the generating scale is dyadic on the grid
    and otherwise correct to within 2**-depth.
    """
    seq = build_standard_sequence(a, z0, z1, depth)
    points = seq.entries
    h = seq.step

    def above(x: StateKey, y: StateKey) -> bool:
        return a.strict((x, y), (y, y))

    values: dict[StateKey, Fraction] = {}
    for state in a.states:
        lo, hi = 0, len(points) - 1
        # Binary search for the greatest sequence point not above the state.
        if above(points[0][1], state):
            values[state] = points[0][0] - h  # below the whole chain
            continue
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if above(points[mid][1], state):
                hi = mid - 1
            else:
                lo = mid
        values[state] = points[lo][0]  # exact on a point, else the bracket floor
    return UtilityTable(values)
