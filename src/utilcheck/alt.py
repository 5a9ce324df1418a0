"""Improvement-intensity systems: a weak order on ordered state pairs.

``[x, y] >= [z, w]`` reads "moving from y to x is at least as strong an
improvement as moving from w to z".  The checks here certify the two
structural axioms (consistency and the crossover axiom), test whether a
table represents a system through its differences, and rebuild a utility
table from comparisons alone by laying out a dyadic standard sequence
between two anchor states.

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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import StateKey, UtilityTable
from .society import CheckResult

Pair = tuple[StateKey, StateKey]


class MissingGridPointError(ValueError):
    """The space realizes values beyond a subdivision point but not the point itself."""

    def __init__(self, value: Fraction):
        super().__init__(f"no state realizes required sequence value {value}")
        self.value = value


class AltSystem:
    """Weak order on X^2, backed by a table, a pair ranking, or a raw oracle."""

    def __init__(
        self,
        states: Sequence[StateKey],
        *,
        rank: Callable[[Pair], Fraction] | None = None,
        oracle: Callable[[Pair, Pair], bool] | None = None,
    ):
        if (rank is None) == (oracle is None):
            raise ValueError("give exactly one of rank / oracle")
        self.states = tuple(states)
        self._rank = rank
        self._oracle = oracle
        #: The generating table when the system ranks pairs by its differences.
        self.table: UtilityTable | None = None

    @classmethod
    def from_utility(cls, table: UtilityTable) -> "AltSystem":
        states = tuple(table.states())
        system = cls(states, rank=lambda pair: table[pair[0]] - table[pair[1]])
        system.table = table
        return system

    @classmethod
    def from_pair_ranking(
        cls, states: Sequence[StateKey], fn: Callable[[StateKey, StateKey], Fraction]
    ) -> "AltSystem":
        """Rank pairs by an exact value; the result is automatically a weak order."""
        return cls(states, rank=lambda pair: Fraction(fn(pair[0], pair[1])))

    @classmethod
    def from_oracle(
        cls,
        states: Sequence[StateKey],
        oracle: Callable[[Pair, Pair], bool],
        *,
        validate_samples: int = 200,
        seed: int = 0,
    ) -> "AltSystem":
        """Wrap a boolean comparison oracle, spot-checking the weak-order laws."""
        system = cls(states, oracle=oracle)
        rng = random.Random(seed)
        pairs = [(x, y) for x in states for y in states]
        for _ in range(validate_samples):
            p, q, r = (rng.choice(pairs) for _ in range(3))
            if not (oracle(p, q) or oracle(q, p)):
                raise ValueError(f"oracle incomplete on {p} vs {q}")
            if oracle(p, q) and oracle(q, r) and not oracle(p, r):
                raise ValueError(f"oracle intransitive on {p}, {q}, {r}")
        return system

    def geq(self, p: Pair, q: Pair) -> bool:
        if self._rank is not None:
            return self._rank(p) >= self._rank(q)
        return self._oracle(p, q)

    def strict(self, p: Pair, q: Pair) -> bool:
        return self.geq(p, q) and not self.geq(q, p)

    def eq(self, p: Pair, q: Pair) -> bool:
        return self.geq(p, q) and self.geq(q, p)


def _triples(states, limit, sample, seed):
    n = len(states)
    if n**3 <= limit:
        yield from itertools.product(states, repeat=3)
        return
    rng = random.Random(seed)
    for _ in range(sample):
        yield tuple(rng.choice(states) for _ in range(3))


def _quadruples(states, limit, sample, seed):
    n = len(states)
    if n**4 <= limit:
        yield from itertools.product(states, repeat=4)
        return
    rng = random.Random(seed)
    for _ in range(sample):
        yield tuple(rng.choice(states) for _ in range(4))


def check_consistency(
    a: AltSystem, *, exhaustive_limit: int = 65536, sample: int = 20000, seed: int = 0
) -> CheckResult:
    """[x,y] >= [y,y] must hold exactly when [x,z] >= [y,z], for all triples."""
    n = len(a.states)
    exhaustive = n**3 <= exhaustive_limit
    for x, y, z in _triples(a.states, exhaustive_limit, sample, seed):
        if a.geq((x, y), (y, y)) != a.geq((x, z), (y, z)):
            return CheckResult(False, witness=(x, y, z))
    note = "" if exhaustive else f"sampled {sample} of {n**3} triples"
    return CheckResult(True, description=note)


def check_crossover(
    a: AltSystem, *, exhaustive_limit: int = 65536, sample: int = 20000, seed: int = 0
) -> CheckResult:
    """[x,y] = [z,w] must hold exactly when [x,z] = [y,w], for all quadruples."""
    n = len(a.states)
    exhaustive = n**4 <= exhaustive_limit
    for x, y, z, w in _quadruples(a.states, exhaustive_limit, sample, seed):
        if a.eq((x, y), (z, w)) != a.eq((x, z), (y, w)):
            return CheckResult(False, witness=(x, y, z, w))
    note = "" if exhaustive else f"sampled {sample} of {n**4} quadruples"
    return CheckResult(True, description=note)


def alt_represents(
    u: UtilityTable,
    a: AltSystem,
    *,
    exhaustive_limit: int = 65536,
    sample: int = 20000,
    seed: int = 0,
) -> CheckResult:
    """Passes iff u's differences order pairs exactly as the system does."""
    n = len(a.states)
    for x, y, z, w in _quadruples(a.states, exhaustive_limit, sample, seed):
        if (u[x] - u[y] >= u[z] - u[w]) != a.geq((x, y), (z, w)):
            return CheckResult(False, witness=(x, y, z, w))
    note = "" if n**4 <= exhaustive_limit else f"sampled {sample} of {n**4} quadruples"
    return CheckResult(True, description=note)


@dataclass(frozen=True)
class StandardSequence:
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
    for s in a.states:
        if pred(s):
            return s
    return None


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
    # Upward walk.
    s = h
    for _ in range(len(a.states) + 1):
        cur = entries[s]
        nxt = _first_state(a, lambda w: a.eq((w, cur), ref))
        if nxt is None:
            beyond = _first_state(a, lambda w: a.strict((w, cur), ref))
            if beyond is not None:
                raise MissingGridPointError(s + h)
            break
        entries[s + h] = nxt
        s += h
    else:
        raise ValueError("sequence outgrew the state space; system is inconsistent")
    # Downward walk.
    s = Fraction(0)
    for _ in range(len(a.states) + 1):
        cur = entries[s]
        prv = _first_state(a, lambda w: a.eq((cur, w), ref))
        if prv is None:
            below = _first_state(a, lambda w: a.strict((cur, w), ref))
            if below is not None:
                raise MissingGridPointError(s - h)
            break
        entries[s - h] = prv
        s -= h
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
