"""Finite state spaces, utility tables, simple lotteries, and order agreement.

Every fixed-field value type of the package (spaces, lotteries, profiles,
reports, witnesses) derives from ``Record``.

States are identified by strings.  A space is either an explicit list of
identifiers or the full Cartesian product of per-dimension dyadic grids, in
which case a state key is the comma-joined canonical form of its
coordinates (e.g. ``"1/4,0"``).  Dyadic product grids are the finite
stand-in for the connected spaces that the calibration constructions need:
their step structure lets every halving step of a standard sequence land
exactly on a state.  Only this module lays a utility table out in state
order: every check elsewhere reads ``UtilityTable.column``.

Every identity check of the package is ``residual``: is an int column a
fixed combination of other int columns plus one constant, in every row?
``fitted_constant`` asks it of tables and Fraction weights and gives the
constant; ``harsanyi.SpanProblem.certificate``, which both sides'
certificates and the affinity verdict read, checks its weights with it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter, sub
from typing import Callable, Iterable, Mapping, Sequence

from .rationals import scale_ratios

StateKey = str


class Record:
    """An immutable record of named fields, compared, hashed and shown by their values.

    As in a frozen data class, a subclass's annotations, after its bases',
    are its fields, and a class attribute is a field's default.  ``__init__``
    takes the fields by position or keyword and then calls ``__post_init__``,
    which may set a field through ``object.__setattr__``; any other
    assignment or deletion raises.  ``==``, ``hash`` and ``repr``
    (``Name(field=value, ...)``) read the field tuple.  Instances keep a
    ``__dict__``, so ``functools.cached_property`` works on them.
    """

    _fields, _defaults = (), {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *(f for f in cls.__annotations__ if f not in cls._fields))
        own = {f: cls.__dict__[f] for f in cls.__annotations__ if f in cls.__dict__}
        cls._defaults, cls._names = {**cls._defaults, **own}, frozenset(cls._fields)
        n, tail = len(cls._fields), tuple(cls._defaults.values())
        if cls._fields[n - len(tail) :] != tuple(cls._defaults):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        # A positional call of k arguments takes the last n - k defaults.
        cls._tails = {n - i: tail[len(tail) - i :] for i in range(len(tail) + 1)}

    def __init__(self, *args, **kwargs):
        fields, held = self._fields, self.__dict__
        if kwargs:
            held.update(self._defaults)
            if args:
                if len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[: len(args)]):
                    raise self._call_error(args, kwargs)
                held.update(zip(fields, args))
            held.update(kwargs)
            if held.keys() != self._names:
                raise self._call_error(args, kwargs)
        else:
            tail = self._tails.get(len(args))
            if tail is None:
                raise self._call_error(args, kwargs)
            held.update(zip(fields, args + tail))
        self.__post_init__()

    def _call_error(self, args, kwargs) -> TypeError:
        return TypeError(
            f"{type(self).__name__}() takes the fields {', '.join(self._fields)}, got"
            f" {len(args)} positional arguments and the keywords {', '.join(kwargs) or 'none'}"
        )

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def replace(record: Record, /, **changes) -> Record:
    """A copy of ``record`` with the given fields changed; its ``__post_init__`` runs again."""
    held = record.__dict__
    return type(record)(**{**{f: held[f] for f in record._fields}, **changes})


class GridDim(Record):
    """One dyadic coordinate axis: points lo, lo+step, ..., hi; ``size`` counts them.

    The bounds and the step are ints or Fractions, held as Fractions, and
    are checked in ints; a float raises TypeError naming the field.
    """

    name: str
    lo: Fraction
    hi: Fraction
    step: Fraction

    def __post_init__(self):
        where = f"dimension {self.name!r}"
        for field in ("lo", "hi", "step"):
            object.__setattr__(self, field, _exact(self.__dict__[field], f"{where}: {field}"))
        (a, b), (c, d), (e, f) = map(Fraction.as_integer_ratio, (self.lo, self.hi, self.step))
        if c * b <= a * d:
            raise ValueError(f"{where}: need hi > lo")
        if e <= 0:
            raise ValueError(f"{where}: step must be positive")
        span, unit = (c * b - a * d) * f, b * d * e  # (hi - lo) / step = span / unit
        count, rest = divmod(span, unit)
        if rest or count & (count - 1):
            ratio = Fraction(span, unit)
            raise ValueError(f"{where}: (hi-lo)/step must be a power of two, got {ratio}")
        object.__setattr__(self, "size", count + 1)

    def points(self) -> list[Fraction]:
        return [self.lo + k * self.step for k in range(self.size)]

    def labels(self) -> list[str]:
        """Each point's canonical string, as ``format_rational`` writes it, computed in ints."""
        (a, b), (c, d) = self.lo.as_integer_ratio(), self.step.as_integer_ratio()
        q = b * d
        labels = []
        for p in range(a * d, a * d + self.size * b * c, b * c):
            g = gcd(p, q)
            labels.append(str(p // g) if g == q else f"{p // g}/{q // g}")
        return labels


class StateSpace(Record):
    """Ordered finite set of states, optionally with product-grid structure."""

    states: tuple[StateKey, ...]
    dims: tuple[GridDim, ...] | None = None

    def __post_init__(self):
        if not self.states:
            raise ValueError("state space must be nonempty")
        if len(set(self.states)) != len(self.states):
            raise ValueError("state identifiers must be unique")

    @classmethod
    def explicit(cls, states: Iterable[StateKey]) -> "StateSpace":
        return cls(states=tuple(states))

    @classmethod
    def product_grid(cls, dims: Iterable[GridDim]) -> "StateSpace":
        """Full Cartesian product, row-major with the first dimension slowest."""
        dims = tuple(dims)
        if not dims:
            raise ValueError("product grid needs at least one dimension")
        keys = tuple(map(",".join, itertools.product(*(d.labels() for d in dims))))
        return cls(states=keys, dims=dims)

    @property
    def kind(self) -> str:
        return "grid" if self.dims is not None else "explicit"

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, key: object) -> bool:
        return key in self.index

    @cached_property
    def index(self) -> dict[StateKey, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def _coords(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(itertools.product(*(d.points() for d in self.dims)))

    def coords(self, key: StateKey) -> tuple[Fraction, ...]:
        """A grid state's coordinates, all built on the first call."""
        if self.dims is None:
            raise ValueError("explicit spaces carry no coordinates")
        return self._coords[self.index[key]]


def _exact(value: Fraction | int, name: str) -> Fraction:
    """``value`` as a Fraction; anything but an int or a Fraction, a float included, raises."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{name}: {type(value).__name__} {value!r} is not an int or a Fraction")


class UtilityTable:
    """Total map state -> exact rational value, held as one state-ordered column.

    A table holds its states in order and, in that order, its values'
    numerators and denominators q > 0, in lowest terms, as two int
    columns; a parsed table's order is its space's.  Every check reads
    ``column(states)``, the values times ``scale`` (the LCM of the
    denominators) as ints, or ``ratio_column``, the two int columns, in the
    order it asks for; in the table's own order both are kept.  A positive
    scale keeps every order and equality among values and differences.
    The views by state, ``values`` (Fractions) and ``ratios`` ((p, q)),
    are built on first read and kept, and ``__getitem__`` builds one
    Fraction.  A table built from Fractions or ints keeps their
    order, and the Fractions, each int as its own, as its ``values``; any
    other value, a float included, raises TypeError naming its state.
    Tables are never changed, and equality is pointwise.
    """

    def __init__(self, values: Mapping[StateKey, Fraction | int]):
        values = dict(values)
        if not {*map(type, values.values())} <= {Fraction}:
            for s, v in values.items():
                values[s] = _exact(v, f"state {s!r}")
        ratios = [v.as_integer_ratio() for v in values.values()]
        nums, dens = tuple(map(itemgetter(0), ratios)), tuple(map(itemgetter(1), ratios))
        self.__dict__.update(_states=tuple(values), _nums=nums, _dens=dens, values=values)

    @classmethod
    def from_ratios(cls, states: Sequence[StateKey], nums, dens) -> "UtilityTable":
        """The table with value nums[k] / dens[k] at states[k], in lowest terms with dens[k] > 0.

        Tuples are held as they are, so the tables of one space share its states.
        """
        table = cls.__new__(cls)
        table.__dict__.update(_states=tuple(states), _nums=tuple(nums), _dens=tuple(dens))
        return table

    @classmethod
    def on_coords(cls, space: StateSpace, fn: Callable[..., Fraction]) -> "UtilityTable":
        """Build from a function of the grid coordinates, which returns an int or a Fraction."""
        return cls({s: fn(*space.coords(s)) for s in space.states})

    def __setattr__(self, name, value):
        raise AttributeError(f"UtilityTable is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"UtilityTable is immutable: cannot delete {name!r}")

    @cached_property
    def _index(self) -> dict[StateKey, int]:
        return {s: k for k, s in enumerate(self._states)}

    @cached_property
    def _scaled(self) -> tuple[int, list[int]]:
        return scale_ratios(self._nums, self._dens)

    @property
    def scale(self) -> int:
        return self._scaled[0]

    def column(self, states: Sequence[StateKey] | None = None) -> list[int]:
        """The values times ``scale`` in the order ``states``; in the table's own, one kept list."""
        ints = self._scaled[1]
        if states is None or states is self._states or states == self._states:
            return ints
        return [ints[k] for k in map(self._index.__getitem__, states)]

    def ratio_column(self, states: Sequence[StateKey]) -> tuple[Sequence[int], Sequence[int]]:
        """The numerators and the denominators in the order ``states``; in its own, as held."""
        nums, dens = self._nums, self._dens
        if states is self._states or states == self._states:
            return nums, dens
        at = list(map(self._index.__getitem__, states))
        return [nums[k] for k in at], [dens[k] for k in at]

    @cached_property
    def values(self) -> dict[StateKey, Fraction]:
        return {s: Fraction(p, q) for s, p, q in zip(self._states, self._nums, self._dens)}

    @cached_property
    def ratios(self) -> dict[StateKey, tuple[int, int]]:
        return dict(zip(self._states, zip(self._nums, self._dens)))

    def __getitem__(self, key: StateKey) -> Fraction:
        k = self._index[key]
        return Fraction(self._nums[k], self._dens[k])

    def literals(self, states: Sequence[StateKey]) -> list[str]:
        """Each state's value as its canonical literal, in the order ``states``."""
        return [str(p) if q == 1 else f"{p}/{q}" for p, q in zip(*self.ratio_column(states))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UtilityTable):
            return NotImplemented
        return self.ratios == other.ratios

    def __repr__(self) -> str:
        return f"UtilityTable(values={self.values!r})"

    def states(self) -> tuple[StateKey, ...]:
        return self._states

    def covers(self, space: StateSpace) -> bool:
        """True iff the table's states are exactly the space's."""
        return self._states is space.states or space.index.keys() == set(self._states)

    def is_constant(self) -> bool:
        return len(set(self._nums)) == len(set(self._dens)) == 1

    def affine(self, alpha: Fraction | int, beta: Fraction | int) -> "UtilityTable":
        a, b = _exact(alpha, "alpha"), _exact(beta, "beta")
        return UtilityTable({s: a * v + b for s, v in self.values.items()})


def linear_combination(
    tables: Iterable[UtilityTable],
    weights: Iterable[Fraction | int],
    constant: Fraction | int = 0,
) -> UtilityTable:
    """Pointwise sum(w_i * t_i) + constant over the common domain."""
    tables = list(tables)
    weights = [_exact(w, f"weight {i}") for i, w in enumerate(weights)]
    constant = _exact(constant, "constant")
    if len(tables) != len(weights):
        raise ValueError("one weight per table")
    if not tables:
        raise ValueError("need at least one table")
    terms = [(w, t.values) for w, t in zip(weights, tables)]
    states = tables[0].states()
    return UtilityTable({s: sum((w * v[s] for w, v in terms), constant) for s in states})


def residual(v, columns, ratios) -> Fraction | None:
    """The k / D with v = sum (p_i / q_i) * u_i + k / D in every row, or None if none fits.

    The paper's three identities are this one check: the lottery-side and
    intensity-side combinations v = sum a_i u_i + b and an agent's affine
    relation u* = alpha u + beta.  ``v`` and each of ``columns`` are int
    columns of one length, and ``ratios`` holds each column's coefficient as
    an int pair (p_i, q_i), q_i != 0, unreduced if need be.  With D the LCM
    of the q_i and N_i = p_i * D / q_i, v * D - sum N_i * u_i must be one int
    k in every row; it is decided in C-level ``map`` passes, and only the
    returned k / D is built as a Fraction.
    """
    d = lcm(*(q for _, q in ratios))
    total, k = map(d.__mul__, v), d * v[0]  # v * D - sum N_i * u_i, row by row
    for (p, q), u in zip(ratios, columns, strict=True):
        n = p * (d // q)
        total = map(sub, total, map(n.__mul__, u))
        k -= n * u[0]
    return Fraction(k, d) if all(map(k.__eq__, total)) else None


def fitted_constant(tables, ethical, weights, states) -> Fraction | None:
    """The b with ethical = sum(w_i * t_i) + b at every state, or None if no b fits.

    Decided by ``residual`` on the tables' columns in the order ``states``:
    with E the ethical column over scale e, U_i table i's over s_i and
    w_i = p / q, E = sum (p * e / (q * s_i)) U_i + b * e.  A None weight
    stands for 0, and its table is not read.
    """
    e = ethical.scale
    terms = [(t, w.as_integer_ratio()) for t, w in zip(tables, weights) if w is not None]
    ratios = [(p * e, q * t.scale) for t, (p, q) in terms]
    r = residual(ethical.column(states), [t.column(states) for t, _ in terms], ratios)
    return None if r is None else r / e


class SimpleLottery(Record):
    """Finite-support probability vector over states.

    Canonical: entries sorted by state key, strictly positive, summing to
    exactly 1.  Hashable, so lotteries can be looked up in enumerated sets.
    """

    probs: tuple[tuple[StateKey, Fraction], ...]

    def __post_init__(self):
        entries = sorted(
            (s, p if isinstance(p, Fraction) else _exact(p, f"state {s!r}")) for s, p in self.probs
        )
        ratios = [p.as_integer_ratio() for _, p in entries]
        if any(n < 0 for n, _ in ratios):
            raise ValueError("negative probability")
        if not all(n for n, _ in ratios):
            entries = [e for e, (n, _) in zip(entries, ratios) if n]
            ratios = [r for r in ratios if r[0]]
        if not entries:
            raise ValueError("empty lottery")
        if len({s for s, _ in entries}) != len(entries):
            raise ValueError("duplicate state in support")
        # The sum is decided in ints over the LCM of the denominators.
        scale, ints = scale_ratios(*zip(*ratios))
        if sum(ints) != scale:
            raise ValueError(f"probabilities sum to {Fraction(sum(ints), scale)}, not 1")
        object.__setattr__(self, "probs", tuple(entries))

    @classmethod
    def from_mapping(cls, probs: Mapping[StateKey, Fraction]) -> "SimpleLottery":
        return cls(tuple(probs.items()))

    def as_dict(self) -> dict[StateKey, Fraction]:
        return dict(self.probs)


def expectation(p: SimpleLottery, u: UtilityTable) -> Fraction:
    """Exact expected value of u under p."""
    total = Fraction(0)
    for s, pr in p.probs:
        if s not in u._index:
            raise KeyError(f"state {s!r} in lottery support but not in table")
        total += pr * u[s]
    return total


def same_ranking(keys1: Sequence, keys2: Sequence) -> bool:
    """True iff ranking by ``keys1`` and by ``keys2`` is the same weak order.

    Decided by sorting the key pairs: the rankings agree exactly when
    ``keys2`` then rises strictly exactly where ``keys1`` does.
    """
    ranked = sorted(zip(keys1, keys2))
    return all((a1 < b1) == (a2 < b2) for (a1, a2), (b1, b2) in zip(ranked, ranked[1:]))


def first_disagreement(keys1: Sequence, keys2: Sequence) -> tuple[int, int] | None:
    """The first index pair (i, j), in index order, that the two rankings compare differently.

    None exactly when ``same_ranking`` holds.  Only after a disagreement
    does the witness search run, in O(N log N).  Index i has a partner j
    with (keys1[i] >= keys1[j]) != (keys2[i] >= keys2[j]) exactly when some
    j with keys1[j] <= keys1[i] has a larger second key, or some j with
    keys1[j] > keys1[i] has a second key no larger.  So the indices are
    grouped by first key in ascending order, and each group gets the
    largest second key up to and including it and the smallest one above
    it; the first index outside its bounds is i, and one scan finds its
    first partner j.
    """
    if same_ranking(keys1, keys2):
        return None
    ranked = sorted(range(len(keys1)), key=keys1.__getitem__)
    groups = [list(g) for _, g in itertools.groupby(ranked, key=keys1.__getitem__)]
    tops = itertools.accumulate((max(keys2[k] for k in g) for g in groups), max)
    lows = [*itertools.accumulate((min(keys2[k] for k in g) for g in reversed(groups)), min)]
    bounds: list = [None] * len(keys1)
    for group, top, floor in zip(groups, tops, lows[-2::-1] + [None]):
        for k in group:
            bounds[k] = (top, floor)
    i = next(
        i
        for i, (key, (top, floor)) in enumerate(zip(keys2, bounds))
        if top > key or (floor is not None and floor <= key)
    )
    a1, a2 = keys1[i], keys2[i]
    return i, next(
        j for j, (b1, b2) in enumerate(zip(keys1, keys2)) if (a1 >= b1) != (a2 >= b2)
    )
