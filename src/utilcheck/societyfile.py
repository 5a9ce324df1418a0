"""The society file format: JSON in, JSON out, byte-stable round trips.

All rationals travel as canonical strings ("3", "-1/4"); JSON numbers are
rejected so no value can silently pass through floating point.  Emission
follows a fixed field order and writes table entries in state order, so
emit -> parse -> emit reproduces the file byte for byte.  A key repeated
within one object is rejected: no emitted file has one, and JSON itself
would let the last copy win silently.  So is a field that emission never
writes (only ``metadata`` is free-form), so a misspelled block cannot be
ignored.  So are ``NaN``, ``Infinity`` and a number past a double's range,
which are not JSON: emission refuses them too (``allow_nan=False``).  So
is nesting deeper than ``json.load`` can read, which would otherwise
escape as a ``RecursionError``.

Parsing validates each distinct literal of a file once: one dict per file
maps each literal string to its ints (p, q).  A table is accepted in one
batch: its states are checked with set operations (as many as the space's,
each known to it), and the literals the dict has not seen are validated
together by ``rationals.parse_ratios``.  Only a table that fails runs the
per-state loop, which validates each value with ``parse_ratio`` and raises
the first error with its location, so a location string is built only for
a rejected value.  Each table arrives as its literals' ints in the
space's state order, whatever order the file lists them in
(``UtilityTable.from_ratios`` on ``space.states``), so every table of a
parsed society shares its space's states and every check reads its
column as held.  The ints are in lowest terms because every literal is
canonical, and no Fraction is built for them.

``max_states`` caps the declared size of the space, checked before any
state is built: ``len(states)`` for an explicit space, and the product of
(hi - lo) / step + 1 over the dimensions for a grid.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from typing import Any

from .core import GridDim, StateSpace, UtilityTable
from .rationals import MAX_DIGITS, format_rational, parse_ratio, parse_ratios
from .society import Profile, Society


class SocietyFileError(ValueError):
    """Malformed society file; carries the offending field path."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


def _need(payload: dict, key: str, kind, where: str):
    if key not in payload:
        raise SocietyFileError(f"missing field {key!r}", where)
    value = payload[key]
    if not isinstance(value, kind):
        raise SocietyFileError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}", where
        )
    return value


def _known(payload: dict, fields: tuple[str, ...], where: str) -> None:
    for key in payload:
        if key not in fields:
            raise SocietyFileError(f"unknown field {key!r}", where)


def _parse_scalar(text: Any, where: str, key: str) -> tuple[int, int]:
    """The literal's ints (p, q), q = 1 for an integer; a rejection is located at where.key."""
    try:
        return parse_ratio(text)
    except ValueError as exc:
        message = str(exc)
        if not isinstance(text, str):
            message = f"rationals must be strings like \"1/4\", got {type(text).__name__}"
        raise SocietyFileError(message, f"{where}.{key}") from None


def _check_size(size: int, max_states: int | None) -> None:
    if max_states is not None and size > max_states:
        raise SocietyFileError(f"{size} states exceed --max-states {max_states}")


def _parse_space(payload: dict, max_states: int | None = None) -> StateSpace:
    where = "space"
    kind = _need(payload, "kind", str, where)
    if kind == "explicit":
        _known(payload, ("kind", "states"), where)
        states = _need(payload, "states", list, where)
        if not states or not all(isinstance(s, str) for s in states):
            raise SocietyFileError("states must be a nonempty list of strings", where)
        _check_size(len(states), max_states)
        try:
            return StateSpace.explicit(states)
        except ValueError as exc:
            raise SocietyFileError(str(exc), where) from None
    if kind == "product_grid":
        _known(payload, ("kind", "dims"), where)
        dims_payload = _need(payload, "dims", list, where)
        dims = []
        for i, dim in enumerate(dims_payload):
            dwhere = f"space.dims[{i}]"
            if not isinstance(dim, dict):
                raise SocietyFileError("must be an object", dwhere)
            _known(dim, ("name", "min", "max", "resolution"), dwhere)
            name = _need(dim, "name", str, dwhere)
            lo, hi, step = (
                Fraction(*_parse_scalar(_need(dim, key, str, dwhere), dwhere, key))
                for key in ("min", "max", "resolution")
            )
            try:
                dims.append(GridDim(name=name, lo=lo, hi=hi, step=step))
            except ValueError as exc:
                raise SocietyFileError(str(exc), dwhere) from None
        _check_size(math.prod(d.size for d in dims), max_states)
        try:
            return StateSpace.product_grid(dims)
        except ValueError as exc:
            raise SocietyFileError(str(exc), where) from None
    raise SocietyFileError(f"unknown space kind {kind!r}", where)


def _memoize(texts, literals: dict[str, tuple[int, int]]) -> bool:
    """Whether every text is a canonical literal; those new to ``literals`` are added to it."""
    try:
        new = set(texts).difference(literals)
    except TypeError:  # a JSON array or object
        return False
    ratios = parse_ratios(new)
    if ratios is None:
        return False
    literals.update(zip(new, ratios))
    return True


def _parse_table(
    payload: dict, space: StateSpace, where: str, literals: dict[str, tuple[int, int]]
) -> UtilityTable:
    index = space.index
    covers = len(payload) == len(index) and payload.keys() <= index.keys()
    if not (covers and _memoize(payload.values(), literals)):
        # Some value or state is rejected: the loop finds the first, with its location.
        for state, text in payload.items():
            if state not in index:
                raise SocietyFileError(f"unknown state {state!r}", where)
            if not (isinstance(text, str) and text in literals):
                literals[text] = _parse_scalar(text, where, state)
        if len(payload) != len(index):
            missing = next(s for s in space.states if s not in payload)
            raise SocietyFileError(f"missing states (first: {missing!r})", where)
    nums, dens = zip(*map(literals.__getitem__, map(payload.__getitem__, space.states)))
    return UtilityTable.from_ratios(space.states, nums, dens)


def _parse_profile(
    payload: Any,
    space: StateSpace,
    where: str,
    literals: dict[str, tuple[int, int]],
    fields=("agents", "ethical"),
) -> tuple[list[str], Profile]:
    if not isinstance(payload, dict):
        raise SocietyFileError("must be an object", where)
    _known(payload, fields, where)
    agents_payload = _need(payload, "agents", list, where)
    if not agents_payload:
        raise SocietyFileError("agents list must be nonempty", where)
    names: list[str] = []
    tables: dict[str, UtilityTable] = {}
    for i, entry in enumerate(agents_payload):
        awhere = f"{where}.agents[{i}]"
        if not isinstance(entry, dict):
            raise SocietyFileError("must be an object", awhere)
        _known(entry, ("name", "utility"), awhere)
        name = _need(entry, "name", str, awhere)
        if name in tables:
            raise SocietyFileError(f"duplicate agent {name!r}", awhere)
        table = _parse_table(
            _need(entry, "utility", dict, awhere), space, awhere + ".utility", literals
        )
        names.append(name)
        tables[name] = table
    ethical = _parse_table(
        _need(payload, "ethical", dict, where), space, where + ".ethical", literals
    )
    return names, Profile(tables, ethical)


_TOP_LEVEL_FIELDS = ("metadata", "space", "agents", "ethical", "nm_profile", "alt_profile")


def payload_to_society(payload: Any, max_states: int | None = None) -> Society:
    if not isinstance(payload, dict):
        raise SocietyFileError("top level must be an object")
    space = _parse_space(_need(payload, "space", dict, "$"), max_states)
    literals: dict[str, tuple[int, int]] = {}
    base_names, base = _parse_profile(payload, space, "$", literals, _TOP_LEVEL_FIELDS)
    profiles: dict[str, Profile | None] = {"nm_profile": None, "alt_profile": None}
    for key in profiles:
        if key in payload:
            names, profile = _parse_profile(payload[key], space, key, literals)
            if names != base_names:
                raise SocietyFileError("agent names must match the base profile", key)
            profiles[key] = profile
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SocietyFileError("must be an object", "metadata")
    try:
        return Society(
            space=space,
            agents=tuple(base_names),
            base=base,
            nm=profiles["nm_profile"],
            alt=profiles["alt_profile"],
            metadata=dict(metadata),
        )
    except ValueError as exc:
        raise SocietyFileError(str(exc)) from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; emission writes each key once, so a repeat is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, _ in pairs if counts[key] > 1)
        raise SocietyFileError(f"duplicate key {repeated!r}")
    return obj


def _parse_int(text: str) -> int:
    """A JSON int; past ``MAX_DIGITS`` digits it is refused alike on every interpreter."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise SocietyFileError(f"invalid JSON: an integer has more than {MAX_DIGITS} digits")
    return int(text)


def _finite(text: str) -> float:
    """A JSON float; ``NaN``, ``Infinity`` and one past a double's range are not JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise SocietyFileError(f"invalid JSON: {text} is not a finite number")
    return value


def parse_society(path: str, max_states: int | None = None) -> Society:
    hooks = dict(parse_int=_parse_int, parse_float=_finite, parse_constant=_finite)
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle, object_pairs_hook=_unique_keys, **hooks)
        except json.JSONDecodeError as exc:
            raise SocietyFileError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise SocietyFileError("invalid JSON: nested too deeply") from None
    return payload_to_society(payload, max_states)


def _table_payload(table: UtilityTable, space: StateSpace) -> dict[str, str]:
    return dict(zip(space.states, table.literals(space.states)))


def _profile_payload(agents, profile: Profile, space: StateSpace) -> dict:
    return {
        "agents": [
            {"name": a, "utility": _table_payload(profile.tables[a], space)} for a in agents
        ],
        "ethical": _table_payload(profile.ethical, space),
    }


def society_to_payload(soc: Society) -> dict:
    payload: dict = {}
    if soc.metadata:
        payload["metadata"] = dict(soc.metadata)
    if soc.space.kind == "grid":
        payload["space"] = {
            "kind": "product_grid",
            "dims": [
                {
                    "name": d.name,
                    "min": format_rational(d.lo),
                    "max": format_rational(d.hi),
                    "resolution": format_rational(d.step),
                }
                for d in soc.space.dims
            ],
        }
    else:
        payload["space"] = {"kind": "explicit", "states": list(soc.space.states)}
    base = _profile_payload(soc.agents, soc.base, soc.space)
    payload["agents"] = base["agents"]
    payload["ethical"] = base["ethical"]
    if soc.nm is not None:
        payload["nm_profile"] = _profile_payload(soc.agents, soc.nm, soc.space)
    if soc.alt is not None:
        payload["alt_profile"] = _profile_payload(soc.agents, soc.alt, soc.space)
    return payload


def emit_society(soc: Society) -> str:
    return json.dumps(society_to_payload(soc), indent=2, allow_nan=False) + "\n"
