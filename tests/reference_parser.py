"""The society-file parser as it was before literals were memoized: the oracle.

The package's parser (``utilcheck.societyfile``) validates each distinct
rational literal of a file once, builds a value's location string only when
that value is rejected, decides a table's coverage by counting, and builds
product-grid keys from each dimension's point labels.  Kept here: the
parser that validated every value with its location string in hand,
searched every table for missing states, and formatted every coordinate of
every grid state.  Its literal validator is the one the package had before
``parse_ratio``: the same regular expression, then a checked ``Fraction``,
with the package's two rules added: an int of more than 4300 digits
(CPython's default conversion limit), in a literal or as a JSON number, is
rejected before any int is built, with one message on every interpreter;
``NaN``, ``Infinity``, ``-Infinity`` and a number past a double's range
are rejected as the non-JSON they are; and arrays or objects nested past
the interpreter's recursion limit are rejected as invalid JSON.
Errors are the package's ``SocietyFileError``, so text and location compare
directly.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from typing import Any

from utilcheck import GridDim, Profile, Society, StateSpace, UtilityTable
from utilcheck.rationals import format_rational
from utilcheck.societyfile import SocietyFileError, _known, _need, _unique_keys

_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/(0|[1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Canonical ``"p"`` or ``"p/q"`` as a Fraction, checked after building it."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    if len(num.lstrip("-")) > 4300 or len(den or "") > 4300:
        raise ValueError("rational literal has an integer of more than 4300 digits")
    if den is None:
        return Fraction(int(num))
    q = int(den)
    if q == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    value = Fraction(int(num), q)
    if value.denominator != q or q == 1:
        raise ValueError(f"rational literal not in canonical form: {text!r}")
    return value


def _parse_scalar(text: Any, where: str) -> Fraction:
    if not isinstance(text, str):
        raise SocietyFileError(
            f"rationals must be strings like \"1/4\", got {type(text).__name__}", where
        )
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise SocietyFileError(str(exc), where) from None


def _product_grid(dims) -> StateSpace:
    dims = tuple(dims)
    if not dims:
        raise ValueError("product grid needs at least one dimension")
    coords = tuple(itertools.product(*(d.points() for d in dims)))
    keys = tuple(",".join(format_rational(c) for c in point) for point in coords)
    return StateSpace(states=keys, dims=dims)


def _parse_space(payload: Any) -> StateSpace:
    where = "space"
    if not isinstance(payload, dict):
        raise SocietyFileError("must be an object", where)
    kind = _need(payload, "kind", str, where)
    if kind == "explicit":
        _known(payload, ("kind", "states"), where)
        states = _need(payload, "states", list, where)
        if not states or not all(isinstance(s, str) for s in states):
            raise SocietyFileError("states must be a nonempty list of strings", where)
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
            lo = _parse_scalar(_need(dim, "min", str, dwhere), dwhere + ".min")
            hi = _parse_scalar(_need(dim, "max", str, dwhere), dwhere + ".max")
            step = _parse_scalar(
                _need(dim, "resolution", str, dwhere), dwhere + ".resolution"
            )
            try:
                dims.append(GridDim(name=name, lo=lo, hi=hi, step=step))
            except ValueError as exc:
                raise SocietyFileError(str(exc), dwhere) from None
        try:
            return _product_grid(dims)
        except ValueError as exc:
            raise SocietyFileError(str(exc), where) from None
    raise SocietyFileError(f"unknown space kind {kind!r}", where)


def _parse_table(payload: Any, space: StateSpace, where: str) -> UtilityTable:
    if not isinstance(payload, dict):
        raise SocietyFileError("utility table must be an object", where)
    values = {}
    for state, text in payload.items():
        if state not in space:
            raise SocietyFileError(f"unknown state {state!r}", where)
        values[state] = _parse_scalar(text, f"{where}.{state}")
    missing = [s for s in space.states if s not in values]
    if missing:
        raise SocietyFileError(f"missing states (first: {missing[0]!r})", where)
    return UtilityTable(values)


def _parse_profile(
    payload: Any, space: StateSpace, where: str, fields=("agents", "ethical")
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
        table = _parse_table(_need(entry, "utility", dict, awhere), space, awhere + ".utility")
        names.append(name)
        tables[name] = table
    ethical = _parse_table(_need(payload, "ethical", dict, where), space, where + ".ethical")
    return names, Profile(tables, ethical)


_TOP_LEVEL_FIELDS = ("metadata", "space", "agents", "ethical", "nm_profile", "alt_profile")


def payload_to_society(payload: Any) -> Society:
    if not isinstance(payload, dict):
        raise SocietyFileError("top level must be an object")
    space = _parse_space(_need(payload, "space", dict, "$"))
    base_names, base = _parse_profile(payload, space, "$", _TOP_LEVEL_FIELDS)
    profiles: dict[str, Profile | None] = {"nm_profile": None, "alt_profile": None}
    for key in profiles:
        if key in payload:
            names, profile = _parse_profile(payload[key], space, key)
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


def _parse_int(text: str) -> int:
    if len(text.lstrip("-")) > 4300:
        raise SocietyFileError("invalid JSON: an integer has more than 4300 digits")
    return int(text)


def _finite(text: str) -> float:
    if float(text) in (float("inf"), float("-inf")) or float(text) != float(text):
        raise SocietyFileError(f"invalid JSON: {text} is not a finite number")
    return float(text)


def parse_society(path: str) -> Society:
    hooks = dict(parse_int=_parse_int, parse_float=_finite, parse_constant=_finite)
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle, object_pairs_hook=_unique_keys, **hooks)
        except json.JSONDecodeError as exc:
            raise SocietyFileError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise SocietyFileError("invalid JSON: nested too deeply") from None
    return payload_to_society(payload)
