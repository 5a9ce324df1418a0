"""The society-file parser against the one it replaced, kept as an oracle.

The package parses each distinct literal of a file once, validates a
table's new literals in one batch, and runs its per-state loop, the one
place a location string is built, only for a table the batch rejects;
``reference_parser`` validates every value with its location in hand.  On
valid files and on single mutations of them, both must give equal
societies, or the same error text and location.  Tables of many distinct
literals and the hazards below make the batch the path that runs.
"""

from __future__ import annotations

import copy
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser as oracle
from utilcheck import GridDim, Profile, Society, StateSpace, UtilityTable, cli, emit_society
from utilcheck.rationals import MAX_DIGITS, parse_ratio, parse_ratios
from utilcheck.societyfile import (
    SocietyFileError,
    _parse_scalar,
    parse_society,
    payload_to_society,
    society_to_payload,
)

F = Fraction

#: Few literals, so most values of a file repeat one already parsed.
LITERALS = ("0", "1", "-1", "1/2", "-3/4", "5/3")

#: Values no file may carry: the JSON non-strings, then non-canonical spellings.
NON_STRINGS = (1, 1.5, True, None, [], {})
BAD_LITERALS = ("1.0", "2/4", "+1", "01", "1/0", "3/1", "-0", "", " 1", "1/-2", "x")

#: Values the batch validator must reject, each then located by the per-state
#: loop: a newline inside or after a literal, digit spellings ``int`` takes
#: but the syntax does not, an unreduced zero, two JSON non-strings, a
#: numerator and a denominator past the package's digit limit
#: (``rationals.MAX_DIGITS``, CPython's default of 4300), and the spellings
#: the batch's flat JSON array of ints could read as ints: a "," or a second
#: "/" (two ints more or fewer), "-0", a denominator below 1 or of 1, an
#: empty numerator or denominator, and JSON numbers that are not ints.
HAZARDS = (
    "1\n2",
    "1/2\n",
    "1_0",
    "٣",
    "0/5",
    1,
    None,
    "1" * 4301,
    "1/" + "1" * 4301,
    ",",
    "1,2",
    "-0",
    "-0/3",
    "1/-0",
    "1/-2",
    "3/1",
    "",
    "/",
    "1/",
    "1//2",
    "1/2/3",
    "+1",
    "1e5",
    "1.0",
    "1\n",
)


def _society(draw, space: StateSpace, table) -> Society:
    """Two or three agents, with nm and alt profiles drawn or not; ``table()`` makes each table."""
    agents = [f"a{i}" for i in range(draw(st.integers(2, 3)))]

    def profile() -> Profile:
        return Profile({a: table() for a in agents}, table())

    base = profile()
    nm = profile() if draw(st.booleans()) else None
    alt = profile() if draw(st.booleans()) else None
    metadata = draw(st.sampled_from([{}, {"title": "t", "n": 1}]))
    return Society(space, tuple(agents), base, nm=nm, alt=alt, metadata=metadata)


@st.composite
def societies(draw):
    if draw(st.booleans()):
        lo = draw(st.sampled_from([F(0), F(-1, 2), F(1, 3)]))
        depths = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
        space = StateSpace.product_grid(
            [GridDim(f"x{i}", lo, lo + 1, F(1, 2**m)) for i, m in enumerate(depths)]
        )
    else:
        names = st.sampled_from(["a", "b", "c", "1/2,0", "x y", "1"])
        space = StateSpace.explicit(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
    value = st.sampled_from(LITERALS).map(F)
    return _society(draw, space, lambda: UtilityTable({s: draw(value) for s in space.states}))


#: Canonical literals, numerator and denominator up to 10**40.
canonical_texts = st.builds(
    lambda p, q: str(F(p, q)), st.integers(-10**40, 10**40), st.integers(1, 10**40)
)


@st.composite
def many_literal_societies(draw):
    """64 to 300 explicit states, each table's literals distinct and mostly new to its file.

    One list of canonical literals is drawn; each table reads it rotated by
    a drawn offset and shifted by the table's own count, so every table
    validates a batch of many literals.
    """
    texts = draw(st.lists(canonical_texts, min_size=64, max_size=300, unique=True))
    values = [F(t) for t in texts]
    n = len(values)
    space = StateSpace.explicit([f"s{i}" for i in range(n)])
    shifts = itertools.count()

    def table() -> UtilityTable:
        k, offset = next(shifts), draw(st.integers(0, n - 1))
        return UtilityTable({s: values[(i + offset) % n] + k for i, s in enumerate(space.states)})

    return _society(draw, space, table)


#: Literal spellings: canonical values, their unreduced, signed, padded and
#: decimal variants, the string hazards, and short strings over the literal
#: alphabet and the batch's separators.
literal_texts = st.one_of(
    canonical_texts,
    st.sampled_from(BAD_LITERALS),
    st.sampled_from([h for h in HAZARDS if isinstance(h, str)]),
    st.builds(
        lambda p, q, form: form.format(p=p, q=q),
        st.sampled_from([0, 1, -1, 2]) | st.integers(-200, 200),
        st.sampled_from([0, 1, 2, 4]) | st.integers(-3, 200),
        st.sampled_from(["{p}/{q}", "+{p}", "0{p}", "{p}/0{q}", "{p}.0", " {p}", "{p}/{q}/1"]),
    ),
    st.text(alphabet="0123456789-/+. e\u0663,\n", max_size=8),
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(literal_texts, st.sampled_from(NON_STRINGS)))
def test_parse_ratio_equals_the_reference_validator(text):
    def outcome(parse, *args):
        try:
            value = parse(*args)
        except SocietyFileError as exc:
            return "error", str(exc), exc.where
        except ValueError as exc:
            return "error", str(exc)
        return "ok", value if isinstance(value, F) else F(*value)

    assert outcome(_parse_scalar, text, "$.x", "s") == outcome(oracle._parse_scalar, text, "$.x.s")
    assert outcome(parse_ratio, text) == outcome(oracle.parse_rational, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(literal_texts, st.sampled_from(NON_STRINGS + HAZARDS)), max_size=40))
def test_a_batch_accepts_exactly_the_literals_parse_ratio_accepts(texts):
    try:
        single = list(map(parse_ratio, texts))
    except ValueError:
        single = None
    assert parse_ratios(texts) == single


def _positions(node, path=()):
    """Every path into the payload, the root first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _positions(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _positions(child, path + (i,))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@st.composite
def mutations(draw, payload):
    """One mutation of the payload: a value replaced, a key or item dropped, or a key added."""
    payload = copy.deepcopy(payload)
    paths = list(_positions(payload))[1:]
    values = [p for p in paths if len(p) > 1 and p[-2] in ("utility", "ethical")]
    # Half the draws hit a table value, where the memo is read.
    path = draw(st.sampled_from(draw(st.sampled_from([paths, values]))))
    parent, key = _at(payload, path[:-1]), path[-1]
    kind = draw(st.sampled_from(["replace", "replace", "drop", "add", "rename"]))
    if kind == "replace":
        bad = st.sampled_from(NON_STRINGS + BAD_LITERALS + HAZARDS)
        parent[key] = draw(st.one_of(bad, st.sampled_from(LITERALS + ("7/2",))))
    elif kind == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        extra = draw(st.sampled_from(["bogus", "zz", "1/2,0", "metadata"]))
        if kind == "add":
            parent.setdefault(extra, draw(st.sampled_from(["1", 1])))
        elif extra not in parent:
            parent[extra] = parent.pop(key)
    else:
        parent.append(copy.deepcopy(parent[key]))
    return payload


def _outcome(parse, payload):
    try:
        soc = parse(copy.deepcopy(payload))
    except SocietyFileError as exc:
        return "error", str(exc), exc.where
    except Exception as exc:  # both parsers must fail alike even off the schema path
        return type(exc).__name__, str(exc)
    return "ok", soc, emit_society(soc), [list(t.values) for t in soc.base.tables.values()]


@settings(max_examples=150, deadline=None)
@given(st.one_of(societies(), many_literal_societies()))
def test_valid_files_parse_alike_and_round_trip(soc):
    payload = society_to_payload(soc)
    got = _outcome(payload_to_society, payload)
    assert got == _outcome(oracle.payload_to_society, payload)
    assert got[0] == "ok" and got[1] == soc
    text = emit_society(soc)
    assert emit_society(payload_to_society(json.loads(text))) == text


@settings(max_examples=400, deadline=None)
@given(st.data(), st.one_of(societies(), many_literal_societies()))
def test_single_mutations_parse_or_fail_alike(data, soc):
    payload = data.draw(mutations(society_to_payload(soc)))
    assert _outcome(payload_to_society, payload) == _outcome(oracle.payload_to_society, payload)


def _repeated_literal_payload() -> dict:
    space = StateSpace.explicit(["s0", "s1", "s2"])
    ones = UtilityTable({s: F(1) for s in space.states})
    soc = Society.from_tables(space, {"a": ones, "b": ones}, ones)
    return society_to_payload(soc)


def test_a_repeated_literal_parses_to_one_value_everywhere():
    payload = _repeated_literal_payload()
    soc = payload_to_society(payload)
    assert soc == oracle.payload_to_society(payload)
    tables = [*soc.base.tables.values(), soc.base.ethical]
    assert all(v == 1 and isinstance(v, Fraction) for t in tables for v in t.values.values())


@pytest.mark.parametrize("bad", NON_STRINGS + BAD_LITERALS, ids=repr)
def test_a_bad_value_after_its_literal_is_memoized_names_its_location(bad):
    # "1" is parsed for every earlier value of the file; a later 1, 1.5 or
    # true must still be rejected, at its own location.
    payload = _repeated_literal_payload()
    payload["ethical"]["s2"] = bad
    with pytest.raises(SocietyFileError) as err:
        payload_to_society(payload)
    assert err.value.where == "$.ethical.s2"
    with pytest.raises(SocietyFileError) as expected:
        oracle.payload_to_society(payload)
    assert (str(err.value), err.value.where) == (str(expected.value), expected.value.where)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.pop("s1"), "$.agents[1].utility: missing states (first: 's1')"),
        (lambda t: t.update(zz="1"), "$.agents[1].utility: unknown state 'zz'"),
    ],
)
def test_coverage_errors_keep_their_text(edit, message):
    payload = _repeated_literal_payload()
    edit(payload["agents"][1]["utility"])
    assert _outcome(payload_to_society, payload) == ("error", message, "$.agents[1].utility")
    assert _outcome(oracle.payload_to_society, payload) == ("error", message, "$.agents[1].utility")


def _bad_dimension(payload):
    dim = {"name": "x", "min": "1", "max": "0", "resolution": "1"}
    payload["space"] = {"kind": "product_grid", "dims": [dim]}


@pytest.mark.parametrize(
    "edit, message, where",
    [
        (_bad_dimension, "dimension 'x': need hi > lo", "space.dims[0]"),
        (lambda p: p["space"].update(kind="torus"), "unknown space kind 'torus'", "space"),
        (lambda p: p.update(nm_profile=[]), "must be an object", "nm_profile"),
        (lambda p: p["agents"].pop(), "a society needs at least two individuals", ""),
    ],
    ids=["grid-dimension", "space-kind", "profile-object", "one-agent"],
)
def test_structural_rejections_name_their_location(edit, message, where):
    payload = _repeated_literal_payload()
    edit(payload)
    with pytest.raises(SocietyFileError) as err:
        payload_to_society(payload)
    assert (str(err.value), err.value.where) == (f"{where}: {message}" if where else message, where)


@pytest.mark.parametrize("text", ['{"a": 1, "a": 2}', "{", "[]"])
def test_files_parse_or_fail_alike(tmp_path, text):
    path = tmp_path / "society.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(lambda _: parse_society(str(path)), None) == _outcome(
        lambda _: oracle.parse_society(str(path)), None
    )


def test_an_over_long_json_int_is_rejected_alike_on_every_interpreter(tmp_path, capsys):
    # json.load would raise CPython's own digit-limit error, worded by version.
    message = f"invalid JSON: an integer has more than {MAX_DIGITS} digits"
    payload = _repeated_literal_payload()
    path = tmp_path / "society.json"
    for n in ("1" * 4301, "-" + "9" * 4301, f"[0, {'1' * 4301}]"):
        text = json.dumps({"metadata": {"n": 0}, **payload}).replace('"n": 0', f'"n": {n}')
        path.write_text(text, encoding="utf-8")
        for parse in (parse_society, oracle.parse_society):
            with pytest.raises(SocietyFileError) as err:
                parse(str(path))
            assert str(err.value) == message
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    longest = -int("9" * MAX_DIGITS)
    path.write_text(json.dumps({"metadata": {"n": longest}, **payload}), encoding="utf-8")
    assert parse_society(str(path)).metadata == {"n": longest}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_a_json_value_that_is_not_json_exits_two(tmp_path, capsys, value):
    # json.load reads these as floats by default, and a title NaN was then
    # printed by coincide --json as "title": NaN, which is not JSON.
    message = f"invalid JSON: {value} is not a finite number"
    payload = _repeated_literal_payload()
    in_metadata = json.dumps({"metadata": {"title": 0}, **payload})
    in_metadata = in_metadata.replace('"title": 0', f'"title": {value}')
    in_table = json.dumps(payload).replace('"s1": "1"', f'"s1": {value}', 1)
    path = tmp_path / "society.json"
    for text in (in_metadata, in_table):
        assert value in text
        path.write_text(text, encoding="utf-8")
        for parse in (parse_society, oracle.parse_society):
            with pytest.raises(SocietyFileError) as err:
                parse(str(path))
            assert str(err.value) == message
        for command in (["validate"], ["coincide", "--json"]):
            assert cli.main([command[0], str(path), *command[1:]]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
    path.write_text(json.dumps({"metadata": {"title": 1e300}, **payload}), encoding="utf-8")
    assert parse_society(str(path)).metadata == {"title": 1e300}


@pytest.mark.parametrize("kind", ["array", "object"])
def test_json_nested_too_deeply_exits_two(tmp_path, capsys, kind):
    # json.load raised RecursionError, which the CLI reported as a traceback
    # and exit 1, its code for a failed check.
    message = "invalid JSON: nested too deeply"
    depth = 100_000
    deep = "[" * depth + "]" * depth if kind == "array" else '{"a": ' * depth + "0" + "}" * depth
    in_metadata = json.dumps({"metadata": {"title": 0}, **_repeated_literal_payload()})
    commands = (
        ["validate"],
        ["recover", "--mode", "harsanyi"],
        ["recover", "--mode", "harvey"],
        ["coincide"],
    )
    path = tmp_path / "society.json"
    for text in (deep, in_metadata.replace('"title": 0', f'"title": {deep}')):
        path.write_text(text, encoding="utf-8")
        for parse in (parse_society, oracle.parse_society):
            with pytest.raises(SocietyFileError) as err:
                parse(str(path))
            assert str(err.value) == message
        for name, *flags in commands:
            assert cli.main([name, str(path), *flags]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_emission_refuses_what_parsing_rejects(value):
    space = StateSpace.explicit(["s0", "s1"])
    ones = UtilityTable({s: F(1) for s in space.states})
    soc = Society.from_tables(space, {"a": ones, "b": ones}, ones, metadata={"title": value})
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_society(soc)


def test_grid_keys_match_the_per_coordinate_format():
    dims = [GridDim("x", F(-1, 2), F(1, 2), F(1, 4)), GridDim("y", F(0), F(3), F(3, 2))]
    space = StateSpace.product_grid(dims)
    assert space == oracle._product_grid(dims)
    assert space.states[:3] == ("-1/2,0", "-1/2,3/2", "-1/2,3")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-20, max_value=20, max_denominator=60),
            st.fractions(min_value=F(1, 90), max_value=9, max_denominator=90),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_grid_labels_and_coordinates_equal_the_formatted_points(axes):
    dims = [GridDim(f"x{i}", lo, lo + step * 2**m, step) for i, (lo, step, m) in enumerate(axes)]
    space = StateSpace.product_grid(dims)
    points = list(itertools.product(*(d.points() for d in dims)))
    assert space.states == oracle._product_grid(dims).states
    assert [space.coords(s) for s in space.states] == points


def _distinct_literal_payload(n: int = 80) -> dict:
    """Two agents and the ethical table over n states, every literal of a table distinct."""
    space = StateSpace.explicit([f"s{i}" for i in range(n)])
    tables = [
        UtilityTable({s: F(i + k, 2 * i + 1) for i, s in enumerate(space.states)})
        for k in (1, 2, 3)
    ]
    soc = Society.from_tables(space, {"a": tables[0], "b": tables[1]}, tables[2])
    return society_to_payload(soc)


@pytest.mark.parametrize("position", [0, 40, 79], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", HAZARDS, ids=lambda v: repr(v)[:12])
def test_a_hazard_in_a_table_of_distinct_literals_fails_alike(bad, position):
    for table in ("agents", "ethical"):
        payload = _distinct_literal_payload()
        values = payload["ethical"] if table == "ethical" else payload["agents"][1]["utility"]
        values[f"s{position}"] = bad
        got = _outcome(payload_to_society, payload)
        assert got == _outcome(oracle.payload_to_society, payload)
        assert got[0] == "error"


def test_an_over_long_literal_is_rejected_alike_on_every_interpreter():
    # CPython's own limit is absent before 3.10.7 and words its message
    # differently from one version to the next; the package checks first.
    message = f"rational literal has an integer of more than {MAX_DIGITS} digits"
    for text in ("1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "1" * 4301 + "/2"):
        with pytest.raises(ValueError) as err:
            parse_ratio(text)
        assert str(err.value) == message
        assert parse_ratios(["1/2", text]) is None
    p, q = "9" * MAX_DIGITS, "1" + "0" * (MAX_DIGITS - 1)
    longest = f"-{p}/{q}"
    assert parse_ratio(longest) == parse_ratios([longest])[0] == (-int(p), int(q))
