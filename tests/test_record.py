"""``core.Record`` against frozen data classes, and what importing the CLI loads.

Every record class of the package derives from ``core.Record``.  A frozen
class from ``dataclasses.make_dataclass``, with the same fields and
defaults, is the oracle: on instances the CLI, the fixtures and the
library helpers build, both must agree on ``repr``, ``==`` and ``hash``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from utilcheck import (
    AltSystem,
    UtilityTable,
    build_standard_sequence,
    cli,
    simplex_counterexample,
    sqrt_fixture,
)
from utilcheck.core import Record, SimpleLottery, replace
from utilcheck.coincidence import HypothesisRecord

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

F = Fraction


def _record_classes(base=Record) -> set[type]:
    """The package's record classes, not those a test makes."""
    found = set()
    for sub in base.__subclasses__():
        if sub.__module__.startswith("utilcheck."):
            found |= {sub, *_record_classes(sub)}
    return found


def _oracle(cls: type) -> type:
    """The frozen data class with ``cls``'s fields and defaults, by the data-class rule."""
    fields: dict[str, object] = {}
    for klass in reversed(cls.__mro__):
        for name in klass.__dict__.get("__annotations__", {}):
            default = klass.__dict__.get(name, dataclasses.MISSING)
            if name not in fields or default is not dataclasses.MISSING:
                fields[name] = default
    spec = [
        (name, object) if default is dataclasses.MISSING else (name, object, default)
        for name, default in fields.items()
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TypeError as exc:
        return "TypeError", str(exc)


@pytest.fixture(scope="module")
def samples() -> dict[type, list[Record]]:
    """Every record built while running each command on each fixture, and the library helpers."""
    built: list[Record] = []
    init = Record.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Record, "__init__", spy)
        commands = (["validate"], ["recover", "--mode", "harsanyi"], ["recover", "--mode", "harvey"])
        with contextlib.redirect_stdout(io.StringIO()):
            for path in sorted(FIXTURES.glob("*.json")):
                for command in (*commands, ["coincide"]):
                    cli.main([*command, str(path), "--json"])
        sqrt_fixture(4, F(1, 2))
        simplex_counterexample(F(1, 4))
        u = UtilityTable({"a": F(0), "b": F(1, 2), "c": F(1)})
        build_standard_sequence(AltSystem.from_utility(u), "a", "c", 1)
    by_class: dict[type, list[Record]] = {}
    for record in built:
        by_class.setdefault(type(record), []).append(record)
    return by_class


def test_every_record_class_is_sampled(samples):
    assert set(samples) == _record_classes()
    assert len(samples) == 23


def test_records_compare_hash_and_show_as_frozen_data_classes(samples):
    for cls, records in samples.items():
        oracle = _oracle(cls)
        assert cls._fields == tuple(f.name for f in dataclasses.fields(oracle)), cls
        picked = records[:4] + records[-4:]
        twins = [oracle(**{f: getattr(r, f) for f in cls._fields}) for r in picked]
        for record, twin in zip(picked, twins):
            assert repr(record) == repr(twin)
            assert _outcome(hash, record) == _outcome(hash, twin)
            assert record != twin and twin != record
        for a, ta in zip(picked, twins):
            for b, tb in zip(picked, twins):
                assert (a == b) == (ta == tb) and (a != b) == (ta != tb), cls


def test_records_of_two_classes_never_compare_equal():
    one = type("One", (Record,), {"__annotations__": {"x": "int"}})
    two = type("Two", (Record,), {"__annotations__": {"x": "int"}})
    assert one(1) == one(1) and one(1) != two(1) and not one(1) == two(1)
    assert _oracle(one)(1) != _oracle(two)(1)


def test_records_refuse_assignment_and_deletion(samples):
    for cls, records in samples.items():
        record, name = records[0], cls._fields[0]
        for target in (name, "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(record, target, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(record, target)


def test_replace_builds_anew_and_runs_post_init(samples, monkeypatch):
    for cls, records in samples.items():
        calls = []
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self))
        copy = replace(records[0])
        assert calls == [copy] and copy == records[0] and copy is not records[0]
        monkeypatch.undo()
    lottery = replace(SimpleLottery((("a", F(1)),)), probs=(("b", F(1, 2)), ("a", F(1, 2))))
    assert lottery.probs == (("a", F(1, 2)), ("b", F(1, 2)))
    with pytest.raises(ValueError, match="sum to"):
        replace(lottery, probs=(("a", F(1, 2)),))


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),
        (("h",), {}),
        (("h", True, "", 1), {}),
        (("h",), {"name": "i", "passed": True}),
        (("h", True), {"zz": 1}),
        ((), {"passed": True}),
        ((), {"name": "h", "passed": True, "zz": 1}),
    ],
)
def test_a_bad_field_list_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        _oracle(HypothesisRecord)(*args, **kwargs)
    with pytest.raises(TypeError):
        HypothesisRecord(*args, **kwargs)


def test_defaults_fill_positional_and_keyword_calls():
    assert HypothesisRecord("h", True) == HypothesisRecord(passed=True, name="h", detail="")
    assert HypothesisRecord("h", passed=False).detail == ""
    with pytest.raises(TypeError, match="follows a default"):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})
    with pytest.raises(TypeError):
        replace(HypothesisRecord("h", True), zz=1)


def test_importing_the_cli_loads_no_dataclasses_or_source_tools():
    # Those modules cost start-up time on every command; the child reports
    # only what importing the CLI adds, since site hooks may load some first.
    code = (
        "import sys; before = set(sys.modules); import utilcheck.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))"
    )
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert done.stdout.strip() == "[]"
