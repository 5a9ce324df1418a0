"""CLI behavior: file format, subcommands, exit codes, golden reports."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import planted_coincidence_society
from utilcheck import (
    SocietyFileError,
    emit_society,
    parse_society,
    simplex_counterexample,
    sqrt_fixture,
)
from utilcheck import cli, harsanyi
from utilcheck.societyfile import payload_to_society

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

F = Fraction


def run_cli(*args: str) -> subprocess.CompletedProcess:
    # The child imports the package from this checkout's src/, as the test
    # process does, whether or not PYTHONPATH already names it.
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-m", "utilcheck.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )


# ---------------------------------------------------------------------------
# File format


def test_shipped_simplex_fixture_loads():
    soc = parse_society(str(FIXTURES / "simplex.json"))
    assert len(soc.space) == 5
    assert soc.metadata["title"] == "simplex-fixture resolution=1/4"
    assert soc.nm is not None


def test_shipped_fixture_matches_generator():
    soc = parse_society(str(FIXTURES / "simplex.json"))
    regenerated = simplex_counterexample(F(1, 4)).society
    assert emit_society(soc) == emit_society(regenerated)


def test_round_trip_is_byte_identical():
    for bundle in (simplex_counterexample(F(1, 4)), sqrt_fixture(4, F(1, 2))):
        text = emit_society(bundle.society)
        reparsed = payload_to_society(json.loads(text))
        assert emit_society(reparsed) == text


def test_round_trip_product_grid_society(tmp_path):
    rng = random.Random(101)
    soc, _, _ = planted_coincidence_society(rng, 2)
    text = emit_society(soc)
    path = tmp_path / "soc.json"
    path.write_text(text, encoding="utf-8")
    assert emit_society(parse_society(str(path))) == text


def test_empty_agents_list_rejected(tmp_path):
    payload = {
        "space": {"kind": "explicit", "states": ["a"]},
        "agents": [],
        "ethical": {"a": "0"},
    }
    with pytest.raises(SocietyFileError, match="agents"):
        payload_to_society(payload)


def test_zero_denominator_rejected():
    payload = {
        "space": {"kind": "explicit", "states": ["a", "b"]},
        "agents": [
            {"name": "a1", "utility": {"a": "1/0", "b": "0"}},
            {"name": "a2", "utility": {"a": "0", "b": "0"}},
        ],
        "ethical": {"a": "0", "b": "0"},
    }
    with pytest.raises(SocietyFileError, match="denominator"):
        payload_to_society(payload)


def test_numeric_json_values_rejected():
    payload = {
        "space": {"kind": "explicit", "states": ["a", "b"]},
        "agents": [
            {"name": "a1", "utility": {"a": 0.5, "b": "0"}},
            {"name": "a2", "utility": {"a": "0", "b": "0"}},
        ],
        "ethical": {"a": "0", "b": "0"},
    }
    with pytest.raises(SocietyFileError, match="strings"):
        payload_to_society(payload)


def test_missing_state_in_table_rejected():
    payload = {
        "space": {"kind": "explicit", "states": ["a", "b"]},
        "agents": [
            {"name": "a1", "utility": {"a": "1"}},
            {"name": "a2", "utility": {"a": "0", "b": "0"}},
        ],
        "ethical": {"a": "0", "b": "0"},
    }
    with pytest.raises(SocietyFileError, match="missing states"):
        payload_to_society(payload)


# ---------------------------------------------------------------------------
# Subcommands and exit codes


def test_validate_simplex_exit_one_semi_separability_only():
    result = run_cli("validate", str(FIXTURES / "simplex.json"))
    assert result.returncode == 1
    lines = result.stdout.strip().splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and "semi-separability" in fails[0]


def test_recover_simplex_harsanyi_json_golden():
    result = run_cli("recover", str(FIXTURES / "simplex.json"), "--mode", "harsanyi", "--json")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "recover_simplex_harsanyi.json").read_text()


def test_validate_simplex_json_golden():
    result = run_cli("validate", str(FIXTURES / "simplex.json"), "--json")
    assert result.stdout == (GOLDEN / "validate_simplex.json").read_text()


def test_coincide_sqrt_json_golden():
    result = run_cli("coincide", str(FIXTURES / "sqrt_k10.json"), "--json")
    assert result.returncode == 1  # violation
    assert result.stdout == (GOLDEN / "coincide_sqrt_k10.json").read_text()


def test_coincide_planted_affine_exit_zero(tmp_path):
    rng = random.Random(103)
    soc, _, _ = planted_coincidence_society(rng, 2)
    path = tmp_path / "planted.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    result = run_cli("coincide", str(path), "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["status"] == "coincide"
    assert all(a["verdict"] == "COINCIDE" for a in payload["agents"])


def test_recover_harvey_on_sqrt_fixture():
    result = run_cli("recover", str(FIXTURES / "sqrt_k10.json"), "--mode", "harvey", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["weights"] == {"agent1": "1", "agent2": "1"}
    assert payload["constant"] == "0"


def test_recover_harvey_checks_semi_separability_on_intensity_tables(tmp_path, capsys):
    # The base tables form a 2x2 grid, but both intensity-side tables read
    # 0, 1, 2, 3, so the difference map's domain is not a product.
    states = ["s0", "s1", "s2", "s3"]

    def table(*values):
        return dict(zip(states, values))

    path = tmp_path / "alt_not_product.json"
    path.write_text(
        json.dumps(
            {
                "space": {"kind": "explicit", "states": states},
                "agents": [
                    {"name": "a1", "utility": table("0", "0", "1", "1")},
                    {"name": "a2", "utility": table("0", "1", "0", "1")},
                ],
                "ethical": table("0", "1", "1", "2"),
                "alt_profile": {
                    "agents": [
                        {"name": "a1", "utility": table("0", "1", "2", "3")},
                        {"name": "a2", "utility": table("0", "1", "2", "3")},
                    ],
                    "ethical": table("0", "2", "4", "6"),
                },
            }
        ),
        encoding="utf-8",
    )
    assert cli.main(["recover", str(path), "--mode", "harvey", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["success"] is False
    assert payload["failed_stage"] == "semi-separability"
    assert payload["witness"] == "society is not semi-separable (witness profile ('s0', 's1'))"
    # The validate record still reads the base orders, which do form a grid.
    assert cli.main(["validate", str(path), "--json"]) == 1
    checks = {c["name"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["semi-separability"] == "PASS"
    assert checks["matching"] == "FAIL"


def test_fixture_emit_round_trips(tmp_path):
    out = tmp_path / "sqrt.json"
    emit = run_cli("fixture", "sqrt", "--k", "4", "--eps", "1/2", "--out", str(out))
    assert emit.returncode == 0
    text = out.read_text(encoding="utf-8")
    reparsed = parse_society(str(out))
    assert emit_society(reparsed) == text
    # stdout emission matches the file emission
    stdout_emit = run_cli("fixture", "sqrt", "--k", "4", "--eps", "1/2")
    assert stdout_emit.stdout == text


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert "error" in result.stderr


def test_schema_error_exits_two_with_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "space": {"kind": "explicit", "states": ["a", "b"]},
                "agents": [
                    {"name": "a1", "utility": {"a": "1/0", "b": "0"}},
                    {"name": "a2", "utility": {"a": "0", "b": "0"}},
                ],
                "ethical": {"a": "0", "b": "0"},
            }
        ),
        encoding="utf-8",
    )
    result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert "utility.a" in result.stderr


def test_max_states_guard_exits_two():
    result = run_cli("validate", str(FIXTURES / "sqrt_k10.json"), "--max-states", "3")
    assert result.returncode == 2
    assert "max-states" in result.stderr


def test_failed_reverification_exits_three(monkeypatch, capsys):
    # Skew the table sum the lottery-side recovery re-verifies against.
    real = harsanyi.linear_combination

    def skewed(tables, weights, constant=Fraction(0)):
        return real(tables, weights, constant + 1)

    monkeypatch.setattr(harsanyi, "linear_combination", skewed)
    code = cli.main(["coincide", str(FIXTURES / "sqrt_k10.json"), "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: recovered identity failed pointwise re-verification\n"
    )


def test_missing_file_exits_two():
    result = run_cli("validate", "does-not-exist.json")
    assert result.returncode == 2
