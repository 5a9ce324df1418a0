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

from conftest import (
    affine_grid_society,
    bent_component_society,
    capped_sum_society,
    negative_lottery_weight_society,
    negative_weight_society,
    nonadditive_society,
    planted_coincidence_society,
    product_grid_society,
)
from utilcheck import (
    GridDim,
    Profile,
    SimpleLottery,
    Society,
    SocietyFileError,
    StateSpace,
    UtilityTable,
    emit_society,
    linear_combination,
    parse_society,
    simplex_counterexample,
    sqrt_fixture,
)
from utilcheck import cli, harsanyi, harvey
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
    for name, bundle in (
        ("simplex.json", simplex_counterexample(F(1, 4))),
        ("sqrt_k10.json", sqrt_fixture(10, F(1, 2))),
    ):
        soc = parse_society(str(FIXTURES / name))
        assert emit_society(soc) == emit_society(bundle.society), name


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sqrt", "--k", "10", "--eps", "1/2"], "sqrt_k10.json"),
        (["simplex", "--resolution", "1/4"], "simplex.json"),
    ],
)
def test_fixture_stdout_is_the_shipped_file(argv, name):
    result = run_cli("fixture", *argv)
    assert result.returncode == 0
    assert result.stdout == (FIXTURES / name).read_text(encoding="utf-8")


def test_fixture_simplex_at_resolution_one_is_an_input_error():
    # The line's two states make any two tables affine: no fixture exists.
    result = run_cli("fixture", "simplex", "--resolution", "1")
    assert result.returncode == 2
    assert result.stderr == "error: resolution must be a unit fraction in (0, 1/2]\n"
    assert result.stdout == ""


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


def test_duplicate_json_key_exits_two_naming_the_key(tmp_path):
    # Without the check the second "s0" would silently win and the weights
    # would be recovered from it.
    text = (
        '{"space": {"kind": "explicit", "states": ["s0", "s1"]},\n'
        ' "agents": [{"name": "a1", "utility": {"s0": "0", "s1": "1", "s0": "5"}},\n'
        '            {"name": "a2", "utility": {"s0": "1", "s1": "0"}}],\n'
        ' "ethical": {"s0": "0", "s1": "1"}}\n'
    )
    path = tmp_path / "duplicate.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SocietyFileError, match="duplicate key 's0'"):
        parse_society(str(path))
    result = run_cli("recover", str(path), "--mode", "harsanyi")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "duplicate key 's0'" in result.stderr


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


def _profile(*names):
    agents = [{"name": name, "utility": {"a": str(k), "b": "0"}} for k, name in enumerate(names)]
    return {"agents": agents, "ethical": {"a": "1", "b": "0"}}


def _full_payload():
    """A valid file using every emitted field: metadata, space, base, nm and alt profiles."""
    return {
        "metadata": {"title": "t", "free": {"form": ["any", 1]}},
        "space": {"kind": "explicit", "states": ["a", "b"]},
        **_profile("a1", "a2"),
        "nm_profile": _profile("a1", "a2"),
        "alt_profile": _profile("a1", "a2"),
    }


def _grid_payload():
    dim = {"name": "x", "min": "0", "max": "1", "resolution": "1"}
    return {
        "space": {"kind": "product_grid", "dims": [dim]},
        "agents": [
            {"name": "a1", "utility": {"0": "0", "1": "1"}},
            {"name": "a2", "utility": {"0": "1", "1": "0"}},
        ],
        "ethical": {"0": "0", "1": "0"},
    }


@pytest.mark.parametrize(
    "build, place, where",
    [
        (_full_payload, lambda p: p, "$"),
        (_full_payload, lambda p: p["space"], "space"),
        (_grid_payload, lambda p: p["space"], "space"),
        (_grid_payload, lambda p: p["space"]["dims"][0], "space.dims[0]"),
        (_full_payload, lambda p: p["nm_profile"], "nm_profile"),
        (_full_payload, lambda p: p["alt_profile"], "alt_profile"),
        (_full_payload, lambda p: p["agents"][1], "$.agents[1]"),
        (_full_payload, lambda p: p["alt_profile"]["agents"][0], "alt_profile.agents[0]"),
    ],
    ids=["top", "explicit-space", "grid-space", "dim", "nm-profile", "alt-profile",
         "agent", "alt-agent"],
)
def test_unknown_field_exits_two_naming_it(tmp_path, capsys, build, place, where):
    payload = build()
    payload_to_society(payload)  # valid, free-form metadata included, until misspelled
    place(payload)["alt_profle"] = {}
    with pytest.raises(SocietyFileError, match=r"unknown field 'alt_profle'") as err:
        payload_to_society(payload)
    assert err.value.where == where
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: unknown field 'alt_profle'\n"


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


def test_validate_simplex_text_golden_is_the_readme_example():
    result = run_cli("validate", str(FIXTURES / "simplex.json"))
    assert result.returncode == 1
    golden = (GOLDEN / "validate_simplex.txt").read_text()
    assert result.stdout == golden
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("$ utilcheck validate fixtures/simplex.json\n", 1)[1].split("```", 1)[0]
    assert block == golden


def test_validate_simplex_json_golden():
    result = run_cli("validate", str(FIXTURES / "simplex.json"), "--json")
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "validate_simplex.json").read_text()


def test_validate_nonadditive_json_golden():
    # The one golden with a failed axiom (i): its detail prints the witness
    # lottery pair, so the pair's bytes are pinned.
    result = run_cli("validate", str(FIXTURES / "nonadditive.json"), "--json")
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "validate_nonadditive.json").read_text()
    failed = [c["name"] for c in json.loads(result.stdout)["checks"] if c["verdict"] == "FAIL"]
    assert failed == ["axiom-i"]


def test_coincide_sqrt_json_golden():
    result = run_cli("coincide", str(FIXTURES / "sqrt_k10.json"), "--json")
    assert result.returncode == 1  # violation
    assert result.stdout == (GOLDEN / "coincide_sqrt_k10.json").read_text()


def test_shipped_nonadditive_fixture_matches_generator():
    soc = parse_society(str(FIXTURES / "nonadditive.json"))
    assert emit_society(soc) == emit_society(nonadditive_society())


def test_recover_nonadditive_harvey_json_golden():
    result = run_cli("recover", str(FIXTURES / "nonadditive.json"), "--mode", "harvey", "--json")
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "recover_nonadditive_harvey.json").read_text()
    payload = json.loads(result.stdout)
    assert payload["failed_stage"] == "additivity:a1"
    assert payload["witness"] == "(Fraction(-4, 1), Fraction(2, 1))"


def test_shipped_affine_grid_fixture_matches_generator():
    soc = parse_society(str(FIXTURES / "affine_grid.json"))
    assert len(soc.space) <= 64
    assert emit_society(soc) == emit_society(affine_grid_society())


def test_coincide_affine_grid_json_golden():
    result = run_cli("coincide", str(FIXTURES / "affine_grid.json"), "--json")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "coincide_affine_grid.json").read_text()
    payload = json.loads(result.stdout)
    assert payload["status"] == "coincide"
    assert any(a["alpha"] != "1" for a in payload["agents"])
    assert any(a["beta"] != "0" for a in payload["agents"])
    norm = payload["normalization"]
    assert norm["nm_weights"] != norm["alt_weights"]


def test_shipped_negative_weight_fixture_matches_generator():
    soc = parse_society(str(FIXTURES / "negative_weight.json"))
    assert emit_society(soc) == emit_society(negative_weight_society())


def test_coincide_negative_weight_json_golden():
    # The one shipped fixture that fails Pareto: the dominance loop names the pair.
    result = run_cli("coincide", str(FIXTURES / "negative_weight.json"), "--json")
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "coincide_negative_weight.json").read_text()
    payload = json.loads(result.stdout)
    assert payload["failed_hypothesis"] == "pareto"
    assert [h["name"] for h in payload["hypotheses"] if h["verdict"] == "FAIL"] == ["pareto"]


def test_shipped_capped_sum_fixture_matches_generator():
    soc = parse_society(str(FIXTURES / "capped_sum.json"))
    assert emit_society(soc) == emit_society(capped_sum_society())


def test_validate_capped_sum_json_golden():
    # A semi-separable fixture with a nonlinear ethical table that fails
    # Pareto: no certificate exists, so the bitset pass names the pair,
    # the first dominated one in state order, in the last state's row.
    result = run_cli("validate", str(FIXTURES / "capped_sum.json"), "--json")
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "validate_capped_sum.json").read_text()
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    assert checks["semi-separability"]["verdict"] == "PASS"
    assert checks["pareto"]["detail"] == "witness pair ('1,1', '1/2,1')"


def test_coincide_simplex_json_golden():
    result = run_cli("coincide", str(FIXTURES / "simplex.json"), "--json")
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "coincide_simplex.json").read_text()
    assert json.loads(result.stdout)["failed_hypothesis"] == "semi-separability"


@pytest.mark.parametrize(
    "golden, code, argv",
    [
        ("coincide_affine_grid.txt", 0, ["coincide", "affine_grid.json"]),
        ("coincide_sqrt_k10.txt", 1, ["coincide", "sqrt_k10.json"]),
        ("recover_affine_grid_harsanyi.txt", 0, ["recover", "affine_grid.json", "harsanyi"]),
        ("recover_nonadditive_harsanyi.txt", 1, ["recover", "nonadditive.json", "harsanyi"]),
        ("recover_nonadditive_harvey.txt", 1, ["recover", "nonadditive.json", "harvey"]),
        ("validate_nonadditive.txt", 1, ["validate", "nonadditive.json"]),
    ],
)
def test_text_report_golden(golden, code, argv):
    command, fixture, *mode = argv
    result = run_cli(command, str(FIXTURES / fixture), *(["--mode", *mode] if mode else []))
    assert result.returncode == code
    assert result.stdout == (GOLDEN / golden).read_text()


def _constant_third_agent_society() -> Society:
    """Two grid agents and a third everywhere indifferent, with affine starred tables."""
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1, 2)), GridDim("y", F(0), F(1), F(1, 2))]
    )
    u1 = UtilityTable.on_coords(space, lambda x, y: x)
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    u3 = UtilityTable({s: F(4) for s in space.states})
    star = {
        "a1": u1.affine(F(5), F(1)),
        "a2": u2.affine(F(1, 2), F(0)),
        "a3": UtilityTable({s: F(-2) for s in space.states}),
    }
    return Society.from_tables(
        space,
        {"a1": u1, "a2": u2, "a3": u3},
        linear_combination([u1, u2, u3], [F(2), F(3), F(1)]),
        nm=Profile(star, linear_combination(list(star.values()), [F(2, 5), F(6), F(1)], F(3))),
    )


def _text_report(tmp_path, capsys, soc, *argv) -> tuple[int, str]:
    path = tmp_path / "society.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    code = cli.main([argv[0], str(path), *argv[1:]])
    return code, capsys.readouterr().out


def test_coincide_text_reports_a_constant_agent(tmp_path, capsys):
    code, out = _text_report(tmp_path, capsys, _constant_third_agent_society(), "coincide")
    assert code == 0
    assert out.splitlines()[-3:] == [
        "a1: coincide with alpha=5, beta=1",
        "a2: coincide with alpha=1/2, beta=0",
        "a3: constant on both scales",
    ]


def test_recover_harvey_text_names_the_constant_agents(tmp_path, capsys):
    soc = _constant_third_agent_society()
    code, out = _text_report(tmp_path, capsys, soc, "recover", "--mode", "harvey")
    assert code == 0
    assert out == (
        "weights: a1=2, a2=3, a3=1\n"
        "constant: 0\n"
        "constant agents (slope fixed at 1): a3\n"
    )


def test_coincide_text_reports_a_recovery_failure(tmp_path, capsys):
    # Every hypothesis holds, so the nonconstant agents' lottery-side weights
    # are unique, and the lottery-side ethical table weights a0 by -1.
    soc = negative_lottery_weight_society()
    code, out = _text_report(tmp_path, capsys, soc, "coincide")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "status: recovery-failure"
    assert all(line.startswith("PASS ") for line in lines[1:7])
    assert lines[7:] == ["lottery-side weight for nonconstant agent 'a0' is not positive"]


def test_shipped_negative_lottery_weight_fixture_matches_generator():
    soc = parse_society(str(FIXTURES / "negative_lottery_weight.json"))
    assert emit_society(soc) == emit_society(negative_lottery_weight_society())


def test_coincide_negative_lottery_weight_json_golden():
    # The one golden whose battery passes and whose lottery-side recovery
    # gives a nonconstant agent a nonpositive weight.
    result = run_cli("coincide", str(FIXTURES / "negative_lottery_weight.json"), "--json")
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "coincide_negative_lottery_weight.json").read_text()
    payload = json.loads(result.stdout)
    assert payload["status"] == "recovery-failure"
    assert payload["failed_hypothesis"] is None
    assert payload["detail"] == "lottery-side weight for nonconstant agent 'a0' is not positive"


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


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_every_json_report_is_strict_json(capsys, fixture):
    # json.loads takes NaN and Infinity by default; a report must parse without them.
    commands = (["validate"], ["recover", "--mode", "harsanyi"], ["recover", "--mode", "harvey"])
    for command in (*commands, ["coincide"]):
        cli.main([command[0], str(FIXTURES / fixture), *command[1:], "--json"])
        assert isinstance(json.loads(capsys.readouterr().out, parse_constant=_no_constant), dict)


@pytest.mark.parametrize("states", [["s"], ["s0", "s1"]], ids=["one-state", "two-state"])
def test_degenerate_society_through_every_command(tmp_path, capsys, states):
    # Every agent is constant: each battery check passes, the lottery-side
    # weights are not unique, both agents' intensity-side slopes are fixed
    # at 1, and coincide fails only for want of two nonconstant agents.
    def constant(value):
        return dict.fromkeys(states, value)

    payload = {
        "space": {"kind": "explicit", "states": states},
        "agents": [
            {"name": "a1", "utility": constant("1/2")},
            {"name": "a2", "utility": constant("-3")},
        ],
        "ethical": constant("2"),
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(payload), encoding="utf-8")

    def run(*argv):
        code = cli.main([argv[0], str(path), *argv[1:], "--json"])
        return code, json.loads(capsys.readouterr().out)

    code, validate = run("validate")
    assert code == 0 and validate["all_passed"] is True
    code, lottery = run("recover", "--mode", "harsanyi")
    assert code == 0
    assert (lottery["success"], lottery["unique"]) == (True, False)
    assert (lottery["weights"], lottery["constant"]) == ({"a1": "0", "a2": "0"}, "2")
    code, intensity = run("recover", "--mode", "harvey")
    assert code == 0
    assert intensity["constant_agents"] == ["a1", "a2"]
    assert (intensity["weights"], intensity["constant"]) == ({"a1": "1", "a2": "1"}, "9/2")
    code, coincide = run("coincide")
    assert code == 1
    assert coincide["failed_hypothesis"] == "two-nonconstant-agents"
    failed = [h["name"] for h in coincide["hypotheses"] if h["verdict"] == "FAIL"]
    assert failed == ["two-nonconstant-agents"]


def test_recover_harvey_on_sqrt_fixture():
    result = run_cli("recover", str(FIXTURES / "sqrt_k10.json"), "--mode", "harvey", "--json")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "recover_sqrt_k10_harvey.json").read_text()
    payload = json.loads(result.stdout)
    assert payload["weights"] == {"agent1": "1", "agent2": "1"}
    assert payload["constant"] == "0"


def test_recover_harvey_reports_a_bent_component_at_the_slopes_stage(tmp_path, capsys):
    path = tmp_path / "bent.json"
    path.write_text(emit_society(bent_component_society()), encoding="utf-8")
    assert cli.main(["recover", str(path), "--mode", "harvey", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["success"] is False
    assert payload["failed_stage"] == "slopes"
    assert payload["witness"] == "component 'a1' is not linear at -5: -4 != -5"


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


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_a_file_with_shuffled_table_keys_reads_as_the_canonical_one(name, tmp_path, capsys):
    # The parser lays each table out in the space's state order, so the
    # order a file lists a table's states in changes no output.
    canonical = FIXTURES / name
    payload = json.loads(canonical.read_text(encoding="utf-8"))
    rng = random.Random(name)

    def shuffled(table: dict) -> dict:
        items = list(table.items())
        rng.shuffle(items)
        return dict(items)

    for key in (None, "nm_profile", "alt_profile"):
        profile = payload if key is None else payload.get(key)
        if profile is not None:
            for agent in profile["agents"]:
                agent["utility"] = shuffled(agent["utility"])
            profile["ethical"] = shuffled(profile["ethical"])
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert path.read_text(encoding="utf-8") != canonical.read_text(encoding="utf-8")
    assert emit_society(parse_society(str(path))) == canonical.read_text(encoding="utf-8")
    commands = (["validate"], ["recover", "--mode", "harsanyi"], ["recover", "--mode", "harvey"],
                ["coincide"])
    for command in commands:
        for flags in ([], ["--json"]):
            outcomes = []
            for file in (canonical, path):
                code = cli.main([*command, str(file), *flags])
                outcomes.append((code, *capsys.readouterr()))
            assert outcomes[0] == outcomes[1], (command, flags)


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert "error" in result.stderr


def test_schema_error_exits_two_with_field(tmp_path):
    zero_denominator = {
        "space": {"kind": "explicit", "states": ["a", "b"]},
        "agents": [
            {"name": "a1", "utility": {"a": "1/0", "b": "0"}},
            {"name": "a2", "utility": {"a": "0", "b": "0"}},
        ],
        "ethical": {"a": "0", "b": "0"},
    }
    duplicate_state = {
        "space": {"kind": "explicit", "states": ["a", "a"]},
        "agents": [{"name": "a1", "utility": {"a": "0"}}, {"name": "a2", "utility": {"a": "0"}}],
        "ethical": {"a": "0"},
    }
    for payload, field in [
        (zero_denominator, "utility.a"),
        (duplicate_state, "space: state identifiers must be unique"),
    ]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = run_cli("validate", str(path))
        assert result.returncode == 2
        assert field in result.stderr


def test_max_states_guard_exits_two():
    result = run_cli("validate", str(FIXTURES / "sqrt_k10.json"), "--max-states", "3")
    assert result.returncode == 2
    assert "max-states" in result.stderr


@pytest.mark.parametrize("kind", ["product_grid", "explicit"])
def test_max_states_is_checked_before_the_space_is_built(tmp_path, monkeypatch, capsys, kind):
    # A declared 2**20 x 2**20 grid is refused from its dims alone, and an
    # explicit space from its state count, before any table is read.
    built = []
    monkeypatch.setattr(StateSpace, "product_grid", lambda dims: built.append(dims))
    if kind == "product_grid":
        dim = {"min": "0", "max": "1", "resolution": f"1/{2**20}"}
        space = {"kind": kind, "dims": [{"name": "x", **dim}, {"name": "y", **dim}]}
        size = (2**20 + 1) ** 2
    else:
        space = {"kind": kind, "states": [f"s{i}" for i in range(65)]}
        size = 65
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"space": space, "agents": [], "ethical": {}}), encoding="utf-8")
    assert cli.main(["validate", str(path), "--max-states", "64"]) == 2
    assert capsys.readouterr().err == f"error: {size} states exceed --max-states 64\n"
    assert built == []


def test_failed_reduction_reverification_exits_three(monkeypatch, capsys):
    # recover --mode harsanyi reads the reduction; skew the integer identity
    # check its solution is re-verified with on the scaled rows.
    real = harsanyi.residual

    def skewed(v, columns, ratios):
        found = real(v, columns, ratios)
        return None if found is None else found + 1

    monkeypatch.setattr(harsanyi, "residual", skewed)
    code = cli.main(["recover", str(FIXTURES / "sqrt_k10.json"), "--mode", "harsanyi", "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: recovered identity failed pointwise re-verification\n"
    )


def test_tampered_axiom_i_witness_exits_three(monkeypatch, capsys):
    # The witness is re-verified on the returned lotteries themselves: move
    # p's mass at one state onto another and validate must fail as a bug.
    real = harsanyi._perturbed_pair

    def tampered(eta, states):
        pair = real(eta, states)
        probs = pair.p.as_dict()
        probs["4,1"] += probs.pop("0,0")
        p = SimpleLottery.from_mapping(probs)
        return harsanyi.LotteryWitnessPair(p, pair.q, pair.eta, pair.lam)

    monkeypatch.setattr(harsanyi, "_perturbed_pair", tampered)
    code = cli.main(["validate", str(FIXTURES / "nonadditive.json"), "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: witness pair fails agent indifference\n"


@pytest.mark.parametrize("argv", [["recover", "--mode", "harvey"], ["coincide"]])
def test_failed_harvey_reverification_exits_three(monkeypatch, capsys, argv):
    # A failed self-check of the intensity-side recovery is a bug, not a verdict.
    monkeypatch.setattr(harvey, "fitted_constant", lambda *args: None)
    code = cli.main([argv[0], str(FIXTURES / "sqrt_k10.json"), *argv[1:], "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: slopes and constant fail pointwise re-verification\n"
    )


def _skewed_weights(monkeypatch):
    # Add 1/10007 to every certified weight: no scaled axis value of
    # sqrt_k10 is then an int multiple of the skewed slope's denominator.
    real = harvey.Analysis.certificate_of

    def skewed(self, profile):
        weights, b = real(self, profile)
        return tuple(None if w is None else w + Fraction(1, 10007) for w in weights), b

    monkeypatch.setattr(harvey.Analysis, "certificate_of", skewed)
    return "sqrt_k10.json", "certified axis value is not an int"


def _dropped_axis_vector(monkeypatch):
    # nonadditive passes axiom (I), is semi-separable and has no
    # certificate, so the map reads the scan's table: drop the zero vector.
    real = harvey._scan_pairs

    def dropped(ints):
        scan = real(ints)
        del scan.table[0]
        return scan

    monkeypatch.setattr(harvey, "_scan_pairs", dropped)
    return "nonadditive.json", "semi-separable map misses an axis vector"


@pytest.mark.parametrize("skew", [_skewed_weights, _dropped_axis_vector])
def test_difference_map_internal_errors_exit_three(monkeypatch, capsys, skew):
    # Both of build_difference_map's self-checks are bugs, not verdicts.
    fixture, message = skew(monkeypatch)
    code = cli.main(["recover", str(FIXTURES / fixture), "--mode", "harvey", "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"internal error: {message}\n"


def test_parser_is_built_once_per_process(capsys):
    # Two in-process runs with different subcommands and flags each print
    # what they print alone, in a fresh interpreter, from one parser.
    runs = [
        ("recover", str(FIXTURES / "sqrt_k10.json"), "--mode", "harvey"),
        ("coincide", str(FIXTURES / "simplex.json"), "--json"),
    ]
    alone = [run_cli(*argv) for argv in runs]
    cli.build_parser.cache_clear()
    for argv, expected in zip(runs, alone):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            expected.returncode,
            expected.stdout,
            expected.stderr,
        )
    assert cli.build_parser.cache_info().misses == 1


def test_missing_file_exits_two():
    result = run_cli("validate", "does-not-exist.json")
    assert result.returncode == 2
