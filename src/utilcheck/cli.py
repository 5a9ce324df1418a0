"""Command-line driver: validate, recover, coincide, fixture.

Exit codes: 0 when everything passes, 1 when any check fails (witnesses are
printed so the failure can be rechecked by hand), 2 for input or usage
errors, 3 for an internal error: a result that failed its own
re-verification, which is a bug rather than a verdict.  ``--json``
switches to the machine-readable report, whose field order is fixed so
reports diff cleanly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .coincidence import (
    COINCIDE,
    HYPOTHESIS_CHECKS,
    VIOLATION,
    simplex_counterexample,
    sqrt_fixture,
    theorem3_pipeline,
)
from .harsanyi import recover_weights
from .harvey import Analysis, harvey_recover
from .rationals import format_rational, parse_rational
from .societyfile import SocietyFileError, emit_society, parse_society

VALIDATE_CHECKS = ("pareto", "semi-separability", "matching", "axiom-i", "axiom-I")


def _rat(value: Fraction | None) -> str | None:
    return None if value is None else format_rational(value)


def _weights_payload(agents, weights) -> dict[str, str] | None:
    if weights is None:
        return None
    return {a: format_rational(w) for a, w in zip(agents, weights)}


def _emit(payload: dict, as_json: bool, render) -> None:
    """Print the payload as JSON, or the text lines ``render`` builds from it."""
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in render(payload):
            print(line)


def _records_payload(records) -> list[dict]:
    return [
        {"name": r.name, "verdict": "PASS" if r.passed else "FAIL", "detail": r.detail}
        for r in records
    ]


def _record_line(record: dict) -> str:
    detail = record["detail"]
    return f"{record['verdict']} {record['name']}" + (f": {detail}" if detail else "")


def _weights_lines(payload: dict) -> list[str]:
    """A successful recovery's weights and constant lines, as both modes print them."""
    weights = ", ".join(f"{a}={w}" for a, w in payload["weights"].items())
    return [f"weights: {weights}", f"constant: {payload['constant']}"]


def cmd_validate(args) -> int:
    soc = parse_society(args.file, args.max_states)
    by_name = dict(HYPOTHESIS_CHECKS)
    analysis = Analysis(soc)
    records = [by_name[name](soc, analysis) for name in VALIDATE_CHECKS]
    all_passed = all(r.passed for r in records)
    payload = {
        "command": "validate",
        "title": soc.metadata.get("title", ""),
        "checks": _records_payload(records),
        "all_passed": all_passed,
    }
    _emit(payload, args.json, lambda p: map(_record_line, p["checks"]))
    return 0 if all_passed else 1


def _harsanyi_lines(payload: dict) -> list[str]:
    if not payload["success"]:
        return [f"FAIL recovery: no exact combination at state {payload['residual_witness']!r}"]
    return _weights_lines(payload) + [f"unique: {str(payload['unique']).lower()}"]


def _harvey_lines(payload: dict) -> list[str]:
    if not payload["success"]:
        return [f"FAIL recovery at {payload['failed_stage']}: {payload['witness']}"]
    lines = _weights_lines(payload)
    if payload["constant_agents"]:
        lines.append(
            "constant agents (slope fixed at 1): " + ", ".join(payload["constant_agents"])
        )
    return lines


def cmd_recover(args) -> int:
    soc = parse_society(args.file, args.max_states)
    if args.mode == "harsanyi":
        report = recover_weights(soc)
        payload = {
            "command": "recover",
            "mode": "harsanyi",
            "title": soc.metadata.get("title", ""),
            "success": report.success,
            "weights": _weights_payload(report.agents, report.weights),
            "constant": _rat(report.constant),
            "unique": report.unique,
            "residual_witness": report.residual_witness,
        }
        _emit(payload, args.json, _harsanyi_lines)
        return 0 if report.success else 1
    report = harvey_recover(soc)
    payload = {
        "command": "recover",
        "mode": "harvey",
        "title": soc.metadata.get("title", ""),
        "success": report.success,
        "weights": _weights_payload(report.agents, report.weights),
        "constant": _rat(report.constant),
        "constant_agents": list(report.constant_agents),
        "failed_stage": report.failed_stage,
        "witness": None if report.witness is None else str(report.witness),
    }
    _emit(payload, args.json, _harvey_lines)
    return 0 if report.success else 1


def _verdict_payload(verdict) -> dict:
    out: dict = {"name": verdict.agent, "verdict": verdict.kind.upper()}
    if verdict.kind == COINCIDE:
        out["alpha"] = format_rational(verdict.alpha)
        out["beta"] = format_rational(verdict.beta)
    elif verdict.kind == VIOLATION:
        w = verdict.witness
        out["witness"] = {
            "first_step": _step_payload(w.first),
            "second_step": _step_payload(w.second),
            "increments": [
                [format_rational(base), format_rational(starred)]
                for base, starred in w.increments
            ],
        }
    return out


def _step_payload(step) -> dict:
    return {
        "from": step.lo_state,
        "to": step.hi_state,
        "base_increment": format_rational(step.base_increment),
        "starred_increment": format_rational(step.starred_increment),
    }


def _agent_line(agent: dict) -> str:
    name = agent["name"]
    if agent["verdict"] == "COINCIDE":
        return f"{name}: coincide with alpha={agent['alpha']}, beta={agent['beta']}"
    if agent["verdict"] == "CONSTANT":
        return f"{name}: constant on both scales"
    first, second = agent["witness"]["first_step"], agent["witness"]["second_step"]
    return (
        f"{name}: violation; step {first['from']}->{first['to']} moves "
        f"({first['base_increment']}, {first['starred_increment']}) but "
        f"{second['from']}->{second['to']} moves "
        f"({second['base_increment']}, {second['starred_increment']})"
    )


def _coincide_lines(payload: dict) -> list[str]:
    lines = [f"status: {payload['status']}"]
    lines += map(_record_line, payload["hypotheses"])
    lines += map(_agent_line, payload["agents"])
    if payload["detail"]:
        lines.append(payload["detail"])
    return lines


def cmd_coincide(args) -> int:
    soc = parse_society(args.file, args.max_states)
    report = theorem3_pipeline(soc)
    norm = report.normalization
    payload = {
        "command": "coincide",
        "title": soc.metadata.get("title", ""),
        "status": report.status,
        "hypotheses": _records_payload(report.hypotheses),
        "failed_hypothesis": report.failed_hypothesis,
        "agents": [_verdict_payload(v) for v in report.agents],
        "normalization": None
        if norm is None
        else {
            "alt_weights": _weights_payload(norm.agents, norm.alt_weights),
            "alt_constant": _rat(norm.alt_constant),
            "nm_weights": _weights_payload(norm.agents, norm.nm_weights),
            "nm_constant": _rat(norm.nm_constant),
            "slopes": None
            if norm.slopes is None
            else {a: _rat(s) for a, s in zip(norm.agents, norm.slopes)},
        },
        "detail": report.detail,
    }
    _emit(payload, args.json, _coincide_lines)
    return 0 if report.status == COINCIDE else 1


def cmd_fixture(args) -> int:
    if args.kind == "sqrt":
        bundle = sqrt_fixture(args.k, parse_rational(args.eps), degenerate_second_agent=args.degenerate)
    else:
        bundle = simplex_counterexample(parse_rational(args.resolution))
    text = emit_society(bundle.society)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="utilcheck",
        description="Exact verification of utilitarian aggregation on finite societies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="society JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        refuse = "refuse (exit 2) a file whose space declares more states than this"
        p.add_argument("--max-states", type=int, default=64, help=refuse)

    p_validate = sub.add_parser("validate", help="run the axiom battery")
    common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_recover = sub.add_parser("recover", help="recover aggregation weights")
    common(p_recover)
    p_recover.add_argument("--mode", choices=("harsanyi", "harvey"), required=True)
    p_recover.set_defaults(func=cmd_recover)

    p_coincide = sub.add_parser("coincide", help="run the coincidence pipeline")
    common(p_coincide)
    p_coincide.set_defaults(func=cmd_coincide)

    p_fixture = sub.add_parser("fixture", help="emit a built-in fixture as society JSON")
    fixture_sub = p_fixture.add_subparsers(dest="kind", required=True)
    p_sqrt = fixture_sub.add_parser("sqrt", help="square-root coincidence violation")
    p_sqrt.add_argument("--k", type=int, required=True, help="largest step index")
    p_sqrt.add_argument("--eps", required=True, help="second agent's gap, e.g. 1/2")
    p_sqrt.add_argument("--degenerate", action="store_true", help="make the second agent indifferent")
    p_sqrt.add_argument("--out", help="write to a file instead of stdout")
    p_sqrt.set_defaults(func=cmd_fixture)
    p_simplex = fixture_sub.add_parser("simplex", help="budget-line semi-separability failure")
    p_simplex.add_argument("--resolution", required=True, help="dyadic step, e.g. 1/4")
    p_simplex.add_argument("--out", help="write to a file instead of stdout")
    p_simplex.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SocietyFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
