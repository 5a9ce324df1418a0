"""Tests of the benchmark itself: tiny workloads, the output checker, failure accounting."""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts the checkout's src on sys.path)
import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(tmp_path):
    return lambda workload: workloads.build(workload, 7, str(tmp_path), tiny=True)


def replay(monkeypatch, code, payload) -> None:
    """Make the CLI print ``payload`` and return ``code``, as a corrupted program would."""

    def fake_main(argv):
        print(json.dumps(payload, indent=2))
        return code

    monkeypatch.setattr(run.cli, "main", fake_main)


def first_op(ops, suffix):
    return next(op for op in ops if op.id.endswith(suffix))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(tiny, workload):
    outcomes, cycles = run.run_cycles(tiny(workload), {}, run.Speed())
    assert cycles == 1 and outcomes
    assert [(o.op.id, o.error) for o in outcomes if o.error] == []


def test_changed_weight_counts_as_failed(tiny, monkeypatch):
    op = first_op(tiny("lottery-recover"), "independent/recover-harsanyi")
    _, code, stdout, _ = run.call(op)
    payload = json.loads(stdout)
    assert not run.run_op(op, {}, run.Speed()).error
    agent = op.case.agents[0]
    payload["weights"][agent] = str(Fraction(payload["weights"][agent]) + 1)
    replay(monkeypatch, code, payload)
    outcome = run.run_op(op, {}, run.Speed())
    assert outcome.wrong and outcome.latency == math.inf


def test_changed_alpha_counts_as_failed(tiny, monkeypatch):
    op = first_op(tiny("grid-coincide"), "faithful/coincide")
    _, code, stdout, _ = run.call(op)
    payload = json.loads(stdout)
    payload["agents"][1]["alpha"] = str(Fraction(payload["agents"][1]["alpha"]) * 2)
    replay(monkeypatch, code, payload)
    assert run.run_op(op, {}, run.Speed()).wrong


@pytest.mark.parametrize("suffix, check, prefix", [
    ("negative-3x5/validate", "pareto", "witness pair "),
    ("holed-1/validate", "semi-separability", "witness profile "),
    ("cube-3x5/validate", "axiom-I", "witness quadruple "),
])
def test_witness_with_one_state_swapped_counts_as_failed(tiny, monkeypatch, suffix, check, prefix):
    op = first_op(tiny("witness-validate"), suffix)
    _, code, stdout, _ = run.call(op)
    payload = json.loads(stdout)
    entry = next(c for c in payload["checks"] if c["name"] == check)
    witness = list(verdicts._literal(entry["detail"], prefix))
    witness[-1] = next(s for s in op.case.states if s != witness[-1])
    entry["detail"] = prefix + str(tuple(witness))
    replay(monkeypatch, code, payload)
    assert run.run_op(op, {}, run.Speed()).wrong


def test_violation_step_with_one_state_swapped_counts_as_failed(tiny, monkeypatch):
    op = first_op(tiny("sqrt-coincide"), "/coincide")
    _, code, stdout, _ = run.call(op)
    payload = json.loads(stdout)
    step = payload["agents"][0]["witness"]["second_step"]
    step["to"] = next(s for s in op.case.states if s != step["to"])
    replay(monkeypatch, code, payload)
    assert run.run_op(op, {}, run.Speed()).wrong


def test_output_differing_from_pinned_bytes_counts_as_failed(tiny):
    op = tiny("sqrt-coincide")[0]
    assert run.run_op(op, {op.id: "0" * 64}, run.Speed()).wrong


def test_raised_exception_is_infinite_in_p50(tiny, monkeypatch):
    def broken_main(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(run.cli, "main", broken_main)
    outcomes, _ = run.run_cycles(tiny("lottery-recover"), {}, run.Speed())
    metrics = run.end_to_end(outcomes, "lottery-recover", 0.1)
    assert metrics["command_s.p50"][0] == math.inf
    result = json.loads(run.result_line(outcomes, metrics))
    assert result["failed"] == result["attempted"] == len(outcomes)
    assert result["correct"] is True  # raising is a failure, not a wrong answer


def test_min_cycles_leaves_ten_ops_above_the_tail():
    for ops, p in [(42, 75), (48, 75), (54, 95), (28, 90), (1, 50)]:
        m = run.min_cycles(ops, p)
        n = m * ops
        assert n - math.ceil(p / 100 * n) >= run.TAIL_BEYOND
        assert m == 1 or (n - ops) - math.ceil(p / 100 * (n - ops)) < run.TAIL_BEYOND


def test_traced_run_reports_every_declared_layer_metric(tiny):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    plain, traced, tracer, cycles = run.run_traced(tiny("grid-coincide"), {}, run.Speed(), seconds=0)
    assert cycles == 1 and len(plain) == len(traced)
    assert {span[4] for span in tracer.spans} == {f"{o.op.id}#0" for o in traced}
    metrics = run.per_layer(plain, traced, tracer)
    assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    assert metrics["society.matches.calls"][0] > 0
    assert metrics["harvey.diff_vectors"][0] > 0
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(plain, "grid-coincide", 0.1))


def test_tracer_skips_missing_functions_and_restores_the_rest(tiny, monkeypatch):
    import utilcheck.coincidence
    import utilcheck.harsanyi
    import utilcheck.harvey

    monkeypatch.delattr(utilcheck.harsanyi, "positive_reweighting")
    original = utilcheck.harvey.check_axiom_I
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert utilcheck.coincidence.check_axiom_I is utilcheck.harvey.check_axiom_I is not original
        traced, _ = run.run_cycles(tiny("grid-coincide"), {}, run.Speed())
    finally:
        tracer.close()
    assert utilcheck.coincidence.check_axiom_I is utilcheck.harvey.check_axiom_I is original
    metrics = tracer.layer_metrics(len(traced))
    assert metrics["harsanyi.positive_reweighting.self_s"] == 0.0
    assert all(o.error is None for o in traced)
