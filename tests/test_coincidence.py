"""Normalization, per-agent affinity verdicts, pipeline, and fixtures."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_coincidence_society, product_grid_society
from utilcheck import (
    GridDim,
    NormalizationError,
    Profile,
    Society,
    StateSpace,
    UtilityTable,
    affine_relation,
    check_pareto_criterion,
    check_semi_separable,
    emit_society,
    linear_combination,
    normalize_for_theorem3,
    proposition1_check,
    recover_weights,
    simplex_counterexample,
    sqrt_fixture,
    theorem3_pipeline,
)
from utilcheck import cli, harvey

F = Fraction


def _coordinate_society(v_fn=None, star=None):
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1, 2)), GridDim("y", F(0), F(1), F(1, 2))]
    )
    u1 = UtilityTable.on_coords(space, lambda x, y: x)
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    v = UtilityTable.on_coords(space, v_fn or (lambda x, y: x + y))
    nm = None
    if star is not None:
        nm = Profile(
            {"a1": star[0], "a2": star[1]},
            linear_combination(list(star), [1, 1]),
        )
    return Society.from_tables(space, {"a1": u1, "a2": u2}, v, nm=nm), u1, u2


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_already_normalized_unchanged():
    soc, u1, u2 = _coordinate_society()
    record = normalize_for_theorem3(soc)
    assert record.agents == ("a1", "a2")
    assert record.alt_weights == (F(1), F(1))
    assert record.alt_constant == 0
    assert record.nm_weights == (F(1), F(1))
    assert record.nm_constant == 0
    assert record.slopes is None


def test_normalize_planted_star_weights():
    soc, u1, u2 = _coordinate_society()
    star1, star2 = u1, u2
    star_ethical = linear_combination([star1, star2], [F(2), F(3)], F(5))
    soc = Society.from_tables(
        soc.space,
        {"a1": u1, "a2": u2},
        soc.base.ethical,
        nm=Profile({"a1": star1, "a2": star2}, star_ethical),
    )
    record = normalize_for_theorem3(soc)
    assert record.nm_weights == (F(2), F(3))
    assert record.nm_constant == F(5)
    # Substitution oracle: the recorded weights and constants rebuild both
    # input ethical tables pointwise.
    for profile, weights, constant in (
        (soc.alt_side(), record.alt_weights, record.alt_constant),
        (soc.nm_side(), record.nm_weights, record.nm_constant),
    ):
        total = linear_combination(
            [profile.tables[a] for a in soc.agents], weights, constant
        )
        assert total == profile.ethical


def test_normalize_propagates_axiom_i_failure():
    soc, u1, u2 = _coordinate_society()
    bad_star_ethical = UtilityTable.on_coords(soc.space, lambda x, y: x * y)
    soc = Society.from_tables(
        soc.space,
        {"a1": u1, "a2": u2},
        soc.base.ethical,
        nm=Profile({"a1": u1, "a2": u2}, bad_star_ethical),
    )
    with pytest.raises(NormalizationError, match="lottery-side"):
        normalize_for_theorem3(soc)


# ---------------------------------------------------------------------------
# Per-agent affinity


def test_proposition1_identity_profiles():
    soc, u1, u2 = _coordinate_society()
    tables = {"a1": u1, "a2": u2}
    report = proposition1_check(soc.space, tables, tables)
    assert report.status == "coincide"
    assert all(v.kind == "coincide" and v.alpha == 1 and v.beta == 0 for v in report.agents)


def test_proposition1_affine_per_agent():
    soc, u1, u2 = _coordinate_society()
    starred = {"a1": u1.affine(F(2), F(3)), "a2": u2.affine(F(2), F(3))}
    report = proposition1_check(soc.space, {"a1": u1, "a2": u2}, starred)
    assert report.status == "coincide"
    for verdict in report.agents:
        assert (verdict.alpha, verdict.beta) == (F(2), F(3))


def test_proposition1_shared_agent_order_failure():
    soc, u1, u2 = _coordinate_society()
    starred = {"a1": u1, "a2": u2.affine(F(-1), F(0))}
    report = proposition1_check(soc.space, {"a1": u1, "a2": u2}, starred)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "shared-agent-order"


def test_proposition1_range_product_failure():
    fixture = simplex_counterexample(F(1, 4))
    soc = fixture.society
    report = proposition1_check(soc.space, dict(soc.base.tables), dict(soc.nm.tables))
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "range-product"


def test_proposition1_two_nonconstant_failure():
    soc, u1, u2 = _coordinate_society()
    const = UtilityTable({s: F(7) for s in soc.space.states})
    tables = {"a1": u1, "a2": const}
    report = proposition1_check(soc.space, tables, tables)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "two-nonconstant-agents"


def test_proposition1_ethical_order_checked_after_verdicts():
    # Each agent pair is affine, but with different slopes the two sums
    # order states differently; that is reported as the failed hypothesis.
    soc, u1, u2 = _coordinate_society()
    starred = {"a1": u1, "a2": u2.affine(F(2), F(0))}
    report = proposition1_check(soc.space, {"a1": u1, "a2": u2}, starred)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "shared-ethical-order"
    assert all(v.kind == "coincide" for v in report.agents)


def test_proposition1_constant_agent_verdict():
    soc, u1, u2 = _coordinate_society()
    const = UtilityTable({s: F(7) for s in soc.space.states})
    u3 = UtilityTable.on_coords(soc.space, lambda x, y: 2 * y)
    tables = {"a1": u1, "a2": u3, "a3": const}
    space = soc.space
    report = proposition1_check(space, tables, dict(tables))
    assert report.status == "coincide"
    assert report.agents[2].kind == "constant"


@st.composite
def affinity_cases(draw):
    """Tables on a shuffled product of per-agent levels, one point possibly
    missing; each starred table is an affine image or another increasing
    table, now and then reversed; plus a positive weight for each table."""
    n = draw(st.integers(2, 3))
    sizes = [draw(st.integers(2 if i < 2 else 1, 4)) for i in range(n)]
    points = draw(st.permutations(list(itertools.product(*(range(k) for k in sizes)))))
    if draw(st.booleans()) and len(points) > 1:
        points = points[1:]
    states = [",".join(map(str, p)) for p in points]
    steps = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)

    def increasing(k):
        levels = [F(draw(st.integers(-3, 3)))]
        for step in draw(st.lists(steps, min_size=k - 1, max_size=k - 1)):
            levels.append(levels[-1] + step)
        return levels

    base, starred = {}, {}
    for i in range(n):
        levels = increasing(sizes[i])
        if draw(st.booleans()):
            alpha, beta = draw(steps), draw(st.integers(-3, 3))
            images = [alpha * t + beta for t in levels]
        else:
            images = increasing(sizes[i])
        if draw(st.integers(0, 5)) == 3:  # not 0, which shrinking favours
            images.reverse()
        base[f"a{i}"] = UtilityTable({s: levels[p[i]] for s, p in zip(states, points)})
        starred[f"a{i}"] = UtilityTable({s: images[p[i]] for s, p in zip(states, points)})
    weights = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
    scale = [(draw(weights), draw(weights)) for _ in range(n)]
    return StateSpace.explicit(states), base, starred, scale


@settings(max_examples=100, deadline=None)
@given(affinity_cases())
def test_proposition1_verdicts_invariant_under_positive_scaling(case):
    # The pipeline decides verdicts on the input tables rather than on the
    # reweighted ones; this invariance is what makes the two agree.
    space, base, starred, scale = case
    report = proposition1_check(space, base, starred)
    scaled = proposition1_check(
        space,
        {a: base[a].affine(w, F(0)) for a, (w, _) in zip(base, scale)},
        {a: starred[a].affine(w_star, F(0)) for a, (_, w_star) in zip(starred, scale)},
    )
    if not report.agents:
        assert not scaled.agents
        assert scaled.failed_hypothesis == report.failed_hypothesis
        return
    assert [v.kind for v in scaled.agents] == [v.kind for v in report.agents]
    for v, sv, (w, w_star) in zip(report.agents, scaled.agents, scale):
        if v.kind == "coincide":
            assert sv.alpha == v.alpha * w_star / w
            assert sv.beta == v.beta * w_star
        elif v.kind == "violation":
            for step, scaled_step in (
                (v.witness.first, sv.witness.first),
                (v.witness.second, sv.witness.second),
            ):
                assert (scaled_step.lo_state, scaled_step.hi_state) == (
                    step.lo_state,
                    step.hi_state,
                )
            assert sv.witness.increments == tuple(
                (b * w, s * w_star) for b, s in v.witness.increments
            )


# ---------------------------------------------------------------------------
# Square-root fixture


def test_sqrt_fixture_increments_closed_form():
    fixture = sqrt_fixture(3, F(1))
    assert fixture.increments == (F(1), F(3), F(5))  # (2k+1) eps^2 for k = 0, 1, 2


def test_sqrt_fixture_chain_holds_exactly():
    fixture = sqrt_fixture(4, F(1, 2))
    v_star = fixture.society.nm.ethical
    assert fixture.chain  # one identity per consecutive pair
    for a, b in fixture.chain:
        assert v_star[a] == v_star[b]


def test_sqrt_fixture_proposition1_violation():
    fixture = sqrt_fixture(10, F(1, 2))
    soc = fixture.society
    report = proposition1_check(soc.space, dict(soc.base.tables), dict(soc.nm.tables))
    assert report.status == "violation"
    verdict = report.agents[0]
    assert verdict.kind == "violation"
    # k-indexed increments: base scale moves by (2k+1) eps^2 per starred eps.
    base_increments = tuple(base for base, _ in verdict.witness.increments)
    assert base_increments == fixture.increments
    starred_increments = {starred for _, starred in verdict.witness.increments}
    assert starred_increments == {F(1, 2)}


def test_sqrt_fixture_degenerate_variant_hypothesis_failure():
    fixture = sqrt_fixture(10, F(1, 2), degenerate_second_agent=True)
    soc = fixture.society
    report = proposition1_check(soc.space, dict(soc.base.tables), dict(soc.nm.tables))
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "two-nonconstant-agents"


def test_sqrt_fixture_validation():
    with pytest.raises(ValueError):
        sqrt_fixture(1, F(1))
    with pytest.raises(ValueError):
        sqrt_fixture(3, F(0))


def test_sqrt_fixture_pipeline_names_the_conclusion():
    fixture = sqrt_fixture(5, F(1, 2))
    report = theorem3_pipeline(fixture.society)
    assert report.status == "violation"
    assert all(rec.passed for rec in report.hypotheses)


# ---------------------------------------------------------------------------
# Simplex fixture


def test_simplex_fixture_grid_and_identity():
    fixture = simplex_counterexample(F(1, 4))
    assert fixture.x1_values == (F(0), F(1, 16), F(1, 4), F(9, 16), F(1))
    assert len(fixture.society.space) == 5
    v_star = fixture.society.nm.ethical
    for s, x1 in zip(fixture.society.space.states, fixture.x1_values):
        assert v_star[s] == 2 * x1


def test_simplex_fixture_affine_relation_none():
    fixture = simplex_counterexample(F(1, 4))
    soc = fixture.society
    assert affine_relation(soc.base.tables["agent1"], soc.nm.tables["agent1"]) is None


def test_simplex_fixture_semi_separability_fails_with_witness():
    fixture = simplex_counterexample(F(1, 4))
    result = check_semi_separable(fixture.society)
    assert not result.passed
    assert result.witness == fixture.semi_separability_witness


def test_simplex_fixture_recovery_weights():
    fixture = simplex_counterexample(F(1, 4))
    report = recover_weights(fixture.society)
    assert report.success and report.unique
    assert report.weights == (F(1), F(1))
    assert report.constant == F(0)


def test_simplex_fixture_pipeline_fails_only_semi_separability():
    fixture = simplex_counterexample(F(1, 4))
    report = theorem3_pipeline(fixture.society)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "semi-separability"
    for rec in report.hypotheses:
        assert rec.passed == (rec.name != "semi-separability")


def test_simplex_fixture_resolution_validation():
    with pytest.raises(ValueError):
        simplex_counterexample(F(1, 3))
    with pytest.raises(ValueError):
        simplex_counterexample(F(2, 4 + 1))


# ---------------------------------------------------------------------------
# Full pipeline


def test_pipeline_planted_affine_exact():
    rng = random.Random(83)
    for _ in range(8):
        n = rng.choice([2, 3])
        soc, alphas, betas = planted_coincidence_society(rng, n)
        report = theorem3_pipeline(soc)
        assert report.status == "coincide"
        base = soc.alt_side().tables
        starred = soc.nm_side().tables
        for verdict, alpha, beta in zip(report.agents, alphas, betas):
            assert verdict.kind == "coincide"
            assert (verdict.alpha, verdict.beta) == (alpha, beta)
            assert verdict.alpha > 0
            for s in soc.space.states:
                assert starred[verdict.agent][s] == alpha * base[verdict.agent][s] + beta


def test_pipeline_planted_distortion_violation():
    rng = random.Random(89)
    for _ in range(5):
        n = rng.choice([2, 3])
        idx = rng.randrange(n)
        soc, _, _ = planted_coincidence_society(rng, n, distort_agent=idx)
        report = theorem3_pipeline(soc)
        assert report.status == "violation"
        verdict = report.agents[idx]
        assert verdict.kind == "violation"
        w = verdict.witness
        base = soc.alt_side().tables[verdict.agent]
        starred = soc.nm_side().tables[verdict.agent]
        for step in (w.first, w.second):
            assert base[step.hi_state] - base[step.lo_state] == step.base_increment
            assert starred[step.hi_state] - starred[step.lo_state] == step.starred_increment
        # The two steps really do disagree per unit of the base scale.
        assert (
            w.first.starred_increment * w.second.base_increment
            != w.second.starred_increment * w.first.base_increment
        )


def test_pipeline_shared_ethical_order_verdicts_on_input_tables():
    # Each agent's tables are affine images, but the starred ethical table
    # weighs a2 twice, so the two ethical orders disagree.  The verdicts
    # still describe the input tables: u*2 = u2 gives alpha 1, beta 0.
    soc, u1, u2 = _coordinate_society()
    star1 = u1.affine(F(3), F(1))
    star = Profile({"a1": star1, "a2": u2}, linear_combination([star1, u2], [1, 2]))
    soc = Society.from_tables(soc.space, {"a1": u1, "a2": u2}, soc.base.ethical, nm=star)
    report = theorem3_pipeline(soc)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "shared-ethical-order"
    assert report.hypothesis("shared-ethical-order").detail == (
        "table sums disagree on ('0,1/2', '1/2,0')"
    )
    assert [(v.agent, v.kind, v.alpha, v.beta) for v in report.agents] == [
        ("a1", "coincide", F(3), F(1)),
        ("a2", "coincide", F(1), F(0)),
    ]
    for verdict in report.agents:
        base = soc.alt_side().tables[verdict.agent]
        starred = soc.nm_side().tables[verdict.agent]
        for s in soc.space.states:
            assert starred[s] == verdict.alpha * base[s] + verdict.beta


def test_pipeline_single_nonconstant_agent_error():
    space = StateSpace.product_grid([GridDim("x", F(0), F(1), F(1, 2))])
    u1 = UtilityTable.on_coords(space, lambda x: x)
    u2 = UtilityTable({s: F(3) for s in space.states})
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, u1)
    report = theorem3_pipeline(soc)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "two-nonconstant-agents"


def test_pipeline_pareto_failure_named():
    rng = random.Random(97)
    soc, _, _ = product_grid_society(rng, 2, weights=(F(1), F(-2)))
    report = theorem3_pipeline(soc)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "pareto"
    assert not check_pareto_criterion(soc).passed


def test_pipeline_constant_agent_verdict():
    # Third agent everywhere indifferent: hypotheses still hold (two others
    # are nonconstant) and the pipeline reports the constant verdict.
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1, 2)), GridDim("y", F(0), F(1), F(1, 2))]
    )
    u1 = UtilityTable.on_coords(space, lambda x, y: x)
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    u3 = UtilityTable({s: F(4) for s in space.states})
    v = linear_combination([u1, u2, u3], [F(2), F(3), F(1)])
    star = {
        "a1": u1.affine(F(5), F(1)),
        "a2": u2.affine(F(1, 2), F(0)),
        "a3": UtilityTable({s: F(-2) for s in space.states}),
    }
    v_star = linear_combination(
        [star["a1"], star["a2"], star["a3"]], [F(2) / F(5), F(6), F(1)], F(3)
    )
    soc = Society.from_tables(
        space, {"a1": u1, "a2": u2, "a3": u3}, v, nm=Profile(star, v_star)
    )
    report = theorem3_pipeline(soc)
    assert report.status == "coincide"
    kinds = {v.agent: v.kind for v in report.agents}
    assert kinds == {"a1": "coincide", "a2": "coincide", "a3": "constant"}
    assert (report.agents[0].alpha, report.agents[0].beta) == (F(5), F(1))
    assert (report.agents[1].alpha, report.agents[1].beta) == (F(1, 2), F(0))


def test_coincide_scans_the_pairs_once(tmp_path, monkeypatch, capsys):
    # The battery's axiom-I record, the Harvey axiom check and the
    # difference map all read one scan.
    calls = []
    real = harvey._pair_groups
    monkeypatch.setattr(harvey, "_pair_groups", lambda soc: calls.append(soc) or real(soc))
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    path = tmp_path / "planted.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    assert cli.main(["coincide", str(path), "--json"]) == 0
    assert '"status": "coincide"' in capsys.readouterr().out
    assert len(calls) == 1
