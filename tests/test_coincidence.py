"""Normalization, per-agent affinity verdicts, pipeline, and fixtures."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    negative_weight_society,
    planted_coincidence_society,
    product_grid_society,
)
from test_core import pareto_loop
from utilcheck import (
    GridDim,
    NormalizationError,
    Profile,
    Society,
    SpanProblem,
    StateSpace,
    UtilityTable,
    affine_relation,
    check_pareto_criterion,
    check_semi_separable,
    emit_society,
    linear_combination,
    normalize_for_theorem3,
    positive_reweighting,
    proposition1_check,
    recover_weights,
    simplex_counterexample,
    sqrt_fixture,
    theorem3_pipeline,
)
from utilcheck import alt, cli, coincidence, core, harvey

F = Fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_normalize_reads_the_canonical_lottery_weights():
    # Lottery tables a1 = a2 = x fail matching, so nothing makes the weights
    # unique: the canonical (2, 0) is read as it is and names a2, though
    # trading weight from a1 onto a2 gives the positive (3/2, 1/2).
    soc, u1, _ = _coordinate_society()
    soc, _, _ = _coordinate_society(star=(u1, u1))
    assert theorem3_pipeline(soc).failed_hypothesis == "matching"
    with pytest.raises(NormalizationError, match="nonconstant agent 'a2' is not positive"):
        normalize_for_theorem3(soc)
    assert positive_reweighting(soc, recover_weights(soc)) == ((F(3, 2), F(1, 2)), F(0))


@st.composite
def lottery_weight_societies(draw):
    """Separable grids with separate lottery-side and intensity-side tables.

    Each agent's base table is constant or injective in its own coordinate.
    Its intensity-side table is an increasing image of it, and so is its
    lottery-side table, or that is an affine image of an earlier agent's
    lottery-side table.  Each side's ethical table sums that side's tables
    with weights from -3 to 5; the base ethical table is the intensity-side one.
    """
    n = draw(st.integers(2, 3))
    dims = [GridDim(f"x{i}", F(0), F(1), F(1, 2 ** draw(st.integers(0, 1)))) for i in range(n)]
    space = StateSpace.product_grid(dims)
    small = st.integers(1, 3).map(F)

    def increasing(levels):
        kind = draw(st.sampled_from(["same", "affine", "cube"]))
        if kind == "affine":
            a, b = draw(small) / draw(small), F(draw(st.integers(-2, 2)))
            return [a * x + b for x in levels]
        return [x**3 for x in levels] if kind == "cube" else levels

    base, alt, nm = {}, {}, {}
    for i, dim in enumerate(dims):
        points = dim.points()
        if draw(st.integers(0, 3)) == 0:
            levels = [F(draw(st.integers(-2, 2)))] * len(points)
        else:
            ints = st.lists(st.integers(-6, 6), min_size=len(points), max_size=len(points), unique=True)
            levels = [F(k, 2) for k in draw(ints)]

        def table(values):
            by_point = dict(zip(points, values))
            return UtilityTable({s: by_point[space.coords(s)[i]] for s in space.states})

        name = f"a{i}"
        base[name], alt[name] = table(levels), table(increasing(levels))
        if nm and draw(st.integers(0, 3)) == 0:
            earlier = nm[draw(st.sampled_from(sorted(nm)))]
            nm[name] = earlier.affine(draw(small), F(draw(st.integers(-2, 2))))
        else:
            nm[name] = table(increasing(levels))

    def ethical(tables):
        weights = [F(draw(st.integers(-3, 5))) for _ in tables]
        return linear_combination(list(tables.values()), weights, F(draw(st.integers(-2, 2))))

    alt_ethical = ethical(alt)
    return Society.from_tables(
        space, base, alt_ethical, nm=Profile(nm, ethical(nm)), alt=Profile(alt, alt_ethical)
    )


@settings(max_examples=300, deadline=None)
@given(lottery_weight_societies())
def test_a_passing_battery_leaves_no_lottery_weight_to_trade(soc):
    # Matching gives each lottery-side table its base table's indifference
    # classes and semi-separability realizes every combination of them, so a
    # relation c0 + sum c_i u*_i = 0 forces c_j = 0 for every nonconstant j.
    analysis = harvey.Analysis(soc)
    if not all(fn(soc, analysis).passed for _, fn in coincidence.HYPOTHESIS_CHECKS):
        return
    tables = soc.nm_side().tables
    nonconstant = [i for i, a in enumerate(soc.agents) if not tables[a].is_constant()]
    pivots = SpanProblem.of(soc).spanning_pivots
    assert all(i + 1 in pivots for i in nonconstant)
    report = recover_weights(soc)
    if any(report.weights[i] <= 0 for i in nonconstant):
        assert positive_reweighting(soc, report) is None


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
    assert report.hypothesis("range-product").detail == (
        f"witness profile {fixture.semi_separability_witness}"
    )


def test_proposition1_two_nonconstant_failure():
    soc, u1, u2 = _coordinate_society()
    const = UtilityTable({s: F(7) for s in soc.space.states})
    tables = {"a1": u1, "a2": const}
    report = proposition1_check(soc.space, tables, tables)
    assert report.status == "hypothesis-failure"
    assert report.failed_hypothesis == "two-nonconstant-agents"


def test_proposition1_records_its_three_gates_in_order():
    soc, u1, u2 = _coordinate_society()
    const = UtilityTable({s: F(7) for s in soc.space.states})
    simplex = simplex_counterexample(F(1, 4)).society
    cases = {
        None: (soc.space, {"a1": u1, "a2": u2}, {"a1": u1, "a2": u2}),
        "shared-agent-order": (
            soc.space, {"a1": u1, "a2": u2}, {"a1": u1, "a2": u2.affine(F(-1), F(0))}
        ),
        "range-product": (simplex.space, dict(simplex.base.tables), dict(simplex.nm.tables)),
        "two-nonconstant-agents": (soc.space, {"a1": u1, "a2": const}, {"a1": u1, "a2": const}),
    }
    for failing, args in cases.items():
        report = proposition1_check(*args)
        assert [r.name for r in report.hypotheses] == [
            "shared-agent-order", "range-product", "two-nonconstant-agents"
        ]
        assert [r.name for r in report.hypotheses if not r.passed] == [failing] * bool(failing)
        assert report.status == ("hypothesis-failure" if failing else "coincide")
        assert bool(report.agents) == (failing is None)
    report = proposition1_check(*cases["shared-agent-order"])
    assert report.hypothesis("shared-agent-order").detail.startswith(
        "agent 'a2' tables disagree on ("
    )
    report = proposition1_check(*cases["two-nonconstant-agents"])
    assert report.hypothesis("two-nonconstant-agents").detail == "nonconstant agents: ['a1']"


def test_proposition1_rejects_a_table_that_does_not_cover_the_space():
    space = StateSpace.explicit(["a", "b", "c", "d"])
    u1 = UtilityTable({s: F(i) for i, s in enumerate(space.states)})
    u2 = UtilityTable({s: F(i * i) for i, s in enumerate(space.states)})
    missing = UtilityTable({s: F(1) for s in "abc"})
    with pytest.raises(ValueError, match=r"^u\* table for 'a2' does not cover exactly the space$"):
        proposition1_check(space, {"a1": u1, "a2": u2}, {"a1": u1, "a2": missing})
    # Constant on the space: read as nonconstant, it would make the report coincide.
    extra = UtilityTable({**{s: F(7) for s in space.states}, "e": F(8)})
    with pytest.raises(ValueError, match=r"^u table for 'a2' does not cover exactly the space$"):
        proposition1_check(space, {"a1": u1, "a2": extra}, {"a1": u1, "a2": extra})


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


@pytest.mark.parametrize("flipped", [name for name, _ in coincidence.HYPOTHESIS_CHECKS])
def test_simplex_fixture_rejects_any_battery_but_semi_separability_alone(monkeypatch, flipped):
    # Flip one record's verdict: the builder must refuse, naming what failed.
    def flip(fn):
        def record(soc, analysis):
            rec = fn(soc, analysis)
            return core.replace(rec, passed=not rec.passed)

        return record

    checks = tuple(
        (name, flip(fn) if name == flipped else fn) for name, fn in coincidence.HYPOTHESIS_CHECKS
    )
    monkeypatch.setattr(coincidence, "HYPOTHESIS_CHECKS", checks)
    failed = [n for n, _ in checks if (n == "semi-separability") != (n == flipped)]
    with pytest.raises(AssertionError, match=re.escape(f"fixture fails {failed},")):
        simplex_counterexample(F(1, 4))


def test_simplex_fixture_resolution_validation():
    with pytest.raises(ValueError):
        simplex_counterexample(F(1, 3))
    with pytest.raises(ValueError):
        simplex_counterexample(F(2, 4 + 1))
    # Two states make any two tables affine, so resolution 1 has no fixture.
    for resolution in (F(1), F(0), F(-1, 2), F(2)):
        with pytest.raises(ValueError, match=r"unit fraction in \(0, 1/2\]"):
            simplex_counterexample(resolution)
    assert len(simplex_counterexample(F(1, 2)).society.space) == 3


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


def cubed(table: UtilityTable) -> UtilityTable:
    """A monotone image of ``table`` that is never affine on three or more values."""
    return UtilityTable({s: v**3 for s, v in table.values.items()})


def test_coincide_scans_the_pairs_once(tmp_path, monkeypatch, capsys):
    # A passing coincide is decided by the linear certificate and scans no
    # pair; a failing axiom (I) has no certificate, and the battery's
    # axiom-I record, the Harvey axiom check and the difference map then
    # all read one scan.
    calls = []
    real = harvey._scan_pairs
    monkeypatch.setattr(harvey, "_scan_pairs", lambda ints: calls.append(ints) or real(ints))
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    path = tmp_path / "planted.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    assert cli.main(["coincide", str(path), "--json"]) == 0
    assert '"status": "coincide"' in capsys.readouterr().out
    assert calls == []
    bent = Profile(soc.base.tables, cubed(soc.base.ethical))
    path.write_text(emit_society(core.replace(soc, base=bent)), encoding="utf-8")
    assert cli.main(["coincide", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {h["name"]: h["verdict"] for h in payload["hypotheses"]}["axiom-I"] == "FAIL"
    assert len(calls) == 1


def test_coincide_and_recover_reduce_once(tmp_path, reduce_rows_calls, capsys):
    # Every lottery profile of a planted grid has single-agent neighbours and
    # a linear ethical table, so in coincide its certificate decides axiom
    # (i) and gives the weights with no reduction; recover --mode harsanyi,
    # which builds no Analysis, reads one reduction of [1 | u | v].
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    path = tmp_path / "planted.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    assert cli.main(["coincide", str(path), "--json"]) == 0
    assert '"status": "coincide"' in capsys.readouterr().out
    assert len(reduce_rows_calls) == 0
    assert cli.main(["recover", str(path), "--mode", "harsanyi", "--json"]) == 0
    assert '"success": true' in capsys.readouterr().out
    assert len(reduce_rows_calls) == 1


def test_matching_skips_a_table_compared_with_itself(tmp_path, monkeypatch, capsys):
    # With no intensity-side profile the base tables stand in for it, so of
    # the 2n + 1 pairs only the n lottery-side ones compare two tables; with
    # neither separate profile none does.
    calls = []
    real = coincidence.matches
    monkeypatch.setattr(coincidence, "matches", lambda *args: calls.append(args) or real(*args))
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    assert soc.nm is not None and soc.alt is None
    path = tmp_path / "planted.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    assert cli.main(["coincide", str(path), "--json"]) == 0
    assert '"status": "coincide"' in capsys.readouterr().out
    assert len(calls) == 3
    calls.clear()
    base_only = Society.from_tables(soc.space, soc.base.tables, soc.base.ethical)
    path.write_text(emit_society(base_only), encoding="utf-8")
    cli.main(["validate", str(path), "--json"])
    checks = {c["name"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["matching"] == "PASS"
    assert calls == []


def _rescaled_society_with_a_reversed_ethical_side() -> Society:
    """A planted coincidence whose intensity side rescales each agent's table and
    negates the ethical one: every compared pair but the ethical one matches."""
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    tables = {a: t.affine(2, 1) for a, t in soc.base.tables.items()}
    return core.replace(soc, alt=Profile(tables, soc.base.ethical.affine(-1, 0)))


#: sha256 of the exit codes, stdouts and stderrs of each command's text and
#: ``--json`` runs, as they were when the matching record built an intensity
#: system and a weak order for every compared pair.
MATCHING_DETOUR_DIGESTS = {
    "validate affine_grid.json": "fd076af9c6bd27da012273aa302c47def90eab56379fec1ed5c7663ba8ccff1f",
    "coincide affine_grid.json": "ecc5c379a07c3a1a960b8d6cdf8e0edfdd68c49be4aa614d8bb087ef6b90a7b2",
    "validate capped_sum.json": "34332084b505e42d5c9e9dbfa7af838e9086615913e7874d8eeb64432e711841",
    "coincide capped_sum.json": "9e0cfbe0bf7b2c3c84794c632bc6faf5a565d977637d08fcb73e12c7285ee17a",
    "validate negative_lottery_weight.json": "624cd6610efe0771e9d625cfee51c2c51eb957086d9bc7361d02a8d8dd5a77d4",
    "coincide negative_lottery_weight.json": "6352900414e1b1a1707aed1768817260c9225544f9b0414a57940a3720bf5fc3",
    "validate negative_weight.json": "9a654c3950c8e2e2e46c532e7a003d72b3ddffa1a908c6181a46db97286f0171",
    "coincide negative_weight.json": "3c2f477fb6127fe6c776da1ada7ce5e878d83c1bde305ec516b6312400a5192c",
    "validate nonadditive.json": "56072e7dcd5f6071112dde69abfd1567a935bd738f7435ac884d929fcd5a4418",
    "coincide nonadditive.json": "030cd7e067f7016d39b5f69b95ce605a1c5354251df23f8d9c34988a91490a4f",
    "validate simplex.json": "e88a18f7375c31f7704f3d4aae5178dc3891037c72bd3289db81c5596bce4b89",
    "coincide simplex.json": "8eb57f6cec0822d9d9bd6e87563fa73e2b83dde24765a6ead6ac2ad039dae3b4",
    "validate sqrt_k10.json": "d983ceb131b33a7d9800ad185b0eef531258f25aaa2b800caaf49f69c221e27c",
    "coincide sqrt_k10.json": "c59e1f60c5edca2451d5cab565b4cb767618bb6e51a1f9eccd50925c73a8bca7",
    "validate reversed_ethical.json": "7b8a5ed562ec3bb44e2440bad0453bb6fcb77e9ff2803241584b74676264ccde",
    "coincide reversed_ethical.json": "ee2453d93968fa0a481a3db69ceac332c3030a148bcfdc0136fc94e32577f502",
}


def test_pipeline_decides_matching_without_an_intensity_system(tmp_path, monkeypatch):
    def refuse(cls, table):
        raise RuntimeError("the pipeline built an intensity system")

    monkeypatch.setattr(alt.AltSystem, "from_utility", classmethod(refuse))
    planted = tmp_path / "reversed_ethical.json"
    planted.write_text(emit_society(_rescaled_society_with_a_reversed_ethical_side()), "utf-8")
    digests = {}
    for path in [*sorted(FIXTURES.glob("*.json")), planted]:
        for command in ("validate", "coincide"):
            runs = []
            for extra in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([command, str(path), "--max-states", "4096", *extra])
                runs.append((code, out.getvalue(), err.getvalue()))
            digests[f"{command} {path.name}"] = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digests == MATCHING_DETOUR_DIGESTS


def test_sqrt_fixture_matches_each_agent_but_not_the_ethical_orders():
    # Each agent's lottery-side table is an increasing image of its base
    # table, yet the base and lottery-side ethical tables rank the states
    # differently; the matching record never compares those two.
    soc = sqrt_fixture(10, F(1, 2)).society
    states = soc.space.states
    for a in soc.agents:
        assert coincidence.matches(soc.base.tables[a], soc.nm.tables[a], states)
    assert not coincidence.matches(soc.base.ethical, soc.nm.ethical, states)
    assert coincidence.order_disagreement(soc.base.ethical, soc.nm.ethical, states) is not None
    records = {r.name: r.passed for r in theorem3_pipeline(soc).hypotheses}
    assert records["matching"]


# ---------------------------------------------------------------------------
# The Pareto record: certified by the intensity-side recovery, else the loop


def _count_pareto_loops(monkeypatch) -> list:
    calls = []
    real = coincidence.check_pareto_criterion
    monkeypatch.setattr(
        coincidence, "check_pareto_criterion", lambda soc: calls.append(soc) or real(soc)
    )
    return calls


def cli_report(soc, command: str = "coincide") -> dict:
    """The command's JSON report on ``soc``, run in-process from a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "society.json"
        path.write_text(emit_society(soc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main([command, str(path), "--json"])
    return json.loads(out.getvalue())


def test_passing_coincide_runs_no_dominance_loop(monkeypatch):
    calls = _count_pareto_loops(monkeypatch)
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    payload = cli_report(soc)
    assert payload["status"] == "coincide"
    assert {h["name"]: h["verdict"] for h in payload["hypotheses"]}["pareto"] == "PASS"
    assert calls == []


def test_failed_intensity_recovery_runs_the_loop_once(monkeypatch):
    # The other five hypotheses pass, but a negative weight fails the
    # recovery's slopes, so the loop decides and names the pair.
    calls = _count_pareto_loops(monkeypatch)
    soc = negative_weight_society()
    assert not harvey.harvey_recover(soc).success
    payload = cli_report(soc)
    assert payload["failed_hypothesis"] == "pareto"
    assert len(calls) == 1


def test_an_alt_profile_runs_no_dominance_loop(monkeypatch):
    # The recovery then reads the intensity-side tables, which prove
    # nothing about the base ones; a cubed base ethical table orders states
    # as the planted sum does but has no linear certificate of its own.
    # So the bitset pass decides, once.
    calls = _count_pareto_loops(monkeypatch)
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    soc = core.replace(
        soc,
        base=Profile(soc.base.tables, cubed(soc.base.ethical)),
        alt=Profile(soc.base.tables, soc.base.ethical),
    )
    payload = cli_report(soc)
    assert {h["name"]: h["verdict"] for h in payload["hypotheses"]}["pareto"] == "PASS"
    assert len(calls) == 1


def test_validate_runs_the_loop_once(monkeypatch):
    # At most once: the base tables' linear certificate proves a passing
    # file, with or without a separate alt_profile, so the loop runs 0
    # times; a negative slope leaves it to decide.
    calls = _count_pareto_loops(monkeypatch)
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    base_only = Society.from_tables(soc.space, soc.base.tables, soc.base.ethical)
    assert cli_report(base_only, "validate")["all_passed"] is True
    assert calls == []
    checks = cli_report(negative_weight_society(), "validate")["checks"]
    assert [c["name"] for c in checks if c["verdict"] == "FAIL"] == ["pareto"]
    assert len(calls) == 1
    calls.clear()
    alt_tables = {a: t.affine(F(2), F(-1)) for a, t in soc.base.tables.items()}
    alt = Profile(alt_tables, soc.base.ethical.affine(F(3), F(1)))
    with_alt = core.replace(base_only, alt=alt)
    assert cli_report(with_alt, "validate")["all_passed"] is True
    assert calls == []


@st.composite
def pareto_societies(draw):
    """Separable grids with weights of every sign, constant and bent agents, and alt profiles."""
    n = draw(st.integers(2, 3))
    dims = [GridDim(f"x{i}", F(0), F(1), F(1, 2 ** draw(st.integers(0, 1)))) for i in range(n)]
    space = StateSpace.product_grid(dims)
    tables = {}
    for i, dim in enumerate(dims):
        points = dim.points()
        if draw(st.integers(0, 3)) == 0:
            levels = [F(draw(st.integers(-2, 2)))] * len(points)
        else:
            size = len(points)
            ints = st.lists(st.integers(-6, 6), min_size=size, max_size=size, unique=True)
            levels = [F(k, 2) for k in draw(ints)]
        by_point = dict(zip(points, levels))
        tables[f"a{i}"] = UtilityTable({s: by_point[space.coords(s)[i]] for s in space.states})
    weight = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(1), F(3), F(3)])
    weights = [draw(weight) for _ in range(n)]
    terms = list(tables.values())
    if draw(st.integers(0, 3)) == 0:  # bend a0's component
        terms[0] = UtilityTable({s: v**3 for s, v in terms[0].values.items()})
    ethical = linear_combination(terms, weights, F(draw(st.integers(-2, 2))))
    alt = None
    if draw(st.integers(0, 3)) == 0:
        plain = linear_combination(list(tables.values()), [F(1)] * n)
        alt = Profile(tables, draw(st.sampled_from([ethical, plain])))
    return Society(space, tuple(tables), Profile(tables, ethical), alt=alt)


@settings(max_examples=150, deadline=None)
@given(pareto_societies())
def test_pareto_record_matches_the_loop(soc):
    expected = pareto_loop(soc)
    report = theorem3_pipeline(soc)
    record = report.hypothesis("pareto")
    assert record.passed == expected.passed
    assert record.detail == ("" if expected else f"witness pair {expected.witness}")
    validate_checks = cli_report(soc, "validate")["checks"]
    assert validate_checks[0] == {
        "name": "pareto", "verdict": "PASS" if expected else "FAIL", "detail": record.detail
    }
    with mock.patch.object(coincidence, "_pareto_certified", lambda soc, analysis: False):
        assert theorem3_pipeline(soc) == report
        assert cli_report(soc, "validate")["checks"] == validate_checks
