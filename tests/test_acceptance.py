"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Every assertion is exact (Fraction equality); the only numeric bounds are
wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see one summary line per criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import sympy

from conftest import (
    express_in_span,
    planted_coincidence_society,
    planted_society,
    product_grid_society,
    rand_fraction,
)
from gauss_jordan import rank
from utilcheck import (
    AltSystem,
    UtilityTable,
    affine_relation,
    check_pareto_criterion,
    check_semi_separable,
    expectation,
    harvey_recover,
    proposition1_check,
    recover_weights,
    reconstruct_alt_utility,
    simplex_counterexample,
    sqrt_fixture,
    theorem3_pipeline,
    witness_lotteries_for_sign,
)

F = Fraction


def report(criterion: int, message: str, elapsed: float | None = None) -> None:
    suffix = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {criterion} PASS: {message}{suffix}")


def test_criterion_1_simplex_counterexample():
    start = time.monotonic()
    fixture = simplex_counterexample(F(1, 4))
    soc = fixture.society

    assert fixture.x1_values == (F(0), F(1, 16), F(1, 4), F(9, 16), F(1))
    for s, x1 in zip(soc.space.states, fixture.x1_values):
        assert soc.nm.ethical[s] == 2 * x1

    for profile in (soc.base, soc.nm):
        rows = [[profile.tables[a][s] for s in soc.space.states] for a in soc.agents]
        assert rank(rows) == 2

    assert affine_relation(soc.base.tables["agent1"], soc.nm.tables["agent1"]) is None
    assert not check_semi_separable(soc).passed

    pipeline = theorem3_pipeline(soc)
    assert pipeline.status == "hypothesis-failure"
    assert pipeline.failed_hypothesis == "semi-separability"
    for record in pipeline.hypotheses:
        assert record.passed == (record.name != "semi-separability")

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "simplex counterexample certified, only semi-separability fails", elapsed)


def test_criterion_2_sqrt_fixture():
    start = time.monotonic()
    fixture = sqrt_fixture(10, F(1, 2))
    soc = fixture.society

    for k in range(1, 10):
        assert fixture.increments[k] == F(2 * k + 1, 4)
    v_star = soc.nm.ethical
    for a, b in fixture.chain:
        assert v_star[a] == v_star[b]

    verdict = proposition1_check(soc.space, dict(soc.base.tables), dict(soc.nm.tables))
    assert verdict.status == "violation"

    degenerate = sqrt_fixture(10, F(1, 2), degenerate_second_agent=True)
    dsoc = degenerate.society
    dverdict = proposition1_check(dsoc.space, dict(dsoc.base.tables), dict(dsoc.nm.tables))
    assert dverdict.status == "hypothesis-failure"
    assert dverdict.failed_hypothesis == "two-nonconstant-agents"

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, "square-root fixture: (2k+1)/4 increments, exact chain, violation", elapsed)


def test_criterion_3_harsanyi_plant_and_recover():
    rng = random.Random(20260809)
    start = time.monotonic()
    for case in range(200):
        n = rng.choice([2, 3, 4])
        n_states = rng.randint(n + 2, 64)
        soc, weights, constant = planted_society(rng, n, n_states)
        recovered = recover_weights(soc)
        assert recovered.success and recovered.unique
        assert recovered.weights == weights
        assert recovered.constant == constant
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, "200 planted weight recoveries exact and unique", elapsed)


def test_criterion_4_harvey_plant_and_recover():
    rng = random.Random(40404)
    start = time.monotonic()
    for case in range(100):
        n = rng.choice([2, 2, 3])
        sizes = [rng.choice([1, 2]) for _ in range(n)] if n == 2 else [1, 1, 1]
        soc, weights, constant = product_grid_society(rng, n, sizes=sizes)
        recovered = harvey_recover(soc)
        assert recovered.success
        assert recovered.weights == weights
        assert recovered.constant == constant
        assert recovered.constant_agents == ()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(4, "100 planted intensity recoveries exact through the full pipeline", elapsed)


def test_criterion_5_span_membership_double_oracle():
    rng = random.Random(50505)
    start = time.monotonic()
    agreements = 0
    for case in range(500):
        dim = rng.randint(1, 6)
        count = rng.randint(1, 4)
        fs = [[rand_fraction(rng, 9, 7) for _ in range(dim)] for _ in range(count)]
        if rng.random() < 0.5:
            f0 = [
                sum((rand_fraction(rng, 4, 3) * f[j] for f in fs), F(0))
                for j in range(dim)
            ]
        else:
            f0 = [rand_fraction(rng, 9, 7) for _ in range(dim)]
        verdict = express_in_span(f0, fs) is not None
        # Independent oracle: a foreign exact implementation computes the
        # null space of the spanning vectors; membership holds iff every
        # basis vector annihilates the target.
        matrix = sympy.Matrix([[sympy.Rational(x) for x in f] for f in fs])
        null = matrix.nullspace()
        oracle = all(
            sum(sympy.Rational(a) * b for a, b in zip(f0, vec)) == 0 for vec in null
        )
        assert verdict == oracle
        agreements += 1
    elapsed = time.monotonic() - start
    report(5, f"{agreements}/500 span verdicts agree with the foreign null-space oracle", elapsed)


def test_criterion_6_standard_sequence_reconstruction():
    rng = random.Random(60606)
    start = time.monotonic()
    for case in range(50):
        depth = rng.randint(1, 8)
        size = 2**depth + 1
        states = [f"g{i:03d}" for i in range(size)]
        normalized = case % 2 == 0
        if normalized:
            lo, step = F(0), F(1, 2**depth)
        else:
            lo = F(rng.randint(-64, 64), 2 ** rng.randint(0, 4))
            step = F(rng.randint(1, 9), 2 ** rng.randint(0, 5))
        generator = UtilityTable({s: lo + k * step for k, s in enumerate(states)})
        system = AltSystem.from_utility(generator)
        rebuilt = reconstruct_alt_utility(system, states[0], states[-1], depth)
        relation = affine_relation(rebuilt, generator)
        assert relation is not None and relation[0] > 0
        assert relation == (step * 2**depth, lo)
        if normalized:
            assert rebuilt == generator
    elapsed = time.monotonic() - start
    report(6, "50 dyadic standard-sequence reconstructions affine-exact", elapsed)


def test_criterion_7_pareto_clause_iff_positive_weights():
    rng = random.Random(70707)
    start = time.monotonic()
    negative_cases = 0
    for case in range(100):
        n = rng.choice([2, 3])
        plant_negative = case % 2 == 1
        weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        if plant_negative:
            flip = rng.randrange(n)
            weights[flip] = -weights[flip]
        soc, planted, _ = planted_society(
            rng,
            n,
            rng.randint(2 * n, 12),
            weights=tuple(weights),
            ensure_single_agent_pairs=True,
        )
        recovered = recover_weights(soc)
        assert recovered.success and recovered.weights == planted
        pareto = check_pareto_criterion(soc)
        assert pareto.passed == all(w > 0 for w in recovered.weights)
        if plant_negative:
            negative_cases += 1
            idx = next(i for i, w in enumerate(planted) if w < 0)
            agent = soc.agents[idx]
            pair = witness_lotteries_for_sign(soc, agent)
            table = soc.base.tables[agent]
            gain = expectation(pair.p, table) - expectation(pair.q, table)
            assert gain > 0
            for other in soc.agents:
                if other != agent:
                    tbl = soc.base.tables[other]
                    assert expectation(pair.p, tbl) == expectation(pair.q, tbl)
            v = soc.base.ethical
            assert expectation(pair.p, v) < expectation(pair.q, v)
    elapsed = time.monotonic() - start
    report(
        7,
        f"dominance criterion iff positive weights on 100 cases "
        f"({negative_cases} certified failures)",
        elapsed,
    )


def test_criterion_8_theorem3_end_to_end():
    rng = random.Random(80808)
    start = time.monotonic()
    for case in range(50):
        n = rng.choice([2, 2, 3])
        sizes = [rng.choice([1, 2]) for _ in range(n)] if n == 2 else [1, 1, 1]
        soc, alphas, betas = planted_coincidence_society(rng, n, sizes=sizes)
        pipeline = theorem3_pipeline(soc)
        assert pipeline.status == "coincide"
        for verdict, alpha, beta in zip(pipeline.agents, alphas, betas):
            assert verdict.kind == "coincide"
            assert (verdict.alpha, verdict.beta) == (alpha, beta)
            base = soc.alt_side().tables[verdict.agent]
            starred = soc.nm_side().tables[verdict.agent]
            for s in soc.space.states:
                assert starred[s] == alpha * base[s] + beta
    for case in range(50):
        n = rng.choice([2, 2, 3])
        sizes = [rng.choice([1, 2]) for _ in range(n)] if n == 2 else [1, 1, 1]
        idx = rng.randrange(n)
        soc, _, _ = planted_coincidence_society(rng, n, distort_agent=idx, sizes=sizes)
        pipeline = theorem3_pipeline(soc)
        assert pipeline.status == "violation"
        verdict = pipeline.agents[idx]
        assert verdict.kind == "violation"
        witness = verdict.witness
        base = soc.alt_side().tables[verdict.agent]
        starred = soc.nm_side().tables[verdict.agent]
        for step in (witness.first, witness.second):
            assert base[step.hi_state] - base[step.lo_state] == step.base_increment
            assert starred[step.hi_state] - starred[step.lo_state] == step.starred_increment
        assert (
            witness.first.starred_increment * witness.second.base_increment
            != witness.second.starred_increment * witness.first.base_increment
        )
    elapsed = time.monotonic() - start
    report(8, "50 planted coincidences exact, 50 distortions caught with witnesses", elapsed)
