"""Weight recovery, span tests, and witness lotteries."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import express_in_span, letters_space, planted_society, primes, rand_fraction
from gauss_jordan import (
    dot,
    greedy_pivots,
    mat_vec,
    null_space,
    profile_rows,
    profile_target,
    rank,
    rref,
    solve,
)
from utilcheck import (
    Analysis,
    CheckResult,
    GridDim,
    LotteryWitnessPair,
    Profile,
    SimpleLottery,
    Society,
    SpanProblem,
    StateSpace,
    UtilityTable,
    WeightReport,
    check_axiom_i,
    check_pareto_criterion,
    expectation,
    linear_combination,
    positive_reweighting,
    recover_weights,
    witness_lotteries_for_sign,
)
from utilcheck import core, harsanyi, linalg
from utilcheck.harsanyi import _expectation_gaps, _perturbed_pair, _verify_witness
from utilcheck.societyfile import payload_to_society, society_to_payload

F = Fraction
PRIMES = primes(64)


# ---------------------------------------------------------------------------
# Exact elimination primitives


def test_rref_pivots():
    m = [[F(2), F(4)], [F(1), F(2)], [F(0), F(1)]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red[0] == [F(1), F(0)] and red[1] == [F(0), F(1)]


def test_solve_unique_and_inconsistent():
    a = [[F(1), F(1)], [F(1), F(-1)]]
    assert solve(a, [F(3), F(1)]) == [F(2), F(1)]
    b = [[F(1), F(1)], [F(2), F(2)]]
    assert solve(b, [F(1), F(3)]) is None


def test_solve_underdetermined_sets_free_to_zero():
    a = [[F(1), F(1), F(1)]]
    assert solve(a, [F(5)]) == [F(5), F(0), F(0)]


def test_null_space_annihilates():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[rand_fraction(rng, 5, 5) for _ in range(4)] for _ in range(2)]
        basis = null_space(rows)
        assert len(basis) == 4 - rank(rows)
        for vec in basis:
            assert mat_vec(rows, vec) == [F(0)] * 2


# ---------------------------------------------------------------------------
# Span membership


def test_express_in_span_first_vector():
    f1 = [F(1), F(2), F(3)]
    f2 = [F(0), F(1), F(0)]
    assert express_in_span(f1, [f1, f2]) == (F(1), F(0))


def test_express_in_span_zero_vector():
    f1 = [F(1), F(2)]
    f2 = [F(4), F(1)]
    assert express_in_span([F(0), F(0)], [f1, f2]) == (F(0), F(0))


def test_express_in_span_random_combination():
    rng = random.Random(19)
    for _ in range(20):
        f1 = [rand_fraction(rng) for _ in range(5)]
        f2 = [rand_fraction(rng) for _ in range(5)]
        f0 = [2 * a - 3 * b for a, b in zip(f1, f2)]
        coeffs = express_in_span(f0, [f1, f2])
        assert coeffs is not None
        # Substitute back and compare coordinate by coordinate.
        rebuilt = [coeffs[0] * a + coeffs[1] * b for a, b in zip(f1, f2)]
        assert rebuilt == f0


def test_express_in_span_outside():
    assert express_in_span([F(0), F(1)], [[F(1), F(0)]]) is None


def test_express_in_span_empty():
    with pytest.raises(ValueError):
        express_in_span([F(1)], [])


def test_lemma4_agreement_with_null_annihilation():
    # Membership in the span must agree with "every null vector of the
    # spanning set annihilates the target", case by case.
    rng = random.Random(29)
    for _ in range(100):
        dim = rng.randint(1, 6)
        count = rng.randint(1, 4)
        fs = [[rand_fraction(rng, 6, 4) for _ in range(dim)] for _ in range(count)]
        if rng.random() < 0.5:
            f0 = [
                sum((rand_fraction(rng, 3, 3) * f[j] for f in fs), F(0))
                for j in range(dim)
            ]
        else:
            f0 = [rand_fraction(rng, 6, 4) for _ in range(dim)]
        verdict = express_in_span(f0, fs) is not None
        basis = null_space(fs)  # vectors eta with sum_j eta_j f_i[j] = 0
        oracle = all(dot(f0, eta) == 0 for eta in basis)
        assert verdict == oracle


# ---------------------------------------------------------------------------
# Axiom (i)


def _grid_2x2_society(v_fn):
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1)), GridDim("y", F(0), F(1), F(1))]
    )
    u1 = UtilityTable.on_coords(space, lambda x, y: x)
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    v = UtilityTable.on_coords(space, v_fn)
    return Society.from_tables(space, {"a1": u1, "a2": u2}, v)


def test_axiom_i_sum_passes():
    soc = _grid_2x2_society(lambda x, y: x + y)
    assert check_axiom_i(soc).passed


def test_axiom_i_difference_passes_but_pareto_fails():
    soc = _grid_2x2_society(lambda x, y: x - y)
    assert check_axiom_i(soc).passed
    assert not check_pareto_criterion(soc).passed


def test_axiom_i_product_witness():
    soc = _grid_2x2_society(lambda x, y: x * y)
    result = check_axiom_i(soc)
    assert not result.passed
    pair = result.witness
    profile = soc.nm_side()
    for name in soc.agents:
        table = profile.tables[name]
        assert expectation(pair.p, table) == expectation(pair.q, table)
    assert expectation(pair.p, profile.ethical) != expectation(pair.q, profile.ethical)
    # Null-space oracle: the product profile spans only 3 of the 4 directions,
    # so exactly one perturbation direction remains and the ethical table must
    # load on it.
    problem = SpanProblem.from_profile(profile, soc.agents, soc.space.states)
    null_basis = null_space(profile_rows(problem))
    assert len(null_basis) == 1
    assert dot(profile_target(problem), null_basis[0]) != 0
    assert list(pair.eta) == null_basis[0]


def test_axiom_i_invariant_under_affine_rescaling():
    rng = random.Random(37)
    for _ in range(10):
        soc, _, _ = planted_society(rng, 2, 5)
        assert check_axiom_i(soc).passed
        tables = {
            name: soc.base.tables[name].affine(
                F(rng.choice([-3, -1, 2, 5])), rand_fraction(rng)
            )
            for name in soc.agents
        }
        ethical = soc.base.ethical.affine(F(rng.randint(1, 7)), rand_fraction(rng))
        rescaled = Society.from_tables(soc.space, tables, ethical)
        assert check_axiom_i(rescaled).passed


# ---------------------------------------------------------------------------
# Weight recovery


def test_recover_sum_weights():
    soc = _grid_2x2_society(lambda x, y: x + y)
    report = recover_weights(soc)
    assert report.success and report.unique
    assert report.weights == (F(1), F(1))
    assert report.constant == F(0)


def test_recover_failure_reports_residual_state():
    # The witness is the first state where the ethical table is nonzero.
    soc = _grid_2x2_society(lambda x, y: x * y)
    report = recover_weights(soc)
    assert not report.success
    assert report.residual_witness == "1,1"
    # v(s0) != 0 and the off-span bump sits at s3: the witness is still s0.
    space = letters_space(4)
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2), "s3": F(3)})
    u2 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(0), "s3": F(1)})
    v = UtilityTable({"s0": F(5), "s1": F(6), "s2": F(7), "s3": F(9)})  # u1 + 5, s3 bumped
    report = recover_weights(Society.from_tables(space, {"a1": u1, "a2": u2}, v))
    assert not report.success
    assert report.residual_witness == "s0"


def test_plant_and_recover_random():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        soc, weights, constant = planted_society(rng, n, rng.randint(n + 2, 8))
        report = recover_weights(soc)
        assert report.success and report.unique
        assert report.weights == weights
        assert report.constant == constant


def test_recover_weights_canonical_on_dependent_profile():
    # Duplicate agent: canonical solution pins the non-basis copy to zero.
    space = letters_space(3)
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2)})
    soc = Society.from_tables(
        space, {"a1": u1, "a2": u1}, linear_combination([u1], [F(2)])
    )
    report = recover_weights(soc)
    assert report.success and not report.unique
    assert report.weights == (F(2), F(0))
    assert report.constant == F(0)


# ---------------------------------------------------------------------------
# Witness lotteries


def test_witness_lotteries_verified_by_expectation():
    rng = random.Random(43)
    soc, _, _ = planted_society(rng, 2, 5)
    profile = soc.nm_side()
    pair = witness_lotteries_for_sign(soc, "a0")
    u0, u1 = profile.tables["a0"], profile.tables["a1"]
    assert expectation(pair.p, u0) > expectation(pair.q, u0)
    assert expectation(pair.p, u1) == expectation(pair.q, u1)


def test_witness_lotteries_certify_negative_weight():
    rng = random.Random(47)
    for _ in range(5):
        soc, weights, _ = planted_society(
            rng, 3, 6, weights=(F(2), F(-1), F(3)), ensure_single_agent_pairs=True
        )
        pair = witness_lotteries_for_sign(soc, "a1")
        v = soc.base.ethical
        diff_u = expectation(pair.p, soc.base.tables["a1"]) - expectation(
            pair.q, soc.base.tables["a1"]
        )
        diff_v = expectation(pair.p, v) - expectation(pair.q, v)
        assert diff_u > 0
        assert diff_v == weights[1] * diff_u  # other agents cancel exactly
        assert diff_v < 0


def test_witness_lotteries_dependent_profile_errors():
    space = letters_space(3)
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2)})
    soc = Society.from_tables(space, {"a1": u1, "a2": u1}, u1)
    with pytest.raises(ValueError, match="dependent"):
        witness_lotteries_for_sign(soc, "a1")


# ---------------------------------------------------------------------------
# Positive reweighting


def test_positive_reweighting_already_positive():
    rng = random.Random(59)
    soc, weights, constant = planted_society(rng, 2, 5)
    report = recover_weights(soc)
    out = positive_reweighting(soc, report)
    assert out is not None
    assert out == (weights, constant)


def test_positive_reweighting_duplicate_agent():
    space = letters_space(3)
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2)})
    soc = Society.from_tables(
        space, {"a1": u1, "a2": u1}, linear_combination([u1], [F(2)])
    )
    report = recover_weights(soc)
    assert report.weights == (F(2), F(0))
    out = positive_reweighting(soc, report)
    assert out is not None
    new_weights, new_b = out
    assert all(w > 0 for w in new_weights)
    assert (
        linear_combination([u1, u1], new_weights, new_b) == soc.base.ethical
    )
    # The transfer shape: basis keeps 2 - eps, the copy gets eps.
    assert new_weights[0] + new_weights[1] == F(2)


def test_positive_reweighting_unique_zero_weight_is_none():
    space = letters_space(4)
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2), "s3": F(5)})
    u2 = UtilityTable({"s0": F(1), "s1": F(0), "s2": F(2), "s3": F(3)})
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, u1)  # v = u1 exactly
    report = recover_weights(soc)
    assert report.unique and report.weights == (F(1), F(0))
    assert positive_reweighting(soc, report) is None


def test_positive_reweighting_misses_a_positive_solution_of_a_dependent_profile():
    # u3 = u1 - u2 and v = 3 u1 - u2: the canonical solution (3, -1, 0) puts
    # a negative weight on the basis, so the construction gives up, although
    # v = u1 + u2 + 2 u3 is an all-positive solution.
    space = letters_space(4)
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(0), "s3": F(2)})
    u2 = UtilityTable({"s0": F(0), "s1": F(0), "s2": F(1), "s3": F(1)})
    u3 = linear_combination([u1, u2], [F(1), F(-1)])
    v = linear_combination([u1, u2], [F(3), F(-1)])
    soc = Society.from_tables(space, {"a1": u1, "a2": u2, "a3": u3}, v)
    report = recover_weights(soc)
    assert not report.unique and report.weights == (F(3), F(-1), F(0))
    assert SpanProblem.of(soc).spanning_pivots == [0, 1, 2]  # 1, a1, a2
    assert positive_reweighting(soc, report) is None
    assert linear_combination([u1, u2, u3], [F(1), F(1), F(2)]) == v


def test_positive_reweighting_empty_basis():
    # Every agent constant: no basis weight to protect, so the transfer is 1.
    space = letters_space(3)
    a = UtilityTable({s: F(1) for s in space.states})
    b = UtilityTable({s: F(2) for s in space.states})
    v = UtilityTable({s: F(5) for s in space.states})
    soc = Society.from_tables(space, {"a": a, "b": b}, v)
    report = recover_weights(soc)
    assert report.weights == (F(0), F(0)) and report.constant == F(5)
    assert SpanProblem.of(soc).spanning_pivots == [0]  # no pivot agent
    assert positive_reweighting(soc, report) == ((1, 1), 2)


# ---------------------------------------------------------------------------
# Oracles: one elimination per question, as before the shared reduction


def rank_loop_dependency_basis(profile, agents, states):
    """Greedy basis by one rank per agent, expansions by one solve each.

    Returns (basis, coefficients): the agents independent together with 1,
    greedy by index, and for each other agent j its expansion
    (c0, then one coefficient per basis agent) over 1 and the basis.
    """
    states = tuple(states)
    chosen_rows = [[F(1)] * len(states)]
    basis: list[int] = []
    for i, name in enumerate(agents):
        row = [profile.tables[name][s] for s in states]
        if rank(chosen_rows + [row]) == len(chosen_rows) + 1:
            chosen_rows.append(row)
            basis.append(i)
    coefficients = {}
    for j, name in enumerate(agents):
        if j not in basis:
            row = [profile.tables[name][s] for s in states]
            coefficients[j] = tuple(solve([list(c) for c in zip(*chosen_rows)], row))
    return tuple(basis), coefficients


def basis_trade(soc, report, basis, coefficients):
    """Oracle for ``positive_reweighting``: the trade run on an explicit (basis, coefficients)."""
    weights = list(report.weights)
    if all(w > 0 for w in weights):
        return report.weights, report.constant
    if report.unique or any(weights[i] <= 0 for i in basis):
        return None
    non_basis = [j for j in range(len(weights)) if j not in basis]
    spread = max(
        (sum(abs(coefficients[j][slot + 1]) for j in non_basis) for slot in range(len(basis))),
        default=F(0),
    )
    eps = min(weights[i] for i in basis) / (2 * (1 + spread)) if basis else F(1)
    new, new_b = list(weights), report.constant
    for j in non_basis:
        new[j] = eps
        new_b -= eps * coefficients[j][0]
        for slot, i in enumerate(basis):
            new[i] -= eps * coefficients[j][slot + 1]
    return tuple(new), new_b


def solve_and_fit_recover_weights(soc) -> WeightReport:
    """Solve on the basis rows; on failure fit the consistent part and report its first miss."""
    profile = soc.nm_side()
    problem = SpanProblem.from_profile(profile, soc.agents, soc.space.states)
    basis, _ = rank_loop_dependency_basis(profile, soc.agents, soc.space.states)
    matrix, target = profile_rows(problem), profile_target(problem)
    rows = [matrix[i] for i in [0] + [i + 1 for i in basis]]
    columns = [[row[j] for row in rows] for j in range(len(problem.states))]
    sol = solve(columns, target)
    if sol is None:
        n_unknown = len(rows)
        red, pivots = rref([col + [t] for col, t in zip(columns, target)])
        fit = [F(0)] * n_unknown
        for r, c in enumerate(pivots):
            if c < n_unknown:
                fit[c] = red[r][n_unknown]
        bad = next(
            s
            for s, col, want in zip(problem.states, columns, target)
            if dot(col, fit) != want
        )
        return WeightReport(success=False, agents=soc.agents, residual_witness=bad)
    weights = [F(0)] * len(soc.agents)
    for slot, agent_index in enumerate(basis):
        weights[agent_index] = sol[slot + 1]
    unique = rank(matrix) == len(matrix)
    return WeightReport(
        success=True, agents=soc.agents, weights=tuple(weights), constant=sol[0], unique=unique
    )


def rank_loop_independent_columns(matrix, k: int) -> list[int]:
    """First k columns (in state order) that make the rows regular."""
    cols: list[int] = []
    for c in range(len(matrix[0])):
        trial = cols + [c]
        if rank([[row[j] for j in trial] for row in matrix]) == len(trial):
            cols.append(c)
            if len(cols) == k:
                return cols
    raise ValueError("matrix rows are dependent; no regular submatrix")


def solve_axiom_i(soc) -> CheckResult:
    """Membership by its own solve; the witness from the first violating null vector."""
    problem = SpanProblem.from_profile(soc.nm_side(), soc.agents, soc.space.states)
    rows, target = profile_rows(problem), profile_target(problem)
    if solve([list(c) for c in zip(*rows)], target) is not None:
        return CheckResult(True)
    eta = next(eta for eta in null_space(rows) if dot(target, eta) != 0)
    return CheckResult(False, witness=_perturbed_pair(eta, problem.states))


def regular_columns_witness(soc, agent):
    """Sign-certifying pair from the rank-loop regular submatrix."""
    problem = SpanProblem.from_profile(soc.nm_side(), soc.agents, soc.space.states)
    matrix = profile_rows(problem)
    k = len(matrix)
    cols = rank_loop_independent_columns(matrix, k)
    target = [F(0)] * k
    target[soc.agents.index(agent) + 1] = F(1)
    eta_small = solve([[matrix[r][c] for c in cols] for r in range(k)], target)
    eta = [F(0)] * len(problem.states)
    for c, val in zip(cols, eta_small):
        eta[c] = val
    return _perturbed_pair(eta, problem.states)


@st.composite
def span_societies(draw):
    """2-4 agents on 1-8 states: fresh, constant, duplicate or affinely dependent
    agents; a zero or in-span ethical table, either one bumped at one state,
    or a fresh one.  Fresh tables take denominators 1, 2, 3, 5 and 7, or a
    distinct prime under every value."""
    m = draw(st.integers(1, 8))
    value = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7]))
    per_value = iter(PRIMES[4:]) if draw(st.booleans()) else None  # primes above 9

    def fresh():
        if per_value is None:
            return draw(st.lists(value, min_size=m, max_size=m, unique=True))
        numerators = st.integers(-9, 9).filter(bool)
        return [F(draw(numerators), next(per_value)) for _ in range(m)]

    def combination(rows):
        coeffs = [draw(value) for _ in rows]
        c0 = draw(value)
        return [c0 + sum((c * r[s] for c, r in zip(coeffs, rows)), F(0)) for s in range(m)]

    rows = []
    kinds = ["fresh"] if draw(st.booleans()) else ["fresh", "constant", "duplicate", "affine"]
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(kinds if rows else kinds[:2]))
        if kind == "fresh":
            rows.append(fresh())
        elif kind == "constant":
            rows.append([draw(value)] * m)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(combination(rows))
    target = draw(st.sampled_from(["zero", "bumped zero", "span", "bumped span", "fresh"]))
    if target == "fresh":
        ethical = fresh()
    else:
        ethical = [F(0)] * m if "zero" in target else combination(rows)
        if "bumped" in target:
            ethical[draw(st.integers(0, m - 1))] += draw(st.integers(1, 3))
    space = letters_space(m)
    tables = {f"a{i}": UtilityTable(dict(zip(space.states, row))) for i, row in enumerate(rows)}
    return Society.from_tables(space, tables, UtilityTable(dict(zip(space.states, ethical))))


@settings(max_examples=400, deadline=None)
@given(span_societies())
def test_one_reduction_equals_separate_eliminations(soc):
    report = recover_weights(soc)
    assert report == solve_and_fit_recover_weights(soc)
    if report.success:
        basis = rank_loop_dependency_basis(soc.nm_side(), soc.agents, soc.space.states)
        assert positive_reweighting(soc, report) == basis_trade(soc, report, *basis)
    assert recover_weights(soc, Analysis(soc)) == report
    axiom = check_axiom_i(soc)
    assert axiom == solve_axiom_i(soc) == check_axiom_i(soc, Analysis(soc))
    assert axiom.passed == report.success
    if SpanProblem.of(soc).rows_independent():
        analysis = Analysis(soc)
        for agent in soc.agents:
            pair = regular_columns_witness(soc, agent)
            assert witness_lotteries_for_sign(soc, agent) == pair
            assert witness_lotteries_for_sign(soc, agent, analysis) == pair


@st.composite
def wide_scale_societies(draw):
    """2-4 agents on 1-40 states with denominators up to 100, so one table's
    scale can reach lcm(1..100), about 2**136: fresh, constant, and affine
    agents, and an ethical table in the span, bumped off it at one state,
    or fresh.  Half the draws go through the file format, so their tables
    arrive from the parser as ratios."""
    m = draw(st.integers(1, 40))
    value = st.builds(F, st.integers(-100, 100), st.integers(1, 100))

    def fresh():
        return draw(st.lists(value, min_size=m, max_size=m))

    def combination(rows):
        c0, *coeffs = (draw(value) for _ in range(len(rows) + 1))
        return [c0 + sum((c * r[s] for c, r in zip(coeffs, rows)), F(0)) for s in range(m)]

    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["fresh", "constant", "affine"] if rows else ["fresh"]))
        if kind == "fresh":
            rows.append(fresh())
        elif kind == "constant":
            rows.append([draw(value)] * m)
        else:
            rows.append(combination(rows))
    target = draw(st.sampled_from(["span", "bumped", "fresh"]))
    ethical = fresh() if target == "fresh" else combination(rows)
    if target == "bumped":
        ethical[draw(st.integers(0, m - 1))] += draw(value.filter(bool))
    space = letters_space(m)
    tables = {f"a{i}": UtilityTable(dict(zip(space.states, row))) for i, row in enumerate(rows)}
    soc = Society.from_tables(space, tables, UtilityTable(dict(zip(space.states, ethical))))
    return soc, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(wide_scale_societies())
def test_ratio_rows_equal_the_fraction_oracle(drawn):
    # The oracle reads the Fraction tables of the drawn society; the
    # package reduces int rows built from the tables' ratios, of the same
    # society or of its parsed copy.
    soc, parsed = drawn
    states, profile = soc.space.states, soc.nm_side()
    a_rows = [[F(1)] * len(states)] + [[profile.tables[a][s] for s in states] for a in soc.agents]
    v = [profile.ethical[s] for s in states]
    k = len(a_rows)
    if parsed:
        soc = payload_to_society(society_to_payload(soc))
    problem = SpanProblem.of(soc)

    matrix = [[*column, t] for *column, t in zip(*a_rows, v)]
    red, pivots = rref(matrix)
    assert problem.reduction.pivots == pivots
    assert problem.reduction.rows == red[: len(pivots)]
    assert dict(zip(problem.reduction.origins, pivots)) == greedy_pivots(matrix)
    assert problem.regular_states == sorted(greedy_pivots([row[:k] for row in matrix]))
    unique = rank(a_rows) == k
    assert problem.rows_independent() == unique

    sol = solve([row[:k] for row in matrix], v)
    report = recover_weights(soc)
    if sol is None:
        assert not problem.in_span
        eta = next(eta for eta in null_space(a_rows) if dot(v, eta) != 0)
        assert problem.separating_null_vector() == eta
        bad = next(s for s, t in zip(states, v) if t != 0)
        assert report == WeightReport(success=False, agents=soc.agents, residual_witness=bad)
    else:
        assert problem.in_span
        expected = WeightReport(True, soc.agents, tuple(sol[1:]), sol[0], unique)
        assert report == expected
        basis = rank_loop_dependency_basis(profile, soc.agents, states)
        assert positive_reweighting(soc, report) == basis_trade(soc, expected, *basis)
    if unique:
        cols = problem.regular_states
        square = [
            [*(row[c] for c in cols), *(F(i == j) for j in range(k))]
            for i, row in enumerate(a_rows)
        ]
        inverse, _ = rref(square)
        assert problem.regular_inverse == [row[k:] for row in inverse]


@pytest.mark.parametrize("n_agents", [2, 3])
def test_witness_lotteries_reduce_a_fixed_number_of_times(monkeypatch, n_agents):
    # One reduction of [1 | u | v] gives the regular states, and one of the
    # square submatrix beside the identity gives its inverse; every agent
    # reads both.
    calls = []
    real = linalg.reduce_rows
    monkeypatch.setattr(linalg, "reduce_rows", lambda rows: calls.append(rows) or real(rows))
    soc, _, _ = planted_society(random.Random(61), n_agents, 6)
    analysis = Analysis(soc)
    for agent in soc.agents:
        witness_lotteries_for_sign(soc, agent, analysis)
    assert len(calls) == 2


@st.composite
def off_span_societies(draw):
    """2-4 agents with fresh tables on n+2 to 40 states, denominators up to
    30, and the ethical table their planted combination bumped at one
    state; drawn societies whose bump stays in the span are rejected."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 2, 40))
    value = st.builds(F, st.integers(-30, 30), st.integers(1, 30))
    rows = [draw(st.lists(value, min_size=m, max_size=m)) for _ in range(n)]
    c0, *coeffs = (draw(value) for _ in range(n + 1))
    ethical = [c0 + sum((c * r[s] for c, r in zip(coeffs, rows)), F(0)) for s in range(m)]
    ethical[draw(st.integers(0, m - 1))] += draw(value.filter(bool))
    space = letters_space(m)
    tables = {f"a{i}": UtilityTable(dict(zip(space.states, row))) for i, row in enumerate(rows)}
    soc = Society.from_tables(space, tables, UtilityTable(dict(zip(space.states, ethical))))
    assume(not SpanProblem.of(soc).in_span)
    return soc


def moved_entry(lottery, source, target):
    """The lottery with the probability of ``source`` moved onto ``target``."""
    probs = lottery.as_dict()
    probs[target] = probs.get(target, F(0)) + probs.pop(source)
    return SimpleLottery.from_mapping(probs)


@settings(max_examples=150, deadline=None)
@given(off_span_societies())
def test_axiom_i_witness_verifier_equals_the_expectation_oracle(soc):
    # The witness is verified on the states where p and q differ; the old
    # full-support expectations must agree with that verdict, and moving
    # one entry of p must make the verifier fail.
    result = check_axiom_i(soc)
    assert not result.passed
    assert result == solve_axiom_i(soc)
    pair, profile = result.witness, soc.nm_side()
    for name in soc.agents:
        table = profile.tables[name]
        assert expectation(pair.p, table) == expectation(pair.q, table)
    assert expectation(pair.p, profile.ethical) != expectation(pair.q, profile.ethical)

    source = pair.p.probs[0][0]
    values = {s: [profile.tables[a][s] for a in soc.agents] for s in soc.space.states}
    target = next((s for s in soc.space.states if values[s] != values[source]), None)
    assume(target is not None)
    tampered = LotteryWitnessPair(moved_entry(pair.p, source, target), pair.q, pair.eta, pair.lam)
    with pytest.raises(AssertionError, match="agent indifference"):
        _verify_witness(soc, tampered)
    # The tampered p lacks a state of q's support; the gaps still equal the
    # full-support differences of expectations.
    tables = [*profile.tables.values(), profile.ethical]
    assert _expectation_gaps(tampered, tables) == [
        expectation(tampered.p, t) - expectation(tampered.q, t) for t in tables
    ]


def test_sign_witness_verifier_rejects_a_swapped_pair():
    soc, _, _ = planted_society(random.Random(43), 2, 5)
    pair = witness_lotteries_for_sign(soc, "a0")
    _verify_witness(soc, pair, "a0")
    swapped = LotteryWitnessPair(pair.q, pair.p, pair.eta, pair.lam)
    with pytest.raises(AssertionError, match="strict separation"):
        _verify_witness(soc, swapped, "a0")
    with pytest.raises(AssertionError, match="indifference for others"):
        _verify_witness(soc, pair, "a1")


def test_failed_axiom_i_reads_only_the_witness_states(monkeypatch):
    # Neither witness construction builds the Fraction profile matrix or
    # runs a full-support expectation: the null vector and the square
    # inverse read the scaled rows of their few states, and each pair is
    # verified on the states where p and q differ.
    def full_support_expectation(*args):
        raise AssertionError("full-support expectation computed")

    monkeypatch.setattr(core, "expectation", full_support_expectation)
    monkeypatch.setattr(harsanyi, "expectation", full_support_expectation, raising=False)
    soc, _, _ = planted_society(random.Random(67), 3, 30)
    bumped = dict(soc.base.ethical.values)
    bumped["s7"] += 1
    soc = Society.from_tables(soc.space, soc.base.tables, UtilityTable(bumped))
    analysis = Analysis(soc)
    result = check_axiom_i(soc, analysis)
    assert not result.passed
    assert result == solve_axiom_i(soc)
    for agent in soc.agents:
        witness_lotteries_for_sign(soc, agent, analysis)
    problem = analysis.span_of(soc.nm_side())
    assert "matrix" not in problem.__dict__
    assert "target" not in problem.__dict__


# ---------------------------------------------------------------------------
# The lottery-side certificate against the reduction alone


@st.composite
def lottery_societies(draw):
    """Societies whose lottery profile may or may not be certified by neighbours.

    A product grid of 2-3 coordinates with 1-2 steps each, listed in grid
    order or, as an explicit space, in a drawn order, carries agents that
    each read one drawn coordinate (two agents on one coordinate leave each
    without a single-agent neighbour) or are constant.  An explicit space of
    3-9 states carries tables of small values drawn state by state, which
    have neighbours only by chance.  The lottery profile is the base one or
    a separate ``nm_profile`` drawn the same way.  Its ethical table is a
    drawn combination of its agents, weight 0 included, bumped off the span
    at one state or not.
    """
    small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        dims = [
            GridDim(f"x{k}", F(0), F(draw(st.integers(1, 2))), F(1))
            for k in range(draw(st.integers(2, 3)))
        ]
        grid = StateSpace.product_grid(dims)
        states = list(grid.states)
        if draw(st.booleans()):
            states = draw(st.permutations(states))
        space = StateSpace.explicit(states) if states != list(grid.states) else grid

        def agent():
            if draw(st.integers(0, 3)) == 0:
                return dict.fromkeys(states, draw(small))
            k = draw(st.integers(0, len(dims) - 1))
            levels = {p: draw(small) for p in dims[k].points()}
            return {s: levels[grid.coords(s)[k]] for s in states}

    else:
        space = letters_space(draw(st.integers(3, 9)))
        states = list(space.states)
        values = st.sampled_from([F(0), F(1), F(-1, 2), F(3)])

        def agent():
            return {s: draw(values) for s in states}

    def profile():
        tables = {f"a{i}": UtilityTable(agent()) for i in range(n)}
        weights = [draw(st.sampled_from([F(0), F(1), F(-2, 3), F(5, 2)])) for _ in range(n)]
        ethical = linear_combination(list(tables.values()), weights, draw(small))
        if draw(st.integers(0, 2)) == 0:
            bumped = dict(ethical.values)
            bump = draw(st.sampled_from([F(1), F(-1, 3), F(5, 2)]))
            bumped[draw(st.sampled_from(states))] += bump
            ethical = UtilityTable(bumped)
        return tables, ethical

    tables, ethical = profile()
    nm = Profile(*profile()) if draw(st.booleans()) else None
    return Society.from_tables(space, tables, ethical, nm=nm)


@settings(max_examples=200, deadline=None)
@given(lottery_societies())
def test_lottery_certificate_gives_the_reduction_verdict_and_weights(soc):
    analysis = Analysis(soc)
    axiom = check_axiom_i(soc, analysis)
    report = recover_weights(soc, analysis)
    certified = analysis.certificate_of(soc.nm_side()) is not None
    if not certified:
        event("off the span")
    else:
        event("reduced" if analysis.span_of(soc.nm_side()).reduced else "read off neighbours")
    assert axiom == check_axiom_i(soc)
    assert report == recover_weights(soc)
