"""The fast deciders against the quadratic passes they stand in for.

Pareto without a linear certificate is decided by one bitset pass
(``society.check_pareto_criterion``), and a linear ethical table on a space
where some agent has no single-agent neighbour of the first state is
certified by the profile's reduction of [1 | u | v]
(``SpanProblem.solution``, which ``SpanProblem.certificate`` falls back on).
The former dominance loop (``test_core.pareto_loop``) and the pair scan
stay as the oracles: both fast paths must give their verdict and their
first witness.  The CLI runs below make the dominance check or the scan
raise where a certificate decides, and the reports must still be the
goldens, pinned before the fast paths existed.  The properties at the end
map, rename or reorder a society's tables and states, and no verdict may
change; under positive affine maps the recovered weights, constants and
each agent's (alpha, beta) move exactly as the maps say.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
import conftest
from conftest import capped_sum_society, cube_society, planted_coincidence_society
from test_core import pareto_loop, pareto_pair_scan
from test_harvey import ScanOnly, _scan_societies, certificate_societies, fraction_pair_scan
from test_scaled_checks import intensity_societies
from utilcheck import Profile, Society, StateSpace, UtilityTable, cli, emit_society
from utilcheck import linear_combination
from utilcheck import coincidence, core, harvey
from utilcheck.harsanyi import SpanProblem, recover_weights
from utilcheck.harvey import check_axiom_I, harvey_recover
from utilcheck.society import check_pareto_criterion

F = Fraction
ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _society(vectors, ethical, order) -> Society:
    states = [f"s{k}" for k in range(len(vectors))]
    vectors = [vectors[k] for k in order]
    ethical = [ethical[k] for k in order]
    n = len(vectors[0])
    tables = {
        f"a{i}": UtilityTable({s: F(v[i]) for s, v in zip(states, vectors)}) for i in range(n)
    }
    values = UtilityTable({s: F(e) for s, e in zip(states, ethical)})
    return Society.from_tables(StateSpace.explicit(states), tables, values)


@st.composite
def lattice_societies(draw):
    """Semi-separable societies: every combination of the agents' classes, some repeated.

    2-4 agents with 1-3 classes each (one class is a constant agent), each
    combination realized by one or two states in a drawn order.  The
    ethical table is increasing in a weighted sum of the classes (weights
    of every sign), that sum cubed, or drawn value by value, plus an
    optional bump of a few states, so many tables fail Pareto and some
    only late in state order.
    """
    n = draw(st.integers(2, 4))
    classes = st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True)
    levels = [draw(classes) for _ in range(n)]
    points = list(itertools.product(*levels))
    copies = draw(st.lists(st.integers(1, 2), min_size=len(points), max_size=len(points)))
    vectors = [p for p, c in zip(points, copies) for _ in range(c)]
    kind = draw(st.sampled_from(["sum", "sum", "cubed", "drawn"]))
    if kind == "drawn":
        ethical = draw(st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors)))
    else:
        weights = [draw(st.sampled_from([-1, 0, 1, 1, 2, 3])) for _ in range(n)]
        ethical = [sum(w * u for w, u in zip(weights, v)) for v in vectors]
        if kind == "cubed":
            ethical = [e**3 for e in ethical]
    for k in draw(st.lists(st.integers(0, len(vectors) - 1), max_size=2)):
        ethical[k] += draw(st.sampled_from([-5, -1, 1]))
    order = draw(st.permutations(range(len(vectors))))
    return _society(vectors, ethical, order)


@settings(max_examples=300, deadline=None)
@given(lattice_societies())
def test_lattice_gives_the_loop_verdict_and_witness(soc):
    expected = pareto_loop(soc)
    event("pass" if expected else "fail")
    assert harvey.Analysis(soc).semi_separability_of(soc.base).passed
    assert check_pareto_criterion(soc) == expected
    # The record: certificate, then the bitset pass.
    record = coincidence._pareto_record(soc, harvey.Analysis(soc))
    assert (record.passed, record.detail) == (
        expected.passed, "" if expected else f"witness pair {expected.witness}"
    )


def test_lattice_on_a_society_that_is_not_semi_separable():
    # The pass reads no product of the classes, so a society whose vectors
    # leave lattice points unrealized is decided as a full product is.
    soc = _society([(0, 0), (1, 1), (2, 0), (0, 2)], [0, 1, 0, 5], range(4))
    assert not harvey.Analysis(soc).semi_separability_of(soc.base)
    assert check_pareto_criterion(soc) == pareto_loop(soc)
    assert check_pareto_criterion(soc).witness == ("s2", "s0")


@st.composite
def unseparated_societies(draw):
    """Societies whose vectors rarely fill the product of the classes.

    2-4 agents on 3-12 states; each agent is drawn, a constant, or an
    affine image or a sum of earlier agents, so agents may be dependent.
    The ethical table is linear (weights -2 to 3, zero included) or not: a
    product term, a square, or one bumped state.
    """
    n = draw(st.integers(2, 4))
    size = draw(st.integers(3, 12))
    columns: list[list[int]] = []
    for i in range(n):
        how = draw(st.sampled_from(["drawn", "drawn", "drawn", "constant", "image", "sum"]))
        if not columns and how in ("image", "sum"):
            how = "drawn"
        if how == "drawn":
            columns.append(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)))
        elif how == "constant":
            columns.append([draw(st.integers(-2, 2))] * size)
        elif how == "image":
            a, b = draw(st.sampled_from([-2, -1, 2, 3])), draw(st.integers(-2, 2))
            columns.append([a * u + b for u in columns[draw(st.integers(0, i - 1))]])
        else:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            columns.append([u + w for u, w in zip(columns[j], columns[k])])
    weights = [draw(st.sampled_from([-2, -1, 0, 0, 1, 2, 3])) for _ in range(n)]
    ethical = [sum(w * c[k] for w, c in zip(weights, columns)) for k in range(size)]
    kind = draw(st.sampled_from(["linear", "linear", "product", "square", "bumped"]))
    if kind == "product":
        ethical = [e + columns[0][k] * columns[1][k] for k, e in enumerate(ethical)]
    elif kind == "square":
        ethical = [e + columns[0][k] ** 2 for k, e in enumerate(ethical)]
    elif kind == "bumped":
        ethical[draw(st.integers(0, size - 1))] += 1
    vectors = list(zip(*columns))
    soc = _society(vectors, ethical, range(size))
    if draw(st.booleans()):
        # The drawn tables as a separate intensity side, next to base tables
        # whose ethical table is cubed: the two certificates then differ.
        cubed = UtilityTable({s: v**3 for s, v in soc.base.ethical.values.items()})
        soc = Society(soc.space, soc.agents, Profile(soc.base.tables, cubed), alt=soc.base)
    return soc


@settings(max_examples=400, deadline=None)
@given(unseparated_societies())
def test_span_certificate_gives_the_scan_and_loop_verdicts(soc):
    analysis, scan_only = harvey.Analysis(soc), ScanOnly(soc)
    axiom = check_axiom_I(soc, analysis)
    event("reduced" if analysis.span_of(soc.alt_side()).reduced else "read off neighbours")
    assert axiom == check_axiom_I(soc, scan_only)
    assert harvey_recover(soc, analysis) == harvey_recover(soc, scan_only)
    certificate = analysis.certificate_of(soc.alt_side())
    if certificate is not None:
        assert scan_only.pair_scan.conflict is None
    # v in the intensity side's span certifies axiom (I), whichever path read it.
    in_span = analysis.span_of(soc.alt_side()).in_span
    if in_span:
        assert certificate is not None
    event(f"in span: {in_span}, axiom (I): {axiom.passed}")
    loop = pareto_loop(soc)
    record = coincidence._pareto_record(soc, harvey.Analysis(soc))
    assert (record.passed, record.detail) == (
        loop.passed, "" if loop else f"witness pair {loop.witness}"
    )


def test_span_certificate_weights_and_constant_agents():
    # On the curve u2 = u1^2 no state is a single-agent neighbour of
    # another, so the reduction certifies v = u1 + u2 + b with both weights
    # positive and its constant; a constant third agent has no slope, and a
    # dependent copy of u1 gets the canonical weight 0, which certifies
    # axiom (I) but not Pareto.
    curve, ethical = [(0, 0), (1, 1), (2, 4), (3, 9)], [0, 2, 6, 12]
    soc = _society(curve, ethical, range(4))
    assert harvey.Analysis(soc).certificate_of(soc.base) == ((F(1), F(1)), F(0))
    shifted = _society(curve, [e + 5 for e in ethical], range(4))
    assert harvey.Analysis(shifted).certificate_of(shifted.base) == ((F(1), F(1)), F(5))
    with_constant = _society([(a, b, 7) for a, b in curve], ethical, range(4))
    certificate = harvey.Analysis(with_constant).certificate_of(with_constant.base)
    assert certificate == ((F(1), F(1), None), F(0))
    with_copy = _society([(a, b, a) for a, b in curve], ethical, range(4))
    analysis = harvey.Analysis(with_copy)
    assert analysis.certificate_of(with_copy.base) == ((F(1), F(1), F(0)), F(0))
    assert check_axiom_I(with_copy, analysis)
    assert not coincidence._pareto_certified(with_copy, analysis)


def _harvey_success_and_certificate(soc) -> tuple[bool, bool]:
    analysis = harvey.Analysis(soc)
    success = harvey_recover(soc, analysis).success
    return success, analysis.certificate_of(soc.alt_side()) is not None


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _scan_societies(),
        certificate_societies(),
        unseparated_societies(),
        lattice_societies(),
        intensity_societies(),
    )
)
def test_a_harvey_success_has_a_certificate(soc):
    # Semi-separability gives every nonconstant agent a single-agent
    # neighbour, and a successful scan makes v linear, so the certificate
    # exists: on a real Analysis the scan path only ever fails, and only an
    # Analysis without certificates (ScanOnly) reaches its success branch.
    success, certified = _harvey_success_and_certificate(soc)
    event(f"harvey success: {success}, certified: {certified}")
    assert certified or not success


@pytest.mark.parametrize(
    "name",
    [
        "affine_grid_society",
        "bent_component_society",
        "capped_sum_society",
        "cube_society",
        "negative_lottery_weight_society",
        "negative_weight_society",
        "nonadditive_society",
    ],
)
def test_a_fixture_harvey_success_has_a_certificate(name):
    success, certified = _harvey_success_and_certificate(getattr(conftest, name)())
    assert certified or not success


# ---------------------------------------------------------------------------
# The CLI with the quadratic passes made to raise


def _forbid_loop(monkeypatch):
    def loop(soc):
        raise AssertionError("the dominance check ran")

    monkeypatch.setattr(coincidence, "check_pareto_criterion", loop)


def _forbid_scan(monkeypatch):
    def scan(ints):
        raise AssertionError("the pair scan ran")

    monkeypatch.setattr(harvey, "_scan_pairs", scan)


def _stdout(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_simplex_runs_no_loop_and_no_scan(monkeypatch, capsys):
    _forbid_loop(monkeypatch)
    _forbid_scan(monkeypatch)
    simplex = str(FIXTURES / "simplex.json")
    assert _stdout(capsys, "validate", simplex, "--json") == (
        1, (GOLDEN / "validate_simplex.json").read_text()
    )
    text = (GOLDEN / "validate_simplex.txt").read_text()
    assert _stdout(capsys, "validate", simplex) == (1, text)
    assert _stdout(capsys, "recover", simplex, "--mode", "harvey", "--json") == (
        1, (GOLDEN / "recover_simplex_harvey.json").read_text()
    )
    assert _stdout(capsys, "coincide", simplex, "--json") == (
        1, (GOLDEN / "coincide_simplex.json").read_text()
    )


#: sha256 of ``fixture simplex --resolution 1/512``'s stdout, taken before the
#: builder certified itself with the hypothesis battery.
SIMPLEX_512_SHA256 = "7fddbc8c66ae9b4795e0145820e92ca99d7cefba2cf65369de8697de6d6ab68e"


def test_simplex_builder_runs_no_loop_no_scan_and_two_reductions(
    monkeypatch, reduce_rows_calls, capsys
):
    # Its battery reduces each profile once, and no other reduction runs.
    _forbid_loop(monkeypatch)
    _forbid_scan(monkeypatch)
    coincidence.simplex_counterexample(F(1, 4))
    assert len(reduce_rows_calls) == 2
    assert _stdout(capsys, "fixture", "simplex", "--resolution", "1/4") == (
        0, (FIXTURES / "simplex.json").read_text()
    )
    code, out = _stdout(capsys, "fixture", "simplex", "--resolution", "1/512")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == SIMPLEX_512_SHA256


@pytest.mark.parametrize(
    "society, golden",
    [(cube_society, "validate_cube.json"), (capped_sum_society, "validate_capped_sum.json")],
    ids=["cube", "capped-sum"],
)
def test_semi_separable_validate_runs_no_loop(capsys, tmp_path, society, golden):
    # Neither has a linear certificate, so axiom (I) still scans its pairs
    # (and fails), and the bitset pass decides Pareto.
    path = tmp_path / "society.json"
    path.write_text(emit_society(society()), encoding="utf-8")
    assert _stdout(capsys, "validate", str(path), "--json") == (1, (GOLDEN / golden).read_text())


def test_one_reduction_per_profile(reduce_rows_calls, capsys):
    # The simplex fixture's base tables are its intensity side: one
    # reduction certifies both their Pareto record and axiom (I), and a
    # second, of the lottery side, decides axiom (i).
    simplex = str(FIXTURES / "simplex.json")
    code, out = _stdout(capsys, "validate", simplex, "--json")
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"] if c["verdict"] == "FAIL"] == [
        "semi-separability"
    ]
    assert len(reduce_rows_calls) == 2
    reduce_rows_calls.clear()
    assert _stdout(capsys, "recover", simplex, "--mode", "harvey")[0] == 1
    assert len(reduce_rows_calls) == 1


def test_a_lottery_profile_without_neighbours_scales_no_table_and_reduces_once(
    reduce_rows_calls, capsys, tmp_path
):
    # On the curve u2 = u1^2 every two states differ in both agents, so
    # neither profile has a single-agent neighbour.  The lottery profile's
    # certificate search reads only the tables' ratios and then reduces its
    # rows; the battery, the weights and coincide read that one reduction of
    # each profile.
    curve = [(0, 0), (1, 1), (2, 4), (3, 9)]
    soc = _society(curve, [0, 2, 6, 12], range(4))
    star = {
        f"a{i}": UtilityTable({s: F(2 * v[i] + 1, 3) for s, v in zip(soc.space.states, curve)})
        for i in range(2)
    }
    lottery = Profile(star, linear_combination(star.values(), [1, F(1, 2)], F(1, 5)))
    soc = core.replace(soc, nm=lottery)
    analysis = harvey.Analysis(soc)
    assert analysis.certificate_of(lottery) == ((F(1), F(1, 2)), F(1, 5))
    assert ["_scaled" in t.__dict__ for t in [*star.values(), lottery.ethical]] == [False] * 3
    assert len(reduce_rows_calls) == 1
    path = tmp_path / "curve.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    reduce_rows_calls.clear()
    code, out = _stdout(capsys, "coincide", str(path), "--json")
    assert code == 1
    assert {h["name"]: h["verdict"] for h in json.loads(out)["hypotheses"]}["axiom-i"] == "PASS"
    assert len(reduce_rows_calls) == 2


def test_span_of_is_one_problem_per_profile():
    soc = cube_society()
    analysis = harvey.Analysis(soc)
    lottery = analysis.span_of(soc.nm_side())
    assert lottery is analysis.span_of(soc.base) is analysis.span_of(soc.alt_side())
    alt = Profile(soc.base.tables, soc.base.ethical)
    with_alt = Society(soc.space, soc.agents, soc.base, alt=alt)
    analysis = harvey.Analysis(with_alt)
    lottery = analysis.span_of(with_alt.nm_side())
    assert lottery is analysis.span_of(with_alt.base)
    assert analysis.span_of(alt) is analysis.span_of(with_alt.alt_side()) is not lottery


# ---------------------------------------------------------------------------
# Invariance under positive affine maps
#
# Each table is an NM or Alt utility, unique up to a positive affine map,
# and every fast path above reads state order, ranks or scaled ints.  So
# mapping every table on every side, each by its own map, may change no
# record of the battery, witnesses included, and no agent verdict's kind;
# the recovered weights and constants and each COINCIDE agent's
# (alpha, beta) transform exactly as the maps say.


@st.composite
def planted_societies(draw):
    """Planted coincidences on small product grids, one agent perhaps distorted."""
    n = draw(st.integers(2, 3))
    distort = draw(st.sampled_from([None, None, *range(n)]))
    soc, _, _ = planted_coincidence_society(draw(st.randoms()), n, distort_agent=distort)
    return soc


positive_slopes = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
shifts = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _battery(soc) -> list[tuple[str, bool, str]]:
    analysis = harvey.Analysis(soc)
    return [
        (record.name, record.passed, record.detail)
        for record in (check(soc, analysis) for _, check in coincidence.HYPOTHESIS_CHECKS)
    ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattice_societies(), unseparated_societies(), planted_societies()), st.data())
def test_battery_and_verdicts_are_invariant_under_positive_affine_maps(soc, data):
    maps = {}  # each mapped profile's id: its agents' maps (a_i, c_i) and its ethical (A, C)

    def image(table):
        a, c = data.draw(positive_slopes), data.draw(shifts)
        return table.affine(a, c), (a, c)

    def mapped(profile):
        if profile is None:
            return None
        tables, agent_maps = {}, {}
        for a, t in profile.tables.items():
            tables[a], agent_maps[a] = image(t)
        ethical, ethical_map = image(profile.ethical)
        moved = Profile(tables, ethical)
        maps[id(moved)] = (agent_maps, ethical_map)
        return moved

    moved = Society(soc.space, soc.agents, mapped(soc.base), mapped(soc.nm), mapped(soc.alt))
    assert _battery(moved) == _battery(soc)
    before, after = coincidence.theorem3_pipeline(soc), coincidence.theorem3_pipeline(moved)
    event(before.status)
    assert after.status == before.status
    assert [v.kind for v in after.agents] == [v.kind for v in before.agents]
    # The recovered identities and the affine relations move with the maps.
    for recover, side in ((recover_weights, Society.nm_side), (harvey_recover, Society.alt_side)):
        old, new = recover(soc), recover(moved)
        assert new.success == old.success
        if old.success:
            expected = _moved_identity(old, side(soc), maps[id(side(moved))], soc.agents)
            assert (new.weights, new.constant) == expected
    base_maps, star_maps = maps[id(moved.alt_side())][0], maps[id(moved.nm_side())][0]
    for old, new in zip(before.agents, after.agents):
        if old.kind == coincidence.COINCIDE:
            (a, c), (a_star, c_star) = base_maps[old.agent], star_maps[old.agent]
            alpha = a_star * old.alpha / a
            assert (new.alpha, new.beta) == (alpha, a_star * old.beta + c_star - alpha * c)


def _moved_identity(report, profile, maps, agents):
    """A recovered (weights, constant) after the maps u_i -> a_i u_i + c_i and v -> A v + C.

    A nonconstant agent's weight w_i becomes w'_i = A w_i / a_i, and the
    constant b becomes A b + C - sum w'_i c_i.  A constant agent keeps its
    weight, 0 on the lottery side and the fixed slope 1 on the intensity
    side, so its term w_k u_k moves by its own map: the constant also gains
    (A - a_k) w_k u_k for each constant agent k.
    """
    agent_maps, (big_a, big_c) = maps
    x0 = profile.ethical.states()[0]
    weights, constant = [], big_a * report.constant + big_c
    for name, w in zip(agents, report.weights):
        (a, c), table = agent_maps[name], profile.tables[name]
        if table.is_constant():
            constant += (big_a - a) * w * table[x0]
        else:
            w = big_a * w / a
        weights.append(w)
        constant -= w * c
    return tuple(weights), constant


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattice_societies(), unseparated_societies(), planted_societies()))
def test_neighbours_and_the_reduction_give_one_certificate(soc):
    # Where every nonconstant agent has a single-agent neighbour, the
    # weights and constant read off the neighbours are the reduction's
    # canonical ones: one Fraction per nonconstant agent and None per
    # constant one, or None for the whole profile when v is off the span.
    states = soc.space.states
    for profile in {id(p): p for p in (soc.base, soc.nm_side(), soc.alt_side())}.values():
        problem = SpanProblem.from_profile(profile, soc.agents, states)
        found, reduced = problem.certificate, problem.reduced
        constant = [profile.tables[a].is_constant() for a in soc.agents]
        solution = problem.solution
        expected = solution and (
            tuple(None if c else w for c, w in zip(constant, solution[1:])), solution[0]
        )
        event("reduced" if reduced else f"neighbours, in span: {expected is not None}")
        assert found == expected
        if found is not None:
            assert {type(w) for w in found[0]} <= {Fraction, type(None)}
            assert type(found[1]) is Fraction


# ---------------------------------------------------------------------------
# Invariance under renaming and permuting the agents
#
# The certificate looks for the agents' neighbours in agent order, and the
# reduction picks its basis greedily in that order, yet no verdict may
# depend on the order or on the names.  A failing record's detail names the
# first failing agent, so only verdicts, statuses and agent kinds are
# compared; the recovered weights must move with their agents wherever they
# are unique.


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattice_societies(), unseparated_societies(), planted_societies()), st.data())
def test_verdicts_and_weights_move_with_renamed_and_permuted_agents(soc, data):
    rename = {a: f"r{k}" for k, a in enumerate(data.draw(st.permutations(soc.agents)))}
    order = data.draw(st.permutations(soc.agents))

    def moved(profile):
        if profile is None:
            return None
        return Profile({rename[a]: profile.tables[a] for a in order}, profile.ethical)

    other = Society(
        soc.space, tuple(rename[a] for a in order), moved(soc.base), moved(soc.nm), moved(soc.alt)
    )
    passed = [(name, ok) for name, ok, _ in _battery(soc)]
    assert [(name, ok) for name, ok, _ in _battery(other)] == passed
    before, after = coincidence.theorem3_pipeline(soc), coincidence.theorem3_pipeline(other)
    event(before.status)
    assert after.status == before.status
    kinds = {rename[v.agent]: v.kind for v in before.agents}
    assert {v.agent: v.kind for v in after.agents} == kinds

    def weights(report):
        return dict(zip(report.agents, report.weights))

    old = recover_weights(soc, harvey.Analysis(soc))
    new = recover_weights(other, harvey.Analysis(other))
    assert (new.success, new.unique) == (old.success, old.unique)
    if old.unique:
        assert weights(new) == {rename[a]: w for a, w in weights(old).items()}
        assert new.constant == old.constant
    old, new = harvey_recover(soc), harvey_recover(other)
    assert new.success == old.success
    if old.success:
        assert weights(new) == {rename[a]: w for a, w in weights(old).items()}
        assert new.constant == old.constant
        assert set(new.constant_agents) == {rename[a] for a in old.constant_agents}


# ---------------------------------------------------------------------------
# Invariance under permuting the states
#
# The bitset pass sorts the states and reads its witness off state order,
# the certificate reads the first state's neighbours, and the profile scan
# builds its witness one coordinate at a time.  Re-emitting a society on an
# explicit space with its states permuted may change no verdict, and each
# witness must be the brute-force first in the new order.


@settings(max_examples=200, deadline=None)
@given(st.one_of(lattice_societies(), unseparated_societies(), planted_societies()), st.data())
def test_permuted_states_keep_every_verdict_and_the_first_witness(soc, data):
    order = data.draw(st.permutations(soc.space.states))

    def table(t):
        return UtilityTable({s: t[s] for s in order})

    def moved(profile):
        if profile is None:
            return None
        return Profile({a: table(t) for a, t in profile.tables.items()}, table(profile.ethical))

    other = Society(
        StateSpace.explicit(order), soc.agents, moved(soc.base), moved(soc.nm), moved(soc.alt)
    )
    records = {name: (ok, detail) for name, ok, detail in _battery(other)}
    assert [(name, ok) for name, (ok, _) in records.items()] == [
        (name, ok) for name, ok, _ in _battery(soc)
    ]
    pair = pareto_pair_scan(other)
    assert records["pareto"] == (pair is None, "" if pair is None else f"witness pair {pair}")
    profile = oracle.semi_separability([other.base.tables[a] for a in other.agents], order)
    assert records["semi-separability"] == (
        profile.passed, "" if profile else f"witness profile {profile.witness}"
    )
    _, conflict = fraction_pair_scan(other)
    event(f"pareto {pair is None}, semi-separable {profile.passed}, axiom (I) {conflict is None}")
    quadruple = None if conflict is None else conflict[0] + conflict[1]
    assert records["axiom-I"] == (
        conflict is None, "" if conflict is None else f"witness quadruple {quadruple}"
    )
