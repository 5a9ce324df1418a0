"""Integer table checks against their Fraction oracles, and the scaling count.

The order, class and affinity checks read ``UtilityTable.column``, and the
identity check, ``core.residual``, tests each state with ints on a
``SpanProblem``'s cached rows after its reduction has read them, the rows
the reduction's recovery re-checks its identity on, and on the tables'
columns through ``core.fitted_constant``, the constant the linear
certificate and the intensity side fit.  The differentials draw 2-4
agents with ties and constant agents, negative values, denominators 1, 2,
3, 5 and 7 or a distinct prime under every value, tables whose key order
differs from the state order, and identities off by one unit at a single
state, and assert the verdicts and witnesses of ``fraction_checks``.  The
affinity kernel is also drawn on single table pairs (constant tables, zero
and negative slopes, a bumped state, mismatched domains).  The
intensity-side differential draws linear, additive but bent, non-additive,
constant and nonpositive-slope components and asserts the same linearity
decisions, slope reports, error texts and recovery reports as the Fraction
pipeline.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
from conftest import planted_coincidence_society, primes
from utilcheck import (
    Profile,
    Society,
    SpanProblem,
    StateSpace,
    UtilityTable,
    affine_relation,
    build_difference_map,
    check_semi_separable,
    cli,
    core,
    emit_society,
    extract_slopes,
    harvey_recover,
    linear_combination,
    matches,
    order_disagreement,
    recover_weights,
    verify_component_additivity,
)
from utilcheck.coincidence import _agent_verdicts
from utilcheck.core import fitted_constant, residual
from utilcheck.society import semi_separability

F = Fraction


@st.composite
def societies(draw):
    """A society on a (possibly holed) product of per-agent levels, with a starred profile.

    Each agent's table takes one value per level, so states sharing a level
    tie, and an agent with one level is constant.  The starred table of an
    agent is an affine image, a monotone cube or a fresh draw per level,
    and one starred state may be bumped off its level's value.
    """
    n = draw(st.integers(2, 4))
    levels = [draw(st.integers(1, 3)) for _ in range(n)]
    combos = draw(st.permutations(list(itertools.product(*(range(k) for k in levels)))))
    if draw(st.booleans()):
        combos = combos[: draw(st.integers(1, len(combos)))]
    prime_pool = iter(primes(80)) if draw(st.booleans()) else None

    def value(lo=-6, hi=6):
        den = next(prime_pool) if prime_pool else draw(st.sampled_from([1, 2, 3, 5, 7]))
        return F(draw(st.integers(lo, hi)), den)

    states = [f"s{j}" for j in range(len(combos))]
    key_order = draw(st.permutations(range(len(states))))

    def table(per_state):
        return UtilityTable({states[j]: per_state[j] for j in key_order})

    agents = [f"a{i}" for i in range(n)]
    tables, starred = [], []
    for i, k in enumerate(levels):
        base = [value() for _ in range(k)]
        kind = draw(st.sampled_from(["affine", "cube", "fresh"]))
        if kind == "affine":
            alpha, beta = value(1, 5), value()
            star = [alpha * v + beta for v in base]
        elif kind == "cube":
            star = [(v - min(base) + 1) ** 3 for v in base]
        else:
            star = [value() for _ in range(k)]
        star_values = [star[c[i]] for c in combos]
        if draw(st.integers(0, 4)) == 0:
            j = draw(st.integers(0, len(states) - 1))
            star_values[j] += draw(st.sampled_from([F(1), F(1, 11)]))
        tables.append(table([base[c[i]] for c in combos]))
        starred.append(table(star_values))
    space = StateSpace.explicit(states)
    ethical = linear_combination(tables, [1] * n)
    nm = Profile(dict(zip(agents, starred)), linear_combination(starred, [1] * n))
    return Society.from_tables(space, dict(zip(agents, tables)), ethical, nm=nm)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(societies())
def test_order_agreement_matches_fraction_oracle(soc):
    states = soc.space.states
    for a in soc.agents:
        t, t_star = soc.base.tables[a], soc.nm.tables[a]
        expected = oracle.same_weak_order(t, t_star, states)
        assert matches(t, t_star, states) == expected
        first = None if expected else oracle.first_disagreement(t, t_star, states)
        assert order_disagreement(t, t_star, states) == first


@settings(max_examples=300, deadline=None)
@given(societies())
def test_class_counting_matches_fraction_oracle(soc):
    states = soc.space.states
    for profile in (soc.base, soc.nm):
        tables = [profile.tables[a] for a in soc.agents]
        expected = oracle.semi_separability(tables, states)
        assert check_semi_separable(soc, profile) == expected
        for subset in (tables[::-1], tables[1:]):
            assert semi_separability(subset, states) == oracle.semi_separability(subset, states)


@settings(max_examples=300, deadline=None)
@given(societies())
def test_agent_verdicts_match_fraction_oracle(soc):
    states = soc.space.states
    tables = [soc.base.tables[a] for a in soc.agents]
    starred = [soc.nm.tables[a] for a in soc.agents]
    expected = _outcome(oracle.agent_verdicts, soc.agents, tables, starred, states)
    assert _outcome(_agent_verdicts, soc.agents, tables, starred, states) == expected


@pytest.mark.parametrize(
    ("star", "message"),
    [
        ((5, 5, 5, 5), "shared order should force a positive slope"),
        ((3, 2, 1, 3), "shared order should force a positive slope"),
        ((0, 2, 4, 1), "affine verdict failed pointwise re-verification"),
    ],
)
def test_agent_verdicts_without_a_disagreeing_step_raise(star, message):
    # The first state of each base value steps evenly, so no step disagrees,
    # but the starred table is no positive affine image: a zero slope, a
    # negative one, or a fourth state off the line.
    states = ["s0", "s1", "s2", "s3"]
    base = UtilityTable(dict(zip(states, map(F, (0, 1, 2, 0)))))
    flat = UtilityTable({s: F(7) for s in states})
    starred = UtilityTable(dict(zip(states, map(F, star))))
    args = (("a0", "a1"), [base, flat], [starred, flat], states)
    assert _outcome(_agent_verdicts, *args) == ("AssertionError", message)
    assert _outcome(oracle.agent_verdicts, *args) == ("AssertionError", message)


@st.composite
def table_pairs(draw):
    """Two tables (u, w), and the (alpha, beta) planted as w = alpha * u + beta or None.

    u may be constant; w is an affine image of u with a slope from -2 to 4
    (zero and negative slopes included), a constant, or a fresh draw.  One
    state of w may be bumped, every value may sit over its own prime, each
    table lists its keys in its own order, and w may miss one of u's states.
    """
    states = [f"s{j}" for j in range(draw(st.integers(2, 7)))]
    prime_pool = iter(primes(2 * len(states))) if draw(st.booleans()) else None

    def value(lo=-6, hi=6):
        den = next(prime_pool) if prime_pool else draw(st.sampled_from([1, 2, 3, 5, 7]))
        return F(draw(st.integers(lo, hi)), den)

    constant_u = draw(st.sampled_from([False] * 3 + [True]))
    u = [value()] * len(states) if constant_u else [value() for _ in states]
    kind = draw(st.sampled_from(["affine", "constant", "fresh"]))
    planted = None
    if kind == "affine":
        alpha = F(draw(st.integers(-2, 4)), draw(st.sampled_from([1, 2, 5])))
        beta = value()
        w = [alpha * v + beta for v in u]
        if alpha > 0 and len(set(u)) > 1:
            planted = (alpha, beta)
    else:
        w = [value()] * len(states) if kind == "constant" else [value() for _ in states]
    if draw(st.sampled_from([False] * 3 + [True])):
        w[draw(st.integers(0, len(states) - 1))] += draw(st.sampled_from([F(1), F(1, 11)]))
        planted = None
    w_states = list(states)
    if draw(st.sampled_from([False] * 9 + [True])):
        w_states[-1] = "elsewhere"

    def table(names, values):
        order = draw(st.permutations(range(len(names))))
        return UtilityTable({names[j]: values[j] for j in order})

    return table(states, u), table(w_states, w), planted


@settings(max_examples=500, deadline=None)
@given(table_pairs())
def test_affine_relation_matches_fraction_oracle(pair):
    u, w, planted = pair
    for a, b in ((u, w), (w, u)):
        assert _outcome(affine_relation, a, b) == _outcome(oracle.affine_relation, a, b)
    if planted is not None and u.values.keys() == w.values.keys():
        assert affine_relation(u, w) == planted


@settings(max_examples=300, deadline=None)
@given(societies(), st.data())
def test_identity_check_matches_table_sum(soc, data):
    tables = [soc.base.tables[a] for a in soc.agents]
    weights = [
        F(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from([1, 2, 3, 7])))
        for _ in tables
    ]
    constant = F(data.draw(st.integers(-9, 9)), data.draw(st.sampled_from([1, 5, 13])))
    target = linear_combination(tables, weights, constant)
    bumped = data.draw(st.booleans())
    if bumped:
        state = data.draw(st.sampled_from(soc.space.states))
        unit = data.draw(st.sampled_from([F(1), F(1, target.scale)]))
        target = UtilityTable({s: v + unit * (s == state) for s, v in target.values.items()})
    expected = oracle.is_combination(target, tables, weights, constant)
    assert expected is not bumped
    assert _cached_row_verdict(soc, target, tables, weights, constant) == expected
    first = oracle.is_combination(target, tables[:1], weights[:1], constant)
    assert _cached_row_verdict(soc, target, tables[:1], weights[:1], constant) == first
    # The constant fitted at the first state, then re-checked on the columns.
    states, x0 = soc.space.states, soc.space.states[0]
    if not bumped:
        assert fitted_constant(tables, target, weights, states) == constant
    for k in (len(tables), 1):
        at_x0 = target[x0] - sum(w * t[x0] for w, t in zip(weights[:k], tables[:k]))
        fitted = fitted_constant(tables[:k], target, weights[:k], states)
        holds = oracle.is_combination(target, tables[:k], weights[:k], at_x0)
        assert fitted == (at_x0 if holds else None)


def _cached_row_verdict(soc, target, tables, weights, constant) -> bool:
    """The identity check on a ``SpanProblem``'s cached rows, read after its reduction."""
    agents = soc.agents[: len(tables)]
    problem = SpanProblem.from_profile(
        Profile(dict(zip(agents, tables)), target), agents, soc.space.states
    )
    problem.reduction  # the reduction reads the same scaled rows first
    d, (*us, v) = problem.scaled
    return residual(v, [*us, d], [F(c).as_integer_ratio() for c in (*weights, constant)]) == 0


def test_identity_check_on_long_scale_tables():
    # 4 agents on 64 states with a distinct prime under every agent value:
    # each table's scale runs to hundreds of bits, yet every row of the
    # lottery side is scaled by its own state's denominators only.
    states = [f"s{j}" for j in range(64)]
    under = iter(primes(4 * len(states)))
    rng = random.Random(5)
    tables = [
        UtilityTable({s: F(rng.randint(-9, 9), next(under)) for s in states}) for _ in range(4)
    ]
    weights, constant = [F(1), F(-2, 3), F(5), F(1, 7)], F(3, 11)
    target = linear_combination(tables, weights, constant)
    soc = Society.from_tables(StateSpace.explicit(states), dict(zip("abcd", tables)), target)
    problem = SpanProblem.of(soc)
    assert min(t.scale for t in tables).bit_length() > 300
    assert problem.scaled[0] == [
        math.lcm(*(t[s].denominator for t in (*tables, target))) for s in states
    ]
    for state in (None, states[0], states[-1]):
        bumped = UtilityTable(
            {s: v + F(1, target[s].denominator) * (s == state) for s, v in target.values.items()}
        )
        expected = oracle.is_combination(bumped, tables, weights, constant)
        assert expected is (state is None)
        assert _cached_row_verdict(soc, bumped, tables, weights, constant) == expected
    assert problem.in_span and recover_weights(soc).weights == tuple(weights)


#: Level shapes of an intensity-side agent: a repeated difference (the
#: map builds only for a linear ethical part); no repeated difference, and
#: every sum on the grid rearranges 2 + 3 = 5 (any part is additive); no
#: repeated difference, but 1 + 1 = 2 (additivity can fail).
LEVEL_SHAPES = ((0, 1, 2), (0, 2, 5), (0, 1, 3))


@st.composite
def intensity_societies(draw):
    """A society on a product of per-agent levels with v = sum f_i(u_i) + b.

    Each agent has 1-3 levels (one level is a constant agent) of a shape in
    ``LEVEL_SHAPES``, stretched by a positive rational and shifted.  Its
    ethical part f_i is linear with a slope from -2 to 3 over 1, 2 or 3, so
    possibly zero or negative, or a fresh value per level.  One state may
    be dropped from the product, which breaks semi-separability, and one
    ethical value may be bumped, which usually breaks axiom (I).
    """
    n = draw(st.integers(2, 3))
    levels = []
    for _ in range(n):
        shape = draw(st.sampled_from(LEVEL_SHAPES))[: draw(st.integers(1, 3))]
        stretch = F(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 7])))
        shift = F(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 5])))
        levels.append([shift + stretch * p for p in shape])
    combos = list(itertools.product(*(range(len(lv)) for lv in levels)))
    if len(combos) > 1 and draw(st.integers(0, 5)) == 0:
        combos.pop(draw(st.integers(0, len(combos) - 1)))
    parts = []
    for lv in levels:
        if draw(st.booleans()):
            slope = F(draw(st.integers(-2, 3)), draw(st.sampled_from([1, 2, 3])))
            parts.append([slope * u for u in lv])
        else:
            parts.append([F(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2]))) for _ in lv])
    b = F(draw(st.integers(-3, 3)), 2)
    states = [f"s{j}" for j in range(len(combos))]
    ethical = {
        s: b + sum(part[c[i]] for i, part in enumerate(parts)) for s, c in zip(states, combos)
    }
    if draw(st.integers(0, 5)) == 0:
        ethical[draw(st.sampled_from(states))] += 1
    tables = {
        f"a{i}": UtilityTable({s: lv[c[i]] for s, c in zip(states, combos)})
        for i, lv in enumerate(levels)
    }
    return Society.from_tables(StateSpace.explicit(states), tables, UtilityTable(ethical))


@settings(max_examples=300, deadline=None)
@given(intensity_societies())
def test_intensity_side_matches_fraction_oracle(soc):
    assert harvey_recover(soc) == oracle.harvey_recover(soc)
    try:
        dm = build_difference_map(soc)
    except ValueError:
        return
    assert [bend is None for bend in dm.bends] == [oracle.is_linear(dm, i) for i in range(len(soc.agents))]
    assert _outcome(extract_slopes, dm) == _outcome(oracle.extract_slopes, dm)


@settings(max_examples=300, deadline=None)
@given(intensity_societies(), st.data())
def test_component_additivity_matches_fraction_oracle(soc, data):
    # On the built map, or on one whose table is corrupted at key 0, at an
    # axis-key pair c * R_i, -c * R_i (by opposite amounts, so F stays odd)
    # or at c * R_i alone.
    try:
        dm = build_difference_map(soc)
    except ValueError:
        return
    corruption = data.draw(st.sampled_from(["none", "zero", "axis", "one"]))
    if corruption != "none":
        table = dict(dm.table)
        delta = data.draw(st.sampled_from([-2, -1, 1, 3]))
        i = data.draw(st.integers(0, len(soc.agents) - 1))
        points = [c for c in dm.grids[i] if c > 0]
        if corruption == "zero" or not points:
            table[0] += delta
        else:
            key = data.draw(st.sampled_from(points)) * dm.radices[i]
            table[key] += delta
            table[-key] -= delta if corruption == "axis" else 0
        dm = core.replace(dm, table=table)
    for k in range(len(soc.agents)):
        assert verify_component_additivity(dm, k) == oracle.verify_component_additivity(dm, k)


def test_cli_paths_scale_each_table_once(tmp_path, monkeypatch, capsys):
    # A passing coincide reads each of its 2n + 2 tables scaled, each scaled
    # once.  The lottery-side recovery reduces and re-verifies on each
    # state's own ratios, so it scales no table.  Parsed tables arrive as
    # ratios, and neither command builds a table's values dict or a table sum.
    soc, _, _ = planted_coincidence_society(random.Random(97), 3)
    path = tmp_path / "planted.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    sums = []
    real_sum = core.linear_combination

    def counted_sum(*args, **kwargs):
        sums.append(args)
        return real_sum(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("utilcheck") and vars(module).get("linear_combination") is real_sum:
            monkeypatch.setattr(module, "linear_combination", counted_sum)
    built = {"scaled": [], "values": []}
    # A table scales its values once, into the cached column ``_scaled``.
    for attr, seen in zip(("_scaled", "values"), built.values()):
        real = getattr(UtilityTable, attr).func

        def counted(table, real=real, seen=seen):
            seen.append(id(table))
            return real(table)

        prop = functools.cached_property(counted)
        prop.__set_name__(UtilityTable, attr)
        monkeypatch.setattr(UtilityTable, attr, prop)

    assert cli.main(["coincide", str(path), "--json"]) == 0
    assert '"status": "coincide"' in capsys.readouterr().out
    assert sums == built["values"] == []
    assert len(built["scaled"]) == len(set(built["scaled"])) == 2 * 3 + 2
    built["scaled"].clear()
    assert cli.main(["recover", str(path), "--mode", "harsanyi", "--json"]) == 0
    assert '"success": true' in capsys.readouterr().out
    assert sums == []
    assert built == {"scaled": [], "values": []}
