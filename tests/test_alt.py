"""Intensity-system axioms and standard-sequence reconstruction."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_checks as oracle
from conftest import rand_fraction
from utilcheck import (
    AltSystem,
    CheckResult,
    MissingGridPointError,
    UtilityTable,
    affine_relation,
    alt_represents,
    build_standard_sequence,
    check_consistency,
    check_crossover,
    reconstruct_alt_utility,
)

F = Fraction

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=16)


def table_system(values: dict) -> tuple[UtilityTable, AltSystem]:
    table = UtilityTable({k: F(v) for k, v in values.items()})
    return table, AltSystem.from_utility(table)


def test_pair_rankings_refuse_inexact_ranks():
    # Wrapped in Fraction(), the rank 0.1 became 3602879701896397/36028797018963968.
    system = AltSystem.from_pair_ranking(("a", "b"), lambda x, y: 0.1 if x != y else 0)
    with pytest.raises(TypeError, match=r"pair \('a', 'b'\): float 0\.1 is not an int"):
        system.geq(("a", "b"), ("a", "a"))
    with pytest.raises(TypeError, match="float 0.1"):
        check_consistency(system)
    exact = AltSystem.from_pair_ranking(("a", "b"), lambda x, y: F(1, 10) if x != y else 0)
    assert exact.ranks == [0, 1, 1, 0]


# ---------------------------------------------------------------------------
# Consistency and crossover


def test_consistency_utility_generated():
    _, system = table_system({"a": 0, "b": 1, "c": 5, "d": -2})
    assert check_consistency(system).passed


def test_consistency_single_state_vacuous():
    _, system = table_system({"a": 3})
    assert check_consistency(system).passed


def test_consistency_witness_multiplicative_pairs():
    # Rankings of the form f(x) + g(y) keep consistency because the
    # comparison state cancels; a multiplicative interaction with mixed
    # signs does not.
    u = UtilityTable({"a": F(-1), "b": F(1), "c": F(2), "d": F(0)})
    system = AltSystem.from_pair_ranking(tuple(u.states()), lambda x, y: u[x] * u[y])
    result = check_consistency(system)
    assert not result.passed
    x, y, z = result.witness
    assert system.geq((x, y), (y, y)) != system.geq((x, z), (y, z))
    # Exhaustive oracle: some triple must violate, and the returned witness is
    # the first one in state order.
    first = next(
        (xx, yy, zz)
        for xx, yy, zz in itertools.product(u.states(), repeat=3)
        if system.geq((xx, yy), (yy, yy)) != system.geq((xx, zz), (yy, zz))
    )
    assert (x, y, z) == first


def test_crossover_utility_generated():
    _, system = table_system({"a": 0, "b": 2, "c": 3})
    assert check_crossover(system).passed


def test_crossover_all_states_equivalent():
    _, system = table_system({"a": 1, "b": 1, "c": 1})
    assert check_crossover(system).passed


def test_crossover_witness_absolute_difference():
    # Needs a repeated gap: with values 0, 1, 2 the steps a->b and b->c tie
    # in absolute size, but swapping the inner states breaks the tie.
    u = UtilityTable({"a": F(0), "b": F(1), "c": F(2)})
    system = AltSystem.from_pair_ranking(
        tuple(u.states()), lambda x, y: abs(u[x] - u[y])
    )
    result = check_crossover(system)
    assert not result.passed
    x, y, z, w = result.witness
    assert system.eq((x, y), (z, w)) != system.eq((x, z), (y, w))


@settings(max_examples=30)
@given(st.lists(fractions_st, min_size=2, max_size=6))
def test_axioms_hold_on_any_utility_system(vals):
    states = [f"s{i}" for i in range(len(vals))]
    system = AltSystem.from_utility(UtilityTable(dict(zip(states, vals))))
    assert check_consistency(system).passed
    assert check_crossover(system).passed


def _bumped_late_system():
    """64 states valued 0..63, ranked by differences except [s63, s62], moved to the bottom."""
    states = [f"s{i}" for i in range(64)]
    u = UtilityTable({s: F(i) for i, s in enumerate(states)})
    system = AltSystem.from_pair_ranking(
        states, lambda x, y: F(-100) if (x, y) == ("s63", "s62") else u[x] - u[y]
    )
    return u, system


def _exact_systems_at_30_states():
    rng = random.Random(2)
    states = [f"s{i}" for i in range(30)]
    u = UtilityTable({s: rand_fraction(rng) for s in states})
    ranked = AltSystem.from_pair_ranking(states, lambda x, y: u[x] - u[y])
    return u, (AltSystem.from_utility(u), ranked)


def test_consistency_is_exact_at_scale():
    # 27,000 triples: the ranked system is decided by one sort per column.
    _, systems = _exact_systems_at_30_states()
    for system in systems:
        assert check_consistency(system) == CheckResult(True)
    # Only column s62 moves s63, from the top to the bottom, so the first
    # triple that sees it is (s0, s63, s62).
    _, bumped = _bumped_late_system()
    result = check_consistency(bumped)
    assert not result.passed and result.witness == ("s0", "s63", "s62")
    x, y, z = result.witness
    assert bumped.geq((x, y), (y, y)) != bumped.geq((x, z), (y, z))


def test_crossover_is_exact_at_scale():
    _, systems = _exact_systems_at_30_states()
    for system in systems:
        assert check_crossover(system) == CheckResult(True)
    # [s1, s0] = [s63, s62] on the values but not in the system, while the
    # crossed pairs [s1, s63] and [s0, s62] tie; no quadruple from s0 moves.
    _, bumped = _bumped_late_system()
    result = check_crossover(bumped)
    assert not result.passed and result.witness == ("s1", "s0", "s63", "s62")
    x, y, z, w = result.witness
    assert bumped.eq((x, y), (z, w)) != bumped.eq((x, z), (y, w))


# ---------------------------------------------------------------------------
# Representation


def test_alt_represents_generator_and_affine():
    u, system = table_system({"a": 0, "b": 2, "c": 3})
    assert alt_represents(u, system)
    assert alt_represents(u.affine(F(3), F(1)), system)


def test_alt_represents_rejects_square():
    # u-differences 1 and 1 are equal, but squared differences are 1 and 3.
    u, system = table_system({"a": 0, "b": 1, "c": 2})
    squared = UtilityTable({s: u[s] ** 2 for s in u.states()})
    assert not alt_represents(squared, system)


def test_alt_represents_affine_closure_property():
    rng = random.Random(17)
    for _ in range(10):
        states = [f"s{i}" for i in range(4)]
        u = UtilityTable({s: rand_fraction(rng) for s in states})
        system = AltSystem.from_utility(u)
        alpha = F(rng.randint(1, 7), rng.randint(1, 5))
        beta = rand_fraction(rng)
        assert alt_represents(u.affine(alpha, beta), system)


def test_representation_is_exact_at_scale():
    # 810,000 quadruples, decided by one sort of the 900 pair keys.
    u, systems = _exact_systems_at_30_states()
    for system in systems:
        assert alt_represents(u.affine(F(2), F(-1)), system) == CheckResult(True)
    values, bumped = _bumped_late_system()
    result = alt_represents(values, bumped)
    assert not result.passed and result.witness == ("s0", "s0", "s63", "s62")


def test_a_late_representation_witness_is_found_fast():
    # 16,384 pair keys; the pair scan the witness search replaced took
    # about 35 s to reach this witness, checked once against
    # ``fraction_checks.first_pair``.
    rng = random.Random(2)
    states = [f"s{i}" for i in range(128)]
    u = UtilityTable({s: rand_fraction(rng) for s in states})
    bump = {("s127", "s126"): F(1, 7)}
    system = AltSystem.from_pair_ranking(states, lambda x, y: u[x] - u[y] + bump.get((x, y), 0))
    start = time.perf_counter()
    result = alt_represents(u, system)
    assert time.perf_counter() - start < 2
    assert not result.passed and result.witness == ("s127", "s4", "s127", "s126")


# ---------------------------------------------------------------------------
# Exact checks against the exhaustive loops they replaced

SYSTEM_KINDS = ("table", "product", "absolute", "tied", "bumped")


@st.composite
def systems(draw):
    """A system of 0 to 6 states, of one kind, and a table to test it against."""
    n = draw(st.integers(0, 6))
    states = [f"s{i}" for i in range(n)]
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    u = UtilityTable({s: draw(small) for s in states})
    kind = draw(st.sampled_from(SYSTEM_KINDS))
    if kind == "table":
        system = AltSystem.from_utility(u)
    elif kind == "product":
        system = AltSystem.from_pair_ranking(states, lambda x, y: u[x] * u[y])
    elif kind == "absolute":
        system = AltSystem.from_pair_ranking(states, lambda x, y: abs(u[x] - u[y]))
    elif kind == "tied":
        pairs = itertools.product(states, repeat=2)
        ranks = {pair: draw(st.integers(0, 2)) for pair in pairs}
        system = AltSystem.from_pair_ranking(states, lambda x, y: ranks[x, y])
    else:
        bumped = draw(st.sampled_from(list(itertools.product(states, repeat=2)))) if n else None
        shift = draw(st.sampled_from([F(-1), F(-1, 2), F(1, 3), F(1)]))
        system = AltSystem.from_pair_ranking(
            states, lambda x, y: u[x] - u[y] + (shift if (x, y) == bumped else 0)
        )
    other = UtilityTable({s: draw(small) for s in states})
    target = draw(st.sampled_from([u, u.affine(F(2), F(-1)), other]))
    return system, target


@settings(max_examples=300, deadline=None)
@given(systems())
def test_exact_checks_match_exhaustive_loops(case):
    system, target = case
    assert check_consistency(system) == oracle.check_consistency(system)
    assert check_crossover(system) == oracle.check_crossover(system)
    assert alt_represents(target, system) == oracle.alt_represents(target, system)


# ---------------------------------------------------------------------------
# Standard sequences and reconstruction


def test_standard_sequence_identity_grid():
    u, system = table_system({"a": 0, "b": F(1, 2), "c": 1})
    seq = build_standard_sequence(system, "a", "c", 1)
    assert seq.value_map() == {F(0): "a", F(1, 2): "b", F(1): "c"}
    assert seq.verify_spacing(system)


def test_standard_sequence_extends_beyond_anchors():
    values = {"m": F(-1, 4), "a": F(0), "b": F(1, 4), "c": F(1, 2), "d": F(3, 4), "e": F(1), "f": F(5, 4)}
    _, system = table_system(values)
    seq = build_standard_sequence(system, "a", "e", 2)
    assert seq.value_map()[F(-1, 4)] == "m"
    assert seq.value_map()[F(5, 4)] == "f"
    assert seq.verify_spacing(system)


def test_reconstruct_identity_three_points():
    _, system = table_system({"a": 0, "b": F(1, 2), "c": 1})
    rebuilt = reconstruct_alt_utility(system, "a", "c", 1)
    assert rebuilt.values == {"a": F(0), "b": F(1, 2), "c": F(1)}


def test_reconstruct_on_squares_grid():
    # States are squares of quarters; the generating scale assigns each state
    # its root, so the realized values are the full quarter grid and the
    # reconstruction is exact.  A rescaled generator is recovered up to the
    # exact affine relation.
    states = [str((F(k, 4)) ** 2) for k in range(5)]
    roots = {s: F(k, 4) for k, s in enumerate(states)}
    generator = UtilityTable(roots)
    system = AltSystem.from_utility(generator)
    rebuilt = reconstruct_alt_utility(system, states[0], states[-1], 2)
    assert rebuilt == generator
    scaled = generator.affine(F(3), F(1))
    system_scaled = AltSystem.from_utility(scaled)
    rebuilt_scaled = reconstruct_alt_utility(system_scaled, states[0], states[-1], 2)
    assert affine_relation(rebuilt_scaled, scaled) == (F(3), F(1))


def test_reconstruct_constant_system_errors():
    _, system = table_system({"a": 1, "b": 1})
    with pytest.raises(ValueError, match="strictly better"):
        reconstruct_alt_utility(system, "a", "b", 1)


def test_reconstruct_missing_midpoint_reports_value():
    _, system = table_system({"a": 0, "b": 1})  # no state at 1/2
    with pytest.raises(MissingGridPointError) as err:
        reconstruct_alt_utility(system, "a", "b", 1)
    assert err.value.value == F(1, 2)


def test_reconstruct_missing_interior_point_on_walk():
    # Values 0, 1/4, 1: the 1/2 level is missing although larger values exist.
    _, system = table_system({"a": 0, "b": F(1, 4), "c": 1})
    with pytest.raises(MissingGridPointError):
        reconstruct_alt_utility(system, "a", "c", 2)


def test_reconstruct_nondyadic_values_bracket_floor():
    # 1/3 sits strictly inside (1/4, 1/2); it gets the bracket floor.
    _, system = table_system(
        {"a": 0, "b": F(1, 4), "t": F(1, 3), "c": F(1, 2), "d": F(3, 4), "e": 1}
    )
    rebuilt = reconstruct_alt_utility(system, "a", "e", 2)
    assert rebuilt["t"] == F(1, 4)
    assert rebuilt["b"] == F(1, 4) and rebuilt["c"] == F(1, 2)


def _dyadic_progression_table(rng: random.Random, depth: int):
    """Strictly increasing dyadic-valued generator covering a full progression."""
    start = F(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
    step = F(rng.randint(1, 5), 2 ** rng.randint(0, 4))
    size = 2**depth + 1
    states = [f"g{i}" for i in range(size)]
    return UtilityTable({s: start + k * step for k, s in enumerate(states)}), states


def test_reconstruct_exact_for_normalized_dyadic_generators():
    rng = random.Random(41)
    for _ in range(10):
        depth = rng.randint(1, 5)
        size = 2**depth + 1
        states = [f"g{i}" for i in range(size)]
        table = UtilityTable({s: F(k, 2**depth) for k, s in enumerate(states)})
        system = AltSystem.from_utility(table)
        rebuilt = reconstruct_alt_utility(system, states[0], states[-1], depth)
        assert rebuilt == table


def test_reconstruct_affine_equivalent_for_dyadic_generators():
    rng = random.Random(43)
    for _ in range(10):
        depth = rng.randint(1, 5)
        table, states = _dyadic_progression_table(rng, depth)
        system = AltSystem.from_utility(table)
        rebuilt = reconstruct_alt_utility(system, states[0], states[-1], depth)
        relation = affine_relation(rebuilt, table)
        assert relation is not None and relation[0] > 0
