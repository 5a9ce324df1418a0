"""Positive affine relations between utility tables."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import letters_space, rand_fraction
from utilcheck import UtilityTable, affine_relation

F = Fraction

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=20)


# ---------------------------------------------------------------------------
# Affine relation


def test_affine_relation_identity():
    u = UtilityTable({"a": F(1), "b": F(2)})
    assert affine_relation(u, u) == (F(1), F(0))


def test_affine_relation_scale_shift():
    u = UtilityTable({"a": F(1), "b": F(2), "c": F(-3)})
    w = u.affine(F(2), F(3))
    assert affine_relation(u, w) == (F(2), F(3))


def test_affine_relation_square_is_none():
    u = UtilityTable({"a": F(0), "b": F(1, 2), "c": F(1)})
    w = UtilityTable({s: u[s] ** 2 for s in u.states()})
    assert affine_relation(u, w) is None  # 1/4 != 1/2 at the midpoint


def test_affine_relation_negative_slope_is_none():
    u = UtilityTable({"a": F(0), "b": F(1)})
    assert affine_relation(u, u.affine(F(-2), F(0))) is None


def test_affine_relation_constant_cases():
    c1 = UtilityTable({"a": F(3), "b": F(3)})
    c2 = UtilityTable({"a": F(5), "b": F(5)})
    varying = UtilityTable({"a": F(0), "b": F(1)})
    assert affine_relation(c1, c2) == (F(1), F(2))
    assert affine_relation(c1, varying) is None


def test_affine_relation_domain_mismatch():
    with pytest.raises(ValueError):
        affine_relation(UtilityTable({"a": F(0)}), UtilityTable({"b": F(0)}))


@given(
    st.lists(fractions_st, min_size=4, max_size=4, unique=True),
    st.fractions(min_value="1/20", max_value=20, max_denominator=20),
    fractions_st,
)
def test_affine_relation_roundtrip(vals, alpha, beta):
    # Nonconstant tables: constant ones fall under the (1, shift) convention.
    states = ["a", "b", "c", "d"]
    u = UtilityTable(dict(zip(states, vals)))
    w = u.affine(alpha, beta)
    assert affine_relation(u, w) == (alpha, beta)


@given(
    st.lists(fractions_st, min_size=4, max_size=4, unique=True),
    st.fractions(min_value="1/20", max_value=20, max_denominator=20),
    fractions_st,
)
def test_affine_relation_inverse_consistency(vals, alpha, beta):
    states = ["a", "b", "c", "d"]
    u = UtilityTable(dict(zip(states, vals)))
    w = u.affine(alpha, beta)
    assert affine_relation(w, u) == (1 / alpha, -beta / alpha)


def test_affine_relation_finds_random_positive_maps():
    rng = random.Random(31)
    space = letters_space(4)
    for _ in range(10):
        u = UtilityTable({s: rand_fraction(rng) for s in space.states})
        w = u.affine(F(rng.randint(1, 9)), rand_fraction(rng))
        assert affine_relation(u, w) is not None
