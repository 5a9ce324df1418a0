"""Difference-map construction, additivity checks, and slope extraction."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bent_component_society, nonadditive_society, product_grid_society
from fraction_checks import component_monotone, components
from utilcheck import (
    DifferenceMapError,
    GridDim,
    Profile,
    Society,
    StateSpace,
    UtilityTable,
    build_difference_map,
    check_axiom_I,
    emit_society,
    extract_slopes,
    harvey_recover,
    linear_combination,
    recover_constant,
    sqrt_fixture,
    verify_component_additivity,
)
from test_core import pareto_loop
from utilcheck import cli, coincidence, core, harsanyi, harvey

F = Fraction


def decode(dm, key):
    """The difference vector whose packed int is ``key``.

    The key's balanced digits are the scaled components: every lower part
    is below R_i / 2 in absolute value (R_i is odd and sum of span_j * R_j
    over j < i is (R_i - 1) / 2), so the digit at R_i is key / R_i rounded
    to the nearest int, taken from the top down.
    """
    digits = []
    for radix in reversed(dm.radices):
        digit, rest = divmod(key, radix)
        if 2 * rest > radix:
            digit += 1
        digits.append(digit)
        key -= digit * radix
    assert key == 0
    return tuple(F(d, s) for d, s in zip(reversed(digits), dm.scales))


def decoded_table(dm):
    """``dm.table`` keyed by Fraction difference vectors, valued by Fractions."""
    return {decode(dm, key): F(value, dm.ethical_scale) for key, value in dm.table.items()}


def on_axes(table):
    """The entries of a Fraction-keyed table whose vector has at most one nonzero component.

    A difference map tabulates only these axis vectors; the pair scan
    tabulates every realized vector.
    """
    return {c: value for c, value in table.items() if sum(map(bool, c)) <= 1}


def fraction_pair_scan(soc):
    """The former Fraction-keyed pair scan, kept as the oracle for the int kernel.

    Returns the table of ethical differences by difference vector and the
    first conflict in state order (the pair and the pair stored for its
    vector), or None; the table is partial after a conflict.
    """
    profile = soc.alt_side()
    states = soc.space.states
    vectors = [tuple(profile.tables[a][s] for a in soc.agents) for s in states]
    ethical = [profile.ethical[s] for s in states]
    table, exemplars = {}, {}
    for x, cx, vx in zip(states, vectors, ethical):
        for y, cy, vy in zip(states, vectors, ethical):
            c, dv = tuple(a - b for a, b in zip(cx, cy)), vx - vy
            stored = table.get(c)
            if stored is None:
                table[c] = dv
                exemplars[c] = (x, y)
            elif stored != dv:
                return table, ((x, y), exemplars[c])
    return table, None


def chain_rule_violation(soc, scan):
    """Exhaustive oracle: the first value-vector triple (a, b, c), in sorted
    order, with F(b - a) + F(c - b) != F(c - a), or None.

    ``scan`` is a full pair scan (``Analysis.pair_scan``): the difference
    map keeps only the axis vectors.  The pipeline runs no such pass: on a
    map that builds, every tabulated value is V(b) - V(a) for a realizing
    pair, so the sum telescopes.  The check stays here to test that
    argument on real societies.
    """
    profile = soc.alt_side()
    vectors = sorted(
        {tuple(profile.tables[a][s] for a in soc.agents) for s in soc.space.states}
    )
    table = decoded_table(scan)
    fetched = [
        [table[tuple(x - y for x, y in zip(b, a))] for a in vectors] for b in vectors
    ]
    for i, j, k in itertools.product(range(len(vectors)), repeat=3):
        if fetched[j][i] + fetched[k][j] != fetched[k][i]:
            return vectors[i], vectors[j], vectors[k]
    return None


def _grid_society(v_fn, y_step=F(1)):
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1)), GridDim("y", F(0), F(1), y_step)]
    )
    u1 = UtilityTable.on_coords(space, lambda x, y: x)
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    v = UtilityTable.on_coords(space, v_fn)
    return Society.from_tables(space, {"a1": u1, "a2": u2}, v)


# ---------------------------------------------------------------------------
# Axiom (I)


def test_axiom_I_planted_affine_passes():
    soc = _grid_society(lambda x, y: 2 * x + 3 * y + 5)
    assert check_axiom_I(soc).passed


def test_axiom_I_square_witness_matches_quadruple_scan():
    soc = _grid_society(lambda x, y: x + y**2, y_step=F(1, 2))
    result = check_axiom_I(soc)
    assert not result.passed
    x, y, z, w = result.witness
    profile = soc.alt_side()
    tables = [profile.tables[a] for a in soc.agents]
    assert all(t[x] - t[y] == t[z] - t[w] for t in tables)
    assert profile.ethical[x] - profile.ethical[y] != profile.ethical[z] - profile.ethical[w]
    # Exhaustive quadruple oracle agrees that a witness exists.
    found = any(
        all(t[a] - t[b] == t[c] - t[d] for t in tables)
        and profile.ethical[a] - profile.ethical[b] != profile.ethical[c] - profile.ethical[d]
        for a, b, c, d in itertools.product(soc.space.states, repeat=4)
    )
    assert found


def test_axiom_I_single_effective_agent():
    # The one-individual reading: the co-agent is everywhere indifferent.
    space = StateSpace.product_grid([GridDim("x", F(0), F(1), F(1, 2))])
    u1 = UtilityTable.on_coords(space, lambda x: x)
    u2 = UtilityTable.on_coords(space, lambda x: F(0))
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, u1)
    assert check_axiom_I(soc).passed


# ---------------------------------------------------------------------------
# Int kernel against the Fraction pair scan

_values = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def _scan_societies(draw):
    """2-4 agents over a product of short axes, some points dropped.

    Axes may repeat a value (states that share a value vector) or have one
    value (a constant agent); the ethical table is a sum of per-axis parts,
    which builds on a full product, plus optional noise, which conflicts.
    """
    axes = draw(st.lists(st.lists(_values, min_size=1, max_size=3), min_size=2, max_size=4))
    points = list(itertools.product(*(range(len(a)) for a in axes)))
    if not draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
        points = [p for p, k in zip(points, keep) if k] or points[:1]
    parts = [draw(st.lists(_values, min_size=len(a), max_size=len(a))) for a in axes]
    noisy = draw(st.booleans())
    noise = draw(
        st.lists(st.sampled_from([F(0), F(0), F(1, 3), F(-2)]), min_size=len(points), max_size=len(points))
    )
    states = [",".join(map(str, p)) for p in points]
    tables = {
        f"a{i}": UtilityTable({s: axis[p[i]] for s, p in zip(states, points)})
        for i, axis in enumerate(axes)
    }
    ethical = UtilityTable(
        {
            s: sum((part[p[i]] for i, part in enumerate(parts)), e if noisy else F(0))
            for s, p, e in zip(states, points, noise)
        }
    )
    return Society.from_tables(StateSpace.explicit(states), tables, ethical)


@settings(max_examples=150, deadline=None)
@given(_scan_societies())
def test_int_kernel_equals_fraction_pair_scan(soc):
    scan = harvey.Analysis(soc).pair_scan
    table, conflict = fraction_pair_scan(soc)
    assert scan.conflict == conflict
    result = check_axiom_I(soc)
    assert result.witness == (None if conflict is None else conflict[0] + conflict[1])
    if conflict is not None:
        return
    assert len(scan.table) == len(table)
    assert decoded_table(scan) == table
    try:
        dm = build_difference_map(soc)
    except ValueError:
        return
    decoded = decoded_table(dm)
    assert decoded == on_axes(decoded_table(scan))
    for i, grid in enumerate(dm.diff_grids):
        axis = [tuple(c if j == i else F(0) for j in range(len(soc.agents))) for c in grid]
        assert {v[i]: decoded[v] for v in axis} == {v[i]: table[v] for v in axis}


def test_packed_keys_decode_at_the_span_edges():
    # Scaled tables: a1 in {0, 3} (span 3), a2 = 2 * {-1/2, 1} in {-1, 2}
    # (span 3), a3 constant (span 0); radices 1, 7, 49, 49.
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1)), GridDim("y", F(0), F(1), F(1))]
    )
    u1 = UtilityTable.on_coords(space, lambda x, y: 3 * x)
    u2 = UtilityTable.on_coords(space, lambda x, y: F(3, 2) * y - F(1, 2))
    u3 = UtilityTable.on_coords(space, lambda x, y: F(5))
    v = linear_combination([u1, u2], [1, 2])
    soc = Society.from_tables(space, {"a1": u1, "a2": u2, "a3": u3}, v)
    scan = harvey.Analysis(soc).pair_scan
    assert (scan.scales, scan.radices, scan.ethical_scale) == ((1, 2, 1), (1, 7, 49), 1)
    table, _ = fraction_pair_scan(soc)
    assert decoded_table(scan) == table
    assert decoded_table(build_difference_map(soc)) == on_axes(table)
    edges = {(s1 * F(3), s2 * F(3, 2), F(0)) for s1 in (-1, 1) for s2 in (-1, 1)}
    assert edges <= set(table)
    for vector in edges:
        key = sum(int(c * s) * r for c, s, r in zip(vector, scan.scales, scan.radices))
        assert decode(scan, key) == vector
        assert abs(key) in (3 + 3 * 7, 3 * 7 - 3)


# ---------------------------------------------------------------------------
# Difference map


def test_difference_map_sum():
    soc = _grid_society(lambda x, y: x + y)
    dm = build_difference_map(soc)
    for c, value in decoded_table(dm).items():
        assert value == c[0] + c[1]


def test_difference_map_planted_constant_cancels():
    soc = _grid_society(lambda x, y: 2 * x + 3 * y + 5)
    dm = build_difference_map(soc)
    for c, value in decoded_table(dm).items():
        assert value == 2 * c[0] + 3 * c[1]


def test_difference_map_product_conflict():
    soc = _grid_society(lambda x, y: x * y)
    with pytest.raises(DifferenceMapError) as err:
        build_difference_map(soc)
    (x, y), (z, w) = err.value.conflict
    profile = soc.alt_side()
    tables = [profile.tables[a] for a in soc.agents]
    assert all(t[x] - t[y] == t[z] - t[w] for t in tables)
    assert profile.ethical[x] - profile.ethical[y] != profile.ethical[z] - profile.ethical[w]


def test_difference_map_requires_semi_separability():
    space = StateSpace.explicit(["s0", "s1", "s2"])
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2)})
    u2 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(4)})
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, linear_combination([u1, u2], [1, 1]))
    with pytest.raises(ValueError, match="semi-separable"):
        build_difference_map(soc)


def test_difference_map_zero_and_symmetry_invariants():
    rng = random.Random(61)
    soc, _, _ = product_grid_society(rng, 2)
    dm = build_difference_map(soc)
    n, decoded = len(soc.agents), decoded_table(dm)
    assert decoded[tuple([F(0)] * n)] == 0
    for i in range(n):
        grid = dm.diff_grids[i]
        assert list(grid) == sorted(grid)
        assert all(-c in grid for c in grid)
        axis = {v[i]: value for v, value in decoded.items() if not any(v[:i] + v[i + 1 :])}
        assert sorted(axis) == list(grid) and axis[F(0)] == 0


# ---------------------------------------------------------------------------
# Chain rule and additivity


def test_chain_rule_additive_passes():
    soc = _grid_society(lambda x, y: 2 * x + 3 * y)
    build_difference_map(soc)
    assert chain_rule_violation(soc, harvey.Analysis(soc).pair_scan) is None


def test_chain_rule_detects_corruption():
    # The oracle is not vacuous: a corrupted table fails it.
    soc = _grid_society(lambda x, y: x + y)
    scan = harvey.Analysis(soc).pair_scan
    bumped = dict(scan.table)
    key = next(c for c in bumped if c)
    bumped[key] += 1
    corrupted = core.replace(scan, table=bumped)
    assert chain_rule_violation(soc, corrupted) is not None


def test_chain_rule_random_planted_cross_checked():
    rng = random.Random(67)
    for n in (2, 2, 2, 3, 3):
        soc, _, _ = product_grid_society(rng, n)
        build_difference_map(soc)
        scan = harvey.Analysis(soc).pair_scan
        assert chain_rule_violation(soc, scan) is None
        # Direct ethical-difference oracle: F composed with the difference
        # vector must reproduce v(x) - v(y) on every pair.
        profile = soc.alt_side()
        tables = [profile.tables[a] for a in soc.agents]
        table = decoded_table(scan)
        for x in soc.space.states:
            for y in soc.space.states:
                c = tuple(t[x] - t[y] for t in tables)
                assert table[c] == profile.ethical[x] - profile.ethical[y]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=2, max_size=3),
        min_size=2,
        max_size=3,
    ),
    st.data(),
)
def test_chain_rule_holds_on_every_built_random_map(axes, data):
    # Agent i values coordinate i by axes[i] (ties allowed); the ethical
    # table is an arbitrary function of the state, possibly additive.
    points = list(itertools.product(*(range(len(a)) for a in axes)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    points = [p for p, k in zip(points, keep) if k] or points[:1]
    states = [",".join(map(str, p)) for p in points]
    additive = data.draw(st.booleans())
    parts = [data.draw(st.lists(st.integers(-6, 6), min_size=len(a), max_size=len(a))) for a in axes]
    noise = data.draw(st.lists(st.integers(-2, 2), min_size=len(points), max_size=len(points)))
    tables = {
        f"a{i}": UtilityTable({s: F(axis[p[i]]) for s, p in zip(states, points)})
        for i, axis in enumerate(axes)
    }
    ethical = UtilityTable(
        {
            s: F(sum(part[p[i]] for i, part in enumerate(parts)) + (0 if additive else e))
            for s, p, e in zip(states, points, noise)
        }
    )
    soc = Society.from_tables(StateSpace.explicit(states), tables, ethical)
    try:
        build_difference_map(soc)
    except ValueError:
        return
    assert chain_rule_violation(soc, harvey.Analysis(soc).pair_scan) is None


def test_component_additivity_and_negation():
    soc = _grid_society(lambda x, y: 2 * x + 3 * y, y_step=F(1, 2))
    dm = build_difference_map(soc)
    for i in range(2):
        assert verify_component_additivity(dm, i).passed
        comp = components(dm)[i]
        assert all(comp[-c] == -comp[c] for c in dm.diff_grids[i])


def test_component_additivity_detects_corruption():
    # Bump F_2(1/2) and F_2(-1/2) off F_2(1) / 2 in the table itself,
    # keeping F_2 odd, so the check of sums on the grid is what fails.
    soc = _grid_society(lambda x, y: x + y, y_step=F(1, 2))
    dm = build_difference_map(soc)
    assert dm.scales[1] == 2
    bumped = dict(dm.table)
    bumped[dm.radices[1]] += 1
    bumped[-dm.radices[1]] -= 1
    corrupted = core.replace(dm, table=bumped)
    assert components(corrupted)[1][F(1, 2)] == F(1)
    result = verify_component_additivity(corrupted, 1)
    assert not result.passed
    assert result.witness == (F(-1), F(1, 2))
    assert corrupted.bends[1] == -2 and dm.bends[1] is None


# ---------------------------------------------------------------------------
# Slopes and constant


def test_extract_slopes_planted():
    soc = _grid_society(lambda x, y: 2 * x + 3 * y + 5)
    dm = build_difference_map(soc)
    report = extract_slopes(dm)
    assert report.slopes == (F(2), F(3))
    assert report.constant_agents == ()


def test_extract_slopes_sum():
    soc = _grid_society(lambda x, y: x + y)
    report = extract_slopes(build_difference_map(soc))
    assert report.slopes == (F(1), F(1))


def test_extract_slopes_dyadic_scaling_claim():
    # Slope constancy is the finite form of scaling by dyadic multiples:
    # every grid value is an exact multiple of the smallest step.
    soc = _grid_society(lambda x, y: 2 * x + 7 * y, y_step=F(1, 4))
    dm = build_difference_map(soc)
    report = extract_slopes(dm)
    for i, comp in enumerate(components(dm)):
        grid = dm.diff_grids[i]
        h = min(c for c in grid if c > 0)
        for c in grid:
            ratio = c / h
            assert comp[c] == ratio * comp[h]
    assert report.slopes == (F(2), F(7))


def test_extract_slopes_constant_agent_convention():
    space = StateSpace.product_grid([GridDim("x", F(0), F(1), F(1, 2))])
    u1 = UtilityTable.on_coords(space, lambda x: x)
    u2 = UtilityTable.on_coords(space, lambda x: F(4))
    v = linear_combination([u1], [F(2)], F(1))
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, v)
    dm = build_difference_map(soc)
    report = extract_slopes(dm)
    assert report.slopes == (F(2), F(1))
    assert report.constant_agents == ("a2",)
    b = recover_constant(soc, report.slopes)
    assert linear_combination([u1, u2], report.slopes, b) == v


def test_extract_slopes_nonlinear_component_errors():
    dm = build_difference_map(bent_component_society())
    assert verify_component_additivity(dm, 0).passed
    assert dm.bends == (-5, None)
    with pytest.raises(ValueError) as err:
        extract_slopes(dm)
    assert str(err.value) == "component 'a1' is not linear at -5: -4 != -5"


def test_extract_slopes_nonpositive_errors():
    soc = _grid_society(lambda x, y: -x - y)
    dm = build_difference_map(soc)
    with pytest.raises(ValueError, match="not positive"):
        extract_slopes(dm)


def test_recover_constant_planted_values():
    for b in (F(5), F(0), F(-7, 3)):
        soc = _grid_society(lambda x, y, b=b: 2 * x + 3 * y + b)
        dm = build_difference_map(soc)
        report = extract_slopes(dm)
        assert recover_constant(soc, report.slopes) == b


def test_recover_constant_random_residual_zero():
    rng = random.Random(71)
    for _ in range(5):
        soc, weights, constant = product_grid_society(rng, 2)
        report = harvey_recover(soc)
        assert report.success
        combo = linear_combination(
            [soc.alt_side().tables[a] for a in soc.agents], report.weights, report.constant
        )
        assert combo == soc.alt_side().ethical


def test_coincide_scales_a_base_only_profile_once(tmp_path, monkeypatch, capsys):
    # With neither an nm_profile nor an alt_profile both sides read the base
    # tables, and neither scales rows: the base profile's certificate, read
    # off single-agent neighbours, gives the lottery side its weights, and
    # the intensity side's constant is re-checked on the columns its
    # difference map was built from.
    soc = product_grid_society(random.Random(3), 2, sizes=(2, 2))[0]
    path = tmp_path / "grid.json"
    path.write_text(emit_society(soc), encoding="utf-8")
    calls = []
    real = harsanyi.scale_rows

    def counted(columns):
        calls.append(len(columns[0][0]))
        return real(columns)

    monkeypatch.setattr(harsanyi, "scale_rows", counted)
    assert cli.main(["coincide", str(path), "--json"]) == 0
    assert '"status": "coincide"' in capsys.readouterr().out
    assert calls == []
    assert harvey_recover(soc).success
    assert calls == []


# ---------------------------------------------------------------------------
# End-to-end pipeline


def test_harvey_recover_planted_end_to_end():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.choice([2, 3])
        soc, weights, constant = product_grid_society(rng, n)
        report = harvey_recover(soc)
        assert report.success
        assert report.weights == weights
        assert report.constant == constant
        assert report.constant_agents == ()


def test_harvey_recover_reports_axiom_failure():
    soc = _grid_society(lambda x, y: x * y)
    report = harvey_recover(soc)
    assert not report.success
    assert report.failed_stage == "axiom-I"


def test_harvey_recover_nonlinear_component_reports_additivity():
    # u1 takes the values 0, 1, 3, so every difference is realized by one
    # pair and the map builds for any ethical part f of the first coordinate;
    # f = (0, 1, 4) gives F_1 = 1, 3, 4 at 1, 2, 3, so F_1(-2) + F_1(1) != F_1(-1).
    space = StateSpace.product_grid(
        [GridDim("x", F(0), F(1), F(1, 2)), GridDim("y", F(0), F(1), F(1))]
    )
    f = {F(0): F(0), F(1, 2): F(1), F(1): F(4)}
    u1 = UtilityTable.on_coords(space, lambda x, y: {F(0): F(0), F(1, 2): F(1), F(1): F(3)}[x])
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    v = UtilityTable.on_coords(space, lambda x, y: f[x] + 2 * y)
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, v)
    report = harvey_recover(soc)
    assert report.failed_stage == "additivity:a1"
    expected = verify_component_additivity(build_difference_map(soc), 0)
    assert not expected.passed
    assert report.witness == expected.witness == (F(-2), F(1))


def test_harvey_recover_additive_nonlinear_component_reports_slopes():
    report = harvey_recover(bent_component_society())
    assert not report.success
    assert report.failed_stage == "slopes"
    assert report.witness == "component 'a1' is not linear at -5: -4 != -5"


def test_passing_harvey_recover_decodes_no_fractions(monkeypatch):
    # The Fraction grids are a cached property: once read, they are in the
    # map's instance dict.
    built = []
    real = harvey.build_difference_map
    monkeypatch.setattr(
        harvey, "build_difference_map", lambda *args: built.append(real(*args)) or built[-1]
    )
    rng = random.Random(83)
    societies = [product_grid_society(rng, n)[0] for n in (2, 3)]
    for soc in societies + [sqrt_fixture(6, F(1, 2)).society]:
        assert harvey_recover(soc).success
    # A failing additivity check decodes only its witness.
    report = harvey_recover(nonadditive_society())
    assert report.failed_stage == "additivity:a1" and report.witness == (F(-4), F(2))
    assert len(built) == 4
    for dm in built:
        assert "bends" in vars(dm)
        assert "diff_grids" not in vars(dm)


def test_harvey_recover_linear_components_skip_additivity_scan(monkeypatch):
    calls = []
    real = harvey.verify_component_additivity
    monkeypatch.setattr(
        harvey, "verify_component_additivity", lambda dm, i: calls.append(i) or real(dm, i)
    )
    soc, weights, _ = product_grid_society(random.Random(89), 3)
    report = harvey_recover(soc)
    assert report.success and report.weights == weights
    assert calls == []


def test_harvey_recover_reports_semi_separability():
    space = StateSpace.explicit(["s0", "s1", "s2"])
    u1 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(2)})
    u2 = UtilityTable({"s0": F(0), "s1": F(1), "s2": F(4)})
    soc = Society.from_tables(space, {"a1": u1, "a2": u2}, linear_combination([u1, u2], [1, 1]))
    report = harvey_recover(soc)
    assert not report.success
    assert report.failed_stage == "semi-separability"


def test_component_monotonicity_under_dominance():
    rng = random.Random(79)
    for _ in range(5):
        soc, _, _ = product_grid_society(rng, 2)
        dm = build_difference_map(soc)
        for i in range(2):
            assert component_monotone(dm, i)


# ---------------------------------------------------------------------------
# The linear certificate against the scan path


class ScanOnly(harvey.Analysis):
    """An ``Analysis`` with no certificate: every intensity-side answer reads the pair scan."""

    def certificate_of(self, profile):
        return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def certificate_societies(draw):
    """Societies on which the certificate may or may not stand in for the scan.

    2-4 agents with 1-3 levels each (one level is a constant agent), on a
    full product of the levels, a holed one, or a line where every agent
    moves with one parameter (not semi-separable).  The last agent may
    duplicate the first.  The ethical table is linear with weights of every
    sign, or has a bent additive component (a0 in {0, 2, 5} weighted
    (0, 2, 4)), a nonadditive one (a0 in {0, 1, 3, 4} weighted
    (0, 1, 5, 6)), a cubed component, a product term or one noisy state.  The
    drawn profile may be a separate ``alt_profile``, next to base tables
    that are affine images of it with the same or a cubed ethical table.
    """
    n = draw(st.integers(2, 4))
    kind = draw(
        st.sampled_from(["linear", "linear", "bent", "nonadditive", "cubed", "product", "noisy"])
    )
    levels = [draw(st.integers(1, 3)) for _ in range(n)]
    values = [draw(st.lists(_values, min_size=k, max_size=k, unique=True)) for k in levels]
    bends = {"bent": (0, 2, 5, 0, 2, 4), "nonadditive": (0, 1, 3, 4, 0, 1, 5, 6)}.get(kind)
    if bends is not None:
        k = len(bends) // 2
        levels[0], values[0] = k, [F(c) for c in bends[:k]]
        component = {F(c): F(f) for c, f in zip(bends[:k], bends[k:])}
    shape = draw(st.sampled_from(["product", "holed", "line"]))
    if shape == "line":
        points = [tuple(min(t, k - 1) for k in levels) for t in range(max(levels))]
    else:
        points = list(itertools.product(*(range(k) for k in levels)))
    if shape == "holed":
        keep = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
        points = [p for p, k in zip(points, keep) if k] or points[:1]
    if n > 2 and draw(st.booleans()):
        levels[-1], values[-1] = levels[0], values[0]
        points = list(dict.fromkeys(p[:-1] + (p[0],) for p in points))
    weights = [draw(st.sampled_from([F(-2), F(-1), F(0), F(1, 2), F(1), F(3)])) for _ in range(n)]
    constant = draw(_values)
    noisy = draw(st.integers(0, len(points) - 1))

    def ethical_at(j, vector):
        terms = list(vector)
        if bends is not None:
            terms[0] = component[terms[0]]
        elif kind == "cubed":
            terms[0] = terms[0] ** 3
        value = sum((w * t for w, t in zip(weights, terms)), constant)
        if kind == "product":
            value += vector[0] * vector[1]
        return value + (kind == "noisy" and j == noisy)

    states = [",".join(map(str, p)) for p in points]
    vectors = [tuple(values[i][k] for i, k in enumerate(p)) for p in points]
    tables = {
        f"a{i}": UtilityTable({s: v[i] for s, v in zip(states, vectors)}) for i in range(n)
    }
    ethical = UtilityTable({s: ethical_at(j, v) for j, (s, v) in enumerate(zip(states, vectors))})
    space = StateSpace.explicit(states)
    if not draw(st.booleans()):
        return Society.from_tables(space, tables, ethical)
    base_tables = {a: t.affine(F(2), F(-1)) for a, t in tables.items()}
    base_ethical = draw(
        st.sampled_from([ethical, UtilityTable({s: v**3 for s, v in ethical.values.items()})])
    )
    return Society(
        space, tuple(tables), Profile(base_tables, base_ethical), alt=Profile(tables, ethical)
    )


@settings(max_examples=400, deadline=None)
@given(certificate_societies())
def test_certificate_path_equals_the_scan(soc):
    analysis, scan_only = harvey.Analysis(soc), ScanOnly(soc)
    assert check_axiom_I(soc, analysis) == check_axiom_I(soc, scan_only)
    built = _outcome(build_difference_map, soc, analysis)
    assert built == _outcome(build_difference_map, soc, scan_only)
    assert harvey_recover(soc, analysis) == harvey_recover(soc, scan_only)
    if analysis.certificate_of(soc.alt_side()) is not None:
        assert scan_only.pair_scan.conflict is None
    elif isinstance(built, harvey.DifferenceMap):
        # Complete: a semi-separable society whose components are all
        # linear has a linear ethical table, which the certificate finds.
        assert any(bend is not None for bend in built.bends)
    # The pareto record, certified or not, is the former dominance loop's.
    loop = pareto_loop(soc)
    record = coincidence._pareto_record(soc, analysis)
    detail = "" if loop else f"witness pair {loop.witness}"
    assert (record.passed, record.detail) == (loop.passed, detail)
