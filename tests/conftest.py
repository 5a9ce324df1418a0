"""Shared generators for randomized exact-arithmetic tests.

Everything is seeded; no test depends on global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from utilcheck import GridDim, Profile, Society, StateSpace, UtilityTable, linear_combination
from utilcheck import core, linalg
from utilcheck.harsanyi import _solution
from utilcheck.rationals import scale_to_ints


def rand_fraction(rng: random.Random, num: int = 100, den: int = 100) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_positive_fraction(rng: random.Random, num: int = 100, den: int = 100) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def rand_table(rng: random.Random, states, num: int = 100, den: int = 100) -> UtilityTable:
    return UtilityTable({s: rand_fraction(rng, num, den) for s in states})


def express_in_span(f0, fs) -> tuple[Fraction, ...] | None:
    """Coefficients a with f0 = sum(a_i * f_i), or None if f0 is outside the span.

    Vectors are sampled values of functionals on a common finite domain.
    Underdetermined systems return the solution with free coefficients 0.
    It runs the package's kernel: ``linalg.reduce_rows`` on the rows scaled
    to ints, read back by ``harsanyi._solution``.
    """
    fs = [list(map(Fraction, f)) for f in fs]
    if not fs:
        raise ValueError("need at least one spanning vector")
    f0 = list(map(Fraction, f0))
    if any(len(f) != len(f0) for f in fs):
        raise ValueError("all vectors must share a dimension")
    rows = (scale_to_ints(row)[1] for row in zip(*fs, f0))
    sol = _solution(linalg.reduce_rows(rows), len(fs))
    return tuple(sol) if sol is not None else None


@pytest.fixture
def reduce_rows_calls(monkeypatch) -> list:
    """The rows of every ``linalg.reduce_rows`` call the test makes, in call order."""
    calls = []
    real = linalg.reduce_rows
    monkeypatch.setattr(linalg, "reduce_rows", lambda rows: calls.append(rows) or real(rows))
    return calls


def letters_space(n: int) -> StateSpace:
    return StateSpace.explicit([f"s{i}" for i in range(n)])


def primes(n: int) -> list[int]:
    """The first n primes, for tables with a distinct prime under every value."""
    found: list[int] = []
    candidate = 2
    while len(found) < n:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def planted_society(
    rng: random.Random,
    n_agents: int,
    n_states: int,
    *,
    weights=None,
    constant=None,
    ensure_single_agent_pairs: bool = False,
) -> tuple[Society, tuple[Fraction, ...], Fraction]:
    """Society with ethical = sum(weights * tables) + constant, profile independent.

    With ``ensure_single_agent_pairs`` each agent gets a pair of states where
    only that agent's value moves, which makes the state-level dominance
    criterion decisive for weight signs.
    """
    from gauss_jordan import rank

    space = letters_space(n_states)
    while True:
        tables = {f"a{i}": rand_table(rng, space.states) for i in range(n_agents)}
        if ensure_single_agent_pairs:
            values = {name: dict(t.values) for name, t in tables.items()}
            names = list(values)
            for i, name in enumerate(names):
                lo, hi = f"s{2 * i}", f"s{2 * i + 1}"
                for other in names:
                    if other != name:
                        values[other][hi] = values[other][lo]
                if values[name][hi] == values[name][lo]:
                    values[name][hi] = values[name][lo] + 1
            tables = {name: UtilityTable(vals) for name, vals in values.items()}
        rows = [[Fraction(1)] * n_states]
        rows += [[t[s] for s in space.states] for t in tables.values()]
        if rank(rows) == n_agents + 1:
            break
    if weights is None:
        weights = tuple(rand_positive_fraction(rng) for _ in range(n_agents))
    if constant is None:
        constant = rand_fraction(rng)
    ethical = linear_combination(list(tables.values()), weights, constant)
    return Society.from_tables(space, tables, ethical), tuple(weights), Fraction(constant)


def product_grid_society(
    rng: random.Random,
    n_agents: int,
    *,
    sizes=None,
    weights=None,
    constant=None,
) -> tuple[Society, tuple[Fraction, ...], Fraction]:
    """Separable society on a dyadic product grid with a planted ethical sum.

    Each agent's table depends only on its own coordinate and is injective
    on that coordinate, so the society is semi-separable by construction.
    """
    if sizes is None:
        sizes = [rng.choice([1, 1, 2]) for _ in range(n_agents)]  # depth per dim
    dims = [
        GridDim(name=f"x{i}", lo=Fraction(0), hi=Fraction(1), step=Fraction(1, 2**m))
        for i, m in enumerate(sizes)
    ]
    space = StateSpace.product_grid(dims)
    tables = {}
    for i in range(n_agents):
        points = dims[i].points()
        while True:
            per_value = {p: rand_fraction(rng) for p in points}
            if len(set(per_value.values())) == len(points):
                break
        tables[f"a{i}"] = UtilityTable(
            {s: per_value[space.coords(s)[i]] for s in space.states}
        )
    if weights is None:
        weights = tuple(rand_positive_fraction(rng) for _ in range(n_agents))
    if constant is None:
        constant = rand_fraction(rng)
    ethical = linear_combination(list(tables.values()), weights, constant)
    return Society.from_tables(space, tables, ethical), tuple(weights), Fraction(constant)

def planted_coincidence_society(
    rng: random.Random, n_agents: int, *, distort_agent: int | None = None, sizes=None
):
    """Society whose two profiles are planted affine images agent by agent.

    The intensity side carries (u_i, v = sum a_i u_i + b); the lottery side
    carries u*_i = alpha_i u_i + beta_i with weights a*_i = a_i / alpha_i, so
    both ethical tables order states identically.  With ``distort_agent``
    that agent's starred table is cubed after a positive shift, a monotone
    but never-affine distortion (its value grid has at least three points).

    Returns (society, alphas, betas).
    """
    soc, weights, _ = product_grid_society(rng, n_agents, sizes=sizes)
    alphas = [rand_positive_fraction(rng, 9, 5) for _ in range(n_agents)]
    betas = [rand_fraction(rng, 9, 5) for _ in range(n_agents)]
    star_tables = {}
    star_weights = []
    for i, name in enumerate(soc.agents):
        base = soc.base.tables[name]
        if i == distort_agent:
            low = min(base.values.values())
            star_tables[name] = UtilityTable(
                {s: (v - low + 1) ** 3 for s, v in base.values.items()}
            )
            star_weights.append(Fraction(1))
            alphas[i] = betas[i] = None
        else:
            star_tables[name] = base.affine(alphas[i], betas[i])
            star_weights.append(weights[i] / alphas[i])
    star_ethical = linear_combination(
        [star_tables[a] for a in soc.agents], star_weights, rand_fraction(rng)
    )
    society = Society(
        space=soc.space,
        agents=soc.agents,
        base=soc.base,
        nm=Profile(star_tables, star_ethical),
        alt=None,
        metadata={},
    )
    return society, tuple(alphas), tuple(betas)


def affine_grid_society() -> Society:
    """``fixtures/affine_grid.json``: a planted coincidence on a 3 x 3 x 5 grid.

    Every hypothesis holds and every agent coincides, each with alpha != 1
    and beta != 0, so the lottery-side weights differ from the
    intensity-side ones.
    """
    soc, _, _ = planted_coincidence_society(random.Random(0), 3, sizes=(1, 1, 2))
    return core.replace(soc, metadata={"title": "affine-grid: planted coincidence, seed 0"})


def bent_component_society() -> Society:
    """u1 in {0, 2, 5}, u2 in {0, 1}, v = f(u1) + 3 * u2 with f = (0, 2, 4).

    No two pairs of u1 values share a difference, so axiom (I) holds; F_1
    is 2, 2, 4 at 2, 3, 5, which is additive (every sum that stays on the
    grid rearranges 2 + 3 = 5) but not linear: the slope at 2 is 1 and
    F_1(-5) = -4.
    """
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    space = StateSpace.product_grid([GridDim("x", zero, one, half), GridDim("y", zero, one, one)])
    levels = {zero: (0, 0), half: (2, 2), one: (5, 4)}
    u1 = UtilityTable.on_coords(space, lambda x, y: Fraction(levels[x][0]))
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    v = UtilityTable.on_coords(space, lambda x, y: levels[x][1] + 3 * y)
    return Society.from_tables(space, {"a1": u1, "a2": u2}, v)


def nonadditive_society() -> Society:
    """u1 in {0, 1, 3, 4}, u2 in {0, 1}, v = f(u1) + 3 * u2 with f = (0, 1, 5, 6).

    ``fixtures/nonadditive.json`` is this society.  Every difference of u1
    values that repeats (1 and 3) repeats with one f difference, so axiom
    (I) holds; F_1 is 1, 4, 5, 6 at 1, 2, 3, 4, so F_1(1) + F_1(1) = 2 but
    F_1(2) = 4, and the first failing sum on the grid is F_1(-4) + F_1(2).
    """
    levels = ((0, 0), (1, 1), (3, 5), (4, 6))
    states = [f"{a},{b}" for a, _ in levels for b in (0, 1)]
    u1 = UtilityTable({f"{a},{b}": Fraction(a) for a, _ in levels for b in (0, 1)})
    u2 = UtilityTable({f"{a},{b}": Fraction(b) for a, _ in levels for b in (0, 1)})
    v = UtilityTable({f"{a},{b}": Fraction(f + 3 * b) for a, f in levels for b in (0, 1)})
    return Society.from_tables(
        StateSpace.explicit(states),
        {"a1": u1, "a2": u2},
        v,
        metadata={"title": "nonadditive: f = (0, 1, 5, 6) on u1 in {0, 1, 3, 4}"},
    )


def negative_weight_society() -> Society:
    """``fixtures/negative_weight.json``: a 3 x 3 grid whose ethical sum weighs a0 by -1.

    Every hypothesis but the Pareto criterion holds: a move that raises a0's
    value alone dominates and lowers the ethical value.  The intensity-side
    recovery fails at its slopes, so no certificate stands in for the
    dominance loop, which names the first dominated pair.
    """
    soc, _, _ = product_grid_society(
        random.Random(0), 2, sizes=(1, 1), weights=(Fraction(-1), Fraction(3, 2)),
        constant=Fraction(1, 2),
    )
    return core.replace(soc, metadata={"title": "negative-weight: a0 weighted -1, seed 0"})


def cube_society() -> Society:
    """A 3-agent, 45-state product grid whose ethical table is the cube of a planted sum.

    Semi-separable, and Pareto holds (the cube is increasing).  The ethical
    table is not linear in the agents' tables, so there is no linear
    certificate: the bitset pass decides Pareto, and axiom (i) and
    axiom (I) fail.
    """
    soc, _, _ = product_grid_society(random.Random(7), 3, sizes=(1, 1, 2))
    ethical = UtilityTable({s: v**3 for s, v in soc.base.ethical.values.items()})
    return Society.from_tables(soc.space, soc.base.tables, ethical, metadata={"title": "cube"})


def capped_sum_society() -> Society:
    """``fixtures/capped_sum.json``: v = min(u1 + u2, 3/2) on the 3 x 3 grid {0, 1/2, 1}^2.

    u1 and u2 are the coordinates, so the tables fill the product of their
    classes (semi-separable), and the cap makes the ethical table nonlinear
    in them.  It fails the Pareto criterion only at the last state: "1,1"
    dominates "1/2,1" and "1,1/2", and all three are capped at 3/2.  Every
    earlier dominated pair is ranked strictly, so the first witness is
    ("1,1", "1/2,1").  Axiom (i) and axiom (I) fail as well.
    """
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    space = StateSpace.product_grid([GridDim("x", zero, one, half), GridDim("y", zero, one, half)])
    u1 = UtilityTable.on_coords(space, lambda x, y: x)
    u2 = UtilityTable.on_coords(space, lambda x, y: y)
    v = UtilityTable.on_coords(space, lambda x, y: min(x + y, Fraction(3, 2)))
    return Society.from_tables(
        space,
        {"a1": u1, "a2": u2},
        v,
        metadata={"title": "capped-sum: v = min(u1 + u2, 3/2) on a 3 x 3 grid"},
    )


def negative_lottery_weight_society() -> Society:
    """``fixtures/negative_lottery_weight.json``: lottery-side weights (-1, 1) on a 3 x 3 grid.

    The lottery-side profile keeps the base tables and sums them as
    -u0 + u1.  Every hypothesis holds, so the nonconstant agents' lottery
    tables are independent together with 1 and the weight -1 on a0 is the
    only one: the run ends in a recovery failure that names a0.
    """
    soc, _, _ = product_grid_society(random.Random(5), 2, sizes=(1, 1))
    tables = soc.base.tables
    nm_ethical = linear_combination([tables["a0"], tables["a1"]], [Fraction(-1), Fraction(1)])
    return Society.from_tables(
        soc.space,
        tables,
        soc.base.ethical,
        nm=Profile(tables, nm_ethical),
        metadata={"title": "negative-lottery-weight: lottery side weights a0 by -1, seed 5"},
    )
