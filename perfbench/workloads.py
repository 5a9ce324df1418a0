"""Seeded society generators and the op list of each benchmark workload.

The generators mirror the planted-society logic of the test suite but live
here, so an edit to the tests cannot change the benchmark's inputs.  Every
society exists twice: as plain ``{state: Fraction}`` tables plus its planted
truth, which the output checker reads, and as a society file written through
the package's public constructors, which is all the program under test sees.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import utilcheck

#: Seed whose outputs are pinned byte for byte in ``expected_default_seed.json``.
DEFAULT_SEED = 0

#: Every op passes this cap, which is above the largest society of any workload.
MAX_STATES = "4096"

Table = dict[str, Fraction]


@dataclass
class Plain:
    """One table profile as plain dicts: agent tables in agent order, then ethical."""

    tables: dict[str, Table]
    ethical: Table


@dataclass
class Case:
    """A generated society with its planted truth, one entry per command run on it."""

    name: str
    states: tuple[str, ...]
    agents: tuple[str, ...]
    base: Plain
    nm: Plain | None = None
    alt: Plain | None = None
    truth: dict = field(default_factory=dict)
    #: Grid depths when the space is a full product grid, else None.
    depths: tuple[int, ...] | None = None
    society: object = None  # utilcheck.Society, only for writing the file

    def nm_side(self) -> Plain:
        return self.nm if self.nm is not None else self.base

    def alt_side(self) -> Plain:
        return self.alt if self.alt is not None else self.base


@dataclass
class Op:
    """One CLI invocation: ``utilcheck.cli.main(argv)``."""

    id: str
    command: str  # coincide | validate | recover-harsanyi | recover-harvey
    argv: list[str]
    case: Case


COMMAND_ARGV = {
    "coincide": ["coincide"],
    "validate": ["validate"],
    "recover-harsanyi": ["recover", "--mode", "harsanyi"],
    "recover-harvey": ["recover", "--mode", "harvey"],
}


# ---------------------------------------------------------------------------
# Exact helpers, independent of the package under test


def rand_fraction(rng: random.Random, num: int = 100, den: int = 100) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_positive_fraction(rng: random.Random, num: int = 100, den: int = 100) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def rank(rows: list[list[Fraction]]) -> int:
    """Row rank by plain Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def combine(tables: list[Table], weights, constant: Fraction, states) -> Table:
    return {s: sum((w * t[s] for w, t in zip(weights, tables)), Fraction(constant)) for s in states}


def grid_key(point) -> str:
    return ",".join(str(c) for c in point)


# ---------------------------------------------------------------------------
# Planted societies


def _grid_points(depth: int) -> list[Fraction]:
    return [Fraction(k, 2**depth) for k in range(2**depth + 1)]


def planted_grid(rng: random.Random, depths, *, weights=None, keep=None):
    """Separable society on the product of dyadic grids on [0, 1].

    Agent i's table depends only on coordinate i and is injective there; the
    ethical table is the planted weighted sum plus a constant.  ``keep``
    filters the product's points, which turns the space explicit.

    Returns (states, coords, tables, weights, constant).
    """
    axes = [_grid_points(m) for m in depths]
    points = [p for p in itertools.product(*axes) if keep is None or keep(p)]
    states = tuple(grid_key(p) for p in points)
    coords = dict(zip(states, points))
    tables = {}
    for i, axis in enumerate(axes):
        while True:
            per_value = {p: rand_fraction(rng) for p in axis}
            if len(set(per_value.values())) == len(axis):
                break
        tables[f"a{i}"] = {s: per_value[coords[s][i]] for s in states}
    if weights is None:
        weights = [rand_positive_fraction(rng) for _ in depths]
    constant = rand_fraction(rng)
    return states, coords, tables, list(weights), constant


def coincidence_case(rng: random.Random, name: str, depths, distort: int | None) -> Case:
    """Lottery side planted as agent-wise affine images of the intensity side.

    u*_i = alpha_i u_i + beta_i with weights a_i / alpha_i, so both ethical
    tables order states alike.  The ``distort`` agent's starred table is the
    cube of its shifted table instead: monotone, never affine.
    """
    states, _, tables, weights, constant = planted_grid(rng, depths)
    agents = tuple(tables)
    ethical = combine(list(tables.values()), weights, constant, states)
    alphas = [rand_positive_fraction(rng, 9, 5) for _ in agents]
    betas = [rand_fraction(rng, 9, 5) for _ in agents]
    star, star_weights, verdicts = {}, [], []
    for i, a in enumerate(agents):
        if i == distort:
            low = min(tables[a].values())
            star[a] = {s: (v - low + 1) ** 3 for s, v in tables[a].items()}
            star_weights.append(Fraction(1))
            verdicts.append(("VIOLATION", None, None))
        else:
            star[a] = {s: alphas[i] * v + betas[i] for s, v in tables[a].items()}
            star_weights.append(weights[i] / alphas[i])
            verdicts.append(("COINCIDE", alphas[i], betas[i]))
    star_constant = rand_fraction(rng)
    star_ethical = combine([star[a] for a in agents], star_weights, star_constant, states)
    truth = {
        "coincide": {
            "status": "violation" if distort is not None else "coincide",
            "agents": verdicts,
            "alt": (weights, constant),
            "nm": (star_weights, star_constant),
        }
    }
    return Case(name, states, agents, Plain(tables, ethical), nm=Plain(star, star_ethical),
                truth=truth, depths=tuple(depths))


def separable_case(rng: random.Random, name: str, depths, *, negative: int | None = None,
                   cube: bool = False, keep=None) -> Case:
    """Planted grid society for the witness workload.

    ``negative`` flips one planted weight (pareto fails, Harvey fails at
    slopes); ``cube`` replaces the ethical table by the cube of the shifted
    planted sum (axiom-i and axiom-I fail); ``keep`` drops states (only
    semi-separability fails).
    """
    weights = [rand_positive_fraction(rng) for _ in depths]
    if negative is not None:
        weights[negative] = -weights[negative]
    states, _, tables, weights, constant = planted_grid(rng, depths, weights=weights, keep=keep)
    agents = tuple(tables)
    ethical = combine(list(tables.values()), weights, constant, states)
    if negative is not None:
        failing, stage = {"pareto"}, "slopes"
    elif cube:
        low = min(ethical.values())
        ethical = {s: (v - low + 1) ** 3 for s, v in ethical.items()}
        failing, stage = {"axiom-i", "axiom-I"}, "axiom-I"
    else:
        failing, stage = {"semi-separability"}, "semi-separability"
    truth = {"validate": failing, "harvey": {"failed_stage": stage, "weights": weights}}
    return Case(name, states, agents, Plain(tables, ethical), truth=truth,
                depths=tuple(depths) if keep is None else None)


def lottery_case(rng: random.Random, name: str, n_agents: int, n_states: int, kind: str) -> Case:
    """Explicit-state society for lottery-side recovery.

    ``independent``: ethical = planted sum, unique weights.  ``dependent``:
    the last agent is an affine combination of the others, so the canonical
    solution pins it to 0 and folds its planted weight into the rest.
    ``off-span``: the planted sum bumped at one state, outside the row space.
    """
    states = tuple(f"s{i}" for i in range(n_states))
    n_free = n_agents - 1 if kind == "dependent" else n_agents
    while True:
        tables = {f"a{i}": {s: rand_fraction(rng) for s in states} for i in range(n_free)}
        rows = [[Fraction(1)] * n_states] + [[t[s] for s in states] for t in tables.values()]
        if rank(rows) == n_free + 1:
            break
    weights = [rand_positive_fraction(rng) for _ in range(n_free)]
    constant = rand_fraction(rng)
    if kind == "dependent":
        coeffs = [rand_positive_fraction(rng) for _ in range(n_free)]
        c0 = rand_fraction(rng)
        w_dep = rand_positive_fraction(rng)
        tables[f"a{n_free}"] = combine(list(tables.values()), coeffs, c0, states)
        ethical = combine(list(tables.values()), weights + [w_dep], constant, states)
        truth = {
            "weights": [w + w_dep * c for w, c in zip(weights, coeffs)] + [Fraction(0)],
            "constant": constant + w_dep * c0,
            "unique": False,
        }
    else:
        ethical = combine(list(tables.values()), weights, constant, states)
        truth = {"weights": weights, "constant": constant, "unique": True}
        if kind == "off-span":
            while True:
                bumped = dict(ethical)
                bumped[rng.choice(states)] += rand_positive_fraction(rng)
                if rank(rows + [[bumped[s] for s in states]]) == n_free + 2:
                    break
            ethical, truth = bumped, None
    return Case(name, states, tuple(tables), Plain(tables, ethical), truth={"harsanyi": truth})


def sqrt_case(k: int, eps: Fraction) -> Case:
    """The paper's square-root fixture, built and self-verified by the package."""
    fixture = utilcheck.sqrt_fixture(k, eps)
    case = _case_from_society(f"sqrt-k{k}-eps{eps.numerator}_{eps.denominator}", fixture.society)
    case.truth = {
        "coincide": {
            "status": "violation",
            "agents": [("VIOLATION", None, None), ("COINCIDE", Fraction(1), Fraction(0))],
            "increments": {"agent1": [((2 * j + 1) * eps**2, eps) for j in range(k)]},
            "alt": ([Fraction(1), Fraction(1)], Fraction(0)),
            "nm": ([Fraction(1), Fraction(1)], Fraction(0)),
        },
        "harvey": {"failed_stage": None, "weights": [Fraction(1), Fraction(1)], "constant": Fraction(0)},
    }
    return case


def simplex_case(resolution: Fraction) -> Case:
    """Budget-line fixture: every hypothesis but semi-separability holds."""
    fixture = utilcheck.simplex_counterexample(resolution)
    case = _case_from_society(f"simplex-{resolution.denominator}", fixture.society)
    case.truth = {"validate": {"semi-separability"}, "harvey": {"failed_stage": "semi-separability"}}
    return case


def _plain(profile) -> Plain:
    return Plain({a: dict(t.values) for a, t in profile.tables.items()}, dict(profile.ethical.values))


def _case_from_society(name: str, soc) -> Case:
    return Case(
        name,
        tuple(soc.space.states),
        tuple(soc.agents),
        _plain(soc.base),
        nm=None if soc.nm is None else _plain(soc.nm),
        alt=None if soc.alt is None else _plain(soc.alt),
        society=soc,
    )


def to_society(case: Case):
    """The case as a ``utilcheck.Society``, built with the package's constructors."""
    if case.society is not None:
        return case.society

    def profile(plain: Plain | None):
        if plain is None:
            return None
        return utilcheck.Profile(
            {a: utilcheck.UtilityTable(t) for a, t in plain.tables.items()},
            utilcheck.UtilityTable(plain.ethical),
        )

    if case.depths is None:
        space = utilcheck.StateSpace.explicit(case.states)
    else:
        space = utilcheck.StateSpace.product_grid(
            utilcheck.GridDim(f"x{i}", Fraction(0), Fraction(1), Fraction(1, 2**m))
            for i, m in enumerate(case.depths)
        )
        if space.states != case.states:
            raise AssertionError("grid state order differs from the generator's")
    return utilcheck.Society(
        space=space,
        agents=case.agents,
        base=profile(case.base),
        nm=profile(case.nm),
        alt=profile(case.alt),
        metadata={"title": case.name},
    )


# ---------------------------------------------------------------------------
# Workloads


def grid_coincide_cases(rng: random.Random, tiny: bool) -> list[Case]:
    """Planted product grids at 25/27/45/81 states, faithful and distorted.

    Three replicas of the ladder with fresh values, so one run averages over
    several societies of each size.  The 4-agent 81-state rung stays although
    the program rejects it today (its semi-separability search exceeds the
    built-in cap).
    """
    ladder = [(1, 1), (2, 1)] if tiny else [
        (2, 2), (1, 1, 1), (2, 3), (3, 3), (3, 3), (1, 1, 3), (1, 1, 1, 1)
    ]
    cases = []
    for replica in range(1 if tiny else 3):
        for n, depths in enumerate(ladder):
            size = 1
            for m in depths:
                size *= 2**m + 1
            for distort in (None, rng.randrange(len(depths))):
                label = "faithful" if distort is None else f"distort{distort}"
                name = f"grid{size}x{len(depths)}-{replica}{n}-{label}"
                cases.append(coincidence_case(rng, name, depths, distort))
    return cases


def sqrt_cases(rng: random.Random, tiny: bool) -> list[Case]:
    """The k ladder at eps = 1/2, 1/3 and 2/3, in a seeded order.

    The fixture is fixed by (k, eps), and its cost moves by half with eps,
    so eps is fixed too and the seed only orders the ops.  The ladder stops
    at k = 20 so no op runs much over a second.
    """
    ks = [3, 4] if tiny else [8, 9, 10, 11, 12, 13, 14, 16, 18, 20]
    epss = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
    cases = [sqrt_case(k, eps) for eps in epss for k in ks]
    rng.shuffle(cases)
    return cases


def lottery_cases(rng: random.Random, tiny: bool) -> list[Case]:
    if tiny:
        shapes = [(2, 6), (3, 8)]
    else:
        shapes = [(n, m) for n in (2, 3, 4) for m in (6, 12, 24, 48, 64)]
        shapes += [(n, 256) for n in (2, 3, 4)]
    return [
        lottery_case(rng, f"lottery-{n}x{m}-{kind}", n, m, kind)
        for n, m in shapes
        for kind in ("independent", "dependent", "off-span")
    ]


def witness_cases(rng: random.Random, tiny: bool) -> list[Case]:
    resolutions = [4, 8] if tiny else [4, 8, 16, 32, 64]
    cases = [simplex_case(Fraction(1, d)) for d in resolutions]
    grid = [(1, 2)] if tiny else [(2, 2), (2, 3), (3, 3)]
    holed = (1, 1, 1) if tiny else (1, 1, 3)
    for depths in grid:
        shape = "x".join(str(2**m + 1) for m in depths)
        cases.append(separable_case(rng, f"negative-{shape}", depths, negative=rng.randrange(len(depths))))
        cases.append(separable_case(rng, f"cube-{shape}", depths, cube=True))
    for removed in ((1,) if tiny else (1, 2, 3)):
        # Holes only in the last slab of the slowest coordinate, so the
        # profile scan runs almost to the end before it meets a missing one.
        last = Fraction(1)
        axes = [_grid_points(m) for m in holed[1:]]
        slab = list(itertools.product(*axes))
        holes = {(last,) + p for p in rng.sample(slab, removed)}
        cases.append(
            separable_case(rng, f"holed-{removed}", holed, keep=lambda p, h=holes: p not in h)
        )
    return cases


CASES = {
    "grid-coincide": (grid_coincide_cases, ("coincide",)),
    "sqrt-coincide": (sqrt_cases, ("coincide", "recover-harvey")),
    "lottery-recover": (lottery_cases, ("recover-harsanyi",)),
    "witness-validate": (witness_cases, ("validate", "recover-harvey")),
}
WORKLOADS = tuple(CASES)


def build(workload: str, seed: int, workdir: str, *, tiny: bool = False) -> list[Op]:
    """Generate the workload's societies from ``seed``, write their files, list the ops.

    ``tiny`` shrinks every size for the benchmark's own tests.
    """
    make_cases, commands = CASES[workload]
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for case in make_cases(rng, tiny):
        path = os.path.join(workdir, f"{workload}-{case.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(utilcheck.emit_society(to_society(case)))
        for command in commands:
            argv = COMMAND_ARGV[command] + [path, "--json", "--max-states", MAX_STATES]
            ops.append(Op(f"{workload}/{case.name}/{command}", command, argv, case))
    return ops
