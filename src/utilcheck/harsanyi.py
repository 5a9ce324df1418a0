"""Welfare-weight recovery from expected-utility data.

On a finite space, unanimous lottery indifference forcing ethical
indifference is exactly a row-space condition: stack the constant function
1 and the agent tables as rows of a matrix A over the states, and the
ethical table must be a linear combination of those rows.  Everything else
follows constructively: a violating null vector yields a witness lottery
pair, and a regular submatrix yields sign-certifying lotteries.

Given a run's ``harvey.Analysis``, axiom (i) and the weights read the
lottery profile's ``SpanProblem`` (``Analysis.span_of``), and its
``certificate`` first: one read off single-agent neighbours reduces no
rows.  Otherwise, and in ``recover --mode harsanyi``, the problem's one
integer reduction (``SpanProblem.reduction``) gives the span verdict, the
weights, the regular states and the first state that separates the
ethical table; the witness constructions add one reduction of at most n+1
rows each.  They read the reduction's scaled rows at only the states they
need: a failed axiom (i) at most n+2, the origin of v's pivot and the
regular states before it, where its null vector is nonzero.  A reported
identity is checked at every state on the values reported: a reduction's
by ``SpanProblem.verify`` on its scaled rows, and a certificate's weights
and constant by the certificate's own pass on the tables' columns, so the
certified report makes no second pass.  Every witness pair is
re-verified before return on the pair itself, over the states where p - q
is nonzero: by linearity E_p[u] - E_q[u] is the sum of (p_s - q_s) u(s)
over them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import ne
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .core import Record, SimpleLottery, StateKey, UtilityTable, fitted_constant, residual
from .rationals import scale_rows
from .society import CheckResult, Profile, Society

if TYPE_CHECKING:
    from .harvey import Analysis


def _solution(red: linalg.Reduction, n: int) -> list[Fraction] | None:
    """The solution, free unknowns 0, of the reduced [M | b] with n unknowns; None if inconsistent."""
    if n in red.pivots:
        return None
    sol = [Fraction(0)] * n
    for c, row in zip(red.pivots, red.rows):
        sol[c] = row[n]
    return sol


class SpanProblem(Record):
    """Stacked profile matrix: row 0 is constantly 1, row i is agent i's table.

    ``tables`` holds u_1 ... u_n, then v, and ``columns`` each one's
    ``ratio_column``, its numerators and denominators in state order.
    ``certificate`` decides whether v is in the span of [1 | u], each of
    the paper's three identities, and ``reduced`` whether the reduction is
    built.  ``scaled`` is the one scaling of its rows: each state's values
    times the LCM d of that state's own denominators
    (``rationals.scale_rows``), which keeps the row space, so no Fraction
    is built.  ``reduction`` and ``verify`` both read these ints.
    ``reduction`` is the one ``linalg.reduce_rows`` of the |X| x (n+2)
    matrix with columns [1 | u_1 ... u_n | v], one row
    [d | d u_1 ... d u_n | d v] per state.  Its pivots are the greedy
    first-independent columns.  So v is in the span (axiom (i)) iff its
    column is no pivot; the agent pivots are a greedy maximal set of agents
    independent together with 1, and any other agent's column in the pivot
    rows is its expansion over 1 and those agents; v's column in the pivot
    rows is the canonical solution (non-pivot weights 0); the weights are
    unique iff every column of [1 | u] is a pivot.  Its origins are the
    greedy first-independent states: those with a pivot in [1 | u] are the
    regular state columns of the profile matrix, and the one with v's pivot,
    if any, is the first state that separates v.  ``verify`` re-checks a
    recovered identity at every state on the scaled rows with
    ``core.residual``, the row factor d one more column whose coefficient
    is the constant, so the residual must be 0.  The witness constructions
    read the same rows, d_s times the profile column at state s, at the
    states they need.
    """

    states: tuple[StateKey, ...]
    tables: tuple[UtilityTable, ...]

    @classmethod
    def from_profile(cls, profile: Profile, agents, states) -> "SpanProblem":
        tables = (*(profile.tables[a] for a in agents), profile.ethical)
        return cls(tuple(states), tables)

    @classmethod
    def of(cls, soc: Society) -> "SpanProblem":
        """The lottery-side problem of a society."""
        return cls.from_profile(soc.nm_side(), soc.agents, soc.space.states)

    @cached_property
    def columns(self) -> tuple[tuple[Sequence[int], Sequence[int]], ...]:
        return tuple(t.ratio_column(self.states) for t in self.tables)

    @cached_property
    def certificate(self) -> tuple[tuple[Fraction | None, ...], Fraction] | None:
        """The (weights, b) with v = sum w_i * u_i + b at every state, or None if none fit.

        Weight w_i is a Fraction, None for a constant table, whose weight is 0.
        With x0 the first state, w_i is read off a neighbour, a state where
        only table i's value differs from x0's, found on ``columns``, so a
        profile without neighbours scales no table.  On the scaled columns
        the rise (dE, dU) from x0 to the neighbour gives
        w_i = (dE * s_i) / (dU * e), and one ``core.fitted_constant`` pass on
        those Fractions checks the identity at every state and gives b.  A
        failed identity gives None: a neighbour for every nonconstant table
        makes them independent together with 1, so a v in their span shows
        each neighbour its weight.  A single table always has one.  Where
        some nonconstant table has none, ``solution`` decides, the canonical
        weights with a nonconstant agent outside the greedy basis at 0.
        """
        # Each table's moves as one int whose byte j is 1 where the value at
        # state j differs from x0's: the neighbours are the bytes where exactly
        # one table moves, and table i's first is the lowest byte set in both.
        *tables, ethical = self.tables
        moves = []
        for p, q in self.columns[:-1]:
            p_moves = int.from_bytes(bytes(map(ne, p, repeat(p[0]))), "little")
            moves.append(p_moves | int.from_bytes(bytes(map(ne, q, repeat(q[0]))), "little"))
        once = twice = 0
        for m in moves:
            twice |= once & m
            once |= m
        unique = once & ~twice
        if any(m and not m & unique for m in moves):
            solution = self.solution
            if solution is None:
                return None
            return tuple(w if m else None for m, w in zip(moves, solution[1:])), solution[0]
        states, e = self.states, ethical.scale
        values = ethical.column(states)
        weights: list[Fraction | None] = [None] * len(tables)
        for i, (t, m) in enumerate(zip(tables, moves)):
            if m:
                hit, u = m & unique, t.column(states)
                j = (hit & -hit).bit_length() // 8
                weights[i] = Fraction((values[j] - values[0]) * t.scale, (u[j] - u[0]) * e)
        b = fitted_constant(tables, ethical, weights, states)
        return None if b is None else (tuple(weights), b)

    @property
    def reduced(self) -> bool:
        """True once ``reduction`` is built, by the certificate's fallback or another answer."""
        return "reduction" in vars(self)

    @property
    def size(self) -> int:
        """The number of rows of the profile matrix, n + 1: v's column index."""
        return len(self.tables)

    @cached_property
    def scaled(self) -> tuple[list[int], list[list[int]]]:
        """The row LCMs d, and each column u_1 ... u_n, v times them, as ints."""
        return scale_rows(self.columns)

    @cached_property
    def reduction(self) -> linalg.Reduction:
        d, columns = self.scaled
        return linalg.reduce_rows(zip(d, *columns))

    def verify(self, weights, constant) -> None:
        """Re-check v = sum(w_i * u_i) + constant on every scaled row; a failure is a bug."""
        d, (*us, v) = self.scaled
        ratios = [c.as_integer_ratio() for c in (*weights, constant)]
        if residual(v, [*us, d], ratios) != 0:
            raise AssertionError("recovered identity failed pointwise re-verification")

    @cached_property
    def spanning_pivots(self) -> list[int]:
        """Pivot columns of [1 | u] in order; pivot row r belongs to the r-th."""
        return [c for c in self.reduction.pivots if c < self.size]

    @property
    def in_span(self) -> bool:
        return self.size not in self.reduction.pivots

    @cached_property
    def solution(self) -> list[Fraction] | None:
        """The canonical [constant, w_1 ... w_n] with v = constant + sum w_i u_i, or None.

        Read off v's column in the pivot rows; a non-pivot weight is 0.
        """
        return _solution(self.reduction, self.size)

    def rows_independent(self) -> bool:
        return len(self.spanning_pivots) == self.size

    @cached_property
    def regular_states(self) -> list[int]:
        """Indices of the first states, in order, whose profile columns are independent."""
        red, k = self.reduction, self.size
        return sorted(s for s, c in zip(red.origins, red.pivots) if c < k)

    def separating_null_vector(self) -> list[Fraction]:
        """The first canonical null vector of the profile matrix that v does not annihilate.

        That of a free state f is 1 at f and, at each regular state before
        f, minus that state's coefficient in f's profile column.  The first
        free state with a nonzero v-product is the origin of v's pivot (the
        last pivot), so v must be outside the span.  Solved on the scaled
        rows, a coefficient a is a * d_s / d_f on the profile columns.
        """
        free = self.reduction.origins[-1]
        before = [s for s in self.regular_states if s < free]
        d, columns = self.scaled
        rows = [[row[s] for s in [*before, free]] for row in (d, *columns[:-1])]
        eta = [Fraction(0)] * len(self.states)
        eta[free] = Fraction(1)
        for s, a in zip(before, _solution(linalg.reduce_rows(rows), len(before))):
            eta[s] = -a * d[s] / d[free]
        return eta

    @cached_property
    def regular_inverse(self) -> list[list[Fraction]]:
        """Inverse of the profile columns A_S on ``regular_states``, from one reduction.

        The scaled rows hold A_S D with D = diag(d_s), and reducing [A_S D | I]
        gives (A_S D)^-1, whose row for state s is that of A_S^-1 over d_s.
        """
        d, columns = self.scaled
        k, regular = self.size, self.regular_states
        identity = [[int(r == j) for j in range(k)] for r in range(k)]
        square = [[row[s] for s in regular] + e for row, e in zip((d, *columns[:-1]), identity)]
        inverse = linalg.reduce_rows(square).rows
        return [[d[s] * x for x in row[k:]] for s, row in zip(regular, inverse)]


class LotteryWitnessPair(Record):
    """Two full-support lotteries built from a perturbation of the uniform one."""

    p: SimpleLottery
    q: SimpleLottery
    eta: tuple[Fraction, ...]
    lam: Fraction


class WeightReport(Record):
    """Outcome of weight recovery; the identity is re-verified before return."""

    success: bool
    agents: tuple[str, ...]
    weights: tuple[Fraction, ...] | None = None
    constant: Fraction | None = None
    unique: bool = False
    residual_witness: StateKey | None = None  # first state where the ethical table is nonzero


def _perturbed_pair(eta: list[Fraction], states) -> LotteryWitnessPair:
    """Uniform lottery pushed by +/- lambda * eta, with lambda = 1/(2m*max|eta|).

    Every state where eta is 0 shares one Fraction 1/m; arithmetic runs only
    on eta's support.
    """
    m = len(states)
    support = [(s, e) for s, e in zip(states, eta) if e]
    if not support:
        raise ValueError("zero perturbation vector")
    lam = Fraction(1, 2 * m) / max(abs(e) for _, e in support)
    p = dict.fromkeys(states, Fraction(1, m))
    q = dict(p)
    for s, e in support:
        step = lam * e
        p[s] += step
        q[s] -= step
    return LotteryWitnessPair(
        p=SimpleLottery.from_mapping(p), q=SimpleLottery.from_mapping(q), eta=tuple(eta), lam=lam
    )


def _expectation_gaps(pair: LotteryWitnessPair, tables) -> list[Fraction]:
    """E_p[t] - E_q[t] for each table t, summed over the states where p and q differ.

    p - q is read from the two lotteries themselves, one comparison per
    state; by linearity the sum over its support is the full difference of
    expectations.
    """
    q = pair.q.as_dict()
    gap = {}
    for s, ps in pair.p.probs:
        qs = q.pop(s, 0)
        if ps is not qs and ps != qs:
            gap[s] = ps - qs
    gap.update((s, -qs) for s, qs in q.items())
    return [sum((g * t[s] for s, g in gap.items()), Fraction(0)) for t in tables]


def _verify_witness(soc: Society, pair: LotteryWitnessPair, agent: str | None = None) -> None:
    """Re-check a witness lottery pair exactly; a failure is a bug and raises AssertionError.

    With no ``agent`` the pair must leave every agent indifferent and the
    ethical table not (axiom (i)).  With one it must raise that agent's
    expected utility and leave every other agent's unchanged.  Only the
    states where p and q differ are read (``_expectation_gaps``).
    """
    profile = soc.nm_side()
    tables = [profile.tables[name] for name in soc.agents]
    if agent is None:
        *gaps, ethical = _expectation_gaps(pair, [*tables, profile.ethical])
        if any(gaps):
            raise AssertionError("witness pair fails agent indifference")
        if not ethical:
            raise AssertionError("witness pair fails ethical separation")
        return
    for name, gap in zip(soc.agents, _expectation_gaps(pair, tables)):
        if name == agent:
            if gap <= 0:
                raise AssertionError("witness pair fails strict separation")
        elif gap:
            raise AssertionError("witness pair fails indifference for others")


def check_axiom_i(soc: Society, analysis: Analysis | None = None) -> CheckResult:
    """Unanimous lottery indifference must force ethical indifference.

    Passes iff the ethical table lies in the row space of the profile
    matrix.  Given an ``analysis``, the lottery profile's
    ``SpanProblem.certificate`` decides a pass first.  On failure the
    certifying lottery pair (equal expectation for every agent, unequal for
    the ethical table) is constructed from the reduction's first canonical
    null vector that v does not annihilate, which is nonzero on at most n+2
    states and is solved from their scaled rows alone.  The pair is
    verified before return on the states where p and q differ.
    """
    problem = SpanProblem.of(soc) if analysis is None else analysis.span_of(soc.nm_side())
    if (analysis is not None and problem.certificate is not None) or problem.in_span:
        return CheckResult(True)
    pair = _perturbed_pair(problem.separating_null_vector(), problem.states)
    _verify_witness(soc, pair)
    return CheckResult(False, pair)


def recover_weights(soc: Society, analysis: Analysis | None = None) -> WeightReport:
    """Exact (weights, constant) with ethical = sum w_i u_i + constant.

    With an independent profile the solution is unique.  Dependent profiles
    get the canonical solution: coefficients of non-basis agents are pinned
    to 0 and the basis carries everything.  If the row-space condition
    fails, the report carries the first state where the ethical table is
    nonzero (the zero table is always in the span).  Given an ``analysis``
    whose lottery profile (``Analysis.span_of``) has a certificate and no
    reduction, that is one read off neighbours, the report is the
    certificate's: those neighbours make the nonconstant agents independent
    together with 1, so its weights are the canonical ones (a constant
    agent's 0), unique exactly when no agent is constant, and its constant
    is the one its pass checked at every state.  Without an ``analysis``,
    as in ``recover --mode harsanyi``, only the reduction is read: on a
    long scale the certificate's per-table check costs many times the
    reduction.  A reduction's report is re-verified before return by
    ``SpanProblem.verify``; a failure is a bug.
    """
    problem = SpanProblem.of(soc) if analysis is None else analysis.span_of(soc.nm_side())
    if analysis is not None and problem.certificate is not None and not problem.reduced:
        weights, b = problem.certificate
        canonical = tuple(Fraction(0) if w is None else w for w in weights)
        return WeightReport(True, soc.agents, canonical, b, None not in weights)
    if not problem.in_span:
        bad = next(s for s, p in zip(problem.states, problem.columns[-1][0]) if p)
        return WeightReport(success=False, agents=soc.agents, residual_witness=bad)
    sol = problem.solution
    report = WeightReport(
        success=True,
        agents=soc.agents,
        weights=tuple(sol[1:]),
        constant=sol[0],
        unique=problem.rows_independent(),
    )
    problem.verify(report.weights, report.constant)
    return report


def witness_lotteries_for_sign(
    soc: Society, agent: str, analysis: Analysis | None = None
) -> LotteryWitnessPair:
    """Lotteries separating one agent: strict gain for them, indifference for the rest.

    Requires the profile rows (with the constant row) to be independent so a
    regular square submatrix exists; its inverse image of the target unit
    vector gives the perturbation.  Calls given the same ``analysis`` share
    the regular states and the inverse.
    """
    problem = SpanProblem.of(soc) if analysis is None else analysis.span_of(soc.nm_side())
    if not problem.rows_independent():
        raise ValueError("profile is linearly dependent; no regular submatrix exists")
    idx = soc.agents.index(agent) + 1  # strict separation for the chosen agent only
    eta = [Fraction(0)] * len(problem.states)
    for c, row in zip(problem.regular_states, problem.regular_inverse):
        eta[c] = row[idx]
    pair = _perturbed_pair(eta, problem.states)
    _verify_witness(soc, pair, agent)
    return pair


def positive_reweighting(
    soc: Society, report: WeightReport
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Trade weight from the pivot agents onto dependent agents to make all weights positive.

    Returns all-positive (weights, constant) for the lottery-side ethical
    table, or None.  The pivot agents and each other agent's expansion over
    1 and them are read from ``SpanProblem.of(soc).reduction``.  The
    construction is sufficient, not complete: it gives up whenever some
    canonical weight of an independent profile, or some canonical pivot
    weight of a dependent one, is nonpositive.  The first case has no other
    solution; the second may (u3 = u1 - u2 and v = 3 u1 - u2 give canonical
    weights (3, -1, 0), yet v = u1 + u2 + 2 u3).
    The transfer amount is eps = min pivot weight / (2 * (1 + largest total
    expansion magnitude)), small enough to keep every pivot weight positive;
    with no pivot agent there is no weight to protect and eps = 1.
    """
    if not report.success:
        raise ValueError("cannot reweight a failed recovery")
    if all(w > 0 for w in report.weights):
        return report.weights, report.constant
    if report.unique:
        return None
    problem = SpanProblem.of(soc)
    rows, pivots = problem.reduction.rows, problem.spanning_pivots
    basis = [c - 1 for c in pivots[1:]]  # pivot row r + 1 belongs to basis[r]
    new = list(report.weights)
    if any(new[i] <= 0 for i in basis):
        return None
    dependent = [c for c in range(1, problem.size) if c not in pivots]
    spread = max(
        (sum(abs(rows[r][c]) for c in dependent) for r in range(1, len(pivots))),
        default=Fraction(0),
    )
    if basis:
        eps = min(new[i] for i in basis) / (2 * (1 + spread))
    else:
        eps = Fraction(1)
    new_b = report.constant
    for c in dependent:
        new[c - 1] = eps
        new_b -= eps * rows[0][c]
        for r, i in enumerate(basis, 1):
            new[i] -= eps * rows[r][c]
    if any(w <= 0 for w in new):
        raise AssertionError("reweighting produced a nonpositive weight")
    problem.verify(new, new_b)
    return tuple(new), new_b
