"""Expected-utility checks on enumerated lottery sets.

The lottery space over even a tiny state space is infinite, but expected
value is linear in the probabilities, so the identities verified here are
decided by finite samples: point masses plus pairwise dyadic mixtures
already separate any two tables that are not affinely related.  Samples are
explicitly enumerated; when a tested mixture falls outside the enumeration
it is reported as an escape rather than skipped silently.  Whether two
tables are affinely related is decided by ``affine_relation`` on their
scaled ints; the coincidence verdicts make the same call.

One non-operation by design: closedness of the preferred-mixture segments
is vacuous on a finite set of dyadic mixture weights, so no check exists
for it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd

from .core import (
    Record, SimpleLottery, StateSpace, UtilityTable, WeakOrder, dirac, expectation, mix,
    same_ranking,
)


class LotteryOrderSample(Record):
    """Finite lottery list with a weak order over it and a mixture depth."""

    lotteries: tuple[SimpleLottery, ...]
    order: WeakOrder
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if set(self.order.items) != set(self.lotteries):
            raise ValueError("order must cover exactly the sampled lotteries")
        object.__setattr__(self, "_index", {lot: i for i, lot in enumerate(self.lotteries)})

    def __contains__(self, lottery: SimpleLottery) -> bool:
        return lottery in self._index

    def mixture_weights(self) -> list[Fraction]:
        """All t = k / 2**depth with 0 <= t < 1."""
        return [Fraction(k, 2**self.depth) for k in range(2**self.depth)]


class IndependenceResult(Record):
    passed: bool
    witness: tuple | None = None  # (P, Q, R, t)
    escapes: tuple = ()  # (P, Q, R, t) whose mixtures left the sample

    def __bool__(self) -> bool:
        return self.passed


def dirac_lotteries(space: StateSpace) -> list[SimpleLottery]:
    return [dirac(s) for s in space.states]


def dyadic_mixture_lotteries(space: StateSpace, depth: int) -> list[SimpleLottery]:
    """Point masses plus all pairwise mixtures at weights k / 2**depth."""
    base = dirac_lotteries(space)
    out = list(base)
    seen = set(out)
    weights = [Fraction(k, 2**depth) for k in range(1, 2**depth)]
    for i, p in enumerate(base):
        for q in base[i + 1 :]:
            for t in weights:
                m = mix(p, q, t)
                if m not in seen:
                    seen.add(m)
                    out.append(m)
    return out


def random_dyadic_lotteries(
    space: StateSpace, count: int, depth: int, seed: int
) -> list[SimpleLottery]:
    """Deterministic sample of lotteries with probabilities of depth at most 2**-depth."""
    rng = random.Random(seed)
    denom = 2**depth
    out: list[SimpleLottery] = []
    seen = set()
    states = list(space.states)
    available = comb(denom + len(states) - 1, len(states) - 1)
    if count > available:
        raise ValueError(f"asked for {count} lotteries of depth {depth}, only {available} exist")
    while len(out) < count:
        cuts = sorted(rng.randrange(denom + 1) for _ in range(len(states) - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        probs = {s: Fraction(k, denom) for s, k in zip(states, parts) if k}
        lot = SimpleLottery.from_mapping(probs)
        if lot not in seen:
            seen.add(lot)
            out.append(lot)
    return out


def sample_from_utility(
    u: UtilityTable, lotteries, depth: int
) -> LotteryOrderSample:
    """Order the given lotteries by expected value of u."""
    lotteries = tuple(lotteries)
    values = {lot: expectation(lot, u) for lot in lotteries}
    return LotteryOrderSample(lotteries, WeakOrder.from_values(lotteries, values), depth)


def sample_from_ranking(rank, lotteries, depth: int) -> LotteryOrderSample:
    """Order the given lotteries by an arbitrary exact-valued ranking function."""
    lotteries = tuple(lotteries)
    values = {lot: Fraction(rank(lot)) for lot in lotteries}
    return LotteryOrderSample(lotteries, WeakOrder.from_values(lotteries, values), depth)


def check_independence(sample: LotteryOrderSample) -> IndependenceResult:
    """Strict preference must survive common mixing.

    For every P strictly above Q, every R in the sample, and every dyadic
    weight t < 1 at the sample's depth, (1-t)P + tR must stay strictly above
    (1-t)Q + tR.  Pairs whose mixtures are not enumerated in the sample are
    collected as escapes.
    """
    order = sample.order
    escapes: list[tuple] = []
    weights = sample.mixture_weights()
    for p in sample.lotteries:
        for q in sample.lotteries:
            if not order.strict(p, q):
                continue
            for r in sample.lotteries:
                for t in weights:
                    mp, mq = mix(p, r, t), mix(q, r, t)
                    if mp not in sample or mq not in sample:
                        escapes.append((p, q, r, t))
                        continue
                    if not order.strict(mp, mq):
                        return IndependenceResult(False, (p, q, r, t), tuple(escapes))
    return IndependenceResult(passed=True, escapes=tuple(escapes))


def nm_represents(u: UtilityTable, sample: LotteryOrderSample) -> bool:
    """True iff the sampled order coincides with ranking by expected u."""
    ranks = [sample.order.table[p] for p in sample.lotteries]
    return same_ranking(ranks, [expectation(p, u) for p in sample.lotteries])


def affine_relation(
    u: UtilityTable, w: UtilityTable
) -> tuple[Fraction, Fraction] | None:
    """The unique (alpha > 0, beta) with w = alpha*u + beta, or None.

    Decided on the two tables' scaled ints U and W.  From the first state a
    and the first state o where u differs, run = U(o) - U(a) and lift =
    W(o) - W(a) must have one sign, and every state s must satisfy run *
    (W(s) - W(a)) == lift * (U(s) - U(a)).  Fractions are built only for
    the returned pair.  Constant u: returns (1, shift) when w is constant
    too, else None.
    """
    if u.states() != w.states():
        raise ValueError("tables must share a domain")
    (u_scale, u_ints), (w_scale, w_ints) = u.scaled, w.scaled
    anchor = next(iter(u_ints))
    other = next((s for s in u_ints if u_ints[s] != u_ints[anchor]), None)
    if other is None:
        if w.is_constant():
            return Fraction(1), w[anchor] - u[anchor]
        return None
    u0, w0 = u_ints[anchor], w_ints[anchor]
    run, lift = u_ints[other] - u0, w_ints[other] - w0
    g = gcd(run, lift)  # the ratio in lowest terms keeps the products short
    run, lift = run // g, lift // g
    if run * lift <= 0 or any(run * (w_ints[s] - w0) != lift * (u_ints[s] - u0) for s in u_ints):
        return None
    alpha = Fraction(lift * u_scale, run * w_scale)
    return alpha, w[anchor] - alpha * u[anchor]
