"""Positive affine relations between utility tables.

A von Neumann-Morgenstern utility is unique up to a positive affine map,
so "do u and w represent the same preferences over lotteries?" is the
question whether w = alpha * u + beta with alpha > 0.  ``affine_relation``
decides it exactly on the two tables' scaled ints and returns the pair;
the coincidence verdicts make the same call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .core import UtilityTable


def affine_relation(
    u: UtilityTable, w: UtilityTable
) -> tuple[Fraction, Fraction] | None:
    """The unique (alpha > 0, beta) with w = alpha*u + beta, or None.

    Decided on the two tables' columns U and W, in u's state order.  From
    the first state a and the first state o where u differs, run = U(o) -
    U(a) and lift = W(o) - W(a) must have one sign, and every state s must
    satisfy run * (W(s) - W(a)) == lift * (U(s) - U(a)).  Fractions are
    built only for u(a), w(a) and the returned pair.  Constant u: returns
    (1, shift) when w is constant too, else None.
    """
    states = u.states()
    if states != w.states() and set(states) != set(w.states()):
        raise ValueError("tables must share a domain")
    us, ws = u.column(), w.column(states)
    u0, w0 = us[0], ws[0]
    at_u, at_w = Fraction(u0, u.scale), Fraction(w0, w.scale)  # u(a) and w(a)
    other = next((k for k, x in enumerate(us) if x != u0), None)
    if other is None:
        return (Fraction(1), at_w - at_u) if w.is_constant() else None
    run, lift = us[other] - u0, ws[other] - w0
    g = gcd(run, lift)  # the ratio in lowest terms keeps the products short
    run, lift = run // g, lift // g
    if run * lift <= 0 or any(run * (y - w0) != lift * (x - u0) for x, y in zip(us, ws)):
        return None
    alpha = Fraction(lift * u.scale, run * w.scale)
    return alpha, at_w - alpha * at_u
