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
