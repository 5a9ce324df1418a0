"""Positive affine relations between utility tables.

A von Neumann-Morgenstern utility is unique up to a positive affine map,
so "do u and w represent the same preferences over lotteries?" is the
question whether w = alpha * u + beta with alpha > 0.  ``affine_relation``
reads alpha off the two tables' scaled ints and leaves the identity to
``core.fitted_constant``, the check both weight recoveries also run; the
coincidence verdicts make the same call.
"""

from __future__ import annotations

from fractions import Fraction

from .core import UtilityTable, fitted_constant


def affine_relation(
    u: UtilityTable, w: UtilityTable
) -> tuple[Fraction, Fraction] | None:
    """The unique (alpha > 0, beta) with w = alpha*u + beta, or None.

    Read on the two tables' columns U and W, in u's state order.  From the
    first state a and the first state o where u differs, alpha is
    (W(o) - W(a)) / (U(o) - U(a)), rescaled to the tables' values, and 1
    for a constant u; a nonpositive alpha gives None.  Then
    ``core.fitted_constant`` fixes beta at a and checks every state, or
    gives None.  So a constant u relates only to a constant w.
    """
    states = u.states()
    if states != w.states() and set(states) != set(w.states()):
        raise ValueError("tables must share a domain")
    us, ws = u.column(), w.column(states)
    other = next((k for k, x in enumerate(us) if x != us[0]), None)
    if other is None:
        alpha = Fraction(1)
    else:
        alpha = Fraction((ws[other] - ws[0]) * u.scale, (us[other] - us[0]) * w.scale)
        if alpha <= 0:
            return None
    beta = fitted_constant([u], w, [alpha], states)
    return None if beta is None else (alpha, beta)
