"""Positive affine relations between utility tables.

A von Neumann-Morgenstern utility is unique up to a positive affine map,
so "do u and w represent the same preferences over lotteries?" is the
question whether w = alpha * u + beta with alpha > 0.  ``affine_relation``
is the one-table ``harsanyi.SpanProblem.certificate``, the certificate both
weight recoveries also read; the coincidence verdicts make the same call.
"""

from __future__ import annotations

from fractions import Fraction

from .core import UtilityTable
from .harsanyi import SpanProblem


def affine_relation(
    u: UtilityTable, w: UtilityTable
) -> tuple[Fraction, Fraction] | None:
    """The unique (alpha > 0, beta) with w = alpha*u + beta, or None.

    ``SpanProblem(states, (u, w)).certificate`` in u's state order reads
    alpha at the first state where u differs from the first state x0, and
    checks the identity and fixes beta at every state in one pass; a
    nonpositive alpha gives None.  One table always has a neighbour, so no
    reduction is built.  A constant u has weight None there, and the
    certificate's constant is w's one value, so a constant u relates only
    to a constant w, with alpha 1 and beta w(x0) - u(x0).
    """
    states = u.states()
    if states != w.states() and set(states) != set(w.states()):
        raise ValueError("tables must share a domain")
    found = SpanProblem(states, (u, w)).certificate
    if found is None:
        return None
    (alpha,), beta = found
    if alpha is None:
        return Fraction(1), beta - u[states[0]]
    return (alpha, beta) if alpha > 0 else None
