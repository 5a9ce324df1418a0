"""Exact rational scalars and their canonical string form.

Every numeric quantity in this package is a ``fractions.Fraction``; nothing
is ever rounded.  The wire format for a rational is the canonical string
``"p"`` or ``"p/q"`` with ``q > 0`` and ``gcd(|p|, q) = 1``, which is exactly
what ``str(Fraction)`` produces.  Emitting is trivial, and parsing rejects
every other spelling (floats, decimals, zero denominators, signs, leading
zeros, unreduced fractions), so whatever parses emits back unchanged.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

#: Accepted wire syntax, ASCII digits only: "0" or a nonzero integer with no
#: "+" and no leading zero, then optionally "/" and a denominator with no
#: leading zero.  A denominator above 1 and lowest terms are checked after.
_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/(0|[1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Parse canonical ``"p"`` or ``"p/q"`` into an exact Fraction.

    ``q`` must exceed 1 and share no factor with ``p``.  Raises ValueError
    for anything else, including ``"1/0"``, ``"2/4"``, ``"3/1"``, decimal
    notation and negative denominators.
    """
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    q = int(den)
    if q == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    value = Fraction(int(num), q)
    if value.denominator != q or q == 1:
        raise ValueError(f"rational literal not in canonical form: {text!r}")
    return value


def format_rational(q: Fraction) -> str:
    """Canonical string form, inverse of parse_rational."""
    return str(Fraction(q))


def scale_to_ints(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The LCM of the values' denominators, and each value times it, as ints.

    The scale is positive, so the ints keep every order, every equality and
    every equality of differences among the values: comparisons can run on
    them exactly and much faster than on Fractions.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*{d for _, d in ratios})
    return scale, [n * (scale // d) for n, d in ratios]
