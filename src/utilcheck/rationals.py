"""Exact rational scalars and their canonical string form.

Every numeric quantity in this package is exact; nothing is ever rounded.
A value is a ``fractions.Fraction``, the ints (p, q) of one in lowest
terms, or an int numerator over a positive int scale shared by a whole
table.  A parsed table keeps each value as its literal's (p, q), and a
Fraction is built only when a value is read for output or for a witness.

The wire format for a rational is the canonical string ``"p"`` or
``"p/q"`` with ``q > 0`` and ``gcd(|p|, q) = 1``, which is exactly what
``str(Fraction)`` produces.  Emitting is trivial, and parsing rejects every
other spelling (floats, decimals, zero denominators, signs, leading zeros,
unreduced fractions), so whatever parses emits back unchanged.
``parse_ratio`` is the one validator: it decides canonical form on the two
ints and returns them, and ``parse_rational`` wraps its pair in a Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import floordiv, itemgetter, mul
from typing import Sequence

#: Accepted wire syntax, ASCII digits only: "0" or a nonzero integer with no
#: "+" and no leading zero, then optionally "/" and a denominator with no
#: leading zero.  A denominator above 1 and lowest terms are checked after.
_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/(0|[1-9][0-9]*))?")


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse canonical ``"p"`` or ``"p/q"`` into the ints (p, q), q = 1 for ``"p"``.

    ``q`` must exceed 1 and share no factor with ``p``.  Raises ValueError
    for anything else, including ``"1/0"``, ``"2/4"``, ``"3/1"``, decimal
    notation and negative denominators.
    """
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    if den is None:
        return int(num), 1
    p, q = int(num), int(den)
    if q == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    if q == 1 or gcd(p, q) != 1:
        raise ValueError(f"rational literal not in canonical form: {text!r}")
    return p, q


def parse_rational(text: str) -> Fraction:
    """``parse_ratio`` as an exact Fraction."""
    return Fraction(*parse_ratio(text))


def format_rational(q: Fraction) -> str:
    """Canonical string form, inverse of parse_rational."""
    return str(Fraction(q))


def scale_ratios(ratios: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """The LCM of the denominators q, and each p/q times it, as ints."""
    scale = lcm(*{q for _, q in ratios})
    return scale, [p * (scale // q) for p, q in ratios]


def scale_to_ints(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The LCM of the values' denominators, and each value times it, as ints.

    The scale is positive, so the ints keep every order, every equality and
    every equality of differences among the values: comparisons can run on
    them exactly and much faster than on Fractions.
    """
    return scale_ratios([v.as_integer_ratio() for v in values])


def scale_rows(
    columns: Sequence[Sequence[tuple[int, int]]],
) -> tuple[list[int], list[list[int]]]:
    """Scale each row of a matrix, given as columns of (p, q), by the LCM of its own denominators.

    Returns the row LCMs d and, for each column, its entries p * (d // q)
    row by row, as a list, so the row reduction and the identity check can
    both read the same ints.  A row's ints stay as short as its own
    denominators however many rows there are, and a positive scale per row
    keeps the row space and every equation that holds on a row.
    """
    split = [(list(map(itemgetter(0), c)), list(map(itemgetter(1), c))) for c in columns]
    d = list(map(lcm, *(q for _, q in split)))
    return d, [list(map(mul, p, map(floordiv, d, q))) for p, q in split]
