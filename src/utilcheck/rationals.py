"""Exact rational scalars and their canonical string form.

Every numeric quantity in this package is exact; nothing is ever rounded.
A value is a ``fractions.Fraction``, the ints (p, q) of one in lowest
terms, or an int numerator over a positive int scale shared by a whole
table.  A table keeps its values' numerators and denominators as two
columns, and a Fraction is built only when a value is read for output or
for a witness.

The wire format for a rational is the canonical string ``"p"`` or
``"p/q"`` with ``q > 0`` and ``gcd(|p|, q) = 1``, which is exactly what
``str(Fraction)`` produces.  Emitting is trivial, and parsing rejects every
other spelling (floats, decimals, zero denominators, signs, leading zeros,
unreduced fractions), so whatever parses emits back unchanged, and a
numerator or denominator of more than ``MAX_DIGITS`` digits, with one
message on every interpreter.  ``parse_ratio`` decides one literal on its
two ints and returns them, or names it in its error (an over-long one only
by its length); ``parse_rational`` wraps its pair in a Fraction.
``parse_ratios`` decides many literals in one batch, from the same syntax,
and only accepts: it gives None where any literal is rejected, and
``parse_ratio`` then names the one at fault.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import starmap
from math import gcd, lcm
from operator import floordiv, itemgetter, mul
from typing import Collection, Sequence

#: Accepted wire syntax, ASCII digits only: "0" or a nonzero integer with no
#: "+" and no leading zero, then optionally "/" and a denominator with no
#: leading zero.  A denominator above 1 and lowest terms are checked after.
_NUMERATOR = r"0|-?[1-9][0-9]*"
_RATIONAL_RE = re.compile(rf"({_NUMERATOR})(?:/(0|[1-9][0-9]*))?")

#: Canonical literals, one per line: the same numerator, and a denominator
#: above 1, so that only lowest terms are left to check.
_LITERAL = rf"(?:{_NUMERATOR})(?:/(?:[2-9]|[1-9][0-9]+))?"
_LINES_RE = re.compile(rf"{_LITERAL}(?:\n{_LITERAL})*")
_DECODER = json.JSONDecoder()

#: The most digits a literal's numerator or denominator may have.  It is
#: CPython's default limit for converting a string to an int, checked here
#: first so that every interpreter rejects a longer one alike, with or
#: without that limit.
MAX_DIGITS = 4300


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse canonical ``"p"`` or ``"p/q"`` into the ints (p, q), q = 1 for ``"p"``.

    ``q`` must exceed 1 and share no factor with ``p``, and neither may
    have more than ``MAX_DIGITS`` digits.  Raises ValueError for anything
    else, including ``"1/0"``, ``"2/4"``, ``"3/1"``, decimal notation and
    negative denominators; an over-long literal's message does not repeat it.
    """
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    if _over_long(text):
        raise ValueError(f"rational literal has an integer of more than {MAX_DIGITS} digits")
    num, den = match.groups()
    if den is None:
        return int(num), 1
    p, q = int(num), int(den)
    if q == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    if q == 1 or gcd(p, q) != 1:
        raise ValueError(f"rational literal not in canonical form: {text!r}")
    return p, q


def parse_ratios(texts: Collection[str]) -> list[tuple[int, int]] | None:
    """Each literal's ints (p, q), as ``parse_ratio`` gives them, or None if any is rejected.

    One match of the newline-joined literals decides their syntax, and a
    count of the lines they make rejects a literal with a newline in it.
    Only a literal longer than ``MAX_DIGITS`` characters is looked at
    alone, and one with a longer int gives None.  The ints are read in C,
    as a JSON array of one [p, 1] or [p, q, 1] per literal, and one ``gcd``
    pass checks lowest terms.  It never raises: a non-string gives None.
    """
    if not texts:
        return []
    try:
        lines = "\n".join(texts)
    except TypeError:
        return None
    if _LINES_RE.fullmatch(lines) is None:
        return None
    longest = max(map(len, texts)) if len(lines) > MAX_DIGITS else 0
    if longest > MAX_DIGITS and any(map(_over_long, texts)):
        return None
    body = lines.replace("/", ",").replace("\n", ",1],[")
    try:
        rows = _DECODER.raw_decode(f"[[{body},1]]")[0]
    except ValueError:
        return None
    ratios = list(map(itemgetter(0, 1), rows))
    if len(ratios) != len(texts) or set(starmap(gcd, ratios)) != {1}:
        return None
    return ratios


def _over_long(text: str) -> bool:
    """Whether a literal's numerator or denominator has more than ``MAX_DIGITS`` digits."""
    parts = text.split("/") if len(text) > MAX_DIGITS else ()
    return any(len(part.lstrip("-")) > MAX_DIGITS for part in parts)


def parse_rational(text: str) -> Fraction:
    """``parse_ratio`` as an exact Fraction."""
    return Fraction(*parse_ratio(text))


def format_rational(q: Fraction) -> str:
    """Canonical string form, inverse of parse_rational."""
    return str(q if type(q) is Fraction else Fraction(q))


def scale_ratios(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, list[int]]:
    """The LCM of the denominators, and each nums[k] / dens[k] times it, as ints."""
    scale = lcm(*set(dens))
    return scale, [p * (scale // q) for p, q in zip(nums, dens)]


def scale_to_ints(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The LCM of the values' denominators, and each value times it, as ints.

    The scale is positive, so the ints keep every order, every equality and
    every equality of differences among the values: comparisons can run on
    them exactly and much faster than on Fractions.
    """
    return scale_ratios([v.numerator for v in values], [v.denominator for v in values])


def scale_rows(
    columns: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> tuple[list[int], list[list[int]]]:
    """Scale each row of a matrix, given as columns (p, q) of numerators and denominators.

    Each row is scaled by the LCM of its own denominators.  Returns the row
    LCMs d and, for each column, its entries p * (d // q) row by row, as a
    list, so the row reduction and the identity check can both read the
    same ints.  A row's ints stay as short as its own denominators however
    many rows there are, and a positive scale per row keeps the row space
    and every equation that holds on a row.
    """
    d = list(map(lcm, *(q for _, q in columns)))
    return d, [list(map(mul, p, map(floordiv, d, q))) for p, q in columns]
