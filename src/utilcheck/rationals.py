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
``parse_ratios`` decides many literals in one batch and only accepts: it
gives None where any literal is rejected, and ``parse_ratio`` then names
the one at fault.  It reads the whole batch as one flat JSON array of ints,
numerator then denominator, and rejects what JSON's number grammar lets
through and the literal syntax does not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from operator import floordiv, mul
from typing import Collection, Sequence

#: Accepted wire syntax, ASCII digits only: "0" or a nonzero integer with no
#: "+" and no leading zero, then optionally "/" and a denominator with no
#: leading zero.  A denominator above 1 and lowest terms are checked after.
_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/(0|[1-9][0-9]*))?")

#: The characters of a batch of literals, each spelled "p/q", joined by ",":
#: ASCII digits, "-", "/" and ",".  JSON's number grammar then refuses a
#: leading zero, a lone "-" and a "-" inside a number.
_BATCH_RE = re.compile(r"[-0-9/,]*")
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

    Each literal without a "/" gets "/1", and the batch, joined by "," with
    every "/" turned into ",", is read in C as one flat JSON array of ints:
    the numerators at even places, the denominators at odd ones.  Its
    characters, JSON's number grammar, and a count of 2 ints per literal
    (which refuses a "," and a second "/") decide the syntax; "-0", a
    denominator below 1, and more denominators of 1 than literals without
    "/" (a "p/1") are refused after, and one ``gcd`` pass checks lowest
    terms.  Only a literal longer than ``MAX_DIGITS`` characters is looked
    at alone, and one with a longer int gives None.  It never raises: a
    non-string gives None.
    """
    if not texts:
        return []
    try:
        joined = ",".join([t if "/" in t else t + "/1" for t in texts])
    except TypeError:
        return None
    if _BATCH_RE.fullmatch(joined) is None or "-0" in joined:
        return None
    longest = max(map(len, texts)) if len(joined) > MAX_DIGITS else 0
    if longest > MAX_DIGITS and any(map(_over_long, texts)):
        return None
    try:
        flat = _DECODER.raw_decode(f"[{joined.replace('/', ',')}]")[0]
    except ValueError:
        return None
    nums, dens = flat[0::2], flat[1::2]
    # The literals without "/": each "/1" put after one adds 2 characters to
    # the joined text, past the literals' own and the n - 1 commas.
    plain = (len(joined) - sum(map(len, texts)) - len(texts) + 1) // 2
    if len(flat) != 2 * len(texts) or min(dens) < 1 or dens.count(1) > plain:
        return None
    if set(map(gcd, nums, dens)) != {1}:
        return None
    return list(zip(nums, dens))


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
