"""Exact scalar arithmetic over Q.

Rationals are ``fractions.Fraction`` throughout (aliased ``Rational``); the
stdlib type already guarantees the canonical form (reduced, positive
denominator) and arbitrary precision.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from math import isqrt

Rational = Fraction

_REPR = reprlib.Repr()
_REPR.maxlevel = 3


def short_repr(value) -> str:
    """repr(value) for an error message: reprlib's (at most six items a
    level, three levels deep, 30 characters a string), cut to 120."""
    text = _REPR.repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def as_fraction(value) -> Fraction:
    """An int or a Fraction as a Fraction; anything else raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{value!r} is not rational")


def rational_to_str(x: Fraction) -> str:
    """Serialize as the canonical "num/den" string (den always present), at
    any size.  CPython refuses to turn an int of more than 4,300 digits into
    a string (sys.get_int_max_str_digits); that limit guards what is read,
    and decimal's conversion, exact at any size, prints what is computed."""
    x = as_fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        from decimal import Decimal

        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(text: str) -> tuple[int, int]:
    """The integers (n, d), as written, of a string n/d, or (n, 1) of n, in
    the ASCII form -?[0-9]+(/[0-9]+)?.  Anything else, a zero denominator or
    an integer over CPython's digit limit included, raises ValueError."""
    match = _RATIO.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational string: {short_repr(text)}")
    num, den = match.groups()
    try:
        num, den = int(num), int(den) if den else 1
    except ValueError:
        raise ValueError(f"more than {sys.get_int_max_str_digits()} digits, the limit on "
                         f"integers read: {short_repr(text)}") from None
    if den == 0:
        raise ValueError(f"zero denominator: {short_repr(text)}")
    return num, den


def parse_ints(texts: list[str]) -> list[int]:
    """The integers of strings in the ASCII form -?[0-9]+; the first string
    outside it or over CPython's digit limit raises ValueError.  int refuses
    a misplaced minus sign, so ASCII digits and minus signs pass one test."""
    digits = "".join(texts).replace("-", "")
    if digits.isascii() and digits.isdigit():
        try:
            return list(map(int, texts))
        except ValueError:
            pass
    for text in texts:
        body = text[1:] if text[:1] == "-" else text
        if not (body.isascii() and body.isdigit()):
            raise ValueError(f"not an integer: {short_repr(text)}")
        parse_ratio(text)  # raises over the digit limit
    return []  # no strings


def parse_rational(text: str) -> Fraction:
    """Inverse of rational_to_str; also reads a bare integer (parse_ratio)."""
    return Fraction(*parse_ratio(text))


def sqrt_int(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def sqrt_rational(x) -> Fraction | None:
    """Exact nonnegative square root, or None when x is not a square."""
    x = as_fraction(x)
    if x < 0:
        return None
    rn = sqrt_int(x.numerator)
    rd = sqrt_int(x.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)

