"""Exact scalar arithmetic over Q.

Rationals are ``fractions.Fraction`` throughout (aliased ``Rational``); the
stdlib type already guarantees the canonical form (reduced, positive
denominator) and arbitrary precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Rational = Fraction


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or integer-like string to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rational_to_str(x: Fraction) -> str:
    """Serialize as the canonical "num/den" string (den always present)."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of rational_to_str; also accepts a bare integer string.
    Anything else, a zero denominator included, raises ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    body = text.strip()
    if "/" in body:
        num, den = body.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(body))


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


class RationalField:
    """Field descriptor for Q; elements are Fraction."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"{value!r} is not rational")

    def sqrt(self, value):
        return sqrt_rational(self.coerce(value))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()
