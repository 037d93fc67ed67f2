"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

Rationals are ``fractions.Fraction`` throughout (aliased ``Rational``); the
stdlib type already guarantees the canonical form (reduced, positive
denominator) and arbitrary precision.  ``QuadExtElem`` models a + b*sqrt(d)
for a fixed rational radicand d.  Whenever d is a perfect rational square the
root is folded into the rational part, so genuine irrationality is always
visible as ``b != 0 and rad != 1``.
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


def is_rational_square(x) -> bool:
    return sqrt_rational(x) is not None


class QuadExtElem:
    """Element a + b*sqrt(rad) of a quadratic extension of Q.

    The radicand is a fixed nonzero rational; perfect-square radicands are
    folded away on construction so rad is 1 exactly when the element is
    rational.  Instances are immutable and hash-compatible with Fraction
    when they are rational.
    """

    __slots__ = ("a", "b", "rad")

    def __init__(self, a, b=0, rad=1):
        a = as_fraction(a)
        b = as_fraction(b)
        rad = as_fraction(rad)
        if rad == 0:
            raise ValueError("radicand must be nonzero")
        if b != 0 and rad != 1:
            root = sqrt_rational(rad)
            if root is not None:
                a, b, rad = a + b * root, Fraction(0), Fraction(1)
        if b == 0:
            rad = Fraction(1)
        elif rad == 1:
            a, b = a + b, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExtElem is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadExtElem":
        return QuadExtElem(self.a, -self.b, self.rad)

    def norm(self) -> Fraction:
        """Field norm a^2 - rad*b^2 down to Q."""
        return self.a * self.a - self.rad * self.b * self.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- coercion ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, QuadExtElem):
            if self.b == 0:
                return QuadExtElem(self.a, 0, other.rad), other
            if other.b == 0:
                return self, QuadExtElem(other.a, 0, self.rad)
            if self.rad != other.rad:
                raise ValueError(
                    f"mixed radicands {self.rad} and {other.rad}"
                )
            return self, other
        if isinstance(other, (int, Fraction)):
            return self, QuadExtElem(as_fraction(other), 0, self.rad)
        return self, None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        s, o = self._pair(other)
        if o is None:
            return NotImplemented
        rad = s.rad if s.b != 0 else o.rad
        return QuadExtElem(s.a + o.a, s.b + o.b, rad)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElem(-self.a, -self.b, self.rad)

    def __sub__(self, other):
        s, o = self._pair(other)
        if o is None:
            return NotImplemented
        return s + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        s, o = self._pair(other)
        if o is None:
            return NotImplemented
        rad = s.rad if s.b != 0 else o.rad
        return QuadExtElem(
            s.a * o.a + rad * s.b * o.b, s.a * o.b + s.b * o.a, rad
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero or non-invertible element")
        return QuadExtElem(self.a / n, -self.b / n, self.rad)

    def __truediv__(self, other):
        s, o = self._pair(other)
        if o is None:
            return NotImplemented
        return s * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExtElem(1, 0, self.rad)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExtElem):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return (
                self.a == other.a
                and self.b == other.b
                and self.rad == other.rad
            )
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.rad))

    def __repr__(self):
        if self.b == 0:
            return f"QuadExtElem({self.a})"
        return f"QuadExtElem({self.a}, {self.b}, rad={self.rad})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a} + {self.b}*sqrt({self.rad}))"


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
        if isinstance(value, QuadExtElem) and value.is_rational:
            return value.a
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


class QuadExtField:
    """Field descriptor for Q(sqrt(rad)); elements are QuadExtElem.

    A perfect-square radicand collapses to the trivial extension (rad 1).
    """

    def __init__(self, rad):
        rad = as_fraction(rad)
        if rad == 0:
            raise ValueError("radicand must be nonzero")
        if is_rational_square(rad):
            rad = Fraction(1)
        self.rad = rad

    def zero(self):
        return QuadExtElem(0, 0, self.rad)

    def one(self):
        return QuadExtElem(1, 0, self.rad)

    def sqrt_gen(self) -> QuadExtElem:
        """The element sqrt(rad) itself."""
        return QuadExtElem(0, 1, self.rad)

    def coerce(self, value):
        if isinstance(value, QuadExtElem):
            if value.b == 0 or value.rad == self.rad:
                return QuadExtElem(value.a, value.b, self.rad if value.b == 0 else value.rad)
            raise TypeError(f"radicand mismatch: {value.rad} vs {self.rad}")
        if isinstance(value, (int, Fraction)):
            return QuadExtElem(as_fraction(value), 0, self.rad)
        raise TypeError(f"cannot coerce {value!r} into Q(sqrt({self.rad}))")

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and self.rad == other.rad

    def __hash__(self):
        return hash(("QuadExt", self.rad))

    def __repr__(self):
        return f"QQ(sqrt({self.rad}))"
