"""Places of the rational function field Q(T) and exact valuations.

A place is either a monic irreducible polynomial in T or the point at
infinity.  Valuations are normalized so that a uniformizer has value 1;
at infinity the value of a rational function is deg(den) - deg(num).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational as _RationalABC
from typing import NamedTuple

from cleanpair.exactmath.factor import factor_rational_poly, is_irreducible
from cleanpair.exactmath.poly import RatFunc, UniPoly, _exact_quo, qq_to_ints, taylor_numerators


class UndefinedValuation(ArithmeticError):
    """Valuation of the zero function was requested."""


class Place(NamedTuple):
    """A closed point of the projective T-line over Q: a monic irreducible
    poly in T, or None at infinity; `root` is r at T - r, else None.
    Build a place with `finite`, `linear` or `infinity`."""

    poly: UniPoly | None = None
    root: Fraction | None = None

    @classmethod
    def finite(cls, poly: UniPoly) -> "Place":
        if not poly.is_monic():
            raise ValueError("place polynomial must be monic")
        if not is_irreducible(poly):
            raise ValueError(f"place polynomial must be irreducible: {poly}")
        return cls(poly, -poly.coeff(0) if poly.degree() == 1 else None)

    @classmethod
    def linear(cls, root) -> "Place":
        """The place T = root, i.e. the prime (T - root)."""
        return cls.finite(UniPoly([-Fraction(root), 1]))

    @classmethod
    def infinity(cls) -> "Place":
        return cls()

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree()

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0, self.poly.degree(), tuple(self.poly.coeffs))

    def __str__(self):
        return "infinity" if self.poly is None else f"({self.poly})"


# -- internal helpers ---------------------------------------------------------


def _as_ratfunc(f):
    if isinstance(f, RatFunc):
        return f
    if isinstance(f, UniPoly):
        return RatFunc(f)
    if isinstance(f, (int, _RationalABC)):
        return RatFunc(UniPoly([f]))
    raise TypeError(f"cannot take a valuation of {type(f).__name__}")


def _multiplicity(num: UniPoly, place: Place) -> int:
    if place.root is not None:
        # the multiplicity of T - r counts the Taylor coefficients at r that
        # vanish, so v = 0 costs one evaluation
        return next((j for j, c in enumerate(taylor_numerators(num, place.root)) if c), 0)
    # the integer form of a monic p is primitive (its leading coefficient
    # is p's denominator), so exact division stops at the first top
    # coefficient that leaves a remainder
    a, b = qq_to_ints(num)[0], qq_to_ints(place.poly)[0]
    if len(b) == 3 and b[2] == 1:
        # an integral quadratic divides every top coefficient, so its
        # residue, (r1 T + r0) T + x mod p from the top down, settles v = 0
        r1 = r0 = 0
        for x in reversed(a):
            r1, r0 = r0 - r1 * b[1], x - r1 * b[0]
        if r1 or r0:
            return 0
    count = 0
    while a := _exact_quo(a, b):
        count += 1
    return count


def _poly_valuation(place: Place, p: UniPoly) -> int:
    """Valuation of a nonzero polynomial over Q; infinity gives -degree."""
    if place.is_infinity:
        return -p.degree()
    return _multiplicity(p, place)


# -- public API ---------------------------------------------------------------


def valuation_at(place: Place, f) -> int:
    """Order of vanishing of f at the place.  Raises UndefinedValuation
    when f is identically zero."""
    g = _as_ratfunc(f)
    if not g:
        raise UndefinedValuation(f"valuation of 0 at {place}")
    return _poly_valuation(place, g.num) - _poly_valuation(place, g.den)


def divisor_of(f) -> list[tuple[Place, int]]:
    """Principal divisor of a nonzero f in Q(T), sorted deterministically.

    The sum of degree * multiplicity over the divisor is zero.  The
    numerator and denominator of a reduced f share no place, so each of
    their irreducible factors gives one entry.
    """
    if isinstance(f, UniPoly):
        f = RatFunc(f)
    if not isinstance(f, RatFunc):
        raise TypeError("divisor_of expects a rational function")
    if not f:
        raise UndefinedValuation("the zero function has no divisor")
    out = [
        (Place.finite(q), sign * m)
        for poly, sign in ((f.num, 1), (f.den, -1))
        for q, m in factor_rational_poly(poly)[1]
    ]
    at_inf = f.den.degree() - f.num.degree()
    if at_inf:
        out.append((Place.infinity(), at_inf))
    out.sort(key=lambda pm: pm[0].sort_key())
    return out
