"""Exact arithmetic: rationals, polynomials, rational functions, and places
of Q(T)."""

from cleanpair.exactmath.factor import (
    factor_rational_poly,
    is_irreducible,
    rational_roots,
)
from cleanpair.exactmath.poly import (
    DegreeError,
    RatFunc,
    UniPoly,
    poly_gcd,
    taylor_coefficients,
)
from cleanpair.exactmath.places import (
    Place,
    UndefinedValuation,
    divisor_of,
    valuation_at,
)
from cleanpair.exactmath.scalars import (
    Rational,
    as_fraction,
    parse_rational,
    rational_to_str,
    sqrt_int,
    sqrt_rational,
)

__all__ = [
    "DegreeError",
    "Place",
    "RatFunc",
    "Rational",
    "UndefinedValuation",
    "UniPoly",
    "as_fraction",
    "divisor_of",
    "factor_rational_poly",
    "is_irreducible",
    "parse_rational",
    "poly_gcd",
    "rational_roots",
    "rational_to_str",
    "sqrt_int",
    "sqrt_rational",
    "taylor_coefficients",
    "valuation_at",
]
