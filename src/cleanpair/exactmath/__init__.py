"""Exact arithmetic: rationals, quadratic extensions, polynomials,
rational functions, and places of Q(T)."""

from cleanpair.exactmath.factor import (
    factor_rational_poly,
    is_irreducible,
    rational_roots,
    stays_irreducible_over_quadratic,
)
from cleanpair.exactmath.poly import (
    DegreeError,
    RatFunc,
    RatFuncField,
    UniPoly,
    poly_discriminant,
    poly_gcd,
    resultant,
)
from cleanpair.exactmath.places import (
    Place,
    UndefinedValuation,
    divisor_of,
    valuation_at,
    valuation_or_inf,
)
from cleanpair.exactmath.scalars import (
    QQ,
    QuadExtElem,
    QuadExtField,
    Rational,
    RationalField,
    as_fraction,
    is_rational_square,
    parse_rational,
    rational_to_str,
    sqrt_int,
    sqrt_rational,
)

__all__ = [
    "QQ",
    "DegreeError",
    "Place",
    "QuadExtElem",
    "QuadExtField",
    "RatFunc",
    "RatFuncField",
    "Rational",
    "RationalField",
    "UndefinedValuation",
    "UniPoly",
    "as_fraction",
    "divisor_of",
    "factor_rational_poly",
    "is_irreducible",
    "is_rational_square",
    "parse_rational",
    "poly_discriminant",
    "poly_gcd",
    "rational_roots",
    "rational_to_str",
    "resultant",
    "sqrt_int",
    "sqrt_rational",
    "stays_irreducible_over_quadratic",
    "valuation_at",
    "valuation_or_inf",
]
