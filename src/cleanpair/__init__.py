"""Exact toolkit for clean pairs of rank-1 elliptic curves.

The package certifies, with exact rational arithmetic throughout, that a
product of two suitable rank-1 elliptic curves carries only finitely many
zero-cycle classes of the split form [(P1, P2)], by producing an explicit
rational function on a nodal fiber of an Inose-style pencil on the associated
Kummer surface.  Supporting layers provide the exact scalar and polynomial
arithmetic, the curve group law and torsion machinery, Neron local heights
over the function field of the line, and a search harness over the relevant
one-parameter specialization.
"""

from cleanpair.exactmath import (
    Place,
    RatFunc,
    Rational,
    UniPoly,
    valuation_at,
)

__all__ = [
    "Place",
    "RatFunc",
    "Rational",
    "UniPoly",
    "valuation_at",
]

__version__ = "0.1.0"
