"""Irreducible factorization over Q, with a sympy kernel.

The heavy lifting (univariate factorization of the primitive integer
form) is delegated to sympy's dense ``dup_factor_list`` over plain Python
integers; everything around it stays in our own exact types.
Each factorization is re-multiplied and compared coefficient by
coefficient before being returned, so a kernel bug cannot leak through
silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from sympy.polys.domains import ZZ_python
from sympy.polys.factortools import dup_factor_list

from cleanpair.exactmath.poly import UniPoly, qq_from_ints, qq_to_ints
from cleanpair.exactmath.scalars import QQ, Rational

_ZZ = ZZ_python()


def _require_rational_coeffs(p: UniPoly) -> None:
    if p.field != QQ:
        raise TypeError("factorization is implemented over Q only")


def _sort_key(p: UniPoly):
    return (p.degree(), tuple(p.coeffs))


def factor_rational_poly(p: UniPoly) -> tuple[Rational, list[tuple[UniPoly, int]]]:
    """Factor a nonzero polynomial over Q.

    Returns (c, parts) with each part (q, m): q monic irreducible, m >= 1,
    parts sorted by (degree, coefficients), and c * prod q^m == p exactly.
    """
    _require_rational_coeffs(p)
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree() == 0:
        return p.coeffs[0], []
    # p == (content / den) * prim with prim primitive over Z; each integer
    # factor f is lc(f) times a monic factor over Q.
    num, den = qq_to_ints(p)
    content = gcd(*num)
    const, raw = dup_factor_list([c // content for c in reversed(num)], _ZZ)
    c = Fraction(content * const, den)
    parts = []
    for f, mult in raw:
        c *= Fraction(f[0]) ** mult
        parts.append((qq_from_ints(p.var, f[::-1], f[0]), mult))
    parts.sort(key=lambda qm: _sort_key(qm[0]))
    check = UniPoly.constant(p.var, c, QQ)
    for q, m in parts:
        check = check * q**m
    if check != p:
        raise ArithmeticError("factorization failed recombination check")
    return c, parts


def is_irreducible(p: UniPoly) -> bool:
    """Irreducibility over Q; constants and units count as reducible."""
    _require_rational_coeffs(p)
    if p.degree() < 1:
        return False
    _, parts = factor_rational_poly(p)
    return len(parts) == 1 and parts[0][1] == 1


def rational_roots(p: UniPoly) -> list[tuple[Rational, int]]:
    """Roots of p in Q with multiplicities, sorted ascending."""
    _, parts = factor_rational_poly(p)
    out = []
    for q, m in parts:
        if q.degree() == 1:
            out.append((-q.coeff(0), m))
    out.sort(key=lambda rm: rm[0])
    return out
