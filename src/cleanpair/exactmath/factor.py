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
from cleanpair.exactmath.scalars import QQ, Rational, sqrt_rational

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


def stays_irreducible_over_quadratic(p: UniPoly, rad) -> bool:
    """Whether a monic irreducible p over Q stays irreducible over Q(sqrt(rad)).

    Factors over the extension pair up under the conjugation sqrt(rad) ->
    -sqrt(rad), and a conjugation-stable proper factor would descend to Q.
    Hence an odd-degree p cannot split at all, and an even-degree p can only
    split into one conjugate pair of factors of half degree.  Only degrees
    one and two and the odd case are needed here; other even degrees raise.
    """
    if not is_irreducible(p):
        raise ValueError("expected an irreducible polynomial")
    if sqrt_rational(Fraction(rad)) is not None:
        raise ValueError("radicand must not be a perfect square")
    n = p.degree()
    if n % 2 == 1:
        return True
    if n == 2:
        b = p.coeff(1)
        c = p.coeff(0)
        disc = b * b - 4 * c
        # p splits iff sqrt(disc) lies in the extension, i.e. disc = rad * r^2.
        return sqrt_rational(disc * rad) is None
    raise NotImplementedError(f"degree {n} over a quadratic extension")
