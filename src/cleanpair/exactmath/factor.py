"""Irreducible factorization and rational roots over Q.

Factorization of the primitive integer form is delegated to sympy's dense
``dup_factor_list`` over plain Python integers, imported only when a
factorization is asked for; everything around it stays in our own exact
types.  Each factorization is re-multiplied and compared coefficient by
coefficient before being returned, so a kernel bug cannot leak through
silently.  The rational roots of a polynomial of degree at most 3 need no
factorization: they are found on plain integers by bisection between the
critical points, and they decide its irreducibility too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt

from cleanpair.exactmath.poly import UniPoly, qq_from_ints, qq_to_ints
from cleanpair.exactmath.scalars import QQ, Rational


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
    from sympy.polys.domains import ZZ_python
    from sympy.polys.factortools import dup_factor_list

    _require_rational_coeffs(p)
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree() == 0:
        return p.coeffs[0], []
    # p == (content / den) * prim with prim primitive over Z; each integer
    # factor f is lc(f) times a monic factor over Q.
    num, den = qq_to_ints(p)
    content = gcd(*num)
    const, raw = dup_factor_list([c // content for c in reversed(num)], ZZ_python())
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
    """Irreducibility over Q; constants and units count as reducible.  A
    polynomial of degree 2 or 3 is irreducible iff it has no rational root,
    so only degree 4 and up is factored."""
    _require_rational_coeffs(p)
    if p.degree() < 1:
        return False
    if p.degree() <= 3:
        return p.degree() == 1 or not rational_roots(p)
    _, parts = factor_rational_poly(p)
    return len(parts) == 1 and parts[0][1] == 1


def _eval(q, y: int) -> int:
    return reduce(lambda v, c: v * y + c, reversed(q), 0)


def _monic_integer_roots(q) -> list[tuple[int, int]]:
    """The integer roots, with multiplicities, of a monic integer q of
    degree at most 3.  Cutting Z at the floor of each critical point leaves
    pieces on which q is monotone, alternating in direction and rising on
    the last; each is bisected within the Cauchy bound."""
    n = len(q) - 1
    cuts = []
    if n == 2:
        cuts = [-q[1] // 2]
    elif n == 3 and q[2] * q[2] > 3 * q[1]:
        # the critical points are (-q2 -+ sqrt(D))/3, D = q2^2 - 3 q1; with
        # r = ceil(sqrt(D)) the cuts are floor(c1) and ceil(c2) - 1
        r = isqrt(q[2] * q[2] - 3 * q[1] - 1) + 1
        cuts = [(-q[2] - r) // 3, -((q[2] - r) // 3) - 1]
    bound = 1 + max(map(abs, q[:-1]), default=0)
    out = []
    for i, (lo, hi) in enumerate(zip([-bound] + [c + 1 for c in cuts], cuts + [bound])):
        sign = (-1) ** (len(cuts) - i)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sign * _eval(q, mid) < 0 else (lo, mid)
        if lo == hi and not _eval(q, lo):
            m, d = 0, q  # the multiplicity counts the derivatives vanishing at the root
            while not _eval(d, lo):
                m, d = m + 1, [j * c for j, c in enumerate(d)][1:]
            out.append((lo, m))
    return out


def rational_roots(p: UniPoly) -> list[tuple[Rational, int]]:
    """Roots of p in Q with multiplicities, sorted ascending.  Up to degree
    3 the roots y of the monic integer a^(n-1) p(Y/a), a = lc(p), give the
    roots y/a of p; higher degrees are factored."""
    if p.degree() > 3 or not p:
        _, parts = factor_rational_poly(p)
        out = [(-q.coeff(0), m) for q, m in parts if q.degree() == 1]
    else:
        num, _ = qq_to_ints(p)
        a, n = num[-1], len(num) - 1
        q = [c * a ** (n - 1 - i) for i, c in enumerate(num[:-1])] + [1]
        out = [(Fraction(y, a), m) for y, m in _monic_integer_roots(q)]
    return sorted(out, key=lambda rm: rm[0])
