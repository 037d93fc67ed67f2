"""Irreducible factorization and rational roots over Q.

A polynomial is first split into squarefree parts by Yun's algorithm (Yun
1976) on the package's own integer gcd.  A part of degree at most 3 splits
into the linear factors of its rational roots and one irreducible rest,
since a quadratic or cubic without a rational root is irreducible.  Only a
part of degree 4 or more goes to sympy's dense ``dup_factor_list`` over
plain Python integers, imported when such a part occurs; everything around
it stays in our own exact types.  sympy is not a dependency of the package:
without it, such a part raises ImportError.  Each factorization is
re-multiplied and compared coefficient by coefficient before being
returned, so a kernel bug cannot leak through silently.  The rational
roots of a polynomial of degree at most 3 need no factorization: they are
found on plain integers by bisection between the critical points, and they
decide its irreducibility too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import isqrt

from cleanpair.exactmath.poly import UniPoly, _cofactors, qq_from_ints, qq_to_ints
from cleanpair.exactmath.scalars import Rational


def _sort_key(p: UniPoly):
    return (p.degree(), tuple(p.coeffs))


def _squarefree_parts(p: UniPoly):
    """Yun's pairs (a, i) for the nonconstant p: the a squarefree,
    nonconstant and pairwise coprime, and p a constant times prod a^i.
    Each step is one integer gcd with its exact cofactors."""
    _, b, c = _cofactors(p, p.derivative())
    i = 1
    while b.degree() > 0:
        d = c - b.derivative()
        if not d:
            yield b, i
            return
        a, b, c = _cofactors(b, d)
        if a.degree() > 0:
            yield a, i
        i += 1


def _irreducible_factors(a: UniPoly) -> list[UniPoly]:
    """The monic irreducible factors of the squarefree nonconstant a."""
    if a.degree() > 3:
        try:
            from sympy.polys.domains import ZZ_python
            from sympy.polys.factortools import dup_factor_list
        except ImportError:
            raise ImportError("factoring a squarefree part of degree 4 or more needs sympy") from None

        num, _ = qq_to_ints(a)
        _, raw = dup_factor_list(list(num[::-1]), ZZ_python())
        return [qq_from_ints(f[::-1], f[0]) for f, _ in raw]
    linear = [UniPoly([-r, 1]) for r, _ in rational_roots(a)]
    # with the linear factors out, a rest of degree 2 or 3 has no rational
    # root, so it is irreducible
    rest = reduce(lambda f, q: f // q, linear, a)
    return linear + [rest.monic()] if rest.degree() > 0 else linear


def factor_rational_poly(p: UniPoly) -> tuple[Rational, list[tuple[UniPoly, int]]]:
    """Factor a nonzero polynomial over Q.

    Returns (c, parts) with each part (q, m): q monic irreducible, m >= 1,
    parts sorted by (degree, coefficients), and c * prod q^m == p exactly.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree() == 0:
        return p.coeffs[0], []
    c = p.lc()
    parts = [(q, m) for a, m in _squarefree_parts(p) for q in _irreducible_factors(a)]
    parts.sort(key=lambda qm: _sort_key(qm[0]))
    check = qq_from_ints((c.numerator,), c.denominator)
    for q, m in parts:
        check = check * q**m
    if check != p:
        raise ArithmeticError("factorization failed recombination check")
    return c, parts


def is_irreducible(p: UniPoly) -> bool:
    """Irreducibility over Q; constants and units count as reducible.  A
    polynomial of degree 2 or 3 is irreducible iff it has no rational root,
    so only degree 4 and up is factored."""
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
    the last; each is bisected within Fujiwara's bound 2 max_k |q_{n-k}|^(1/k)
    (Fujiwara 1916), each k-th root rounded up to a power of two."""
    n = len(q) - 1
    cuts = []
    if n == 2:
        cuts = [-q[1] // 2]
    elif n == 3 and q[2] * q[2] > 3 * q[1]:
        # the critical points are (-q2 -+ sqrt(D))/3, D = q2^2 - 3 q1; with
        # r = ceil(sqrt(D)) the cuts are floor(c1) and ceil(c2) - 1
        r = isqrt(q[2] * q[2] - 3 * q[1] - 1) + 1
        cuts = [(-q[2] - r) // 3, -((q[2] - r) // 3) - 1]
    # |c| < 2^b for b = c.bit_length(), so |c|^(1/k) < 2^ceil(b/k)
    bound = 2 << max((-(-c.bit_length() // k) for k, c in enumerate(q[-2::-1], 1)), default=0)
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
