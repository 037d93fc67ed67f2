"""Exact arithmetic layer: scalars, polynomials, factorization, places.

Expected values below were computed by hand (discriminant formulas,
long division) before the implementation existed, and are frozen.
"""

import functools
import random
import sys
from fractions import Fraction as F
from itertools import islice
from math import gcd, isqrt

import pytest
import sympy
from sympy.polys.domains import ZZ_python
from sympy.polys.euclidtools import dup_inner_gcd
from sympy.polys.factortools import dup_factor_list

import cleanpair.exactmath.factor as factor_module
import cleanpair.exactmath.poly as poly_module
from cleanpair.exactmath import (
    Place,
    RatFunc,
    UndefinedValuation,
    UniPoly,
    divisor_of,
    factor_rational_poly,
    is_irreducible,
    parse_rational,
    poly_gcd,
    rational_roots,
    rational_to_str,
    sqrt_rational,
    taylor_coefficients,
    valuation_at,
)
from cleanpair.exactmath.places import _multiplicity
from cleanpair.exactmath.scalars import parse_ints
from cleanpair.exactmath.poly import (
    _exact_quo,
    _heu_candidates,
    _int_gcd,
    _primitive,
    _prs_gcd,
    qq_from_ints,
    qq_to_ints,
    taylor_numerators,
)
from cleanpair.family import functionfield_coefficients

T = UniPoly([0, 1])


def rand_poly(rng, deg=4):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
    return UniPoly(coeffs)


# -- scalars ------------------------------------------------------------------


def test_rational_string_round_trip():
    assert rational_to_str(F(-3, 7)) == "-3/7"
    assert rational_to_str(F(5)) == "5/1"  # canonical form always carries a denominator
    assert parse_rational("-3/7") == F(-3, 7)
    assert parse_rational("14") == F(14)
    assert parse_rational(rational_to_str(F(22, 7))) == F(22, 7)
    with pytest.raises(ValueError):
        parse_rational("3.5x")
    assert [parse_rational(t) for t in ("0", "-0", "007", "6/8", "-6/8")] == [0, 0, 7, F(3, 4), F(-3, 4)]
    # only the ASCII form -?[0-9]+(/[0-9]+)? is read: Python's int() would
    # also take these
    for text in ("1_0", "\uff12", "\u0661", " 1_0/1_0 ", "\uff11/\uff12", "\u0663/4", "+5/+7",
                 "1/-2", " 3 / 4 ", "3\n", "5/"):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"not a rational string: {text!r}"
    # computed values print past CPython's 4,300-digit int-to-str limit
    big = F(-(10**5000) - 1, 3)
    assert rational_to_str(big) == "-1" + "0" * 4999 + "1/3"
    assert str(UniPoly([big, 1])) == "T - 1" + "0" * 4999 + "1/3"


def test_integer_strings_read_only_the_ascii_form():
    assert parse_ints(["0", "-0", "007", "-12"]) == [0, 0, 7, -12]
    assert parse_ints([]) == []
    # the first string outside -?[0-9]+ is named, wherever it stands
    for text in ("1_0", "\uff13", "\u0661", "+2", "1 0", " 1", "-", "--1", "1-2", "", "3/4", "0x10"):
        for texts in ([text], ["1", text], [text, "-1_0"]):
            with pytest.raises(ValueError) as exc:
                parse_ints(texts)
            assert str(exc.value) == f"not an integer: {text!r}", texts
    limit = f"more than {sys.get_int_max_str_digits()} digits, the limit on integers read: '1"
    with pytest.raises(ValueError) as exc:
        parse_ints(["5", "1" + "0" * 4999])
    assert str(exc.value).startswith(limit) and len(str(exc.value)) < 200


def test_sqrt_rational():
    assert sqrt_rational(F(196, 1681)) == F(14, 41)
    assert sqrt_rational(F(2)) is None
    assert sqrt_rational(F(0)) == 0
    assert sqrt_rational(F(-4)) is None


# -- polynomials --------------------------------------------------------------


def test_poly_ring_axioms():
    rng = random.Random(20260814)
    for _ in range(40):
        a, b, c = (rand_poly(rng, deg=rng.randint(0, 5)) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == UniPoly([])


def test_poly_divmod_identity():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, deg=rng.randint(0, 7))
        b = rand_poly(rng, deg=rng.randint(0, 4))
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()


def test_derivative_product_rule():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_poly(rng, deg=3)
        b = rand_poly(rng, deg=4)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_power_squares_only_while_bits_remain(monkeypatch):
    # n = 1 takes no product and each further bit one square, plus one
    # product per set bit after the lowest: no product by 1, no spare square
    products = []
    qq_mul = poly_module._qq_mul

    def counting_mul(*args):
        products.append(args)
        return qq_mul(*args)

    p = F(1, 2) * T**2 - 3 * T + 1
    powers = [UniPoly([1])]
    for _ in range(13):
        powers.append(powers[-1] * p)
    monkeypatch.setattr(poly_module, "_qq_mul", counting_mul)
    assert p**0 == 1 and not products
    for n in range(1, 14):
        products.clear()
        assert p**n == powers[n]
        assert len(products) == n.bit_length() + n.bit_count() - 2, n


def test_gcd_and_squarefree():
    a = (T**2 - 1) * (T**3 + 2)
    b = (T - 1) * (T**3 + 2)
    assert poly_gcd(a, b) == ((T - 1) * (T**3 + 2)).monic()


def int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def int_poly(rng, deg, bits):
    """Integer coefficients, lowest degree first, each of 1 to bits bits and
    of either sign; the leading one is nonzero."""
    coeffs = [rng.getrandbits(rng.randint(1, bits)) * rng.choice((1, -1)) for _ in range(deg)]
    return coeffs + [(rng.getrandbits(rng.randint(1, bits)) or 1) * rng.choice((1, -1))]


def ref_int_gcd(f, g):
    """sympy's (h, f/h, g/h), lowest degree first, with lc(h) > 0."""
    h, cff, cfg = (c[::-1] for c in dup_inner_gcd(f[::-1], g[::-1], ZZ_python()))
    if h[-1] < 0:
        h, cff, cfg = ([-x for x in c] for c in (h, cff, cfg))
    return h, cff, cfg


def gcd_pairs(seed, count, max_deg=40):
    """Seeded pairs of degree 0-max_deg with coefficients of 1-300 bits: a
    quarter unrelated, the rest sharing a factor of degree 1-12, some with
    it squared in f and some with non-unit contents."""
    rng = random.Random(seed)
    for i in range(count):
        bits = rng.choice((1, 2, 8, 30, 100, 300))
        da, db = rng.randint(0, max_deg), rng.randint(0, max_deg)
        if i % 4 == 0:
            yield int_poly(rng, da, bits), int_poly(rng, db, bits)
            continue
        dc = rng.randint(1, 12)
        common = int_poly(rng, dc, bits)
        f = int_mul(int_poly(rng, max(0, da - dc), bits), common)
        g = int_mul(int_poly(rng, max(0, db - dc), bits), common)
        if i % 4 == 2:
            k = rng.getrandbits(rng.randint(1, 40)) + 1
            f, g = [6 * k * x for x in f], [10 * k * x for x in g]
        elif i % 4 == 3:
            f = int_mul(f, common)
        yield f, g


def test_integer_gcd_matches_sympy():
    for f, g in gcd_pairs(4114, 2000):
        h, cff, cfg = _int_gcd(f, g)
        assert (h, cff, cfg) == ref_int_gcd(f, g)
        assert int_mul(h, cff) == f and int_mul(h, cfg) == g


def test_prs_fallback_matches_sympy():
    # the PRS is the slow path, so its pairs stop at degree 20
    for f, g in gcd_pairs(4115, 200, max_deg=20):
        fp, gp = _primitive(f), _primitive(g)
        if len(fp) < len(gp):
            fp, gp = gp, fp
        h = _primitive(ref_int_gcd(f, g)[0])
        assert _prs_gcd(fp, gp) == h


def test_unlucky_evaluation_point_is_retried():
    # f(xi) and g(xi) share the spurious factor s = 2^(k-1) + 1 at the first
    # point xi = 2^k, so the first candidate is f itself; the next is right.
    for k in (5, 10, 40):
        f = int_mul([1, 1], [1 - 2 ** (k - 1), 1])
        g = int_mul(int_mul([1, 1], [2, 1]), [2 ** (k - 1) + 3, 1])
        first, second = islice(_heu_candidates(f, g), 2)
        assert first == f and second == [1, 1]
        h, cff, cfg = _int_gcd(f, g)
        assert h == [1, 1] and int_mul(h, cff) == f and int_mul(h, cfg) == g


# -- factorization ------------------------------------------------------------


def test_factor_rational_poly():
    c, parts = factor_rational_poly(T**4 - 1)
    assert c == 1
    assert [(str(q), m) for q, m in parts] == [
        ("T - 1", 1),
        ("T + 1", 1),
        ("T^2 + 1", 1),
    ]
    c, parts = factor_rational_poly(F(3, 2) * (T + 2) ** 2 * (2 * T - 1))
    assert c == 3
    assert parts == [(T - F(1, 2), 1), (T + 2, 2)]


def test_factor_random_recombination():
    rng = random.Random(101)
    for _ in range(20):
        p = rand_poly(rng, deg=rng.randint(1, 6))
        if not p:
            continue
        c, parts = factor_rational_poly(p)
        rebuilt = UniPoly([c])
        for q, m in parts:
            assert q.is_monic() and is_irreducible(q)
            rebuilt = rebuilt * q**m
        assert rebuilt == p


def ref_factor(p):
    """factor_rational_poly's contract from sympy's dup_factor_list on the
    primitive integer form of p."""
    num, den = qq_to_ints(p)
    content = gcd(*num)
    const, raw = dup_factor_list([c // content for c in reversed(num)], ZZ_python())
    c = F(content * const, den)
    parts = []
    for f, mult in raw:
        c *= F(f[0]) ** mult
        parts.append((qq_from_ints(f[::-1], f[0]), mult))
    parts.sort(key=lambda qm: (qm[0].degree(), qm[0].coeffs))
    return c, parts


def test_factorization_matches_sympy():
    # products of linear, quadratic and cubic factors with multiplicities
    # 1-4 under rational, negative leads; constants; and factors of degree
    # 4-6 that reach the sympy fallback, alone or repeated
    rng = random.Random(1817)

    def factor_of(deg):
        coeffs = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(deg)]
        return UniPoly(coeffs + [F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4))])

    fallback = 0
    for i in range(200):
        p = UniPoly([F(rng.choice((1, -1)) * rng.randint(1, 50), rng.randint(1, 9))])
        for _ in range(0 if i % 25 == 0 else rng.randint(1, 4)):
            f = factor_of(rng.choice((1, 1, 2, 2, 3, 3, 4, 5, 6) if i % 3 == 0 else (1, 2, 3)))
            p = p * f ** rng.randint(1, 4 if f.degree() < 4 else 2)
        if i % 7 == 0:
            p = p * (T**4 - 4) * (T**2 - 2) ** 2  # a quartic that splits into quadratics
        expected = ref_factor(p)
        fallback += any(q.degree() > 3 for q, _ in expected[1])
        assert factor_rational_poly(p) == expected, p
    assert fallback > 10


def test_family_discriminants_factor_without_sympy(monkeypatch):
    # Delta = c w^2 (s w^2 + 4T^3) with w = 1 - s - 3T, and its twists by
    # s^6, have squarefree parts of degree <= 3 only
    rng = random.Random(1818)
    cases = []
    for _ in range(40):
        s = F(rng.choice((1, -1)) * rng.randint(1, 40), rng.randint(1, 40))
        a, b = functionfield_coefficients(s)
        for k in (1, s):
            delta = -16 * (4 * (k * k * a) ** 3 + 27 * (k**3 * b) ** 2)
            cases.append((delta, ref_factor(delta)))

    def no_sympy(*args):
        raise AssertionError("a squarefree part of degree <= 3 reached sympy")

    monkeypatch.setattr("sympy.polys.factortools.dup_factor_list", no_sympy)
    for delta, expected in cases:
        assert factor_rational_poly(delta) == expected, delta
    with pytest.raises(AssertionError):
        factor_rational_poly((T**4 + 1) * T)


def test_rational_roots():
    assert rational_roots((2 * T - 1) ** 2 * (T + 3) * (T**2 + 1)) == [
        (F(-3), 1),
        (F(1, 2), 2),
    ]


def roots_by_factoring(p):
    _, parts = ref_factor(p)
    return sorted((-q.coeff(0), m) for q, m in parts if q.degree() == 1)


def test_low_degree_rational_roots_match_factoring(monkeypatch):
    rng = random.Random(4116)
    cases = []
    for i in range(600):
        size = 10**13 if i % 3 == 0 else 50
        lead = F(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 5))
        roots = [F(rng.randint(-size, size), rng.randint(1, 9 if i % 2 else 1)) for _ in range(3)]
        if i % 5 == 1:
            roots[1] = roots[0]  # a double root
        elif i % 5 == 2:
            roots[1] = roots[2] = roots[0]  # a triple root
        elif i % 5 == 3:  # roots next to each other, so next to a critical point
            roots[1], roots[2] = roots[0] + rng.randint(1, 2), roots[0] + rng.randint(-3, 3)
        linears = [T - r for r in roots]
        shape = i % 6
        if shape == 0:
            p = lead * linears[0] * linears[1] * linears[2]
        elif shape == 1:  # a root times an irreducible or split quadratic
            p = lead * linears[0] * (T**2 + rng.randint(-size, size) * T + rng.randint(-size, size))
        elif shape == 2:  # x^3 + A x + B, as in the torsion search
            p = T**3 + rng.randint(-size, size) * T + rng.randint(-size, size)
        elif shape == 3:
            p = lead * linears[0] * linears[1]
        elif shape == 4:
            p = lead * (T**2 + rng.randint(-size, size) * T + rng.randint(-size, size))
        else:
            p = lead * linears[0]
        cases.append((p, roots_by_factoring(p)))
    with pytest.raises(ValueError):
        rational_roots(UniPoly([]))

    def no_factoring(p):
        raise AssertionError("a nonzero p of degree <= 3 must not be factored")

    monkeypatch.setattr(factor_module, "factor_rational_poly", no_factoring)
    for p, expected in cases:
        assert rational_roots(p) == expected, p
    assert rational_roots(UniPoly([5])) == []


def cauchy_integer_roots(q):
    """The integer roots of a monic integer q of degree at most 3, by the
    same bisection on the same monotone pieces, but within the Cauchy bound
    1 + max |q_i|."""
    n = len(q) - 1
    cuts = []
    if n == 2:
        cuts = [-q[1] // 2]
    elif n == 3 and q[2] * q[2] > 3 * q[1]:
        r = isqrt(q[2] * q[2] - 3 * q[1] - 1) + 1
        cuts = [(-q[2] - r) // 3, -((q[2] - r) // 3) - 1]
    bound = 1 + max(map(abs, q[:-1]), default=0)
    value = lambda coeffs, y: functools.reduce(lambda v, c: v * y + c, reversed(coeffs), 0)
    out = []
    for i, (lo, hi) in enumerate(zip([-bound] + [c + 1 for c in cuts], cuts + [bound])):
        sign = (-1) ** (len(cuts) - i)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sign * value(q, mid) < 0 else (lo, mid)
        if lo == hi and not value(q, lo):
            m, d = 0, q
            while not value(d, lo):
                m, d = m + 1, [j * c for j, c in enumerate(d)][1:]
            out.append((lo, m))
    return out


def test_integer_roots_match_the_cauchy_bisection():
    # monic cubics with coefficients of about 1,000 digits, for which the
    # Fujiwara bound is far tighter than 1 + max |q_i|
    rng = random.Random(2311)
    big = lambda digits: rng.randint(-10**digits, 10**digits)
    a, b, c = big(333), big(333), big(333)
    x = UniPoly([0, 1])
    cubics = [
        (x - a) * (x - b) * (x - c),
        (x - a) ** 2 * (x - b),
        (x - a) ** 3,
        (x - a) * (x - a - 1) * (x - a + 1),  # roots next to the critical points
        (x - a) * (x**2 + big(333) * x + big(666)),
        x**3 + big(666) * x + big(999),  # x^3 + A x + B, as in the torsion search
        (x - a) * (x**2 + a * x + big(666)),  # the same shape, with a root
    ]
    found = []
    for p in cubics:
        q = [int(coeff) for coeff in p.coeffs]
        assert max(map(abs, q)) > 10**600
        expected = cauchy_integer_roots(q)
        assert factor_module._monic_integer_roots(q) == expected, q
        found.append([m for _, m in expected])
    assert found == [[1, 1, 1], [2, 1] if a < b else [1, 2], [3], [1, 1, 1], [1], [], [1]]


def test_low_degree_irreducibility_matches_factoring(monkeypatch):
    # degree 1-3: products of linear factors with repeated roots and roots
    # of large denominator, irreducible quadratics and cubics, and a linear
    # factor times an irreducible quadratic, each under a non-monic lead
    rng = random.Random(6211)
    cases = []
    for i in range(400):
        lead = F(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 7))
        den = 10**9 + 7 if i % 4 == 0 else rng.randint(1, 9)
        roots = [F(rng.randint(-50, 50), den) for _ in range(3)]
        c = F(rng.randint(1, 30), rng.randint(1, 5))
        shapes = (
            [T - roots[0]],
            [(T - roots[0]) ** 2],
            [(T - roots[0]) ** 3],
            [(T - roots[0]) ** 2, T - roots[1]],
            [T - roots[0], T - roots[1], T - roots[2]],
            [T**2 + c],
            [T**2 - T * roots[0] + c],
            [T**3 - 2 * c],
            [T**3 + roots[0] * T + c],
            [T - roots[0], T**2 + c],
        )
        p = UniPoly([lead])
        for f in shapes[i % len(shapes)]:
            p = p * f
        _, parts = ref_factor(p)
        cases.append((p, len(parts) == 1 and parts[0][1] == 1))
    assert 100 < sum(irreducible for _, irreducible in cases) < 300

    def no_factoring(p):
        raise AssertionError("a polynomial of degree <= 3 must not be factored")

    monkeypatch.setattr(factor_module, "factor_rational_poly", no_factoring)
    for p, expected in cases:
        assert is_irreducible(p) == expected, p
    assert not is_irreducible(UniPoly([5]))
    assert not is_irreducible(UniPoly([]))


# -- rational functions -------------------------------------------------------


def test_ratfunc_normalization():
    f = RatFunc((T**2 - 1) * 2, (T - 1) * 4)
    assert f.num == F(1, 2) * T + F(1, 2)
    assert f.den == UniPoly([F(1)])
    assert f.den.degree() == 0
    g = RatFunc(T + 1, 2 * T - 3)
    assert g.den.is_monic()
    assert g.evaluate(F(2)) == 3
    assert max(g.num.degree(), g.den.degree()) == 1


def test_q_of_t_elements_have_one_way_in():
    # a RatFunc is built from polynomials, never by dividing one, and its
    # powers are non-negative
    with pytest.raises(TypeError):
        T / 2
    with pytest.raises(TypeError):
        1 / RatFunc(T)
    with pytest.raises(ValueError):
        RatFunc(T) ** -1
    for args in ((RatFunc(T),), (F(1, 2),), (T, F(2))):
        with pytest.raises(TypeError):
            RatFunc(*args)


@pytest.mark.parametrize("c", ["1", 1.5, RatFunc(T), T], ids=["str", "float", "ratfunc", "poly"])
def test_polynomial_coefficients_are_rational(c):
    # every polynomial is over Q: its coefficients are ints or Fractions
    with pytest.raises(TypeError):
        UniPoly([c])
    with pytest.raises(TypeError):
        UniPoly([c])
    # as operands a RatFunc and a polynomial have a meaning of their own
    # (T + RatFunc(T) is a RatFunc); a string and a float have none
    if isinstance(c, (str, float)):
        with pytest.raises(TypeError):
            T + c
        with pytest.raises(TypeError):
            T * c


def test_ratfunc_field_ops():
    rng = random.Random(23)
    for _ in range(20):
        a = RatFunc(rand_poly(rng, deg=2), rand_poly(rng, deg=2) + T**3)
        b = RatFunc(rand_poly(rng, deg=3), T**2 + 1)
        assert (a + b) - b == a
        if b:
            assert (a * b) / b == a


# -- places and valuations ----------------------------------------------------


def test_valuations_frozen_example():
    # -3888 T^4 (T + 9/4) has divisor 4(T) + (T + 9/4) - 5(infinity)
    d = RatFunc(UniPoly([0, 0, 0, 0, -3888]) * UniPoly([9, 4]))
    assert valuation_at(Place.linear(0), d) == 4
    assert valuation_at(Place.linear(F(-9, 4)), d) == 1
    assert valuation_at(Place.infinity(), d) == -5
    dv = divisor_of(d)
    assert [(str(pl), m) for pl, m in dv] == [
        ("(T)", 4),
        ("(T + 9/4)", 1),
        ("infinity", -5),
    ]


def test_divisor_degree_zero():
    rng = random.Random(31)
    for _ in range(15):
        num = rand_poly(rng, deg=rng.randint(1, 4))
        den = rand_poly(rng, deg=rng.randint(1, 3))
        if not num or not den:
            continue
        f = RatFunc(num, den)
        if not f or max(f.num.degree(), f.den.degree()) == 0:
            continue
        assert sum(pl.degree() * m for pl, m in divisor_of(f)) == 0


def merged_divisor(f):
    """The divisor of f from the factors of its numerator and denominator,
    merged by place, zero entries dropped."""
    entries = {}
    for poly, sign in ((f.num, 1), (f.den, -1)):
        for q, m in factor_rational_poly(poly)[1]:
            entries[Place.finite(q)] = entries.get(Place.finite(q), 0) + sign * m
    entries[Place.infinity()] = f.den.degree() - f.num.degree()
    return sorted(((pl, m) for pl, m in entries.items() if m), key=lambda pm: pm[0].sort_key())


def test_divisor_matches_a_merged_reference():
    # shared factors of num and den cancel in RatFunc, repeated and
    # quadratic factors and constants included
    rng = random.Random(67)
    pool = [T, T + F(1, 3), T - 2, T**2 + 1, T**2 - T + F(5, 2), T**3 - 2]
    for _ in range(150):
        num, den = (
            rand_poly(rng, deg=rng.randint(0, 2))
            * rng.choice(pool) ** rng.randint(0, 3)
            * rng.choice(pool) ** rng.randint(0, 2)
            for _ in range(2)
        )
        if not num or not den:
            continue
        f = RatFunc(num, den)
        assert divisor_of(f) == merged_divisor(f), f


def test_valuation_additive():
    rng = random.Random(41)
    places = [Place.linear(1), Place.infinity(), Place.finite(T**2 + 1)]
    for _ in range(15):
        a = RatFunc(rand_poly(rng, deg=3), rand_poly(rng, deg=2) + T**4)
        b = RatFunc(rand_poly(rng, deg=2), T - 1)
        if not a or not b:
            continue
        for pl in places:
            assert valuation_at(pl, a * b) == valuation_at(pl, a) + valuation_at(pl, b)
            assert valuation_at(pl, a / b) == valuation_at(pl, a) - valuation_at(pl, b)


def test_multiplicity_matches_repeated_division():
    # roots of multiplicity 0-4 at linear places with and without a
    # denominator in the root, and at quadratic places with integral
    # coefficients (read from a residue first) and without
    rng = random.Random(47)
    quadratics = (T**2 + T + 1, T**2 + 4 * T + 1, T**2 - F(1, 2) * T + 3)
    for q in (T + F(1, 3), T, T - F(5, 2), T + 7, *quadratics):
        for m in range(5):
            for _ in range(4):
                cofactor = rand_poly(rng, deg=rng.randint(0, 6))
                if not cofactor:
                    continue
                p = q**m * cofactor
                count, num = 0, p
                while not num % q:
                    count, num = count + 1, num // q
                assert _multiplicity(p, Place.finite(q)) == count >= m


def test_divides_matches_the_remainder():
    # places with rational coefficients, where a quotient coefficient can
    # fail to be integral, which the monic integral places above never do;
    # T^2 over the integer form 2T^2 + 1 has quotient 1/2, and a quotient
    # floored to 0 would leave a zero remainder
    def divides(p, q):
        return _exact_quo(qq_to_ints(p)[0], qq_to_ints(q)[0]) is not None

    assert not divides(T**2, T**2 + F(1, 2))
    rng = random.Random(59)
    places = (T**2 + T + 1, T**2 + F(1, 2), T**2 - F(2, 3) * T + F(5, 7), T**3 - F(1, 4) * T + 3)
    hits = 0
    for q in places:
        for _ in range(40):
            p = rand_poly(rng, deg=rng.randint(0, 12))
            if rng.random() < 0.5:
                p = p * q ** rng.randint(1, 3)
            assert divides(p, q) == (not p % q), (p, q)
            hits += divides(p, q)
    assert 0 < hits < 160


def test_taylor_coefficients_rebuild_the_polynomial():
    # the j-th integer numerator at root = a/c is the j-th coefficient times
    # den c^(n - j), for p = num/den of degree n
    rng = random.Random(53)
    for root in (F(-1, 3), F(1, 3), F(0), F(7, 2), F(4), F(-5)):
        for deg in (0, 1, 5, 12):
            p = rand_poly(rng, deg=deg)
            coeffs = list(taylor_coefficients(p, root))
            shifted = sum((c * (T - root) ** j for j, c in enumerate(coeffs)), UniPoly([]))
            assert shifted == p
            assert next(taylor_coefficients(p, root), 0) == p.evaluate(root)
            den, c, n = qq_to_ints(p)[1], root.denominator, p.degree()
            numerators = list(taylor_numerators(p, root))
            assert all(type(r) is int for r in numerators)
            assert [F(r, den * c ** (n - j)) for j, r in enumerate(numerators)] == coeffs
    for root in (F(1, 3), F(-1, 3), F(2), F(-2)):
        assert list(taylor_coefficients(UniPoly([]), root)) == []
        assert list(taylor_numerators(UniPoly([]), root)) == []
        assert list(taylor_numerators(UniPoly([F(-5, 6)]), root)) == [-5]


def test_evaluate_at_a_rational_matches_the_power_sum():
    # evaluate at an int or a Fraction runs integer Horner; the reference
    # sums c * v**i in Fractions, with mixed denominators in p and in v
    rng = random.Random(61)
    values = [0, 1, -1, 7, -12, F(1, 3), F(-5, 2), F(22, 7), F(-1, 1024), F(10**12, 3**7)]
    for deg in range(-1, 9):
        for _ in range(4):
            p = UniPoly([F(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
                              for _ in range(deg + 1)])
            for v in values:
                got = p.evaluate(v)
                assert type(got) is F and got == sum(c * v**i for i, c in enumerate(p.coeffs))


def test_valuation_errors_and_inf():
    with pytest.raises(UndefinedValuation):
        valuation_at(Place.linear(0), RatFunc(UniPoly([])))
    assert valuation_at(Place.linear(0), F(7, 2)) == 0
    with pytest.raises(ValueError):
        Place.finite(T**2 - 1)  # reducible
    with pytest.raises(ValueError):
        Place.finite(2 * T - 1)  # not monic


# -- the rational kernel against sympy's Poly over QQ ----------------------------

KERNEL_DEGREES = (-1, 0, 1, 4, 24, 96)  # -1 is the zero polynomial


def big_rational(rng, bits=300):
    # Denominators are smooth, like those of the multiples nP over Q(T).
    den = 2 ** rng.randint(0, 40) * 3 ** rng.randint(0, 40) * 7 ** rng.randint(0, 20)
    return F(rng.getrandbits(bits) - (1 << (bits - 1)), den)


def big_poly(rng, deg, negative_lc=False):
    if deg < 0:
        return UniPoly([])
    coeffs = [big_rational(rng) if rng.random() < 0.8 else F(0) for _ in range(deg)]
    lead = abs(big_rational(rng)) or F(1)
    return UniPoly(coeffs + [-lead if negative_lc else lead])


def ref_poly(p):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0],
        sympy.Symbol("T"),
        domain="QQ",
    )


def ref_coeffs(sp):
    coeffs = [F(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def assert_exact_coeffs(p):
    for c in p.coeffs:
        assert type(c) is F
        assert type(c.numerator) is int and type(c.denominator) is int


def kernel_pairs():
    rng = random.Random(4111)
    pairs = []
    for i, da in enumerate(KERNEL_DEGREES):
        for j, db in enumerate(KERNEL_DEGREES):
            a = big_poly(rng, da, negative_lc=(i + j) % 2 == 1)
            b = big_poly(rng, db, negative_lc=j % 2 == 0)
            pairs.append(pytest.param(a, b, id=f"deg{da}-deg{db}"))
    # a shared factor, two associates, a coprime pair and two constants
    common = big_poly(rng, 4, negative_lc=True)
    pairs.append(pytest.param(big_poly(rng, 24) * common, big_poly(rng, 20) * common, id="common4"))
    pairs.append(pytest.param(common * 6, common * F(-3, 7), id="associates"))
    pairs.append(pytest.param(T**5 - 1, T**3 + T + 1, id="coprime-small"))
    pairs.append(pytest.param(UniPoly([F(-7, 3)]), UniPoly([5]), id="constants"))
    return pairs


@pytest.mark.parametrize("a,b", kernel_pairs())
def test_rational_kernel_matches_sympy(a, b):
    ra, rb = ref_poly(a), ref_poly(b)
    assert a.coeffs == ref_coeffs(ra) and b.coeffs == ref_coeffs(rb)
    prod = a * b
    assert prod.coeffs == ref_coeffs(ra * rb)
    assert_exact_coeffs(prod)
    s = a - b
    assert s.coeffs == ref_coeffs(ra - rb)
    assert_exact_coeffs(s)
    if not b:
        return
    q, r = divmod(a, b)
    rq, rr = ra.div(rb)
    assert (q.coeffs, r.coeffs) == (ref_coeffs(rq), ref_coeffs(rr))
    assert_exact_coeffs(q)
    assert_exact_coeffs(r)
    g = poly_gcd(a, b)
    rg = ra.gcd(rb)
    assert g.coeffs == ref_coeffs(rg)
    assert g.is_monic()
    assert_exact_coeffs(g)
    assert_reduced_like_sympy(RatFunc(a, b), ra, rb)


def assert_reduced_like_sympy(f, rnum, rden):
    g = rnum.gcd(rden)
    num, den = rnum.exquo(g), rden.exquo(g)
    lc = den.LC()
    assert (f.num.coeffs, f.den.coeffs) == (ref_coeffs(num.quo_ground(lc)), ref_coeffs(den.quo_ground(lc)))
    assert f.den.is_monic()
    assert ref_poly(f.num).gcd(ref_poly(f.den)).degree() <= 0
    assert_exact_coeffs(f.num)
    assert_exact_coeffs(f.den)


def test_ratfunc_sum_and_product_match_sympy():
    rng = random.Random(4113)
    for deg in (1, 4, 12):
        shared = big_poly(rng, deg)
        f = RatFunc(big_poly(rng, deg), big_poly(rng, deg) * shared)
        g = RatFunc(big_poly(rng, deg, negative_lc=True), big_poly(rng, deg // 2) * shared)
        rfn, rfd, rgn, rgd = (ref_poly(p) for p in (f.num, f.den, g.num, g.den))
        assert_reduced_like_sympy(f + g, rfn * rgd + rgn * rfd, rfd * rgd)
        assert_reduced_like_sympy(f - g, rfn * rgd - rgn * rfd, rfd * rgd)
        assert_reduced_like_sympy(f * g, rfn * rgn, rfd * rgd)
        assert_reduced_like_sympy(f / g, rfn * rgd, rfd * rgn)
        assert (f + g) - g == f and (f * g) / g == f
        assert f - f == 0 and (f / f) == 1


def test_rational_kernel_equality_and_hash_follow_the_coefficients():
    rng = random.Random(4112)
    a, b = big_poly(rng, 6), big_poly(rng, 5)
    built = UniPoly(list((a * b).coeffs))
    assert built == a * b and hash(built) == hash(a * b)
    assert hash(a * b) == hash(qq_to_ints(a * b))
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert UniPoly([F(2, 4), 0]) == UniPoly([F(1, 2)]) == F(1, 2)


def test_scalar_operands_equal_the_constant_polynomial():
    p = F(3, 7) * T**3 - 2 * T + F(1, 5)
    for k in (3, -16, 0, F(-9, 4), F(0), True):
        c = UniPoly([F(k)])
        assert (p + k, k + p, p - k, k - p, p * k, k * p) == (p + c, c + p, p - c, c - p, p * c, c * p), k
        for r in (p + k, k - p, p * k):
            num, den = qq_to_ints(r)
            assert all(type(x) is int for x in (*num, den))


def canonical(p):
    num, den = qq_to_ints(p)
    return den > 0 and (num[-1] != 0 and gcd(den, *num) == 1 if num else den == 1)


def convolution(p, q):
    # the general product: every coefficient pair, then a gcd over all of it
    (a, da), (b, db) = qq_to_ints(p), qq_to_ints(q)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return qq_from_ints(out, da * db)


def big_ints(rng, deg, bits=300):
    # about a quarter of the coefficients below the top are zero
    out = [rng.getrandbits(bits) - (1 << (bits - 1)) if rng.random() < 0.75 else 0 for _ in range(deg)]
    return out + [rng.getrandbits(bits) | 1]


def int_form_poly(rng, deg, content=1):
    # the denominator is prime to 6, so a content of 6 stays in the numerators
    den = 6 * rng.getrandbits(rng.randint(1, 300)) + 1
    return qq_from_ints([content * c for c in big_ints(rng, deg)], den)


def test_products_by_constants_equal_the_convolution():
    rng = random.Random(202810)
    for deg in (0, 1, 2, 7, 31, 64, 96):
        for _ in range(2):
            a = int_form_poly(rng, deg, content=6)
            num, den = qq_to_ints(a)
            assert gcd(*num) % 6 == 0
            constants = (
                1,
                -1,
                rng.getrandbits(300) + 2,
                3 * den,  # shares a factor with a's denominator
                F(5, 12),  # shares 6 with a's content
                F(-7 * rng.getrandbits(300), 12 * den + 6),
                int_form_poly(rng, 0),
            )
            for c in constants:
                k = c if isinstance(c, UniPoly) else UniPoly([c])
                for product in (a * c, c * a, a * k, k * a):
                    assert qq_to_ints(product) == qq_to_ints(convolution(a, k))
                    assert canonical(product)
            assert a * 1 == a and qq_to_ints(a * 1)[0] is num


def test_monic_rescale_keeps_the_form_canonical():
    # den = (..., top) / D with gcd(D, top) > 1, so (D, top) is not a
    # canonical constant while D / top reduced is
    rng = random.Random(202811)
    for deg in (1, 2, 9, 40, 96):
        low = big_ints(rng, deg - 1) if deg > 1 else []
        den = qq_from_ints([6 * rng.getrandbits(300) + 1] + low + [6 * rng.getrandbits(300) + 6], 12)
        assert qq_to_ints(den)[1] == 12 and gcd(12, qq_to_ints(den)[0][-1]) > 1
        num = int_form_poly(rng, rng.randint(0, 96 - deg))
        f = RatFunc(num, den)
        assert f.den.is_monic() and canonical(f.num) and canonical(f.den)
        assert convolution(f.num, den) == convolution(num, f.den)


def test_squares_equal_the_product_with_a_copy():
    rng = random.Random(202812)
    for deg in (0, 1, 2, 3, 8, 25, 47, 80, 96):
        a = int_form_poly(rng, deg, content=rng.choice((1, 6)))
        num, den = qq_to_ints(a)
        copy = qq_from_ints(list(num), den)
        assert qq_to_ints(copy)[0] is not num
        square = a * a
        assert qq_to_ints(square) == qq_to_ints(a * copy) == qq_to_ints(convolution(a, copy))
        assert canonical(square) and a**2 == square
        # the same numerators over another denominator make no square
        other = poly_module._qq_wrap(num, den * (gcd(*num) + 1))
        assert canonical(other)
        assert qq_to_ints(a * other) == qq_to_ints(convolution(a, other))


def pseudo_division_quotient(f, h):
    # f / h through the general pseudo-division, the reference for _exact_quo
    q, r = poly_module._qq_divmod(f, 1, h, 1)
    return None if r or qq_to_ints(q)[1] != 1 else list(qq_to_ints(q)[0])


def test_exact_quotient_matches_pseudo_division():
    rng = random.Random(202813)
    outcomes = set()
    for dh, dq in ((1, 0), (1, 40), (2, 7), (5, 1), (9, 48), (20, 20), (48, 48), (70, 26)):
        for sign in (1, -1):
            low = big_ints(rng, dh)[:-1]
            low[0] = low[0] or 1
            h = _primitive(low + [sign * rng.randrange(2, 1 << 64)])
            assert abs(h[-1]) > 1
            q = big_ints(rng, dq)
            f = qq_to_ints(qq_from_ints(h) * qq_from_ints(q))[0]
            top, bottom, other = list(f), list(f), list(f)
            top[-1] += 1  # the first quotient coefficient is not integral
            bottom[0] += 1  # integral quotient, nonzero remainder
            for i, c in enumerate(h):
                other[dq + i] += 7 * c  # divisible, quotient q + 7 T^dq
            for g in (f, top, bottom, other, big_ints(rng, dh + dq), f[:dh]):
                quo = _exact_quo(g, h)
                assert quo == pseudo_division_quotient(g, h)
                outcomes.add(quo is None)
            assert _exact_quo(f, h) == q
    assert _exact_quo([], [3, 2]) == [] and outcomes == {True, False}
