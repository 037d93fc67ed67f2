"""Group law, torsion, isomorphism witnesses, and family normalization.

The numeric expectations were derived by hand with the chord-tangent
formulas before wiring them into assertions.
"""

import hashlib
import random
import time
from fractions import Fraction as F
from itertools import combinations, product

import pytest

import cleanpair.ec_core as ec_core
import cleanpair.exactmath.poly as poly_module
import cleanpair.search as searchmod
from cleanpair.ec_core import (
    CurvePoint,
    IsomorphismWitness,
    ModelError,
    O,
    ShapeError,
    SingularCurveError,
    TorsionError,
    WeierstrassCurve,
    _PROBE_PRIMES,
    _REFUTING_PRIMES,
    _exact_torsion_order,
    _order_exceeds_mazur_bound,
    add,
    is_torsion_overQ,
    normalize_to_family,
    scalar_mul,
    torsion_points_overQ,
)
from cleanpair.exactmath import Place, RatFunc, UniPoly, sqrt_rational
from cleanpair.ffheights import FunctionFieldCurve, family_functionfield_curve
from cleanpair.search import _torsion_tables, enumerate_s1

E11 = WeierstrassCurve(-3, 11)
P0 = CurvePoint.affine(F(-2), F(-3))


def _ab(E):
    return (E.a, E.b)


def on_curve(E, P):
    """Whether the affine P satisfies y^2 = x^3 + ax + b over Q(T)."""
    return P.y * P.y == P.x * P.x * P.x + P.x * E.a + E.b


def random_point(E, rng, tries=400):
    # sample x until the cubic value is a square
    for _ in range(tries):
        x = F(rng.randint(-40, 40), rng.randint(1, 6))
        y2 = E.rhs(x)
        if y2 >= 0:
            y = sqrt_rational(y2)
            if y is not None:
                return CurvePoint.affine(x, y if rng.random() < 0.5 else -y)
    raise AssertionError("no point found")


def test_discriminant_and_j():
    assert E11.discriminant() == -50544
    assert WeierstrassCurve.possibly_singular(0, 0).discriminant() == 0
    # j = 6912 a^3 / (4 a^3 + 27 b^2) = 6912 * -27 / 3159
    a, b = E11.a, E11.b
    assert 6912 * a**3 * 3159 == 6912 * -27 * (4 * a**3 + 27 * b**2)
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0)


def test_group_law_basics():
    assert add(E11, P0, O) == P0
    assert add(E11, O, P0) == P0
    assert add(E11, P0, -P0) == O
    two_p = add(E11, P0, P0)
    assert two_p == CurvePoint.affine(F(25, 4), F(123, 8))
    assert E11.contains(two_p)
    assert scalar_mul(E11, 2, P0) == two_p
    assert scalar_mul(E11, 0, P0) == O
    assert scalar_mul(E11, 1, P0) == P0
    assert scalar_mul(E11, -3, P0) == -scalar_mul(E11, 3, P0)


def test_points_and_places_are_immutable_tuples():
    for record, field in ((O, "x"), (P0, "y"), (Place.linear(2), "root")):
        with pytest.raises(AttributeError):
            setattr(record, field, F(1))
    assert -O is O and CurvePoint() == O
    assert P0 == (F(-2), F(-3))
    T = UniPoly([0, 1])
    two = Place.linear(2)
    assert two == Place.finite(T - 2) and hash(two) == hash(Place.finite(T - 2)) and two.root == 2
    assert Place.infinity() != Place.linear(0)


def test_on_curve_closure_and_associativity():
    rng = random.Random(2024)
    pts = [random_point(E11, rng) for _ in range(6)] + [O, P0, -P0]
    for P in pts:
        for Q in pts:
            S = add(E11, P, Q)
            assert E11.contains(S)
    for _ in range(200):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert add(E11, add(E11, P, Q), R) == add(E11, P, add(E11, Q, R))


def test_scalar_mul_matches_repeated_add():
    rng = random.Random(5)
    P = P0
    acc = O
    for n in range(8):
        assert scalar_mul(E11, n, P) == acc
        acc = add(E11, acc, P)


def test_scalar_mul_doubles_only_while_bits_remain(monkeypatch):
    affine = []

    def counting_add(E, P, Q):
        if not P.is_infinity and not Q.is_infinity:
            affine.append((P, Q))
        return add(E, P, Q)

    two_p = add(E11, P0, P0)
    eight_p = add(E11, add(E11, two_p, two_p), add(E11, two_p, two_p))
    monkeypatch.setattr(ec_core, "add", counting_add)
    assert scalar_mul(E11, 2, P0) == two_p
    assert len(affine) == 1
    affine.clear()
    assert scalar_mul(E11, 8, P0) == eight_p
    assert len(affine) == 3


# sha256 of "(num)/(den)" of x and of y, a line each, for 9P on the
# ladder at s = 2, computed with
# lam * lam - x1 - x2 in the order the points came: however the formulas
# are arranged, the reduced form must not change
NINE_P_AT_S2_SHA256 = "3d54bce0e5dadb9c562d08b9e11e52e7c38597838ca45d93bb96e3b67f1a299d"


def ladder_at_s2():
    E, P = family_functionfield_curve(2)
    multiples = {1: P}
    for n in range(2, 10):
        multiples[n] = add(E, multiples[n - 1], P)
    return E, multiples


def test_group_law_over_function_field():
    T = UniPoly([0, 1])
    E = FunctionFieldCurve(-3 * T**2, 2 * T**3 + 9 * T**2)
    # marked point of the s=1 member: (-2T, -3T)
    P = CurvePoint.affine(RatFunc(-2 * T), RatFunc(-3 * T))
    assert on_curve(E, P)
    for n in range(2, 5):
        assert on_curve(E, scalar_mul(E, n, P))
    # at s = 2 the ladder P, ..., 9P is pinned, and sums of its points
    # commute and associate
    E, m = ladder_at_s2()
    for n in range(2, 10):
        assert m[n] == scalar_mul(E, n, m[1])
    x, y = m[9]
    digest = hashlib.sha256(f"({x.num})/({x.den})\n({y.num})/({y.den})".encode()).hexdigest()
    assert digest == NINE_P_AT_S2_SHA256
    # either order of a chord gives the ladder's multiple
    for i, j in combinations(range(1, 10), 2):
        if i + j <= 9:
            assert add(E, m[i], m[j]) == m[i + j] == add(E, m[j], m[i])
    triples = [t for t in product(range(1, 10), repeat=3) if sum(t) <= 12]
    for i, j, k in random.Random(9).sample(triples, 12):
        assert add(E, add(E, m[i], m[j]), m[k]) == add(E, m[i], add(E, m[j], m[k]))


def test_ladder_takes_no_gcd_a_reduced_fraction_cannot_have(monkeypatch):
    # on the integral model a point is (u/w^2, v/w^3): a chord with P, whose
    # w is 1, and a doubling each take one gcd, the one that reduces the
    # slope (72 integer gcds for 2P, ..., 9P when written as lam * lam - x1
    # - x2 with RatFunc operators, 40 with Henrici's rules alone)
    calls = []
    int_gcd = poly_module._int_gcd

    def counting_gcd(f, g):
        calls.append((f, g))
        return int_gcd(f, g)

    monkeypatch.setattr(poly_module, "_int_gcd", counting_gcd)
    E, m = ladder_at_s2()
    assert len(calls) <= 8
    calls.clear()
    assert scalar_mul(E, 8, m[1]) == m[8]
    assert len(calls) == 3


def generic_add(E, P, Q):
    """The chord and tangent written with RatFunc operators alone."""
    if P.x == Q.x:
        if P.y == -Q.y:
            return O
        lam = (3 * P.x * P.x + E.a) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    return CurvePoint(x3, lam * (P.x - x3) - P.y)


@pytest.mark.parametrize("s", [2, 3, -1, F(1, 2), F(5, 7), F(9, 4), 1])
def test_integral_route_equals_the_generic_chord_and_tangent(s):
    E, P = family_functionfield_curve(s)
    m = {1: P}
    for n in range(2, 12):
        m[n] = add(E, m[n - 1], P)  # checked against generic_add below
    for i, j in product(range(1, 12), repeat=2):
        if i + j > 11 or i > j:
            continue
        for sign in (1, -1):
            Q = m[j] if sign > 0 else -m[j]
            expected = generic_add(E, m[i], Q)
            # the group law commutes and -1 is a homomorphism
            for R, S, want in ((m[i], Q, expected), (-m[i], -Q, -expected)):
                assert add(E, R, S) == want == add(E, S, R), (s, i, sign * j)
            if i == j:
                break  # a doubling, and m[i] + (-m[i]) = O below
    assert add(E, m[5], -m[5]) == O


def test_group_law_edge_cases_over_function_field():
    T = UniPoly([0, 1])
    E = FunctionFieldCurve(-(T**2), 0 * T)
    zero, t, minus_t = (
        CurvePoint.affine(RatFunc(x), RatFunc(UniPoly([0]))) for x in (0 * T, T, -T)
    )
    assert add(E, zero, zero) == O
    assert add(E, zero, t) == minus_t == add(E, t, zero)
    for c in (1, 5):
        E = FunctionFieldCurve(-3 * T**2, 2 * T**3 + c * c)
        P = CurvePoint.affine(RatFunc(T), RatFunc(UniPoly([c])))
        assert add(E, P, P) == CurvePoint.affine(RatFunc(-2 * T), RatFunc(UniPoly([-c])))
    # 3P and 6P at s = 3 have w sharing a factor: the generic route adds them
    E, P = family_functionfield_curve(3)
    three, six = scalar_mul(E, 3, P), scalar_mul(E, 6, P)
    assert ec_core._integral_sum(E.a, three, six, False) is None
    assert add(E, three, six) == generic_add(E, three, six) == scalar_mul(E, 9, P)
    assert on_curve(E, add(E, three, six))
    # points with constant coordinates on a curve over Q(T) add as over Q
    E = FunctionFieldCurve(UniPoly([-3]), UniPoly([11]))
    P = CurvePoint.affine(*(RatFunc(UniPoly([c])) for c in (P0.x, P0.y)))
    assert add(E, P, P) == CurvePoint.affine(F(25, 4), F(123, 8)) == add(E11, P0, P0)


def test_a_point_with_fraction_coordinates_is_refused_over_q_of_t():
    E = FunctionFieldCurve(UniPoly([-3]), UniPoly([11]))
    P = CurvePoint.affine(F(-2), F(-3))
    with pytest.raises(TypeError, match="^a point on a curve over Q.T. takes RatFunc coordinates$"):
        add(E, P, P)


def test_coefficients_set_the_field():
    # a WeierstrassCurve is over Q: ints and Fractions are its coefficients,
    # and anything else, a rational function included, is refused
    T = UniPoly([0, 1])
    assert isinstance(WeierstrassCurve(-3, 11).a, F)
    assert (WeierstrassCurve(-3, 11).a, WeierstrassCurve(F(-3), F(11)).b) == (-3, 11)
    for a, b in (("1", 2), (1.5, 2), (T, 1)):
        with pytest.raises(TypeError):
            WeierstrassCurve(a, b)
        with pytest.raises(TypeError):
            WeierstrassCurve.possibly_singular(a, b)


def test_q_only_functions_refuse_a_curve_over_q_of_t():
    # torsion and normalization are over Q, and no WeierstrassCurve over
    # Q(T) can be built to reach them: a rational function is refused
    T = UniPoly([0, 1])
    for a, b in ((0, RatFunc(T)), (RatFunc(UniPoly([-3])), 11), (-3, RatFunc(UniPoly([11])))):
        with pytest.raises(TypeError):
            WeierstrassCurve(a, b)
        with pytest.raises(TypeError):
            WeierstrassCurve.possibly_singular(a, b)


def test_torsion_detection():
    assert is_torsion_overQ(E11, P0) is None
    assert is_torsion_overQ(E11, O) == 1
    E = WeierstrassCurve(0, 1)
    assert is_torsion_overQ(E, CurvePoint.affine(F(2), F(3))) == 6
    assert is_torsion_overQ(E, CurvePoint.affine(F(0), F(1))) == 3
    assert is_torsion_overQ(E, CurvePoint.affine(F(-1), F(0))) == 2


# (a, b, x, y, order): a rational point of each order Mazur allows on an
# integral short model.  Orders 4-12 come from Kubert's Tate normal form
# y^2 + (1 - c)xy - by = x^3 - bx^2 with P = (0, 0), at the parameter t
# shown, moved to a short model and stripped of twist content.
MAZUR_ORDERS = [
    (-3, 11, None, None, 1),  # O, on a curve with trivial torsion
    (1, 0, 0, 0, 2),
    (0, 16, 0, 4, 3),
    (1, 2, 1, 2, 4),  # b = t, c = 0 at t = -1/2
    (-432, 8208, 24, 108, 5),  # b = c = t at t = -1
    (-15, 22, -1, -6, 6),  # b = t + t^2, c = t at t = 1/3
    (-43, 166, -5, -16, 7),  # b = t^3 - t^2, c = t^2 - t at t = 2
    (1269, 127386, -15, -324, 8),  # b = (2t - 1)(t - 1), c = b/t at t = 1/4
    (-219, 1654, -13, -48, 9),  # c = t^2 (t - 1), b = c (t^2 - t + 1) at t = 2
    (-58347, 3954150, -213, -2592, 10),  # Kubert's order-10 form at t = 2
    (-1947, 108214, -37, -360, 12),  # Kubert's order-12 form at t = 2/3
]


@pytest.mark.parametrize(
    "a, b, x, y, order", MAZUR_ORDERS, ids=[f"order{case[-1]}" for case in MAZUR_ORDERS]
)
def test_torsion_of_every_order_mazur_allows(a, b, x, y, order):
    E = WeierstrassCurve(a, b)
    P = O if x is None else CurvePoint.affine(F(x), F(y))
    assert E.contains(P)
    assert is_torsion_overQ(E, P) == order
    assert scalar_mul(E, order, P) == O
    assert P in torsion_points_overQ(E)
    # (x, y) -> (x/4, y/8) onto a model that is not integral
    Q = O if x is None else CurvePoint.affine(F(x, 4), F(y, 8))
    assert is_torsion_overQ(WeierstrassCurve(F(a, 16), F(b, 64)), Q) == order
    # a torsion point reduces to order at most 12 at every good prime
    disc = 4 * a**3 + 27 * b * b
    for p in _REFUTING_PRIMES if x is not None else ():
        if disc % p:
            assert not _order_exceeds_mazur_bound(a % p, (x % p, y % p), p), p


def _mod_add(a, P, Q, p):
    # the chord-tangent law on y^2 = x^3 + ax + b over F_p; None is O
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _mod_order(a, P, p):
    n, Q = 1, P
    while Q is not None:
        Q = _mod_add(a, Q, P, p)
        n += 1
    return n


def _good_reductions(a, b, x, y):
    # (p, a mod p, (x, y) mod p) at each good refuting prime
    a, b, x, y = F(a), F(b), F(x), F(y)
    bad = (4 * a**3 + 27 * b**2).numerator
    for v in (a, b, x, y):
        bad *= v.denominator
    for p in _REFUTING_PRIMES:
        if bad % p:
            ap, x0, y0 = (v.numerator * pow(v.denominator, -1, p) % p for v in (a, x, y))
            yield p, ap, (x0, y0)


def test_probe_matches_the_walk_to_12P_at_every_good_prime():
    # the kernel the torsion grids are read from, against the order found
    # by walking P, 2P, ... to O, at each good refuting prime of each case;
    # a refutation at any prime agrees with the exact test over Q
    rng = random.Random(8101)
    cases = []
    for a, b, x, y, _ in MAZUR_ORDERS[1:]:
        cases += [(a, b, x, y), (F(a, 16), F(b, 64), F(x, 4), F(y, 8))]
    while len(cases) < 3000:
        # a random point (x, y) and a; b puts the point on the curve
        den = 1 if rng.random() < 0.5 else rng.randint(1, 6)
        x = F(rng.randint(-30, 30), den * den)
        y = F(rng.randint(-30, 30), den**3)
        a = F(rng.randint(-30, 30), rng.choice((1, den**4)))
        b = y * y - x**3 - a * x
        if 4 * a**3 + 27 * b * b != 0:
            cases.append((a, b, x, y))
    checked = refuted = 0
    for a, b, x, y in cases:
        any_refutes = False
        for p, ap, P in _good_reductions(a, b, x, y):
            expected = _mod_order(ap, P, p) > 12
            assert _order_exceeds_mazur_bound(ap, P, p) == expected, (p, a, b, x, y)
            checked += 1
            any_refutes |= expected
        if any_refutes:
            assert _exact_torsion_order(a, b, x, y) is None, (a, b, x, y)
        refuted += any_refutes
    # both answers occur, so neither side can pass by a constant
    assert 0 < refuted < len(cases) < checked


def _reference_exact_order(E, P):
    # the exact walk without the Nagell-Lutz exit: P, 2P, ..., 12P
    Q = P
    for n in range(1, 13):
        if Q.is_infinity:
            return n
        Q = add(E, Q, P)
    return None


def test_nagell_lutz_exit_agrees_with_the_full_walk():
    # the integer walk on the integral model against the Fraction walk of E.add
    cases = []
    for a, b, x, y, _ in MAZUR_ORDERS:
        P = O if x is None else CurvePoint.affine(F(x), F(y))
        Q = O if x is None else CurvePoint.affine(F(x, 4), F(y, 8))
        cases += [(WeierstrassCurve(a, b), P), (WeierstrassCurve(F(a, 16), F(b, 64)), Q)]
    # a and b with distinct denominators 3 and 27: the order-8 model under
    # (x, y) -> (x/9, y/27); and (-8/9, 109/27), of infinite order on an
    # integral model, whose image is not integral
    cases += [
        (WeierstrassCurve(F(1269, 81), F(127386, 729)), CurvePoint.affine(F(-15, 9), F(-12))),
        (WeierstrassCurve(0, 17), CurvePoint.affine(F(-8, 9), F(109, 27))),
    ]
    rng = random.Random(8102)
    while len(cases) < 2002 + 2 * len(MAZUR_ORDERS):
        x, y, a = (rng.randint(-9, 9) for _ in range(3))
        b = y * y - x**3 - a * x
        if 4 * a**3 + 27 * b * b != 0:
            cases.append((WeierstrassCurve(a, b), CurvePoint.affine(F(x), F(y))))
    torsion = 0
    for E, P in cases:
        assert E.contains(P)
        expected = _reference_exact_order(E, P)
        if P.is_infinity:
            assert is_torsion_overQ(E, P) == expected
        else:
            assert _exact_torsion_order(E.a, E.b, P.x, P.y) == expected, (E, P)
        torsion += expected is not None
    # both answers occur, among the random points as well as the table
    assert 2 * len(MAZUR_ORDERS) + 1 < torsion < len(cases)


def test_six_multiples_decide_order_above_12_at_small_primes():
    assert _REFUTING_PRIMES == tuple(sorted(set(_PROBE_PRIMES) - {5}, reverse=True))
    for p in (5, 7, 11, 13):
        above = 0
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                for x in range(p):
                    for y in range(p):
                        if (y * y - x**3 - a * x - b) % p == 0:
                            large = _mod_order(a, (x, y), p) > 12
                            got = _order_exceeds_mazur_bound(a, (x, y), p)
                            assert got == large, (p, a, b, x, y)
                            above += large
        # Hasse: #E(F_5) <= 10, but every larger prime has points of order > 12
        assert (above == 0) == (p == 5)


def test_probe_reaches_past_the_first_good_prime(monkeypatch):
    # y^2 = x^3 - 12x + 9 with (4, 5): 4a^3 + 27b^2 = -4725 = -3^3 5^2 7,
    # so 43 and 41, the first primes tried, are good, but the point
    # reduces to order 5 at 43 and to order 11 at 41.  Only a later probe
    # prime can refute torsion without exact addition.
    E, P = WeierstrassCurve(-12, 9), CurvePoint.affine(F(4), F(5))
    assert 4 * (-12) ** 3 + 27 * 9**2 == -(3**3) * 5**2 * 7
    assert _REFUTING_PRIMES[:2] == (43, 41)
    assert _mod_order(-12 % 43, (4, 5), 43) == 5
    assert _mod_order(-12 % 41, (4, 5), 41) == 11
    assert not _order_exceeds_mazur_bound(-12 % 43, (4, 5), 43)
    assert not _order_exceeds_mazur_bound(-12 % 41, (4, 5), 41)

    # the grids read 0 at 43, 41, 37, 31 and 29, and 23 refutes; the s = 1
    # model (u, v) = (-2, 5) is this curve, P = (-2u, v), at t = 9u^3/v^2 =
    # -72/25, whose model in the enumeration, (u, v) = (pq, 3pq^2), reads
    # the same cells
    tables = {p: grid for p, grid, _ in _torsion_tables()}
    for u, v in ((-2, 5), (-72 * 25, 3 * -72 * 25**2)):
        assert [tables[p][u % p][v % p] for p in (43, 41, 37, 31, 29, 23)] == [0, 0, 0, 0, 0, 1]
    walk = searchmod._exact_torsion_order

    def refuse_at_t(a, b, x, y):
        # P = (-2u, v) on the model of t = 9u^3/v^2
        assert F(9 * (-x // 2) ** 3, y * y) != F(-72, 25), "the grids should have refuted torsion"
        return walk(a, b, x, y)

    monkeypatch.setattr(searchmod, "_exact_torsion_order", refuse_at_t)
    # t = -72/25 enters at H = 3118, where (3 p^2 q^2)^3 <= H^6 first holds
    (record,) = [r for r in enumerate_s1(3118) if (r.p, r.q) == (-72, 25)]
    assert record.non_torsion_ok
    assert (-72, 25) not in {(r.p, r.q) for r in enumerate_s1(3117)}
    monkeypatch.undo()
    assert is_torsion_overQ(E, P) is None


def test_torsion_points():
    E = WeierstrassCurve(0, 1)
    pts = torsion_points_overQ(E)
    assert CurvePoint.affine(F(-1), F(0)) in pts
    assert CurvePoint.affine(F(0), F(1)) in pts
    assert CurvePoint.affine(F(2), F(-3)) in pts
    assert len(pts) == 6
    assert pts[0] is O or pts[0] == O
    assert torsion_points_overQ(E11) == [O]
    assert torsion_points_overQ(WeierstrassCurve(1, 0)) == [
        O,
        CurvePoint.affine(F(0), F(0)),
    ]


def test_torsion_points_of_a_model_with_a_huge_discriminant():
    # y^2 = x^3 + 1 scaled by u = 10^4; |disc| is about 4*10^50, so trial
    # division up to its square root would need about 10^25 steps.
    start = time.perf_counter()
    pts = torsion_points_overQ(WeierstrassCurve(0, 10**24))
    assert time.perf_counter() - start < 5
    assert pts == [
        O,
        CurvePoint.affine(F(-(10**8)), F(0)),
        CurvePoint.affine(F(0), F(-(10**12))),
        CurvePoint.affine(F(0), F(10**12)),
        CurvePoint.affine(F(2 * 10**8), F(-3 * 10**12)),
        CurvePoint.affine(F(2 * 10**8), F(3 * 10**12)),
    ]


def test_trivial_torsion_skips_factoring_the_discriminant():
    # #E(F_7) = 5 and #E(F_11) = 17 bound the torsion order by 1, so no
    # y^2 | disc candidate is needed; factoring this disc takes tens of seconds.
    start = time.perf_counter()
    pts = torsion_points_overQ(WeierstrassCurve(-3 * 10**20, 12345678901234567890))
    assert time.perf_counter() - start < 5
    assert pts == [O]


def test_torsion_points_form_subgroup():
    E = WeierstrassCurve(0, 1)
    pts = torsion_points_overQ(E)
    for P in pts:
        assert -P in pts
        for Q in pts:
            assert add(E, P, Q) in pts


def test_torsion_needs_integral_model():
    E = WeierstrassCurve(F(1, 2), 1)
    with pytest.raises(ModelError):
        torsion_points_overQ(E)


def test_witnesses_compose():
    rng = random.Random(77)
    for _ in range(10):
        d1 = F(rng.randint(1, 9), rng.randint(1, 9))
        d2 = F(rng.randint(1, 9), rng.randint(1, 9))
        w1 = IsomorphismWitness(d1)
        w2 = IsomorphismWitness(d2)
        E2 = w1.apply_curve(E11)
        E3 = w2.apply_curve(E2)
        both = IsomorphismWitness(d1 * d2)
        assert _ab(both.apply_curve(E11)) == _ab(E3)
        assert both.apply_point(P0) == w2.apply_point(w1.apply_point(P0))
        assert _ab(IsomorphismWitness(1 / d1).apply_curve(E2)) == _ab(E11)


def test_normalize_fixed_point_of_family_member():
    n = normalize_to_family(E11, 1, P0)
    assert (n.s, n.t, n.witness.d) == (1, 1, 1)
    assert n.point == P0


def test_normalize_doubled_point():
    P2 = scalar_mul(E11, 2, P0)
    n = normalize_to_family(E11, 1, P2)
    assert n.s == F(64, 1681)
    assert n.witness.d == F(14, 41)
    assert n.t == F(196, 1681)
    image = n.witness.apply_curve(E11)
    assert image.contains(n.point)
    assert n.point == CurvePoint.affine(1 - n.s - 2 * n.t, 1 - n.s - 3 * n.t)


def test_normalize_shifts_off_x_equals_t():
    # y^2 = x^3 - 3x + 3 has a = -3*1^2 and the non-torsion point (1, 1)
    # sitting exactly at x = t; the -2P replacement must kick in.
    E = WeierstrassCurve(-3, 3)
    P = CurvePoint.affine(F(1), F(1))
    assert E.contains(P)
    n = normalize_to_family(E, 1, P)
    minus_2p = scalar_mul(E, -2, P)
    assert n.witness.apply_point(minus_2p) == n.point
    assert n.point.x == 1 - n.s - 2 * n.t


def test_normalize_errors():
    with pytest.raises(ShapeError):
        normalize_to_family(E11, 2, P0)
    E = WeierstrassCurve(0, 1)
    with pytest.raises(TorsionError):
        normalize_to_family(E, 0, CurvePoint.affine(F(-1), F(0)))
    with pytest.raises(TorsionError):
        normalize_to_family(E, 0, CurvePoint.affine(F(2), F(3)))


def test_normalize_s_invariant_under_scaling():
    rng = random.Random(9)
    P2 = scalar_mul(E11, 2, P0)
    base = normalize_to_family(E11, 1, P2)
    for _ in range(6):
        d = F(rng.randint(1, 7), rng.randint(1, 7))
        w = IsomorphismWitness(d)
        E2 = w.apply_curve(E11)
        n = normalize_to_family(E2, d * d * 1, w.apply_point(P2))
        assert n.s == base.s
        assert _ab(n.witness.apply_curve(E2)) == _ab(base.witness.apply_curve(E11))
