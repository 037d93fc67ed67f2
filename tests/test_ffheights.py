"""Function-field reduction data, local heights, canonical heights, ranks.

The height expectations (0, 1/12, -1/12, 1/6, 1/4, 1/8, 3/8, the footnote
valuations 2/6 and 4/8, and the rank formula instances 8-12+3+2 and
8-12+5+1) were all computed by hand from the valuation algorithm before
the module existed; they are frozen here.
"""

import random
from fractions import Fraction as F

import pytest

import cleanpair.exactmath.places as places_module
import cleanpair.ffheights as ffheights
from cleanpair.ec_core import CurvePoint, O, add, scalar_mul
from cleanpair.exactmath import (
    Place,
    RatFunc,
    UniPoly,
    factor_rational_poly,
    valuation_at,
)
from cleanpair.ffheights import (
    DegenerateS,
    FunctionFieldCurve,
    HeightReport,
    MinimalityError,
    NotRationalSurface,
    ReductionType,
    bad_places,
    canonical_height,
    family_functionfield_curve,
    generic_rank,
    reduction_at,
    second_section,
    shioda_tate_rank,
)
from test_ec_core import on_curve

T = UniPoly([0, 1])


def duplication_x(E: FunctionFieldCurve, x: RatFunc) -> RatFunc:
    """x-coordinate doubling map, written directly from the duplication
    polynomials; an oracle independent of the chord-tangent code path."""
    a = RatFunc(E.a)
    b = RatFunc(E.b)
    num = x**4 - 2 * a * x**2 - 8 * b * x + a * a
    den = 4 * (x**3 + a * x + b)
    return num / den


# -- reduction profiles --------------------------------------------------------


def test_bad_places_s1():
    E, _ = family_functionfield_curve(1)
    profs = bad_places(E)
    rows = [
        (str(p.place), p.val_delta, p.type, p.place.degree())
        for p in profs
    ]
    assert rows == [
        ("(T)", 4, ReductionType.ADDITIVE, 1),
        ("(T + 9/4)", 1, ReductionType.MULTIPLICATIVE, 1),
        ("infinity", 7, ReductionType.ADDITIVE, 1),
    ]


def test_bad_places_s2():
    E, _ = family_functionfield_curve(2)
    profs = bad_places(E)
    assert [(str(p.place), p.val_delta, p.type.value) for p in profs] == [
        ("(T + 1/3)", 2, "Multiplicative"),
        ("(T + 1/2)", 1, "Multiplicative"),
        ("(T^2 + 4*T + 1)", 1, "Multiplicative"),
        ("infinity", 7, "Additive"),
    ]
    assert sum(p.place.degree() * p.val_delta for p in profs) == 12


def test_bad_places_sanity_curve():
    E = FunctionFieldCurve(UniPoly([]), T)  # y^2 = x^3 + T
    profs = bad_places(E)
    finite = [p for p in profs if not p.place.is_infinity]
    assert len(finite) == 1
    assert str(finite[0].place) == "(T)"
    assert finite[0].val_delta == 2
    assert finite[0].type is ReductionType.ADDITIVE


def test_sum_of_valuations_is_12_for_family():
    for s in (1, 2, 3, 4, F(9, 4), F(-5, 3), 7):
        E, _ = family_functionfield_curve(s)
        profs = bad_places(E)
        assert sum(p.place.degree() * p.val_delta for p in profs) == 12


def test_shioda_tate():
    E1, _ = family_functionfield_curve(1)
    assert shioda_tate_rank(bad_places(E1)) == 1  # 8 - 12 + 3 + 2
    E2, _ = family_functionfield_curve(2)
    assert shioda_tate_rank(bad_places(E2)) == 2  # 8 - 12 + 5 + 1
    E4, _ = family_functionfield_curve(4)
    assert shioda_tate_rank(bad_places(E4)) == 2
    # formula extreme: twelve multiplicative places of valuation 1
    from cleanpair.ffheights import ReductionProfile

    fake = [
        ReductionProfile(Place.linear(i), 1, ReductionType.MULTIPLICATIVE)
        for i in range(12)
    ]
    assert shioda_tate_rank(fake) == 8
    with pytest.raises(NotRationalSurface):
        shioda_tate_rank(fake[:5])


def test_minimality_guard():
    # y^2 = x^3 + T^6: val_T(Delta) = 12 and val_T(c4) is unbounded (a = 0)
    E = FunctionFieldCurve(UniPoly([]), T**6)
    with pytest.raises(MinimalityError):
        bad_places(E)


# -- local heights -------------------------------------------------------------


def test_local_heights_s1_marked_point():
    E, P = family_functionfield_curve(1)
    local = {e.place: e.local for e in canonical_height(E, P).entries}
    assert local[Place.linear(0)] == 0
    assert local[Place.linear(F(-9, 4))] == F(1, 12)
    assert local[Place.infinity()] == F(1, 12)


def test_footnote_valuations_recorded():
    E, P = family_functionfield_curve(1)
    rep = canonical_height(E, P)
    by_place = {str(e.place): e for e in rep.entries}
    assert (by_place["(T)"].val_f2, by_place["(T)"].val_f3) == (2, 6)
    assert (by_place["infinity"].val_f2, by_place["infinity"].val_f3) == (4, 8)
    assert not by_place["(T)"].smooth
    assert by_place["(T + 9/4)"].smooth


def test_local_height_multiplicative_case():
    E, P = family_functionfield_curve(2)
    local = {e.place: e.local for e in canonical_height(E, P).entries}
    assert local[Place.linear(F(-1, 3))] == F(-1, 12)


def test_canonical_heights_table():
    E1, P1 = family_functionfield_curve(1)
    assert canonical_height(E1, P1).total == F(1, 6)
    E4, P4 = family_functionfield_curve(4)
    _, Q4 = second_section(E4, 4)
    assert canonical_height(E4, P4).total == F(1, 4)
    assert canonical_height(E4, Q4).total == F(1, 8)
    assert canonical_height(E4, add(E4, P4, Q4)).total == F(3, 8)


def test_canonical_height_identity_is_zero():
    E, _ = family_functionfield_curve(1)
    rep = canonical_height(E, O)
    assert rep.total == 0 and rep.entries == () and rep.good_poles == 0


def test_quadraticity():
    for s in (1, 2):
        E, P = family_functionfield_curve(s)
        h1 = canonical_height(E, P).total
        h2 = canonical_height(E, scalar_mul(E, 2, P)).total
        assert h2 == 4 * h1


def test_group_law_curve_is_built_once():
    # the group law takes the curve as it is; weierstrass() returns it
    E, P = family_functionfield_curve(2)
    assert E.weierstrass() is E
    assert add(E, P, P) == scalar_mul(E, 2, P)


def test_orthogonality_and_pairing():
    for s in (4, F(9, 4), F(1, 4)):
        E, P = family_functionfield_curve(s)
        E_q, Q = second_section(E, s)
        assert E_q is E and on_curve(E, Q)
        hp = canonical_height(E, P).total
        hq = canonical_height(E, Q).total
        hpq = canonical_height(E, add(E, P, Q)).total
        assert hpq == hp + hq
        assert hp > 0 and hq > 0


TWIST_S = (2, 3, 5, -1, F(-3, 2), F(1, 2), F(7, 3), F(-2, 5), 6, F(10, 7))


def test_second_section_on_the_quadratic_twist():
    # at non-square s, Q' = (sT, s^2 (1 - s - 3T)) lies on the twist
    # y^2 = x^3 + s^2 a x + s^3 b, which has E's bad places and the same
    # Shioda-Tate bound, and h(Q') = h(Q) = 1/8 as at the square s
    for s in TWIST_S:
        E, _ = family_functionfield_curve(s)
        E_q, Q = second_section(E, s)
        assert (E_q.a, E_q.b) == (F(s) ** 2 * E.a, F(s) ** 3 * E.b)
        assert on_curve(E_q, Q)
        assert Q == CurvePoint.affine(RatFunc(s * T), RatFunc(F(s) ** 2 * (1 - s - 3 * T)))
        assert [(pr.place, pr.val_delta, pr.type) for pr in bad_places(E_q)] == [
            (pr.place, pr.val_delta, pr.type) for pr in bad_places(E)
        ]
        assert shioda_tate_rank(bad_places(E_q)) == 2
        assert canonical_height(E_q, Q).total == F(1, 8), s


def adds_up(rep: HeightReport) -> bool:
    """The report's entries and good-place pole count give its total."""
    weighted = sum(e.place.degree() * e.local for e in rep.entries)
    return rep.total == weighted + F(rep.good_poles, 2)


def test_multiples_of_the_twisted_section():
    # h(nQ') = n^2 h(Q') on the twist, and the report adds up
    for s in (2, F(-3, 2)):
        E_q, Q = second_section(family_functionfield_curve(s)[0], s)
        for n in (2, 3):
            rep = canonical_height(E_q, scalar_mul(E_q, n, Q))
            assert rep.total == F(n * n, 8)
            assert adds_up(rep)


def test_quadratic_form_on_the_span_of_P_and_Q():
    # P and Q are orthogonal, so h(mP + nQ) = m^2 h(P) + n^2 h(Q)
    for s in (4, F(9, 4), F(1, 4)):
        E, P = family_functionfield_curve(s)
        _, Q = second_section(E, s)
        hp = canonical_height(E, P).total
        hq = canonical_height(E, Q).total
        for m in range(-2, 3):
            for n in range(-2, 3):
                R = add(E, scalar_mul(E, m, P), scalar_mul(E, n, Q))
                rep = canonical_height(E, R)
                assert rep.total == m * m * hp + n * n * hq, (s, m, n)
                assert adds_up(rep), (s, m, n)


def test_node_entry_of_2P_plus_Q():
    # y^2 = (x - 1)^2 (x + 2) + T^4 - T^3 - 3T^2 has I2 at T = 0 (Delta =
    # -432 T^2 (T^2 - T - 3)(T - 2)(T^3 + T^2 - T - 2)), and P = (1 + T, T^2)
    # meets the node with v(2y) = 2 > N/2 = 1, so alpha = min(4, 2)/4 = 1/2
    # and lambda = -1/12; min(v(F2), 2N - v(F2))/(2N) would give alpha = 0
    E = FunctionFieldCurve(UniPoly([-3]), T**4 - T**3 - 3 * T**2 + 2)
    P = CurvePoint.affine(RatFunc(1 + T), RatFunc(T**2))
    assert on_curve(E, P)
    rep = canonical_height(E, P)
    node = {e.place: e for e in rep.entries}[Place.linear(0)]
    assert (node.val_delta, node.reduction) == (2, ReductionType.MULTIPLICATIVE)
    assert (node.local, node.val_f2, node.smooth) == (F(-1, 12), 4, False)
    h = rep.total
    assert h == F(5, 12)
    for n in (2, 3):
        assert canonical_height(E, scalar_mul(E, n, P)).total == n * n * h


def factored_good_poles(E: FunctionFieldCurve, x: RatFunc) -> int:
    """Sum of deg q * max(0, -v_q(x)) over the good finite places q, found by
    factoring den(x)."""
    den = x.den
    bad = {pr.place for pr in bad_places(E)}
    count = 0
    if den.degree() > 0:
        for q, _ in factor_rational_poly(den)[1]:
            place = Place.finite(q)
            if place not in bad:
                count += q.degree() * max(0, -valuation_at(place, x))
    return count


def test_good_pole_count_matches_factoring_the_denominator():
    cases = []
    for s, top in ((2, 9), (1, 5), (F(1, 4), 5), (F(-3, 2), 5)):
        E, P = family_functionfield_curve(s)
        R = P
        for n in range(1, top + 1):
            cases.append((E, R))
            R = add(E, R, P)
    for s in (4, F(9, 4), F(1, 4)):
        E, P = family_functionfield_curve(s)
        _, Q = second_section(E, s)
        cases += [(E, add(E, P, Q)), (E, add(E, scalar_mul(E, 2, P), Q))]
    for s in (2, 3, F(-3, 2)):  # multiples of Q' on the twist
        E_q, Q = second_section(family_functionfield_curve(s)[0], s)
        cases += [(E_q, scalar_mul(E_q, n, Q)) for n in (1, 2, 3)]
    poles = 0
    for E, R in cases:
        rep = canonical_height(E, R)
        assert rep.good_poles == factored_good_poles(E, R.x)
        assert adds_up(rep)
        poles += rep.good_poles
    assert poles > 0


def test_discriminant_is_factored_once_per_curve(monkeypatch):
    factored = []
    real = ffheights.factor_rational_poly

    def counted(p):
        factored.append(p)
        return real(p)

    monkeypatch.setattr(ffheights, "factor_rational_poly", counted)
    E, P = family_functionfield_curve(2)
    R = P
    for _ in range(6):
        canonical_height(E, R)
        R = add(E, R, P)
    profiles = bad_places(E)
    assert factored == [E.discriminant()]
    expected = list(profiles)
    profiles.pop()
    profiles.append(profiles[0])
    assert bad_places(E) == expected
    assert len(factored) == 1


def reference_profiles(E: FunctionFieldCurve):
    """reduction_at at each factor place of Delta, sorted, then infinity."""
    _, parts = factor_rational_poly(E.discriminant())
    finite = sorted(
        (reduction_at(E, Place.finite(q)) for q, _ in parts),
        key=lambda pr: pr.place.sort_key(),
    )
    return (*finite, reduction_at(E, Place.infinity()))


def test_place_profiles_match_reduction_at_each_factor():
    # the family at seeded s and on its twists, and generic curves; on
    # y^2 = x^3 + (T^2 + 1) x + (T^2 + 1), Delta = -16 (T^2 + 1)^2 (4T^2 + 31)
    # has a repeated irreducible quadratic factor
    rng = random.Random(3301)
    curves = []
    for _ in range(25):
        s = F(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 30))
        E, _ = family_functionfield_curve(s)
        curves += [E, second_section(E, s)[0]]
    q = T**2 + 1
    curves.append(FunctionFieldCurve(q, q))
    while len(curves) < 80:
        a = sum((rng.randint(-3, 3) * T**i for i in range(rng.randint(0, 5))), UniPoly([]))
        b = sum((rng.randint(-3, 3) * T**i for i in range(rng.randint(4, 7))), UniPoly([]))
        if 4 * a**3 + 27 * b**2:
            curves.append(FunctionFieldCurve(a, b))
    degrees = set()
    for E in curves:
        profiles = ffheights._place_profiles(E)
        assert profiles == reference_profiles(E), E
        degrees |= {(pr.place.degree(), pr.val_delta) for pr in profiles}
    assert bad_places(curves[50])[0] == ffheights.ReductionProfile(
        Place.finite(q), 2, ReductionType.ADDITIVE
    )
    assert {(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)} <= degrees


def test_the_twist_keeps_the_profiles_of_its_curve(monkeypatch):
    # Delta scales by s^6 and c4 by s^2, so the twist has E's places,
    # multiplicities and infinity profile: nine generic_rank calls factor
    # nine discriminants, one per member
    factored = []
    real = ffheights.factor_rational_poly

    def counted(p):
        factored.append(p)
        return real(p)

    monkeypatch.setattr(ffheights, "factor_rational_poly", counted)
    for s in (1, 4, 9, F(1, 4), F(9, 4), 2, 3, -1, F(1, 2)):
        generic_rank(s)
    assert len(factored) == 9
    rng = random.Random(1809)
    twists = 0
    while twists < 25:
        s = F(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 30))
        E, _ = family_functionfield_curve(s)
        twist = second_section(E, s)[0]
        if twist is E:
            continue
        twists += 1
        assert twist.discriminant() == s**6 * E.discriminant()
        assert ffheights._place_profiles(twist) == reference_profiles(twist), s
        assert twist.discriminant() is twist.discriminant()


def test_height_positivity_table_points():
    for s in (1, 2, 4):
        E, P = family_functionfield_curve(s)
        assert canonical_height(E, P).total > 0


def test_doubling_degree_oracle():
    # deg x(2^n P) / (2 * 4^n) must approach h(P) = 1/6 monotonically,
    # with error on the 4^-n scale; the doubling map is applied through
    # the duplication polynomial, not the group law.
    E, P = family_functionfield_curve(1)
    h = canonical_height(E, P).total
    assert h == F(1, 6)
    x = P.x
    prev_err = None
    for n in range(4):
        est = F(max(x.num.degree(), x.den.degree()), 2 * 4**n)
        err = est - h
        assert 0 < err <= F(1, 3) * F(1, 4) ** n
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
        x = duplication_x(E, x)


def test_report_serialization_layout():
    E, P = family_functionfield_curve(1)
    data = canonical_height(E, P).to_table_json()
    assert data["places"] == ["(T)", "(T + 9/4)", "infinity"]
    assert data["val_delta"] == [4, 1, 7]
    assert data["reduction"] == ["Additive", "Multiplicative", "Additive"]
    assert data["local_heights"] == ["0/1", "1/12", "1/12"]
    assert data["total"] == "1/6"


# -- the full-product route, kept as the reference ------------------------------
#
# canonical_height reads each valuation from residues and leading terms.  The
# reference below forms u^2, w^2, the tangent 3u^2 + aw^2 and the psi3
# numerator in full and takes every valuation by repeated division.


def divmod_multiplicity(num: UniPoly, p: UniPoly) -> int:
    count = 0
    q, r = divmod(num, p)
    while not r and num:
        count += 1
        num = q
        q, r = divmod(num, p)
    return count


def reference_valuation(place: Place, f, k: int):
    """Valuation of f of weight k in the integral model at the place, inf
    for the zero function."""
    f = f if isinstance(f, RatFunc) else RatFunc(f)
    if not f:
        return float("inf")
    if place.is_infinity:
        return f.den.degree() - f.num.degree() + k
    return divmod_multiplicity(f.num, place.poly) - divmod_multiplicity(f.den, place.poly)


def reference_entry(profile, a: UniPoly, b: UniPoly, R: CurvePoint) -> ffheights.PlaceHeightEntry:
    place, n, x, y = profile.place, profile.val_delta, R.x, R.y
    vx = reference_valuation(place, x, 2)
    v2y = reference_valuation(place, 2 * y, 3)

    def entry(smooth, lam, vf2=None, vf3=None):
        return ffheights.PlaceHeightEntry(place, n, profile.type, smooth, lam, vf2, vf3)

    if vx < 0 or n == 0:
        return entry(True, F(max(0, -vx), 2) + F(n, 12))
    u, w = x.num, x.den
    vw = -w.degree() if place.is_infinity else 0
    u2, w2 = u * u, w * w
    v_tangent = reference_valuation(place, 3 * u2 + a * w2, 4) - 2 * vw
    if not (v2y > 0 and v_tangent > 0):
        return entry(True, F(n, 12))
    if profile.type is ReductionType.MULTIPLICATIVE:
        alpha = F(min(2 * v2y, n), 2 * n)
        return entry(False, F(n, 2) * (alpha * alpha - alpha + F(1, 6)), vf2=2 * v2y)
    psi3 = 3 * u2 * u2 + 6 * a * u2 * w2 + 12 * b * u * w2 * w - a * a * w2 * w2
    vpsi3 = reference_valuation(place, psi3, 8) - 4 * vw
    vf2 = None if v2y == float("inf") else 2 * v2y
    vf3 = None if vpsi3 == float("inf") else 2 * vpsi3
    if vf3 is None or (vf2 is not None and vf3 >= 3 * vf2):
        lam = F(n, 12) - F(vf2, 6)
    else:
        lam = F(n, 12) - F(vf3, 16)
    return entry(False, lam, vf2=vf2, vf3=vf3)


def reference_height(E: FunctionFieldCurve, R: CurvePoint) -> HeightReport:
    good_poles = R.x.den.degree()
    entries, total = [], F(0)
    for profile in ffheights._place_profiles(E):
        place = profile.place
        e = reference_entry(profile, E.a, E.b, R)
        total += place.degree() * e.local
        if e.local or profile.val_delta:
            entries.append(e)
        if not place.is_infinity:
            good_poles -= place.degree() * max(0, -reference_valuation(place, R.x, 2))
    return HeightReport(tuple(entries), total + F(good_poles, 2), good_poles)


def test_heights_match_the_full_product_route():
    # linear, quadratic and cubic finite places, the additive T = 0 at s = 1,
    # and additive infinity; nP up to 12P and nQ' up to 3Q' on the twists
    seen = set()
    for s in (1, 2, 3, F(-1, 2), 4, F(9, 4)):
        E, P = family_functionfield_curve(s)
        E_q, Q = second_section(E, s)
        cases = []
        R = P
        for n in range(1, 13):
            cases.append((E, R))
            R = add(E, R, P)
        cases += [(E_q, scalar_mul(E_q, n, Q)) for n in (1, 2, 3)]
        for curve, R in cases:
            rep = canonical_height(curve, R)
            assert rep == reference_height(curve, R), (s, R)
            seen |= {(e.place.degree(), e.reduction, e.smooth) for e in rep.entries}
    assert {(1, ReductionType.ADDITIVE, False), (3, ReductionType.MULTIPLICATIVE, True)} <= seen
    assert (2, ReductionType.MULTIPLICATIVE, True) in seen


def test_order_widens_past_cancelling_leading_terms():
    # form(f, g) = f^2 - g with g = f^2 - h has the valuation of h, while
    # the residue and the first terms of f^2 and g cancel
    def form(f, g):
        return f * f - g

    f = 3 * T**4 - T**3 + F(1, 2) * T + 7
    for place, h in (
        (Place.infinity(), 5 * T**3 - 2),  # nominal degree 8, so v = 5
        (Place.infinity(), UniPoly([F(2, 3)])),  # v = 8
        (Place.linear(F(-1, 3)), (3 * T + 1) ** 3 * (T - 2)),
        (Place.linear(0), T**7 * (T + 5)),
        (Place.linear(2), (T - 2) ** 2),
        (Place.finite(T**2 + 1), (T**2 + 1) ** 2 * (T - 1)),
    ):
        g = f * f - h
        expected = 8 - h.degree() if place.is_infinity else divmod_multiplicity(h, place.poly)
        assert ffheights._terms(place, form, (f, g), (4, 8), 1) == [0]
        assert ffheights._order(place, form, (f, g), (4, 8)) == expected, place
        assert ffheights._order(place, form, (f, f * f), (4, 8)) is None
    # a residue that does not vanish settles v = 0 at once
    assert ffheights._order(Place.linear(1), form, (f, T), (4, 8)) == 0
    # f^2 has degree 4 and g degree 5, so at T = -1/3 their Taylor
    # numerators stand over different powers of 3
    f = T**2 + F(1, 2) * T - 4
    g = f * f - (3 * T + 1) ** 2 * (T**3 - 2)
    for k in (1, 2, 3):
        assert ffheights._order(Place.linear(F(-1, 3)), form, (f, g), (2, 5), k) == 2


def test_heights_form_no_product_above_twice_the_degree_of_x(monkeypatch):
    # the valuations of the tangent and psi3 come from residues and leading
    # terms, so no product of degree 4 deg x (164 at 9P) is formed
    E, P = family_functionfield_curve(2)
    R = P
    for _ in range(8):
        R = add(E, R, P)
    mul = UniPoly.__mul__
    degrees = []

    def recording_mul(self, other):
        out = mul(self, other)
        if out is not NotImplemented:
            degrees.append(out.degree())
        return out

    monkeypatch.setattr(UniPoly, "__mul__", recording_mul)
    monkeypatch.setattr(UniPoly, "__rmul__", recording_mul)
    assert canonical_height(E, R).total == F(81, 4)
    assert max(degrees) <= 2 * max(R.x.num.degree(), R.x.den.degree())


def full_valuation_entry(profile, a: UniPoly, b: UniPoly, R: CurvePoint) -> ffheights.PlaceHeightEntry:
    """The local height read from valuation_at on the whole of x and y, with
    psi3's order doubled from k = 1."""
    place, n = profile.place, profile.val_delta
    inf = place.is_infinity

    def entry(smooth, lam, vf2=None, vf3=None):
        return ffheights.PlaceHeightEntry(place, n, profile.type, smooth, lam, vf2, vf3)

    pole = max(0, -valuation_at(place, R.x) - (2 if inf else 0)) if R.x else 0
    if pole or n == 0:
        return entry(True, F(pole, 2) + F(n, 12))
    vy = valuation_at(place, R.y) + (3 if inf else 0) if R.y else None
    u, w = R.x.num, R.x.den
    degs = (w.degree() + 2, w.degree(), 4, 6)
    if (vy is not None and vy <= 0) or ffheights._terms(place, ffheights._tangent, (u, w, a), degs, 1)[0]:
        return entry(True, F(n, 12))
    if profile.type is ReductionType.MULTIPLICATIVE:
        alpha = F(min(2 * vy, n), 2 * n)
        return entry(False, F(n, 2) * (alpha * alpha - alpha + F(1, 6)), vf2=2 * vy)
    vpsi3 = ffheights._order(place, ffheights._psi3, (u, w, a, b), degs)
    vf2 = None if vy is None else 2 * vy
    vf3 = None if vpsi3 is None else 2 * vpsi3
    if vf3 is None or (vf2 is not None and vf3 >= 3 * vf2):
        return entry(False, F(n, 12) - F(vf2, 6), vf2, vf3)
    return entry(False, F(n, 12) - F(vf3, 16), vf2, vf3)


def test_canonical_height_equals_the_full_valuation_route():
    # y's numerator alone, degrees at infinity and psi3 from 3 v(y) terms
    # give every entry that valuations of the whole x and y give
    cases = []
    for s in (2, 3, -1, F(1, 2), F(5, 7), F(9, 4), 1):
        E, P = family_functionfield_curve(s)
        cases += [(E, P), second_section(E, s)]
        R = P
        for _ in range(2, 12):
            R = add(E, R, P)
            cases.append((E, R))
    # y^2 = x^3 - T^2 x: (0, 0) meets the cusps at T = 0 and at infinity
    cusp = FunctionFieldCurve(-T * T, UniPoly([]))
    cases.append((cusp, CurvePoint.affine(RatFunc(UniPoly([])), RatFunc(UniPoly([])))))
    seen = set()
    for E, R in cases:
        rep = canonical_height(E, R)
        good_poles = R.x.den.degree()
        entries, total = [], F(0)
        for profile in ffheights._place_profiles(E):
            e = full_valuation_entry(profile, E.a, E.b, R)
            total += profile.place.degree() * e.local
            if e.local or profile.val_delta:
                entries.append(e)
            if not profile.place.is_infinity:
                good_poles -= profile.place.degree() * valuation_at(profile.place, R.x.den)
        assert rep.entries == tuple(entries), (E, R)
        assert rep.total == total + F(good_poles, 2), (E, R)
        seen |= {(e.reduction, e.smooth, e.val_f3 is None) for e in rep.entries}
    assert (ReductionType.ADDITIVE, False, False) in seen
    assert (ReductionType.MULTIPLICATIVE, False, True) in seen
    assert any(e.val_f2 is None and e.val_f3 for e in canonical_height(*cases[-1]).entries)


def test_heights_skip_the_denominator_of_y_and_start_psi3_at_3_vy(monkeypatch):
    # where x has no pole the reduced y has a unit denominator, so no
    # valuation pass reads y.den (w^3, degree 60 at 9P); at infinity on the
    # odd multiples v(y) = 2 and v(psi3) = 4 < 3 v(y), so the first round of
    # psi3's terms settles it (k = 1, 2, 4, 8 took four)
    E, P = family_functionfield_curve(2)
    m = {1: P}
    for n in range(2, 10):
        m[n] = add(E, m[n - 1], P)
    canonical_height(E, P)
    handed, rounds = [], []
    multiplicity, terms = places_module._multiplicity, ffheights._terms

    def counting_multiplicity(num, p):
        handed.append(num)
        return multiplicity(num, p)

    def counting_terms(place, form, polys, degs, k):
        rounds.append(form)
        return terms(place, form, polys, degs, k)

    monkeypatch.setattr(places_module, "_multiplicity", counting_multiplicity)
    monkeypatch.setattr(ffheights, "_terms", counting_terms)
    for n in range(2, 10):
        handed.clear()
        rounds.clear()
        assert canonical_height(E, m[n]).total == n * n * F(1, 4)
        assert handed and not any(num is m[n].y.den for num in handed), n
        assert rounds.count(ffheights._psi3) == n % 2, n


# -- generic rank ---------------------------------------------------------------


def test_generic_rank_s1():
    r, ev = generic_rank(1)
    assert r == 1
    assert ev.shioda_tate_bound == 1
    assert ev.heights["P"] == F(1, 6)
    assert "P = -2Q" in ev.note


def test_generic_rank_square():
    for s in (4, F(9, 4), 9):
        r, ev = generic_rank(s)
        assert r == 2
        assert ev.shioda_tate_bound == 2
        assert ev.orthogonal is True
        assert ev.heights == {"P": F(1, 4), "Q": F(1, 8), "P+Q": F(3, 8)}


def test_generic_rank_nonsquare():
    for s in (2, 3, 5):
        r, ev = generic_rank(s)
        assert r == 1
        assert ev.shioda_tate_bound == 2
        assert ev.galois_action is not None
        assert ev.orthogonal is True
        assert ev.heights == {"P": F(1, 4), "Q": F(1, 8), "P+Q": F(3, 8)}


def test_generic_rank_checks_the_shioda_tate_bound(monkeypatch):
    real = ffheights.shioda_tate_rank
    for s in (1, 2, 4):
        monkeypatch.setattr(ffheights, "shioda_tate_rank", lambda pr: real(pr) + 1)
        with pytest.raises(ArithmeticError, match="Shioda-Tate bound"):
            generic_rank(s)
    monkeypatch.setattr(ffheights, "shioda_tate_rank", lambda pr: 1)
    with pytest.raises(ArithmeticError, match="Shioda-Tate bound 1 at s = 2"):
        generic_rank(2)
    monkeypatch.setattr(ffheights, "shioda_tate_rank", real)
    assert generic_rank(2)[0] == 1


def test_generic_rank_degenerate():
    with pytest.raises(DegenerateS):
        generic_rank(0)


def test_conjugation_negates_second_section():
    # undoing the twist, Q = (x'/s, y'/(s sqrt(s))) for Q' = (x', y'): x(Q)
    # lies in Q(T) and y(Q)^2 = y'^2/s^3 is s times a square of Q(T), so
    # y(Q) lies in sqrt(s) Q(T) and sqrt(s) -> -sqrt(s) sends Q to -Q; P
    # has rational coordinates and is fixed
    for s in TWIST_S:
        E, _ = family_functionfield_curve(s)
        _, Q = second_section(E, s)
        x = Q.x / s
        y_over_root = Q.y / (s * s)  # y(Q) / sqrt(s)
        assert x == RatFunc(T)
        assert s * y_over_root**2 == x * x * x + x * E.a + E.b


# -- j-invariant ----------------------------------------------------------------


def j_parts(E: FunctionFieldCurve):
    """The numerator and denominator of j = 6912 a^3 / (4 a^3 + 27 b^2)."""
    return 6912 * E.a**3, 4 * E.a**3 + 27 * E.b**2


def test_j_invariant_s1():
    E, _ = family_functionfield_curve(1)
    num, den = j_parts(E)
    assert num * (4 * T + 9) == -768 * T**2 * den


def test_j_invariant_closed_form():
    # j = -6912 T^6 / (s (1-s-3T)^2 (4T^3 + s(1-s-3T)^2)) for the family
    for s in (F(1), F(2), F(4), F(9, 4), F(-3)):
        E, _ = family_functionfield_curve(s)
        w = (1 - s - 3 * T) ** 2
        num, den = j_parts(E)
        assert num * s * w * (4 * T**3 + s * w) == -6912 * T**6 * den


def test_j_constant_iff_isotrivial():
    const = FunctionFieldCurve(
        UniPoly([F(-3)]), UniPoly([F(11)])
    )
    j = RatFunc(*j_parts(const))
    assert max(j.num.degree(), j.den.degree()) == 0
    for s in (1, 2, 4, F(9, 4)):
        j = RatFunc(*j_parts(family_functionfield_curve(s)[0]))
        assert max(j.num.degree(), j.den.degree()) > 0


# -- model handling -------------------------------------------------------------


def test_curve_takes_two_polynomials_in_q_t():
    # a rational function or a scalar is refused
    for a, b in ((RatFunc(T), T), (0, T), (T, F(1, 2))):
        with pytest.raises(TypeError):
            FunctionFieldCurve(a, b)
    with pytest.raises(ValueError):
        FunctionFieldCurve(UniPoly([]), UniPoly([]))


def test_infinity_model_integrality():
    with pytest.raises(ValueError):
        FunctionFieldCurve(T**5, T)  # deg a > 4: no integral infinity model
    # s = 1: the model at infinity has Delta' = -3888 U^7 (9U + 4), and the
    # T chart reads v(Delta) + 12 = -5 + 12
    E, _ = family_functionfield_curve(1)
    prof = reduction_at(E, Place.infinity())
    assert (prof.val_delta, prof.type) == (7, ReductionType.ADDITIVE)


# The model at infinity, built here by coefficient reversal, is the reference
# for the weights that canonical_height and reduction_at add in the T chart.


def reversed_poly(p: UniPoly, length: int) -> UniPoly:
    """U^(length - 1) p(1/U)."""
    coeffs = list(p.coeffs) + [0] * (length - len(p.coeffs))
    return UniPoly(coeffs[::-1])


def at_inverse(f: RatFunc) -> RatFunc:
    """f(1/U)."""
    m = max(len(f.num.coeffs), len(f.den.coeffs))
    return RatFunc(reversed_poly(f.num, m), reversed_poly(f.den, m))


def infinity_model(E: FunctionFieldCurve, R: CurvePoint):
    """(a', b', x', y') from (x, y, T) = (x'/U^2, y'/U^3, 1/U)."""
    U = UniPoly([0, 1])
    a = reversed_poly(E.a, 5)
    b = reversed_poly(E.b, 7)
    x = at_inverse(R.x) * (U * U)
    y = at_inverse(R.y) * (U * U * U)
    return a, b, x, y


def infinity_entry_in_model(E: FunctionFieldCurve, R: CurvePoint):
    """(val_delta, reduction, smooth, local, val_f2, val_f3) at U = 0 of the
    model at infinity, by the valuation algorithm of the module docstring."""
    a, b, x, y = infinity_model(E, R)
    U0 = Place.linear(0)

    def v(f):
        return valuation_at(U0, f) if f else float("inf")

    n = v(-16 * (4 * a**3 + 27 * b * b))
    if n == 0:
        rtype = ReductionType.GOOD
    elif v(-48 * a) == 0:
        rtype = ReductionType.MULTIPLICATIVE
    else:
        rtype = ReductionType.ADDITIVE
    vx, v2y = v(x), v(2 * y)
    if vx < 0 or n == 0:
        return n, rtype, True, F(max(0, -vx), 2) + F(n, 12), None, None
    u, w = x.num, x.den
    if not (v2y > 0 and v(3 * u * u + a * w * w) > 0):
        return n, rtype, True, F(n, 12), None, None
    if rtype is ReductionType.MULTIPLICATIVE:
        alpha = F(min(2 * v2y, n), 2 * n)
        lam = F(n, 2) * (alpha * alpha - alpha + F(1, 6))
        return n, rtype, False, lam, 2 * v2y, None
    vpsi3 = v(3 * u**4 + 6 * a * u**2 * w**2 + 12 * b * u * w**3 - a * a * w**4)
    vf2 = None if v2y == float("inf") else 2 * v2y
    vf3 = None if vpsi3 == float("inf") else 2 * vpsi3
    if vf3 is None or (vf2 is not None and vf3 >= 3 * vf2):
        lam = F(n, 12) - F(vf2, 6)
    else:
        lam = F(n, 12) - F(vf3, 16)
    return n, rtype, False, lam, vf2, vf3


def infinity_entry(E: FunctionFieldCurve, R: CurvePoint):
    """The infinity entry of canonical_height as the same tuple; a good
    infinity with local height 0 has no entry."""
    rep = canonical_height(E, R)
    for e in rep.entries:
        if e.place.is_infinity:
            return e.val_delta, e.reduction, e.smooth, e.local, e.val_f2, e.val_f3
    return 0, ReductionType.GOOD, True, F(0), None, None


def matches_model_at_infinity(E: FunctionFieldCurve, R: CurvePoint):
    """Assert the T-chart infinity entry and profile equal the reference and
    return the reference entry."""
    ref = infinity_entry_in_model(E, R)
    assert infinity_entry(E, R) == ref
    prof = reduction_at(E, Place.infinity())
    assert (prof.val_delta, prof.type) == ref[:2]
    return ref


def test_point_transport_to_infinity_model():
    E, P = family_functionfield_curve(1)
    a, b, x, y = infinity_model(E, P)
    U = UniPoly([0, 1])
    # x' = U^2 x(1/U) = -2U, y' = U^3 y(1/U) = -3U^2
    assert (x, y) == (RatFunc(-2 * U), RatFunc(-3 * U**2))
    assert y * y == x * x * x + x * a + b
    seen_f3 = set()
    for s in (1, 2, 3, 4, F(1, 4), F(-3, 2), F(9, 4), 5, -1, F(1, 2)):
        E, P = family_functionfield_curve(s)
        E_q, Q = second_section(E, s)
        points = [P]
        while len(points) < 7:
            points.append(add(E, points[-1], P))
        cases = [(E, R) for R in points]
        if E_q is E:
            two_p, minus_q = points[1], scalar_mul(E, -1, Q)
            more = [Q, add(E, P, Q), add(E, P, minus_q), scalar_mul(E, 2, Q)]
            more += [add(E, two_p, Q), add(E, two_p, minus_q)]
            cases += [(E, R) for R in more]
        else:
            cases += [(E_q, scalar_mul(E_q, n, Q)) for n in (1, 2, 3)]
        for curve, R in cases:
            seen_f3.add(matches_model_at_infinity(curve, R)[5])
    assert {8, 10} <= seen_f3  # the psi3 branch is reached


def test_multiplicative_infinity_where_P_meets_the_node():
    # y^2 = x^3 - 3T^4 x + 2T^6 + T^2 + 2T + 1 has I4 at infinity, and
    # P = (T^2, T + 1) meets the node there: v(F2) = 4 gives alpha = 1/2
    E = FunctionFieldCurve(-3 * T**4, 2 * T**6 + T**2 + 2 * T + 1)
    P = CurvePoint.affine(RatFunc(T**2), RatFunc(T + 1))
    assert on_curve(E, P)
    entry = matches_model_at_infinity(E, P)
    assert entry == (4, ReductionType.MULTIPLICATIVE, False, F(-1, 6), 4, None)
    for n, h in ((1, F(1, 4)), (2, F(1)), (3, F(9, 4))):
        R = scalar_mul(E, n, P)
        matches_model_at_infinity(E, R)
        assert canonical_height(E, R).total == h
    # I2 at infinity with x' = 1 + U at the node: v(3x'^2 + a') = 1 reaches
    # the weight of the tangent
    E = FunctionFieldCurve(-3 * T**4, 2 * T**6 - 2 * T**4 - T**3 + 2 * T**2 + 1)
    P = CurvePoint.affine(RatFunc(T**2 + T), RatFunc(T**2 + 1))
    assert on_curve(E, P)
    entry = matches_model_at_infinity(E, P)
    assert entry == (2, ReductionType.MULTIPLICATIVE, False, F(-1, 12), 2, None)
    for n, h in ((1, F(3, 4)), (2, F(3)), (3, F(27, 4))):
        R = scalar_mul(E, n, P)
        matches_model_at_infinity(E, R)
        assert canonical_height(E, R).total == h
