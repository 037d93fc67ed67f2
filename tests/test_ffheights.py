"""Function-field reduction data, local heights, canonical heights, ranks.

The height expectations (0, 1/12, -1/12, 1/6, 1/4, 1/8, 3/8, the footnote
valuations 2/6 and 4/8, and the rank formula instances 8-12+3+2 and
8-12+5+1) were all computed by hand from the valuation algorithm before
the module existed; they are frozen here.
"""

from fractions import Fraction as F

import pytest

import cleanpair.ffheights as ffheights
from cleanpair.ec_core import CurvePoint
from cleanpair.exactmath import (
    QQ,
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
    conjugate_point,
    family_functionfield_curve,
    generic_rank,
    second_section,
    shioda_tate_rank,
)

T = UniPoly.gen("T")


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
        (str(p.place), p.val_delta, p.type, p.component_count, p.geometric_multiplicity)
        for p in profs
    ]
    assert rows == [
        ("(T)", 4, ReductionType.ADDITIVE, 3, 1),
        ("(T + 9/4)", 1, ReductionType.MULTIPLICATIVE, 1, 1),
        ("infinity", 7, ReductionType.ADDITIVE, 6, 1),
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
    assert sum(p.geometric_multiplicity * p.val_delta for p in profs) == 12


def test_bad_places_sanity_curve():
    E = FunctionFieldCurve(UniPoly.zero("T"), T)  # y^2 = x^3 + T
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
        assert sum(p.geometric_multiplicity * p.val_delta for p in profs) == 12


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
        ReductionProfile(Place.linear("T", i), 1, ReductionType.MULTIPLICATIVE, 1, 1)
        for i in range(12)
    ]
    assert shioda_tate_rank(fake) == 8
    with pytest.raises(NotRationalSurface):
        shioda_tate_rank(fake[:5])


def test_minimality_guard():
    # y^2 = x^3 + T^6: val_T(Delta) = 12 and val_T(c4) is unbounded (a = 0)
    E = FunctionFieldCurve(UniPoly.zero("T"), T**6)
    with pytest.raises(MinimalityError):
        bad_places(E)


# -- local heights -------------------------------------------------------------


def test_local_heights_s1_marked_point():
    E, P = family_functionfield_curve(1)
    local = {e.place: e.local for e in canonical_height(E, P).entries}
    assert local[Place.linear("T", 0)] == 0
    assert local[Place.linear("T", F(-9, 4))] == F(1, 12)
    assert local[Place.infinity("T")] == F(1, 12)


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
    assert local[Place.linear("T", F(-1, 3))] == F(-1, 12)


def test_canonical_heights_table():
    E1, P1 = family_functionfield_curve(1)
    assert canonical_height(E1, P1).total == F(1, 6)
    E4, P4 = family_functionfield_curve(4)
    Q4 = second_section(4)
    assert canonical_height(E4, P4).total == F(1, 4)
    assert canonical_height(E4, Q4).total == F(1, 8)
    assert canonical_height(E4, E4.add(P4, Q4)).total == F(3, 8)


def test_canonical_height_identity_is_zero():
    E, _ = family_functionfield_curve(1)
    rep = canonical_height(E, CurvePoint.infinity())
    assert rep.total == 0 and rep.entries == () and rep.good_poles == 0


def test_quadraticity():
    for s in (1, 2):
        E, P = family_functionfield_curve(s)
        h1 = canonical_height(E, P).total
        h2 = canonical_height(E, E.scalar_mul(2, P)).total
        assert h2 == 4 * h1


def test_orthogonality_and_pairing():
    for s in (4, F(9, 4), 2, 3):
        E, P = family_functionfield_curve(s)
        Q = second_section(s)
        assert E.contains(Q)
        hp = canonical_height(E, P).total
        hq = canonical_height(E, Q).total
        hpq = canonical_height(E, E.add(P, Q)).total
        assert hpq == hp + hq
        assert hp > 0 and hq > 0


def adds_up(rep: HeightReport) -> bool:
    """The report's entries and good-place pole count give its total."""
    weighted = sum(e.place.degree() * e.local for e in rep.entries)
    return rep.total == weighted + F(rep.good_poles, 2)


def test_quadratic_form_on_the_span_of_P_and_Q():
    # P and Q are orthogonal, so h(mP + nQ) = m^2 h(P) + n^2 h(Q); at s = 2
    # and 3, 16 of the points (those with |m| = 2 and n != 0) have x-poles at
    # good places that split over Q(sqrt(s))
    for s in (2, 3, 4):
        E, P = family_functionfield_curve(s)
        Q = second_section(s)
        hp = canonical_height(E, P).total
        hq = canonical_height(E, Q).total
        for m in range(-2, 3):
            for n in range(-2, 3):
                R = E.add(E.scalar_mul(m, P), E.scalar_mul(n, Q))
                rep = canonical_height(E, R)
                assert rep.total == m * m * hp + n * n * hq, (s, m, n)
                assert adds_up(rep), (s, m, n)


def test_node_entry_of_2P_plus_Q():
    # at the I2 place T = -1/3, v(2y) = 2 exceeds N/2 = 1, so alpha = 1/2
    E, P = family_functionfield_curve(2)
    R = E.add(E.scalar_mul(2, P), second_section(2))
    rep = canonical_height(E, R)
    node = {e.place: e for e in rep.entries}[Place.linear("T", F(-1, 3))]
    assert (node.local, node.val_f2, node.smooth) == (F(-1, 12), 4, False)
    assert rep.total == F(9, 8)


def factored_good_poles(E: FunctionFieldCurve, x: RatFunc) -> int:
    """Sum of deg q * max(0, -v_q(x)) over the good finite places q, found by
    factoring den(x), or its norm to Q when x has quadratic coefficients.
    Needs every pole place to stay prime over the quadratic extension."""
    den = x.den
    if den.field != QQ:
        norm = den * den.map_coefficients(lambda c: c.conjugate())
        den = UniPoly(den.var, [c.a for c in norm.coeffs], QQ)
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
            R = E.add(R, P)
    for s in (2, 3):  # every pole place of P + Q is inert in Q(sqrt(s))
        E, P = family_functionfield_curve(s)
        cases.append((E, E.add(P, second_section(s))))
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
        R = E.add(R, P)
    profiles = bad_places(E)
    assert factored == [E.discriminant()]
    expected = list(profiles)
    profiles.pop()
    profiles.append(profiles[0])
    assert bad_places(E) == expected
    assert len(factored) == 1


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
        est = F(x.degree_map(), 2 * 4**n)
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
        assert ev.heights["Q"] == F(1, 8)


def test_generic_rank_degenerate():
    with pytest.raises(DegenerateS):
        generic_rank(0)


def test_conjugation_negates_second_section():
    Q = second_section(2)
    sigma = conjugate_point(Q)
    assert sigma == CurvePoint.affine(Q.x, -Q.y)
    # rational points are fixed
    E, P = family_functionfield_curve(2)
    assert conjugate_point(P) == P


# -- j-invariant ----------------------------------------------------------------


def test_j_invariant_s1():
    E, _ = family_functionfield_curve(1)
    assert E.weierstrass().j_invariant() == RatFunc(-768 * T**2, 4 * T + 9)


def test_j_invariant_closed_form():
    # j = -6912 T^6 / (s (1-s-3T)^2 (4T^3 + s(1-s-3T)^2)) for the family
    for s in (F(1), F(2), F(4), F(9, 4), F(-3)):
        E, _ = family_functionfield_curve(s)
        w = (1 - s - 3 * T) ** 2
        expected = RatFunc(-6912 * T**6, s * w * (4 * T**3 + s * w))
        assert E.weierstrass().j_invariant() == expected


def test_j_constant_iff_isotrivial():
    const = FunctionFieldCurve(
        UniPoly.constant("T", F(-3)), UniPoly.constant("T", F(11))
    )
    assert const.weierstrass().j_invariant().degree_map() == 0
    for s in (1, 2, 4, F(9, 4)):
        E, _ = family_functionfield_curve(s)
        assert E.weierstrass().j_invariant().degree_map() > 0


# -- model handling -------------------------------------------------------------


def test_infinity_model_integrality():
    E, _ = family_functionfield_curve(1)
    assert E.a_inf.degree() <= 4 and E.b_inf.degree() <= 6
    # Delta' = -3888 T'^7 (4 + 9T') for s = 1
    dinf = E.discriminant_inf()
    Tp = UniPoly.gen("T'")
    assert dinf == -3888 * Tp**7 * (9 * Tp + 4)
    with pytest.raises(ValueError):
        FunctionFieldCurve(T**5, T)  # deg a > 4: no integral infinity model


def test_point_transport_to_infinity_model():
    E, P = family_functionfield_curve(1)
    Pi = E.point_to_inf(P)
    W = E.weierstrass_inf()
    assert W.contains(Pi)
    # x' = T'^2 x(1/T') = -2T', y' = T'^3 y(1/T') = -3T'^2
    Tp = UniPoly.gen("T'")
    assert Pi.x == RatFunc(-2 * Tp)
    assert Pi.y == RatFunc(-3 * Tp**2)
