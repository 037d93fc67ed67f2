"""Family construction, the good locus, and pairing preconditions."""

import random
from fractions import Fraction as F

import pytest
import sympy

from cleanpair.ec_core import CurvePoint, is_torsion_overQ, normalize_to_family, scalar_mul
from cleanpair.ffheights import family_functionfield_curve
from cleanpair.family import (
    DegeneratePair,
    MembershipFailure,
    NotInU,
    SMismatch,
    discriminant_formula,
    family_coefficients,
    make_member,
    marked_point_coords,
    pair_hypothesis,
    verify_member_identity,
)


def test_member_1_1():
    m = make_member(1, 1)
    assert (m.curve.a, m.curve.b) == (-3, 11)
    assert m.marked_point == CurvePoint.affine(F(-2), F(-3))
    assert m.in_u and m.failure_reason is None


def test_members_outside_good_locus():
    for t in (0, F(-9, 4)):
        m = make_member(1, t)
        assert not m.in_u
        assert m.failure_reason is MembershipFailure.ZERO_DISCRIMINANT
    m = make_member(0, 3)  # s = 0 kills the discriminant identically
    assert m.failure_reason is MembershipFailure.ZERO_DISCRIMINANT


def test_marked_point_always_on_curve():
    rng = random.Random(314)
    for _ in range(60):
        s = F(rng.randint(-20, 20), rng.randint(1, 10))
        t = F(rng.randint(-20, 20), rng.randint(1, 10))
        m = make_member(s, t)
        assert m.curve.contains(m.marked_point)


def test_discriminant_formula_matches_generic_discriminant():
    # -16(4a^3 + 27b^2) = -432 s (1-s-3t)^2 (4t^3 + (1-s-3t)^2 s) identically
    S, T = sympy.symbols("S T")
    a, b = family_coefficients(S, T)
    lhs = -16 * (4 * a * a * a + 27 * b * b)
    assert sympy.expand(lhs - discriminant_formula(S, T)) == 0


def test_member_identities_hold_in_s_and_t():
    # the marked point lies on the member, and the cubic f has a critical
    # point at t with f(t) = s y^2, identically; y = 1 - s - 3t divides the
    # discriminant.  So a member whose (a, b) and point are these formulas
    # at its (s, t) is on its curve, and with a nonzero discriminant passes
    # verify_member_identity
    S, T, X = sympy.symbols("S T X")
    a, b = family_coefficients(S, T)
    x, y = marked_point_coords(S, T)
    f = X**3 + a * X + b
    assert sympy.expand(y * y - f.subs(X, x)) == 0
    assert sympy.expand(sympy.diff(f, X).subs(X, T)) == 0
    assert sympy.expand(f.subs(X, T) - S * y * y) == 0
    assert sympy.rem(sympy.expand(discriminant_formula(S, T)), y, T) == 0


def test_member_identity():
    for s, t in [(1, 1), (1, 2), (F(64, 1681), F(196, 1681)), (4, 3), (F(9, 4), F(1, 3))]:
        m = make_member(s, t)
        if m.in_u:
            assert verify_member_identity(m)


def test_identity_on_normalized_output():
    # run the normalization from a doubled point and feed the result back in
    m = make_member(1, 1)
    P2 = scalar_mul(m.curve, 2, m.marked_point)
    n = normalize_to_family(m.curve, 1, P2)
    m2 = make_member(n.s, n.t)
    assert m2.in_u
    assert verify_member_identity(m2)
    assert m2.marked_point == n.point


def test_good_locus_on_s_equals_1_line():
    excluded = []
    for k in range(-40, 41):
        t = F(k, 8)
        m = make_member(1, t)
        if not m.in_u:
            excluded.append((t, m.failure_reason))
    assert excluded == [
        (F(-9, 4), MembershipFailure.ZERO_DISCRIMINANT),
        (F(0), MembershipFailure.ZERO_DISCRIMINANT),
    ]


def test_pair_hypothesis():
    m1, m2 = make_member(1, 1), make_member(1, 2)
    ph = pair_hypothesis(m1, m2, (True, True))
    assert ph.shared_s == 1
    assert ph.rank_one_asserted == (True, True)
    with pytest.raises(SMismatch):
        pair_hypothesis(make_member(1, 1), make_member(2, 1))
    with pytest.raises(DegeneratePair):
        pair_hypothesis(make_member(1, 1), make_member(1, 1))
    with pytest.raises(NotInU):
        pair_hypothesis(make_member(1, 1), make_member(1, 0))


def test_functionfield_member_matches_specializations():
    curve, point = family_functionfield_curve(1)
    assert point.y * point.y == point.x * point.x * point.x + point.x * curve.a + curve.b
    rng = random.Random(8)
    for _ in range(10):
        t0 = F(rng.randint(-9, 9), rng.randint(1, 4))
        m = make_member(1, t0)
        assert curve.a.evaluate(t0) == m.curve.a
        assert curve.b.evaluate(t0) == m.curve.b
        assert point.x.evaluate(t0) == m.marked_point.x
        assert point.y.evaluate(t0) == m.marked_point.y


def test_torsion_never_fires_on_sampled_good_members():
    rng = random.Random(123)
    fired = []
    for _ in range(40):
        s = F(rng.randint(1, 12))
        t = F(rng.randint(-12, 12), rng.randint(1, 6))
        m = make_member(s, t)
        if m.failure_reason is MembershipFailure.TORSION_MARKED_POINT:
            fired.append((s, t))
        if m.in_u:
            assert is_torsion_overQ(m.curve, m.marked_point) is None
    # surfaced, not assumed: log-style check that nothing fired in this sample
    assert fired == []
