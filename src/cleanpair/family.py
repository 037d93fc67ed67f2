"""The two-parameter curve family and its marked point.

A member at rational parameters (s, t) is the curve

    y^2 = x^3 - 3 t^2 x + 2 t^3 + (1 - s - 3t)^2 s

with marked point (1 - s - 2t, 1 - s - 3t).  The point lies on the curve
for every (s, t), an algebraic identity.  A member is "good" when the
discriminant is nonzero and the marked point has infinite order; pairs of
good members sharing the same s are the certificate inputs.

The same coefficients, read as polynomials in t over Q for one fixed s,
give the function-field models used by the height machinery.  The
coefficient and discriminant formulas are duck-typed, so the identities in
both s and t can be checked on symbols of a computer-algebra system.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Optional

from cleanpair.ec_core import (
    CurvePoint,
    WeierstrassCurve,
    is_torsion_overQ,
)
from cleanpair.exactmath import UniPoly, taylor_coefficients


class SMismatch(ValueError):
    """Paired members do not share the same s."""


class NotInU(ValueError):
    """A paired member lies outside the good locus."""


class DegeneratePair(ValueError):
    """Both members have the same t (the pair construction needs two
    distinct curves)."""


class MembershipFailure(enum.Enum):
    ZERO_DISCRIMINANT = "ZeroDiscriminant"
    TORSION_MARKED_POINT = "TorsionMarkedPoint"


def family_coefficients(s, t):
    """(a, b) of the member at (s, t); works for rationals, polynomials,
    rational functions or symbols."""
    a = -3 * t * t
    w = 1 - s - 3 * t
    b = 2 * t * t * t + w * w * s
    return a, b


def marked_point_coords(s, t):
    return (1 - s - 2 * t, 1 - s - 3 * t)


def discriminant_formula(s, t):
    """Closed form of the member discriminant:
    -432 s (1 - s - 3t)^2 (4 t^3 + (1 - s - 3t)^2 s)."""
    w = 1 - s - 3 * t
    return -432 * s * w * w * (4 * t * t * t + w * w * s)


class FamilyMember(NamedTuple):
    s: Fraction
    t: Fraction
    curve: WeierstrassCurve
    marked_point: CurvePoint
    failure_reason: Optional[MembershipFailure] = None

    @property
    def in_u(self) -> bool:
        return self.failure_reason is None


def make_member(s, t) -> FamilyMember:
    """Construct the member at (s, t); bad parameters are recorded in the
    result, never raised."""
    s = Fraction(s)
    t = Fraction(t)
    a, b = family_coefficients(s, t)
    curve = WeierstrassCurve.possibly_singular(a, b)
    point = CurvePoint.affine(*marked_point_coords(s, t))
    if not curve.contains(point):
        raise ArithmeticError("marked point fell off the curve; construction bug")
    if discriminant_formula(s, t) == 0:
        return FamilyMember(s, t, curve, point, MembershipFailure.ZERO_DISCRIMINANT)
    if is_torsion_overQ(curve, point):
        return FamilyMember(s, t, curve, point, MembershipFailure.TORSION_MARKED_POINT)
    return FamilyMember(s, t, curve, point)


def verify_member_identity(m: FamilyMember) -> bool:
    """The two defining identities of a good member, checked exactly:
    the cubic has a critical point at t, and its value there is s times
    the square of the marked point's y-coordinate."""
    value, slope, *_ = taylor_coefficients(m.curve.rhs_poly(), m.t)
    if slope != 0:
        return False
    y = m.marked_point.y
    if y == 0:
        return False
    return value == m.s * y * y


class PairHypothesis(NamedTuple):
    left: FamilyMember
    right: FamilyMember
    shared_s: Fraction
    rank_one_asserted: tuple[bool, bool]


def pair_hypothesis(
    m1: FamilyMember,
    m2: FamilyMember,
    rank1_flags: tuple[bool, bool] = (False, False),
) -> PairHypothesis:
    """Package two good members with equal s as a certificate input.

    The rank-1 flags are externally supplied assertions and are carried
    through untouched; nothing here computes ranks.
    """
    if m1.s != m2.s:
        raise SMismatch(f"s values differ: {m1.s} vs {m2.s}")
    for m in (m1, m2):
        if not m.in_u:
            raise NotInU(f"member (s={m.s}, t={m.t}): {m.failure_reason.value}")
    if m1.t == m2.t:
        raise DegeneratePair(f"both members have t = {m1.t}")
    for m in (m1, m2):
        if not verify_member_identity(m):
            raise ArithmeticError("member identity failed; construction bug")
    return PairHypothesis(m1, m2, m1.s, tuple(rank1_flags))


# -- function-field models ----------------------------------------------------


def functionfield_coefficients(s) -> tuple[UniPoly, UniPoly]:
    """(a(T), b(T)) over Q for a fixed rational s."""
    return family_coefficients(Fraction(s), UniPoly([0, 1]))
