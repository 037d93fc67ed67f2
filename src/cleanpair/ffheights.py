"""Elliptic curves over Q(T): reduction data, local heights, canonical
heights, and the generic-rank computation for the curve family.

The base field is Q(T), and every curve and point has coefficients in it.
A curve has one model, in the T chart.
Its chart change at infinity (x, y, T) = (x'/U^2, y'/U^3, 1/U) gives a model
integral at U = 0 whenever deg a <= 4 and deg b <= 6, and multiplies a
quantity of weight k by U^k.  So every valuation at the place at infinity is
read in the T chart, where v(f) = deg den - deg num, plus a fixed weight
(Silverman 1988).  With x = u/w in lowest terms:

    quantity                   valuation at infinity
    Delta                      v(Delta) + 12
    c4                         v(c4) + 4
    x                          v(x) + 2
    2y                         v(y) + 3
    tangent 3u^2 + aw^2        2 deg w + 4 - deg(tangent)
    psi3 numerator             4 deg w + 8 - deg(psi3 num)

where psi3 = 3x^4 + 6ax^2 + 12bx - a^2 has numerator
3u^4 + 6au^2w^2 + 12buw^3 - a^2w^4 over w^4.  Neither numerator is
multiplied out: its first terms come from those of u, w, a and b, which at
infinity have nominal degrees deg w + 2, deg w, 4 and 6 where v(x) >= 0.
Those are their integer Taylor numerators at a linear place T = e/c (over
one denominator in the uniformizer cT - e), their remainders mod a place
of degree >= 2, their top coefficients at infinity; when the first term of
psi3 vanishes, more Taylor or top coefficients, or at a place of degree
>= 2 the full product, give its valuation.

Where x has no pole neither has y, by y^2 = x^3 + ax + b, and y is reduced,
so its denominator is a unit at a finite place: v(y) is read from its
numerator alone (at infinity, from the degrees).  The cusp rule below
compares v(psi3) with 3 v(y), so psi3's order starts from its first 3 v(y)
terms (from one for y = 0) and doubles on, which keeps val(F3) exact.

Local heights follow the standard valuation-theoretic algorithm.  The
auxiliary quantities are the squares of the first two division polynomials,

    F2 = (2y)^2,    F3 = (3x^4 + 6ax^2 + 12bx - a^2)^2,

and with N = val(Delta) the cases are:

  * P reduces to a smooth point:  lambda = (1/2) max(0, -val(x)) + N/12
  * node (multiplicative), P singular:
        alpha = min(val(F2), N) / (2N)
        lambda = (N/2)(alpha^2 - alpha + 1/6)
  * cusp (additive), P singular:
        lambda = N/12 - val(F2)/6   if val(F3) >= 3 val(F2)
        lambda = N/12 - val(F3)/16  otherwise

The normalization makes the canonical height equal to the degree-weighted
sum of local values over all places, and satisfies h(2P) = 4 h(P).  At a
good place only the first case applies with N = 0, so the good finite places
together give half of deg den(x) less the degree-weighted pole orders of x at
the bad finite places; the denominator of x is never factored.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import islice, zip_longest
from typing import NamedTuple, Optional

from cleanpair.ec_core import CurvePoint, add, scalar_mul
from cleanpair.exactmath import (
    Place,
    RatFunc,
    UniPoly,
    factor_rational_poly,
    rational_to_str,
    sqrt_rational,
    valuation_at,
)
from cleanpair.exactmath.places import _poly_valuation
from cleanpair.exactmath.poly import qq_to_ints, taylor_numerators
from cleanpair.family import functionfield_coefficients, marked_point_coords


class MinimalityError(ValueError):
    """The model is not minimal at some bad place."""


class NotRationalSurface(ValueError):
    """Degree-weighted discriminant valuations do not sum to 12."""


class DegenerateS(ValueError):
    """The family parameter s = 0 gives identically singular curves."""


class ReductionType(enum.Enum):
    GOOD = "Good"
    MULTIPLICATIVE = "Multiplicative"
    ADDITIVE = "Additive"


class ReductionProfile(NamedTuple):
    place: Place
    val_delta: int
    type: ReductionType


class FunctionFieldCurve:
    """y^2 = x^3 + a(T) x + b(T), one model in the T chart.  a and b are in
    Q[T] with deg a <= 4 and deg b <= 6, so the model is integral at every
    finite place, and at infinity after (x, y, T) = (x'/U^2, y'/U^3, 1/U)."""

    __slots__ = ("a", "b", "_delta", "_profiles")

    def __init__(self, a: UniPoly, b: UniPoly):
        if not all(isinstance(c, UniPoly) for c in (a, b)):
            raise TypeError("curve coefficients must be polynomials in Q[T]")
        if a.degree() > 4 or b.degree() > 6:
            raise ValueError(
                "no integral model at infinity: need deg a <= 4 and deg b <= 6"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_delta", -16 * (4 * a * a * a + 27 * b * b))
        object.__setattr__(self, "_profiles", None)  # filled by _place_profiles
        if not self._delta:
            raise ValueError("singular: the discriminant vanishes identically")

    def __setattr__(self, name, value):
        raise AttributeError("FunctionFieldCurve is immutable")

    def discriminant(self) -> UniPoly:
        return self._delta

    def c4(self) -> UniPoly:
        return -48 * self.a

    def weierstrass(self) -> "FunctionFieldCurve":
        """The curve itself, which ec_core.add takes as it is; kept for
        perfbench's ladder, which still asks for it."""
        return self


def family_functionfield_curve(s) -> tuple[FunctionFieldCurve, CurvePoint]:
    """The family member over Q(T) at a fixed rational s with its marked
    point (1 - s - 2T, 1 - s - 3T)."""
    s = Fraction(s)
    if s == 0:
        raise DegenerateS("s = 0 gives a vanishing discriminant")
    curve = FunctionFieldCurve(*functionfield_coefficients(s))
    x, y = marked_point_coords(s, UniPoly([0, 1]))
    return curve, CurvePoint.affine(RatFunc(x), RatFunc(y))


def second_section(E: FunctionFieldCurve, s) -> tuple[FunctionFieldCurve, CurvePoint]:
    """The second section Q = (T, (1 - s - 3T) sqrt(s)) of the member E at s,
    read over Q(T), with the curve it lies on.

    At a square s = r^2 that is E itself and Q = (T, r (1 - s - 3T)).
    Otherwise it is the quadratic twist E^(s): y^2 = x^3 + s^2 a x + s^3 b,
    where the isomorphism (x, y) -> (sx, s sqrt(s) y) takes Q to
    Q' = (sT, s^2 (1 - s - 3T)); canonical heights are invariant under it
    (Silverman, AEC X.2), so h(Q') = h(Q).  The twist has Delta scaled by
    s^6 and c4 by s^2, so it keeps E's reduction profiles."""
    s = Fraction(s)
    t = UniPoly([0, 1])
    w = 1 - s - 3 * t
    r = sqrt_rational(s)
    if r is not None:
        return E, CurvePoint.affine(RatFunc(t), RatFunc(w * r))
    twist = FunctionFieldCurve(s * s * E.a, s * s * s * E.b)
    object.__setattr__(twist, "_profiles", _place_profiles(E))
    return twist, CurvePoint.affine(RatFunc(s * t), RatFunc(s * s * w))


# -- reduction data -----------------------------------------------------------


def _classify(val_delta: int, val_c4: int, place: Place) -> ReductionProfile:
    if val_delta == 0:
        rtype = ReductionType.GOOD
    elif val_c4 == 0:
        rtype = ReductionType.MULTIPLICATIVE
    else:
        rtype = ReductionType.ADDITIVE
    if val_delta and not (val_delta < 12 or val_c4 < 4):
        raise MinimalityError(f"model is not minimal at {place}")
    return ReductionProfile(place, val_delta, rtype)


def _weighted(place: Place, f, k: int) -> int:
    """Valuation at the place, in the integral model there, of the nonzero f
    of weight k: the chart change at infinity multiplies f by U^k."""
    v = valuation_at(place, f)
    return v + k if place.is_infinity else v


def _val_c4(E: FunctionFieldCurve, place: Place) -> int:
    return _weighted(place, E.c4(), 4) if E.a else 4  # c4 = 0: deep additive, capped for the tests


def reduction_at(E: FunctionFieldCurve, place: Place) -> ReductionProfile:
    return _classify(_weighted(place, E.discriminant(), 12), _val_c4(E, place), place)


def _place_profiles(E: FunctionFieldCurve) -> tuple[ReductionProfile, ...]:
    """Profiles at the bad finite places in sorted order, then at infinity,
    good or bad.  Delta is factored once, and each part (q, m) is a place
    with v(Delta) = m, in the order of Place.sort_key; the tuple is kept on
    the curve."""
    profiles = E._profiles
    if profiles is None:
        _, parts = factor_rational_poly(E.discriminant())
        finite = [(Place.finite(q), m) for q, m in parts]
        profiles = (
            *(_classify(m, _val_c4(E, place), place) for place, m in finite),
            reduction_at(E, Place.infinity()),
        )
        object.__setattr__(E, "_profiles", profiles)
    return profiles


def bad_places(E: FunctionFieldCurve) -> list[ReductionProfile]:
    """Reduction profile at every place of bad reduction, infinity last."""
    return [pr for pr in _place_profiles(E) if pr.val_delta]


def shioda_tate_rank(profiles) -> int:
    """Geometric Mordell-Weil rank bound for a rational elliptic surface:
    8 - sum(val Delta) + #(bad places) + #(additive places), all counts
    degree-weighted."""
    total = sum(pr.place.degree() * pr.val_delta for pr in profiles)
    if total != 12:
        raise NotRationalSurface(f"valuations of Delta sum to {total}, not 12")
    n_bad = sum(pr.place.degree() for pr in profiles if pr.val_delta)
    n_add = sum(pr.place.degree() for pr in profiles if pr.type is ReductionType.ADDITIVE)
    return 8 - total + n_bad + n_add


# -- local heights -------------------------------------------------------------


class PlaceHeightEntry(NamedTuple):
    place: Place
    val_delta: int
    reduction: ReductionType
    smooth: bool
    local: Fraction
    val_f2: Optional[int]
    val_f3: Optional[int]


class HeightReport(NamedTuple):
    """Local heights at the bad places and at infinity (a good infinity only
    when its value is not 0).  ``good_poles`` is the degree-weighted count of
    the poles of x at the good finite places, where the local height is half
    the pole order, so total = sum(degree * local) + good_poles / 2."""

    entries: tuple[PlaceHeightEntry, ...]
    total: Fraction
    good_poles: int

    def to_table_json(self) -> dict:
        return {
            "places": [str(e.place) for e in self.entries],
            "val_delta": [e.val_delta for e in self.entries],
            "reduction": [e.reduction.value for e in self.entries],
            "point_smooth": [e.smooth for e in self.entries],
            "val_F2": [e.val_f2 for e in self.entries],
            "val_F3": [e.val_f3 for e in self.entries],
            "local_heights": [rational_to_str(e.local) for e in self.entries],
            "total": rational_to_str(self.total),
        }


def _tangent(u, w, a):
    return 3 * u * u + a * w * w


def _psi3(u, w, a, b):
    u2, w2 = u * u, w * w
    return (3 * u2 + 6 * a * w2) * u2 + (12 * b * u * w - a * a * w2) * w2


class _Series:
    """A power series in a uniformizer as integer terms, lowest first, over
    one denominator, cut after k terms (k None: kept whole).  The first k
    terms of sums and products of cut series are exact."""

    __slots__ = ("terms", "den", "k")

    def __init__(self, terms, den, k):
        self.terms, self.den, self.k = terms[:k], den, k

    def __mul__(self, other):
        if isinstance(other, int):
            return _Series([c * other for c in self.terms], self.den, self.k)
        out = [0] * (len(self.terms) + len(other.terms) - 1)
        for i, x in enumerate(self.terms):
            for j, y in enumerate(other.terms, i):
                out[j] += x * y
        return _Series(out, self.den * other.den, self.k)

    __rmul__ = __mul__

    def __add__(self, other):
        da, db = self.den, other.den
        terms = [x * db + y * da for x, y in zip_longest(self.terms, other.terms, fillvalue=0)]
        return _Series(terms, da * db, self.k)

    def __sub__(self, other):
        return self + other * -1


def _terms(place: Place, form, polys, degs, k) -> list:
    """The first k terms of form(*polys) at the place in the integral model,
    from the first k terms of each of polys: at infinity its coefficients
    down from its nominal degree in degs; at T = e/c its Taylor numerators,
    over den c^n for p = num/den of degree n in the uniformizer cT - e.  At
    a place q of degree >= 2 the one term is the remainder mod q.  The
    first term is zero iff the valuation is positive."""
    if place.degree() > 1:
        q = place.poly
        return [form(*(p % q for p in polys)) % q]
    root, series = place.root, []
    for p, d in zip(polys, degs):
        num, den = qq_to_ints(p)
        if root is None:
            series.append(_Series((num + (0,) * (d + 1 - len(num)))[::-1], den, k))
        else:
            scale = den * root.denominator ** max(len(num) - 1, 0)
            series.append(_Series(list(islice(taylor_numerators(p, root), k)), scale, k))
    return form(*series).terms


def _order(place: Place, form, polys, degs, k: int = 1) -> Optional[int]:
    """Valuation of form(*polys) at the place in the integral model, None
    for zero: from k terms, k doubles until one of the first k terms is
    nonzero, the last round keeps the series whole, and at a place of
    degree >= 2 the full product settles a vanishing residue."""
    length = max(degs) + 1 if place.is_infinity else max(p.degree() for p in polys) + 1
    k = k if k < length else None
    while True:
        v = next((j for j, c in enumerate(_terms(place, form, polys, degs, k)) if c), None)
        if v is not None or k is None:
            return v
        if place.degree() > 1:
            full = form(*polys)
            return valuation_at(place, full) if full else None
        k = 2 * k if 2 * k < length else None


def _local_height_entry(
    profile: ReductionProfile, a: UniPoly, b: UniPoly, x: RatFunc, y: RatFunc, pole: int
) -> PlaceHeightEntry:
    """Local height of (x, y) at the profile's place, where x has a pole of
    order pole in the integral model (0 if none)."""
    place = profile.place
    n = profile.val_delta

    def entry(smooth, lam, vf2=None, vf3=None):
        return PlaceHeightEntry(place, n, profile.type, smooth, lam, vf2, vf3)

    if pole or n == 0:
        return entry(True, Fraction(pole, 2) + Fraction(n, 12))
    vy = None  # v(2y) = v(y), read from y's numerator (see the module docstring)
    if y:
        vy = _poly_valuation(place, y.num) + (y.den.degree() + 3 if place.is_infinity else 0)
    # x = u/w is reduced and v(x) >= 0, so w is a unit in the integral
    # model: the tangent 3x^2 + a and psi3 have the valuations of their
    # numerators
    u, w = x.num, x.den
    degs = (w.degree() + 2, w.degree(), 4, 6)
    if (vy is not None and vy <= 0) or _terms(place, _tangent, (u, w, a), degs, 1)[0]:
        return entry(True, Fraction(n, 12))  # v(x) >= 0 here, so no max term
    # P meets the singular point of the fiber
    if profile.type is ReductionType.MULTIPLICATIVE:
        if vy is None:
            raise ArithmeticError("two-torsion on a node is not supported")
        vf2 = 2 * vy
        alpha = Fraction(min(vf2, n), 2 * n)
        lam = Fraction(n, 2) * (alpha * alpha - alpha + Fraction(1, 6))
        return entry(False, lam, vf2=vf2)
    # the cusp rule compares v(psi3) with 3 v(y): read 3 v(y) terms at once
    vpsi3 = _order(place, _psi3, (u, w, a, b), degs, 3 * vy if vy else 1)
    if vy is None and vpsi3 is None:
        raise ArithmeticError("degenerate torsion point on a cusp")
    vf2 = None if vy is None else 2 * vy
    vf3 = None if vpsi3 is None else 2 * vpsi3
    if vf3 is None or (vf2 is not None and vf3 >= 3 * vf2):
        lam = Fraction(n, 12) - Fraction(vf2, 6)
    else:
        lam = Fraction(n, 12) - Fraction(vf3, 16)
    return entry(False, lam, vf2=vf2, vf3=vf3)


def canonical_height(E: FunctionFieldCurve, P: CurvePoint) -> HeightReport:
    """Degree-weighted sum of local heights over every place.

    The identity gets the empty report with total 0.  Entries cover the bad
    places and infinity; the good finite places enter through
    ``good_poles``, so the point is never factored.
    """
    if P.is_infinity:
        return HeightReport((), Fraction(0), 0)
    x, y = P.x, P.y
    good_poles = x.den.degree()
    entries = []
    total = Fraction(0)
    for profile in _place_profiles(E):
        place = profile.place
        if place.is_infinity:  # v(x) + 2 = deg w - deg u + 2
            pole = max(0, x.num.degree() - x.den.degree() - 2)
        else:
            pole = _poly_valuation(place, x.den)
            good_poles -= place.degree() * pole
        e = _local_height_entry(profile, E.a, E.b, x, y, pole)
        total += place.degree() * e.local
        if e.local or profile.val_delta:
            entries.append(e)
    return HeightReport(tuple(entries), total + Fraction(good_poles, 2), good_poles)


# -- generic rank over Q(T) -----------------------------------------------------


class GenericRankEvidence(NamedTuple):
    shioda_tate_bound: int
    heights: dict
    orthogonal: Optional[bool]
    galois_action: Optional[str]
    note: Optional[str]


def generic_rank(s) -> tuple[int, GenericRankEvidence]:
    """Rank of the family member over the rational function field, with the
    computational evidence that supports it.

    The Shioda-Tate bound must be 1 at s = 1 and 2 elsewhere.  The rank is 1
    for s = 1 (the two standard sections are dependent: P = -2Q, checked
    exactly), 2 for square s not 0 or 1 (two sections of positive height,
    orthogonal under the pairing), and 1 for non-square s.  There Q is defined
    over Q(sqrt(s))(T) only, and its height is read on the quadratic twist
    (see second_section).  The conjugation sqrt(s) -> -sqrt(s) fixes P and
    negates Q, and the height pairing is Galois invariant, so
    <P, Q> = <P, -Q> = -<P, Q> is 0 and h(P + Q) = h(P) + h(Q) (Shioda
    1990); only the span of P is Galois-stable."""
    s = Fraction(s)
    if s == 0:
        raise DegenerateS("s = 0 is outside the family's good locus")
    E, P = family_functionfield_curve(s)
    bound = shioda_tate_rank(bad_places(E))
    if bound != (1 if s == 1 else 2):
        raise ArithmeticError(f"Shioda-Tate bound {bound} at s = {s}")
    h_p = canonical_height(E, P).total
    if h_p <= 0:
        raise ArithmeticError("marked point must have positive height")
    E_q, Q = second_section(E, s)
    h_q = canonical_height(E_q, Q).total
    if s == 1:
        minus_2q = scalar_mul(E, -2, Q)
        if minus_2q != P:
            raise ArithmeticError("expected the identity P = -2Q at s = 1")
        evidence = GenericRankEvidence(
            shioda_tate_bound=bound,
            heights={"P": h_p, "Q": h_q},
            orthogonal=None,
            galois_action=None,
            note="P = -2Q: the two sections generate the same rank-1 subgroup",
        )
        return 1, evidence
    if E_q is not E:  # non-square s: Q' lies on the twist
        evidence = GenericRankEvidence(
            shioda_tate_bound=bound,
            heights={"P": h_p, "Q": h_q, "P+Q": h_p + h_q},
            orthogonal=True,
            galois_action="sqrt(s) -> -sqrt(s) sends Q to -Q and fixes P",
            note="only the span of P is stable under the quadratic conjugation",
        )
        return 1, evidence
    h_pq = canonical_height(E, add(E, P, Q)).total
    if h_pq != h_p + h_q:
        raise ArithmeticError("height pairing of the two sections is not zero")
    evidence = GenericRankEvidence(
        shioda_tate_bound=bound,
        heights={"P": h_p, "Q": h_q, "P+Q": h_pq},
        orthogonal=True,
        galois_action=None,
        note="Gram matrix diag(h(P), h(Q)) is nondegenerate",
    )
    return 2, evidence
