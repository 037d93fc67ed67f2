"""Short-Weierstrass curves y^2 = x^3 + ax + b and their group law.

Everything is exact.  A WeierstrassCurve is over Q, with Fraction
coefficients; the one curve over Q(T) is ffheights.FunctionFieldCurve, with
a and b in Q[T].  The group law, add and scalar_mul, takes either.  Torsion
testing, the Lutz-Nagell enumeration and the normalization into the family
are for curves over Q.

On a curve over Q(T), a and b in Q[T], a reduced point is (u/w^2, v/w^3)
with w monic, as the equation makes y's pole order 3/2 of x's.  The points
with a pole at a place, with O, form a subgroup E1 (Silverman, AEC VII.2),
so where just one summand has a pole the sum has none, and a chord reads its
sum from the slope's gcd g and one small exact quotient by g (_integral_sum).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from cleanpair.exactmath import RatFunc, UniPoly, as_fraction, rational_roots
from cleanpair.exactmath.poly import _cofactors, _quotient, _reduced


class SingularCurveError(ValueError):
    """The cubic has a vanishing discriminant."""


class ModelError(ValueError):
    """An operation needed an integral model and did not get one."""


class ShapeError(ValueError):
    """Curve coefficients do not have the required shape."""


class TorsionError(ValueError):
    """A point required to have infinite order is torsion."""


_MAZUR_BOUND = 12  # uniform bound on rational torsion orders
_PROBE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# Rational torsion injects into E(F_p) at every odd prime p of good reduction
# (Silverman, AEC VII.3.1), so a reduction of order above the Mazur bound
# proves infinite order.  Such an order needs #E(F_p) >= 13, and by Hasse
# #E(F_p) <= p + 1 + 2 sqrt(p), so p = 5 can never refute.  These are the
# probe primes that can, largest first, as a larger group is likelier to
# give a large order; the Hasse test runs on integers.
_REFUTING_PRIMES = tuple(
    p
    for p in reversed(_PROBE_PRIMES)
    if p >= _MAZUR_BOUND or (_MAZUR_BOUND - p) ** 2 <= 4 * p
)


class CurvePoint(NamedTuple):
    """A point on some curve: the identity O, with both coordinates None,
    or an affine pair; `affine` refuses a None coordinate."""

    x: object = None
    y: object = None

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        if x is None or y is None:
            raise ValueError("affine coordinates must not be None")
        return cls(x, y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "CurvePoint":
        if self.is_infinity:
            return self
        return CurvePoint(self.x, -self.y)

    def __str__(self):
        return "O" if self.is_infinity else f"({self.x}, {self.y})"


O = CurvePoint()


class WeierstrassCurve:
    """y^2 = x^3 + ax + b over Q; a coefficient that is not an int or a
    Fraction raises TypeError.

    The plain constructor rejects singular cubics; reduction fibers and
    other intentionally degenerate models go through possibly_singular.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = as_fraction(a), as_fraction(b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not self.discriminant():
            raise SingularCurveError(f"singular cubic: a={a}, b={b}")

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassCurve is immutable")

    @classmethod
    def possibly_singular(cls, a, b) -> "WeierstrassCurve":
        self = cls.__new__(cls)
        a, b = as_fraction(a), as_fraction(b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        return self

    def discriminant(self):
        a, b = self.a, self.b
        return -16 * (4 * a * a * a + 27 * b * b)

    def rhs(self, x):
        """The cubic x^3 + ax + b."""
        return x * x * x + self.a * x + self.b

    def rhs_poly(self) -> UniPoly:
        """The cubic x^3 + ax + b as a polynomial."""
        return UniPoly([self.b, self.a, 0, 1])

    def contains(self, P: CurvePoint) -> bool:
        if P.is_infinity:
            return True
        return P.y * P.y == self.rhs(P.x)

    def require_on_curve(self, P: CurvePoint) -> CurvePoint:
        if not self.contains(P):
            raise ValueError(f"point {P} is not on y^2 = x^3 + ({self.a})x + ({self.b})")
        return P


def add(E, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q on the curve E: over Q(T), E a FunctionFieldCurve, from
    (u, v, w); over Q, and where _integral_sum returns None (w's sharing a
    factor, slope 0), by the generic chord and tangent.  A point on a curve
    over Q(T) with a coordinate that is not a RatFunc raises TypeError."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    a = E.a
    if isinstance(a, UniPoly) and not all(isinstance(c, RatFunc) for c in (*P, *Q)):
        raise TypeError("a point on a curve over Q(T) takes RatFunc coordinates")
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    tangent = x1 == x2
    if tangent and y1 == -y2:
        return O
    if isinstance(a, UniPoly) and (S := _integral_sum(a, P, Q, tangent)) is not None:
        return S
    if tangent:
        lam = (3 * x1**2 + a) / (2 * y1)
        x3 = lam**2 - 2 * x1
    else:
        lam = (y2 - y1) / (x2 - x1)
        x3 = lam**2 - x1 - x2
    return CurvePoint(x3, lam * (x1 - x3) - y1)


def scalar_mul(E, n: int, P: CurvePoint) -> CurvePoint:
    if n < 0:
        return scalar_mul(E, -n, -P)
    acc, base = O, P
    while n:
        if n & 1:
            acc = add(E, acc, base)
        n >>= 1
        if n:
            base = add(E, base, base)
    return acc


def _integral_sum(a: UniPoly, P: CurvePoint, Q: CurvePoint, tangent: bool):
    """P + Q != O on y^2 = x^3 + ax + b with a, b in Q[T] (P == Q when
    tangent), or None where add takes the generic route; x = u/d, y = v/e,
    d = w^2, e = w^3, and M = 3u1^2 + a d1^2, which is 3u1^2 mod w1.

    Tangent: M = g M' and v1 = g v' give the reduced x3 = X/(4 v'^2 d1) and
    y3 = Y/(8 v'^3 e1).  Chord, w1 prime to w2 and of lower degree: the sum
    has no pole at w1 w2 (E1), so R = v2 e1 - v1 e2 = g R', H = u2 d1 - u1 d2
    = g H' (g prime to w2: H = u2 d1 mod w2) give it reduced: u3/H'^2, v3/H'^3.
    The curve and x3 (x1 - x2)^2 = (x1 + x2)(x1 x2 + a) + 2b - 2 y1 y2 give
    2 v1 R - M w2 H = g^2 C and x1 - x3 = w2 C/(d1 H'^2), so each is exact:
    C = (2 v1 R' - M w2 H')/g, u3 = (u1 H'^2 - w2 C)/d1, v3 = (R' C - v1 H'^3)/e1.
    """
    if P.x.den.degree() > Q.x.den.degree():
        P, Q = Q, P
    (u1, d1), (v1, e1) = (P.x.num, P.x.den), (P.y.num, P.y.den)
    M = 3 * (u1 * u1) + a * (d1 * d1)
    if tangent:
        if not M:
            return None
        _, M, v = _cofactors(M, v1)
        vv = v * v
        vvv = vv * v
        uvv = u1 * vv
        X = M * M - 8 * uvv
        Y = M * (4 * uvv - X) - 8 * v1 * vvv
        return CurvePoint(_reduced(X, 4 * vv * d1), _reduced(Y, 8 * vvv * e1))
    (u2, d2), (v2, e2) = (Q.x.num, Q.x.den), (Q.y.num, Q.y.den)
    w2 = _quotient(e2, d2)
    R = v2 * e1 - v1 * e2
    if not R or _cofactors(_quotient(e1, d1), w2)[0].degree():
        return None
    g, R, H = _cofactors(R, u2 * d1 - u1 * d2)
    H2 = H * H
    H3 = H2 * H
    C = _quotient(2 * v1 * R - M * (w2 * H), g)
    u3 = _quotient(u1 * H2 - w2 * C, d1)
    v3 = _quotient(R * C - v1 * H3, e1)
    return CurvePoint(_reduced(u3, H2), _reduced(v3, H3))


class IsomorphismWitness(NamedTuple):
    """(x, y) -> (d^2 x, d^3 y) from a source curve to a target curve,
    so a_target = d^4 a_source and b_target = d^6 b_source."""

    d: object

    def apply_point(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return P
        d = self.d
        return CurvePoint(d * d * P.x, d * d * d * P.y)

    def apply_curve(self, E: WeierstrassCurve) -> WeierstrassCurve:
        d2 = self.d * self.d
        d4 = d2 * d2
        return WeierstrassCurve(d4 * E.a, d4 * d2 * E.b)


# -- torsion over Q -----------------------------------------------------------


def _order_exceeds_mazur_bound(a: int, P: tuple[int, int], p: int) -> bool:
    """Whether the affine point P of y^2 = x^3 + ax + b over F_p has order
    above 12, decided from P, 2P, ..., 6P with five additions.

    The order n is at most 12 exactly when some iP with i <= 6 has y = 0
    (so 2iP = O) or shares its x with some jP, j < i (so iP = +-jP and
    (i -+ j)P = O with 0 < i -+ j <= 12): n = i + j with i, j <= 6 gives
    iP = -jP.  The walk stops at the first such iP, so before it every
    iP has an x of its own and no sum meets O.
    """
    x1, y1 = x, y = P
    xs = []
    while y and x not in xs:
        xs.append(x)
        if len(xs) == _MAZUR_BOUND // 2:
            return True
        if len(xs) == 1:
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p  # tangent at P
        else:
            lam = (y - y1) * pow(x - x1, -1, p) % p  # chord through iP and P
        x = (lam * lam - x - x1) % p
        y = (lam * (x1 - x) - y1) % p
    return False


def is_torsion_overQ(E: WeierstrassCurve, P: CurvePoint) -> Optional[int]:
    """Exact order of P when torsion (1 for O), None when infinite order."""
    if P.is_infinity:
        return 1
    return _exact_torsion_order(E.a, E.b, P.x, P.y)


def _exact_torsion_order(a, b, x, y) -> Optional[int]:
    """The order of the affine point (x, y) on y^2 = x^3 + ax + b (ints or
    Fractions) when at most the Mazur bound, else None: the one decision of
    torsion over Q.  (x, y) -> (d^2 x, d^3 y), with d the lcm of the
    denominators of a and b, lands on an integral model, where torsion
    points are integral (Nagell-Lutz; Silverman, AEC VIII.7.2).  So P, 2P,
    ... are walked in ints, and a slope whose division leaves a remainder
    proves infinite order, as x(nP + P) = lam^2 - x(nP) - x(P) is an
    integer exactly when lam is.  nP = -P gives order n + 1; no such n up
    to the bound proves infinite order (Mazur)."""
    d = lcm(a.denominator, b.denominator)
    x, y = x * d * d, y * d**3
    if x.denominator != 1 or y.denominator != 1:
        return None
    a, x1, y1 = (a * d**4).numerator, x.numerator, y.numerator
    x, y = x1, y1
    for n in range(2, _MAZUR_BOUND + 1):
        if x == x1 and y == -y1:
            return n
        lam, r = divmod(3 * x1 * x1 + a, 2 * y1) if x == x1 else divmod(y - y1, x - x1)
        if r:
            return None
        x = lam * lam - x - x1
        y = lam * (x1 - x) - y1
    return None


def _torsion_order_bound(E: WeierstrassCurve) -> int:
    """The gcd of #E(F_p) over the good probe primes (0 if none is good);
    rational torsion injects into E(F_p), so its order divides this."""
    a, b = int(E.a), int(E.b)
    disc = 4 * a**3 + 27 * b * b
    m = 0
    for p in _PROBE_PRIMES:
        if disc % p == 0:
            continue
        squares = Counter(y * y % p for y in range(p))
        m = gcd(m, 1 + sum(squares[(x * x * x + a * x + b) % p] for x in range(p)))
        if m < 3:
            break
    return m


def _integer_divisor_squares(n: int) -> list[int]:
    """Every y >= 1 with y^2 dividing n, ascending (none for n = 0)."""
    try:
        from sympy import factorint
    except ImportError:
        raise ImportError("factoring the discriminant for torsion_points_overQ needs sympy") from None

    if n == 0:
        return []
    ys = [1]
    for p, e in factorint(abs(n)).items():
        ys = [y * int(p) ** k for y in ys for k in range(e // 2 + 1)]
    return sorted(ys)


def torsion_points_overQ(E: WeierstrassCurve) -> list[CurvePoint]:
    """All rational torsion points of an integral model, O first.

    Candidates come from Lutz-Nagell (y = 0, or y^2 dividing the
    discriminant); each is confirmed by the exact torsion test.  The
    discriminant is not factored when #E(F_p) bounds the torsion by 2.
    """
    if E.a.denominator != 1 or E.b.denominator != 1:
        raise ModelError("integral model required")
    found = [O]
    seen = set()
    cubic = E.rhs_poly()

    def consider(x, y):
        pt = CurvePoint(x, y)
        if pt in seen:
            return
        seen.add(pt)
        if is_torsion_overQ(E, pt):
            found.append(pt)

    for x, _ in rational_roots(cubic):
        consider(x, Fraction(0))
    if not 0 < _torsion_order_bound(E) < 3:
        disc = int(E.discriminant())
        for y in _integer_divisor_squares(disc):
            for x, _ in rational_roots(cubic - y * y):
                consider(x, Fraction(y))
                consider(x, Fraction(-y))
    found.sort(key=lambda pt: (not pt.is_infinity, pt.x, pt.y))
    return found


# -- Weierstrass-form normalization into the two-parameter family -------------


class FamilyNormalization(NamedTuple):
    s: Fraction
    t: Fraction
    witness: IsomorphismWitness
    point: CurvePoint


def normalize_to_family(
    E: WeierstrassCurve, t, P: CurvePoint
) -> FamilyNormalization:
    """Move (E, P) with a = -3t^2 into the standard two-parameter form.

    The image curve has parameters (s, d^2 t) with s = (b - 2t^3)/y(P)^2
    and d = (x(P) - t)/y(P); the marked point goes to
    (1 - s - 2t', 1 - s - 3t').  When x(P) = t the point is first replaced
    by -2P, which moves it off that locus.
    """
    t = Fraction(t)
    if E.a != -3 * t * t:
        raise ShapeError(f"coefficient a = {E.a} is not -3*({t})^2")
    E.require_on_curve(P)
    if P.is_infinity or P.y == 0:
        raise TorsionError("marked point must avoid two-torsion")
    if is_torsion_overQ(E, P):
        raise TorsionError(f"marked point {P} is torsion")
    if P.x == t:
        P = scalar_mul(E, -2, P)
        if P.is_infinity or P.x == t:
            raise TorsionError("could not move the point off x = t")
    s = (E.b - 2 * t**3) / (P.y * P.y)
    d = (P.x - t) / P.y
    w = IsomorphismWitness(d)
    t_new = d * d * t
    image = w.apply_curve(E)
    P_new = w.apply_point(P)
    expected = CurvePoint(1 - s - 2 * t_new, 1 - s - 3 * t_new)
    if P_new != expected or not image.contains(expected):
        raise ArithmeticError("normalization identity failed")
    return FamilyNormalization(s, t_new, w, P_new)
