"""Nodal-fiber certificates for products of two family members.

A pair of points (x1, y1), (x2, y2) on two cubics y^2 = f(x1) and
y^2 = g(x2) determines the ratio r = y1/y2, and the locus with a fixed
ratio is the plane cubic

    F(x1, x2) = f(x1) - r^2 g(x2) = 0.

When f and g both have a critical point (at t1 and t2) and the critical
values match up, F acquires a singular point at (t1, t2); if it is a
node, lines through it parametrize the cubic by their slope.  On that
parameter line one can write down a rational function whose zeros sit
over the marked-point image and whose poles sit over the points at
infinity, all of which collapse to a single product point.  Pushing the
function forward shows that a multiple of the cycle

    ([P1] - [-P1]) (x) ([P2] - [-P2])

dies in CH^2 of the product, which is the content of a clean-pair
certificate.  f and g are monic cubics, so f(t + u) = f(t) + (3t^2 + a)u
+ 3t u^2 + u^3 gives the node, its Hessian -36 r^2 t1 t2 and the
parametrization Q2 = 3 t1 L^2 - 3 r^2 t2, Q3 = L^3 - r^2 in closed form.
Where t1 t2 = 0 the singular point is a cusp, and find_node refuses it.  At
a node the fiber is reducible, with the line x1 = (t1/t2) x2 in it, exactly
when t1^3 = r^2 t2^3, where Q2 and Q3 share the root t1/t2.

The certificate stores every intermediate object for both fibers, r and
-r, which agree in everything but r (F depends on r only through r^2).
The verifier does not rerun the construction.  It recomputes F and the
node conditions from the pair data, compares Q2 and Q3 with their closed
forms at the stored node, and checks every other stored object by its
defining property: tau, x1 and x2 by cross-multiplication and the
on-fiber identity, and the witness by where its zeros and poles lie.  The
-r fiber is checked against the +r one section by section, so any
mutation of a stored field is detected.

Serialization: one self-contained JSON document per certificate, with
rationals as "num/den" strings and polynomials as coefficient arrays,
lowest degree first.  F is an array of arrays (outer index the x1-degree,
inner arrays coefficients in x2).  The layout is declared once, in one
table that both the dump and the load walk, and a load error is a
ValueError whose message leads with the JSON pointer of the field at
fault, as in "/fiber_plus/node/t2: missing".  The format tag, each node's
kind ("Node") and the preimage sign table are the same in every
certificate: they are constants of the format, checked where they are
read, so a document that differs there does not load.  A load builds each
distinct polynomial and rational function once, so the -r fiber shares the
+r fiber's objects.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import NamedTuple, Optional

from cleanpair.ec_core import CurvePoint, WeierstrassCurve, is_torsion_overQ
from cleanpair.exactmath import (
    RatFunc,
    UniPoly,
    parse_rational,
    rational_roots,
    rational_to_str,
)
from cleanpair.exactmath.poly import qq_from_ints
from cleanpair.exactmath.scalars import parse_ratio, short_repr
from cleanpair.family import (
    FamilyMember,
    PairHypothesis,
    discriminant_formula,
    family_coefficients,
    marked_point_coords,
)

CERTIFICATE_FORMAT = "cleanpair.certificate/1"


class TwoTorsionError(ValueError):
    """A source point has y = 0, so the ratio y1/y2 is degenerate."""


class NotOnFiber(ValueError):
    """The proposed point does not satisfy F(x1, x2) = 0."""


class NotSingular(ValueError):
    """The proposed point lies on the fiber but is a smooth point."""


class CuspNotSupported(ValueError):
    """The singular point is a cusp (t1*t2 = 0); only nodes are
    parametrized."""


class NodeIsTarget(ValueError):
    """The witness target coincides with the node."""


class IrrationalParameter(ValueError):
    """The target has no rational slope parameter (its line through the
    node is the vertical x2 = t2, slope at infinity)."""


class ReducibleFiber(ArithmeticError):
    """The fiber cubic has a line through the node as a component.  A
    common root of Q2 and Q3 is the slope of such a line (the line meets
    the cubic with total multiplicity 4 > 3, forcing it inside); at a node
    they share one, t1/t2, exactly when t1^3 = r^2 t2^3."""


# -- data records ---------------------------------------------------------------


class PencilFiber(NamedTuple):
    """The cubic F = f(x1) - r^2 g(x2), with f and g the right-hand sides of
    the two source curves.  F holds its four coefficients in x1, lowest
    degree first, each a polynomial in x2; only F[0] involves x2."""

    r: Fraction
    F: tuple[UniPoly, ...]
    source_curves: tuple[WeierstrassCurve, WeierstrassCurve]


class NodeData(NamedTuple):
    t1: Fraction
    t2: Fraction
    hessian_det: Fraction


class NodalParametrization(NamedTuple):
    """Lines x1 = t1 + L*tau, x2 = t2 + tau through the node; substituting
    into F leaves Q2(L) tau^2 + Q3(L) tau^3, so the third intersection is
    at tau(L) = -Q2(L)/Q3(L), with x1 = N1/Q3 and x2 = N2/Q3 for
    N1 = t1 Q3 - L Q2 and N2 = t2 Q3 - Q2.

    node_branch_poly is Q2 (its roots are the two branch slopes at the
    node); infinity_branch_poly is Q3 (its roots are the three slopes
    whose lines meet the cubic at infinity instead).
    """

    tau: RatFunc
    x1_of: RatFunc
    x2_of: RatFunc
    node_branch_poly: UniPoly
    infinity_branch_poly: UniPoly
    node: NodeData


class DivisorWitness(NamedTuple):
    """h(L) with zeros only over the target and poles only over points at
    infinity of the fiber.

    With multiplier m = 3 the pole divisor is all three roots of Q3; with
    m = 1 (available when Q3 has a rational root) it is that single root.
    Either way the pushforward divisor is m*[target] - m*[infinity point].
    """

    h: RatFunc
    lambda_p: Fraction
    multiplier: int


class CertifiedFiber(NamedTuple):
    fiber: PencilFiber
    parametrization: NodalParametrization
    witness: DivisorWitness


class Conclusion(NamedTuple):
    """The certified statement.  n and n_prime are the integers relating
    the marked points to rank-1 generators; they depend on analytic input
    the certificate does not carry, so the slots stay empty."""

    statement: str
    multiplier: int
    rank_one_hypotheses: tuple[bool, bool]
    rank_one_conditional: bool
    n: Optional[int]
    n_prime: Optional[int]
    torsion_factor: str


class CleanPairCertificate(NamedTuple):
    pair: PairHypothesis
    r: Fraction
    fiber_plus: CertifiedFiber
    fiber_minus: CertifiedFiber
    conclusion: Conclusion


# -- construction ---------------------------------------------------------------


def _fiber_poly(E1: WeierstrassCurve, E2: WeierstrassCurve, r: Fraction) -> tuple[UniPoly, ...]:
    """F = f(x1) - r^2 g(x2) as its coefficients in x1, polynomials in x2."""
    F = [UniPoly([c]) for c in E1.rhs_poly().coeffs]
    F[0] = F[0] - r * r * E2.rhs_poly()
    return tuple(F)


def _numerators(node: NodeData, q2: UniPoly, q3: UniPoly) -> tuple[UniPoly, UniPoly]:
    """N1 and N2 with x1 = N1/Q3 and x2 = N2/Q3 on the line of slope L."""
    return node.t1 * q3 - UniPoly([0, 1]) * q2, node.t2 * q3 - q2


def _on_fiber(fiber: PencilFiber, n1: UniPoly, n2: UniPoly, q3: UniPoly) -> bool:
    """Whether f(N1/Q3) = r^2 g(N2/Q3), with the denominators cleared:
    N1^3 + a1 N1 Q3^2 + b1 Q3^3 = r^2 (N2^3 + a2 N2 Q3^2 + b2 Q3^3)."""
    E1, E2 = fiber.source_curves
    q3sq = q3 * q3
    q3cu = q3sq * q3

    def cleared(E, n):
        return n * (n * n + E.a * q3sq) + E.b * q3cu

    return cleared(E1, n1) == fiber.r * fiber.r * cleared(E2, n2)


def build_fiber(E1: WeierstrassCurve, E2: WeierstrassCurve, P1: CurvePoint,
                P2: CurvePoint) -> tuple[Fraction, PencilFiber]:
    """The ratio r = y1/y2 and the cubic F = f(x1) - r^2 g(x2) through
    (x(P1), x(P2))."""
    for P in (P1, P2):
        if P.is_infinity or P.y == 0:
            raise TwoTorsionError("source points must be affine with y != 0")
    r = Fraction(P1.y) / Fraction(P2.y)
    if E1.rhs(P1.x) != r * r * E2.rhs(P2.x):
        raise ArithmeticError("fiber misses its defining points; construction bug")
    return r, PencilFiber(r, _fiber_poly(E1, E2, r), (E1, E2))


def find_node(fiber: PencilFiber, t1, t2) -> NodeData:
    """Check that (t1, t2) is a node of the fiber.  F is separable, so it
    vanishes with its gradient where f(t1) = r^2 g(t2), f'(t1) = 0 and
    r^2 g'(t2) = 0, and the determinant of second partials is f''(t1)
    (-r^2 g''(t2)) = -36 r^2 t1 t2: a node unless t1 t2 = 0, where the
    cusp raises CuspNotSupported."""
    t1 = Fraction(t1)
    t2 = Fraction(t2)
    E1, E2 = fiber.source_curves
    r2 = fiber.r * fiber.r
    if E1.rhs(t1) != r2 * E2.rhs(t2):
        raise NotOnFiber(
            f"F({t1}, {t2}) != 0: critical values do not satisfy f(t1) = r^2 g(t2)"
        )
    if 3 * t1 * t1 + E1.a or r2 * (3 * t2 * t2 + E2.a):
        raise NotSingular(f"({t1}, {t2}) is a smooth point of the fiber")
    det = -36 * r2 * t1 * t2
    if det == 0:
        raise CuspNotSupported("cuspidal fibers are not parametrized")
    return NodeData(t1, t2, det)


def parametrize(fiber: PencilFiber, node: NodeData) -> NodalParametrization:
    """Substitute the pencil of lines through the node into F.  The terms
    of F in tau^2 and tau^3 are Q2 = 3 t1 L^2 - 3 r^2 t2 and Q3 = L^3 - r^2
    (the u^2 and u^3 terms of f(t1 + u) and of -r^2 g(t2 + u)); the lower
    ones vanish at a singular point.  With t1 t2 != 0, a common root of Q2
    and Q3 is L = L^3/L^2 = t1/t2, so they are coprime unless t1^3 = r^2
    t2^3 (ReducibleFiber).  Checks the on-fiber identity."""
    r2 = fiber.r * fiber.r
    if node.t1**3 == r2 * node.t2**3:
        raise ReducibleFiber(
            "a line through the node is a component of the fiber; "
            "no nodal parametrization exists"
        )
    q2 = UniPoly([-3 * r2 * node.t2, 0, 3 * node.t1])
    q3 = UniPoly([-r2, 0, 0, 1])
    n1, n2 = _numerators(node, q2, q3)
    if not _on_fiber(fiber, n1, n2, q3):
        raise ArithmeticError("parametrization does not satisfy F = 0")
    return NodalParametrization(
        RatFunc(-q2, q3), RatFunc(n1, q3), RatFunc(n2, q3), q2, q3, node
    )


def _witness_parts(q3: UniPoly, lam_p: Fraction) -> tuple[int, UniPoly, UniPoly]:
    """Numerator and denominator of h.  A rational root of Q3 allows a
    degree-1 witness; otherwise the whole monic Q3 is the pole divisor and
    the zero is tripled to balance."""
    lin = UniPoly([-lam_p, 1])
    roots = rational_roots(q3)
    if roots:
        rho = roots[0][0]
        return 1, lin, UniPoly([-rho, 1])
    return 3, lin**3, q3.monic()


def divisor_witness(par: NodalParametrization, target) -> DivisorWitness:
    """A rational function on the parameter line whose divisor is
    supported on the target's parameter and on infinity slopes only."""
    x1t = Fraction(target[0])
    x2t = Fraction(target[1])
    t1, t2 = par.node.t1, par.node.t2
    if (x1t, x2t) == (t1, t2):
        raise NodeIsTarget("witness target coincides with the node")
    tau_p = x2t - t2
    if tau_p == 0:
        raise IrrationalParameter(
            "target lies on the vertical line x2 = t2; slope parameter is infinite"
        )
    lam_p = (x1t - t1) / tau_p
    q2 = par.node_branch_poly
    q3 = par.infinity_branch_poly
    if q3.evaluate(lam_p) == 0 or par.tau.evaluate(lam_p) != tau_p:
        raise NotOnFiber(f"({x1t}, {x2t}) does not lie on the parametrized fiber")
    m, num, den = _witness_parts(q3, lam_p)
    if q2.evaluate(lam_p) == 0 or (m == 1 and q2.evaluate(-den.coeff(0)) == 0):
        raise ArithmeticError("witness divisor touches the node branches")
    return DivisorWitness(RatFunc(num, den), lam_p, m)


def _certify_fiber(E1, E2, P1, P2, t1, t2) -> tuple[Fraction, CertifiedFiber]:
    r, fiber = build_fiber(E1, E2, P1, P2)
    node = find_node(fiber, t1, t2)
    par = parametrize(fiber, node)
    wit = divisor_witness(par, (P1.x, P2.x))
    return r, CertifiedFiber(fiber, par, wit)


# Which sign choices (s1*P1, s2*P2) land on which fiber: the ratio
# s1*y1/(s2*y2) is r for matching signs and -r for opposite ones, in every
# certificate, because r = y1/y2.
PREIMAGE_SIGNS = {"on_r": [["+", "+"], ["-", "-"]], "on_minus_r": [["+", "-"], ["-", "+"]]}


def _conclusion(m: int, rank_one) -> Conclusion:
    """The statement certified with multiplier m, given the two rank-1
    flags of the pair."""
    conditional = rank_one[0] and rank_one[1]
    tail = ("rank-1 hypotheses supplied for both curves, so the pair (E1, E2) is clean"
            if conditional else "if both curves have rank 1 then the pair (E1, E2) is clean")
    statement = f"{m} * Phi(([P1] - [-P1]) (x) ([P2] - [-P2])) = 0 in CH^2(E1 x E2); {tail}"
    return Conclusion(statement, m, tuple(rank_one), conditional, None, None, f"4*n*n'*{m}")


def assemble_certificate(pair: PairHypothesis) -> CleanPairCertificate:
    """Run the whole construction for a validated pair and package every
    intermediate object."""
    m1, m2 = pair.left, pair.right
    P1, P2 = m1.marked_point, m2.marked_point
    r, cf_plus = _certify_fiber(m1.curve, m2.curve, P1, P2, m1.t, m2.t)
    # The fiber through (P1, -P2) has ratio -r.  F depends on r only through
    # r^2 and the target (x(P1), x(P2)) is the same, so everything but r
    # agrees with the +r fiber.
    cf_minus = cf_plus._replace(fiber=cf_plus.fiber._replace(r=-r))
    conclusion = _conclusion(cf_plus.witness.multiplier, pair.rank_one_asserted)
    return CleanPairCertificate(pair, r, cf_plus, cf_minus, conclusion)


# -- serialization --------------------------------------------------------------
#
# The /1 document is declared once, by the tables below.  A kind is a pair
# (dump, load): dump maps a value to JSON, and load(data, scope) maps it back,
# where scope holds the values already loaded beside the enclosing record, and
# scope.table what _shared has made so far in the whole load.  A load error
# unwinds as _Malformed and collects its keys, innermost first.  A part that
# is the same in every certificate is a _constant kind.


class _Scope(dict):
    __slots__ = ("table",)


class _Malformed(Exception):
    """args: the reason and the list of keys."""


def _entry(key, load, data, scope):
    try:
        return load(data, scope)
    except _Malformed as exc:
        exc.args[1].append(key)
        raise
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise _Malformed(str(exc), [key]) from None


def _plain(test, expected: str):
    """A JSON value that passes ``test``, stored as it is."""
    def load(data, scope):
        if not test(data):
            raise ValueError(f"expected {expected}, got {short_repr(data)}")
        return data
    return (lambda value: value), load


def _array(item, length: Optional[int] = None):
    """A JSON array of items, of exactly ``length`` entries if given."""
    dump_item, load_item = item
    def load(data, scope):
        if type(data) is not list or length not in (None, len(data)):
            size = "" if length is None else f" of {length} entries"
            raise ValueError(f"expected a JSON array{size}, got {short_repr(data)}")
        return tuple(_entry(i, load_item, x, scope) for i, x in enumerate(data))
    return (lambda values: [dump_item(v) for v in values]), load


def _record(build, *rows):
    """A JSON object with one (key, attributes, kind) row per key.  Dump reads
    the space-separated attributes (a tuple of them if several, the object
    itself if none); load passes the values, by key, and its scope to build."""
    fields = [(key, attrgetter(*attrs.split()) if attrs else (lambda obj: obj), *kind)
              for key, attrs, kind in rows]

    def load(data, scope):
        if type(data) is not dict:
            raise ValueError(f"expected a JSON object, got {short_repr(data)}")
        values = _Scope()
        values.table = scope.table
        for key, _, _, load_value in fields:
            if key not in data:
                raise _Malformed("missing", [key])
            values[key] = _entry(key, load_value, data[key], values)
        return build(values, scope)
    return (lambda obj: {key: dump(get(obj)) for key, get, dump, _ in fields}), load


def _same(data, expected):
    """Nothing if data is the JSON value expected; else the load error at
    the first leaf where they differ."""
    if type(expected) is dict:
        if type(data) is not dict:
            raise ValueError(f"expected a JSON object, got {short_repr(data)}")
        for key, item in expected.items():
            if key not in data:
                raise _Malformed("missing", [key])
            _entry(key, _same, data[key], item)
    elif type(expected) is list:
        if type(data) is not list or len(data) != len(expected):
            size = len(expected)
            raise ValueError(f"expected a JSON array of {size} entries, got {short_repr(data)}")
        for i, item in enumerate(expected):
            _entry(i, _same, data[i], item)
    elif type(data) is not type(expected) or data != expected:
        raise ValueError(f"expected {short_repr(expected)}, got {short_repr(data)}")


def _constant(value):
    """A part of the document that is the same in every certificate: dump
    writes a fresh copy of value, and load requires it."""
    return (lambda _: copy.deepcopy(value)), (lambda data, _: _same(data, value))


def _shared(scope, key, make, *args):
    """make(*args), made once for each key in one load; certificate_from_json
    starts each call with an empty table, so nothing outlives the call."""
    table = scope.table
    if key not in table:
        table[key] = make(*args)
    return table[key]


def _polynomial():
    """Coefficient strings, lowest degree first, read straight into the
    integer form, once for each distinct array in one load."""
    dump, load = _array((rational_to_str, lambda data, _: parse_ratio(data)))
    def load_poly(data, scope):
        pairs = load(data, scope)
        den = lcm(*(d for _, d in pairs))
        return qq_from_ints([n * (den // d) for n, d in pairs], den)
    def load_shared(data, scope):
        if type(data) is list and all(type(x) is str for x in data):
            return _shared(scope, tuple(data), load_poly, data, scope)
        return load_poly(data, scope)  # no array of strings: fails as it would alone
    return (lambda p: dump(p.coeffs)), load_shared


_ANY = (lambda value: value), (lambda data, _: data)
_RATIONAL = rational_to_str, (lambda data, _: parse_rational(data))
_INTEGER = _plain(lambda v: type(v) is int, "an integer")
_BOOLEAN = _plain(lambda v: type(v) is bool, "true or false")
_POLY = _polynomial()
_RATFUNC = _record(  # the table keeps both polynomials, so their ids are keys
    lambda v, scope: _shared(scope, (id(v["num"]), id(v["den"])), RatFunc, v["num"], v["den"]),
    ("num", "num", _POLY), ("den", "den", _POLY))
_FIBER = _record(
    lambda v, cert: CertifiedFiber(
        PencilFiber(v["r"], v["F"], (cert["pair"].left.curve, cert["pair"].right.curve)),
        v["parametrization"], v["witness"]),
    ("r", "fiber.r", _RATIONAL),
    ("F", "fiber.F", _array(_POLY)),
    ("node", "parametrization.node", _record(
        lambda v, _: NodeData(v["t1"], v["t2"], v["hessian"]),
        ("t1", "t1", _RATIONAL), ("t2", "t2", _RATIONAL), ("hessian", "hessian_det", _RATIONAL),
        ("kind", "", _constant("Node")))),
    ("parametrization", "parametrization", _record(
        lambda v, fiber: NodalParametrization(
            v["tau"], v["x1"], v["x2"], v["Q2"], v["Q3"], fiber["node"]),
        ("Q2", "node_branch_poly", _POLY), ("Q3", "infinity_branch_poly", _POLY),
        ("tau", "tau", _RATFUNC), ("x1", "x1_of", _RATFUNC), ("x2", "x2_of", _RATFUNC))),
    ("witness", "witness", _record(
        lambda v, _: DivisorWitness(v["h"], v["lambda_P"], v["multiplier"]),
        ("lambda_P", "lambda_p", _RATIONAL), ("multiplier", "multiplier", _INTEGER),
        ("h", "h", _RATFUNC))),
)
_MEMBER = _record(
    lambda v, pair: FamilyMember(
        pair["s"], v["t"], WeierstrassCurve.possibly_singular(v["a"], v["b"]),
        CurvePoint.affine(*v["point"])),
    ("t", "t", _RATIONAL), ("a", "curve.a", _RATIONAL), ("b", "curve.b", _RATIONAL),
    ("point", "marked_point.x marked_point.y", _array(_RATIONAL, 2)),
)
_CERTIFICATE = _record(
    lambda v, _: CleanPairCertificate(v["pair"], v["r"], v["fiber_plus"], v["fiber_minus"],
                                      v["conclusion"]),
    ("format", "", _constant(CERTIFICATE_FORMAT)),
    ("pair", "pair", _record(
        lambda v, _: PairHypothesis(*v["members"], v["s"], v["rank_one"]),
        ("s", "shared_s", _RATIONAL), ("members", "left right", _array(_MEMBER, 2)),
        ("rank_one", "rank_one_asserted", _array(_BOOLEAN, 2)))),
    ("r", "r", _RATIONAL), ("fiber_plus", "fiber_plus", _FIBER),
    ("fiber_minus", "fiber_minus", _FIBER),
    ("preimage_check", "", _constant(PREIMAGE_SIGNS)),
    ("conclusion", "conclusion", _record(
        lambda v, _: Conclusion(**v),
        ("statement", "statement", _ANY), ("multiplier", "multiplier", _INTEGER),
        ("rank_one_hypotheses", "rank_one_hypotheses", _array(_BOOLEAN, 2)),
        ("rank_one_conditional", "rank_one_conditional", _BOOLEAN),
        ("n", "n", _ANY), ("n_prime", "n_prime", _ANY),
        ("torsion_factor", "torsion_factor", _ANY))),
)


def certificate_to_json(cert: CleanPairCertificate) -> dict:
    return _CERTIFICATE[0](cert)


def certificate_from_json(data: dict) -> CleanPairCertificate:
    """A malformed document raises ValueError.  Below the root, its message
    starts with the RFC 6901 JSON pointer of the field at fault."""
    if not isinstance(data, dict):
        raise ValueError(f"certificate must be a JSON object, got {type(data).__name__}")
    root = _Scope()
    root.table = {}
    try:
        return _CERTIFICATE[1](data, root)
    except _Malformed as exc:
        reason, keys = exc.args
        escaped = (str(key).replace("~", "~0").replace("/", "~1") for key in reversed(keys))
        raise ValueError("".join("/" + key for key in escaped) + f": {reason}") from None


def certificate_dumps(cert: CleanPairCertificate) -> str:
    return json.dumps(certificate_to_json(cert), indent=2, sort_keys=True)


def certificate_loads(text: str) -> CleanPairCertificate:
    return certificate_from_json(json.loads(text))


# -- verification ---------------------------------------------------------------


class VerificationResult(NamedTuple):
    ok: bool
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        """A failed verdict is falsy, though a tuple of two fields is not."""
        return self.ok


def _check_membership(cert: CleanPairCertificate) -> list[str]:
    bad = []
    pair, s = cert.pair, cert.pair.shared_s
    if pair.left.t == pair.right.t:
        bad.append("PairMembership")
    for m in (pair.left, pair.right):
        # read at the pair's s: a member built at another s' has x = 1 - s' - 2t
        a, b = family_coefficients(s, m.t)
        x, y = marked_point_coords(s, m.t)
        P = m.marked_point
        if (m.curve.a, m.curve.b) != (a, b) or (P.x, P.y) != (x, y):
            bad.append("PairMembership")
        elif discriminant_formula(s, m.t) == 0 or is_torsion_overQ(m.curve, P):
            bad.append("PairMembership")
    return bad


def _check_ratio(cert: CleanPairCertificate) -> list[str]:
    bad = []
    pair = cert.pair
    y1, y2 = pair.left.marked_point.y, pair.right.marked_point.y
    if cert.r != Fraction(y1) / Fraction(y2):  # y2 = 0 raises, and run reports it
        bad.append("RatioMismatch")
    if cert.r * cert.r * pair.right.curve.rhs(pair.right.t) != pair.left.curve.rhs(pair.left.t):
        bad.append("RatioMismatch")
    if cert.fiber_plus.fiber.r != cert.r or cert.fiber_minus.fiber.r != -cert.r:
        bad.append("RatioMismatch")
    return bad


def _check_fiber(cf: CertifiedFiber, fiber: PencilFiber) -> list[str]:
    return [] if cf.fiber.F == fiber.F else ["FiberMismatch"]


def _check_node(cf: CertifiedFiber, fiber: PencilFiber, t1, t2) -> list[str]:
    """The stored node is (t1, t2) with find_node's Hessian; find_node
    raises where (t1, t2) is not a node."""
    node = cf.parametrization.node
    if (node.t1, node.t2) != (t1, t2) or node.hessian_det != find_node(fiber, t1, t2).hessian_det:
        return ["NodeMismatch"]
    return []


def _check_parametrization(cf: CertifiedFiber, fiber: PencilFiber) -> list[str]:
    """Q2 and Q3 the closed forms of parametrize at the stored node, with
    no common root (t1 != 0, as Q2 is a quadric: r = 0 or t1^3 = r^2 t2^3
    makes one), tau, x1 and x2 the quotients -Q2/Q3, N1/Q3 and N2/Q3, and
    the on-fiber identity, which holds exactly at a singular point.  Each
    failure has the one reason, so no verdict depends on the order."""
    par = cf.parametrization
    node, r2 = par.node, fiber.r * fiber.r
    q2 = par.node_branch_poly
    q3 = par.infinity_branch_poly
    closed_forms = ((-3 * r2 * node.t2, 0, 3 * node.t1), (-r2, 0, 0, 1))
    if (q2.coeffs, q3.coeffs) != closed_forms or not r2 or node.t1**3 == r2 * node.t2**3:
        return ["ParametrizationMismatch"]
    n1, n2 = _numerators(node, q2, q3)
    for stored, num in ((par.tau, -q2), (par.x1_of, n1), (par.x2_of, n2)):
        if stored.num * q3 != num * stored.den:
            return ["ParametrizationMismatch"]
    if not _on_fiber(fiber, n1, n2, q3):
        return ["ParametrizationMismatch"]
    return []


def _check_witness(cf: CertifiedFiber, target) -> list[str]:
    """h = (L - lambda_P)^m over L - rho for a rational root rho of Q3
    (m = 1), or over the monic Q3 when it has none (m = 3); Q2 must not
    vanish at lambda_P or rho, so h is finite and nonzero on the node
    branches."""
    par = cf.parametrization
    wit = cf.witness
    t1, t2 = par.node.t1, par.node.t2
    tau_p = Fraction(target[1]) - t2
    lam_p = (Fraction(target[0]) - t1) / tau_p  # tau_p = 0 raises, and run reports it
    q2 = par.node_branch_poly
    q3 = par.infinity_branch_poly
    if (
        wit.lambda_p != lam_p
        or q3.evaluate(lam_p) == 0
        or par.tau.evaluate(lam_p) != tau_p
        or q2.evaluate(lam_p) == 0
    ):
        return ["DivisorMismatch"]
    m = wit.multiplier
    hd = wit.h.den
    if m == 1:
        rho = -hd.coeff(0)
        poles_ok = hd.degree() == 1 and q3.evaluate(rho) == 0 and q2.evaluate(rho) != 0
    elif m == 3:
        poles_ok = hd == q3.monic() and not rational_roots(q3)
    else:
        return ["DivisorMismatch"]
    if not poles_ok or wit.h.num != UniPoly([-lam_p, 1]) ** m:
        return ["DivisorMismatch"]
    return []


def _check_conclusion(cert: CleanPairCertificate) -> list[str]:
    expected = _conclusion(cert.fiber_plus.witness.multiplier, cert.pair.rank_one_asserted)
    return [] if cert.conclusion == expected else ["ConclusionMismatch"]


_PARAMETRIZATION_CURVES = attrgetter(
    "tau", "x1_of", "x2_of", "node_branch_poly", "infinity_branch_poly"
)


def _check_mirror(cert: CleanPairCertificate) -> list[str]:
    """The -r fiber must repeat the +r one in every section but r (see
    assemble_certificate); its r is checked with the ratio.  The node is a
    section of its own, so the parametrization is compared by its curves."""
    plus, minus = cert.fiber_plus, cert.fiber_minus
    sections = (
        ("FiberMismatch", plus.fiber.F, minus.fiber.F),
        ("NodeMismatch", plus.parametrization.node, minus.parametrization.node),
        ("ParametrizationMismatch", _PARAMETRIZATION_CURVES(plus.parametrization),
         _PARAMETRIZATION_CURVES(minus.parametrization)),
        ("DivisorMismatch", plus.witness, minus.witness),
    )
    return [reason for reason, a, b in sections if a != b]


def verify_certificate(cert: CleanPairCertificate) -> VerificationResult:
    """Check every component of the certificate against the pair data by
    its defining property; collects a reason code for each failing section
    instead of raising."""
    reasons: list[str] = []

    def run(tag, fn, *args):
        try:
            reasons.extend(fn(*args))
        except (ArithmeticError, ValueError, TypeError, KeyError) as _:
            reasons.append(tag)

    run("PairMembership", _check_membership, cert)
    run("RatioMismatch", _check_ratio, cert)
    curves = (cert.pair.left.curve, cert.pair.right.curve)
    fiber = PencilFiber(cert.r, _fiber_poly(*curves, cert.r), curves)
    target = (cert.pair.left.marked_point.x, cert.pair.right.marked_point.x)
    cf = cert.fiber_plus
    run("FiberMismatch", _check_fiber, cf, fiber)
    run("NodeMismatch", _check_node, cf, fiber, cert.pair.left.t, cert.pair.right.t)
    run("ParametrizationMismatch", _check_parametrization, cf, fiber)
    run("DivisorMismatch", _check_witness, cf, target)
    run("FiberMismatch", _check_mirror, cert)
    run("ConclusionMismatch", _check_conclusion, cert)
    seen = tuple(dict.fromkeys(reasons))
    return VerificationResult(not seen, seen)
