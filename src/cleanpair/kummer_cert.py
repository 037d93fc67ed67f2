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

The certificate stores every intermediate object for both fibers, r and
-r, which agree in everything but r (F depends on r only through r^2).
The verifier does not rerun the construction.  It recomputes F and the
node conditions from the pair data, and checks every other stored object
by its defining property: Q2 and Q3 by the on-fiber identity with
denominators cleared, the coordinate functions by cross-multiplication,
and the witness by where its zeros and poles lie.  The -r fiber is
checked against the +r one section by section, so any mutation of a
stored field is detected.

Serialization: one self-contained JSON document per certificate, with
rationals as "num/den" strings and polynomials as coefficient arrays,
lowest degree first.  F is an array of arrays (outer index the x1-degree,
inner arrays coefficients in x2).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from cleanpair.ec_core import CurvePoint, WeierstrassCurve, is_torsion_overQ
from cleanpair.exactmath import (
    RatFunc,
    UniPoly,
    parse_rational,
    rational_roots,
    rational_to_str,
    resultant,
)
from cleanpair.family import (
    FamilyMember,
    PairHypothesis,
    discriminant_formula,
    family_coefficients,
    marked_point_coords,
    verify_member_identity,
)

CERTIFICATE_FORMAT = "cleanpair.certificate/1"

_LVAR = "L"  # slope parameter of the lines through the node


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
    the cubic with total multiplicity 4 > 3, forcing it inside), so
    coprimality of Q2 and Q3 is exactly irreducibility of the fiber."""


class NodeKind(enum.Enum):
    NODE = "Node"
    CUSP = "Cusp"


# -- data records ---------------------------------------------------------------


@dataclass(frozen=True)
class PencilFiber:
    """The cubic F = f(x1) - r^2 g(x2), with f and g the right-hand sides of
    the two source curves.  F holds its four coefficients in x1, lowest
    degree first, each a polynomial in x2; only F[0] involves x2."""

    r: Fraction
    F: tuple[UniPoly, ...]
    source_curves: tuple[WeierstrassCurve, WeierstrassCurve]


@dataclass(frozen=True)
class NodeData:
    t1: Fraction
    t2: Fraction
    hessian_det: Fraction
    kind: NodeKind


@dataclass(frozen=True)
class NodalParametrization:
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


@dataclass(frozen=True)
class DivisorWitness:
    """h(L) with zeros only over the target and poles only over points at
    infinity of the fiber.

    With multiplier m = 3 the pole divisor is all three roots of Q3; with
    m = 1 (available when Q3 has a rational root) it is that single root.
    Either way the pushforward divisor is m*[target] - m*[infinity point].
    """

    h: RatFunc
    lambda_p: Fraction
    multiplier: int


@dataclass(frozen=True)
class CertifiedFiber:
    fiber: PencilFiber
    node: NodeData
    parametrization: NodalParametrization
    witness: DivisorWitness


@dataclass(frozen=True)
class PreimageCheck:
    """Which sign choices (s1*P1, s2*P2) land on which fiber: the ratio
    s1*y1/(s2*y2) equals r for matching signs and -r for opposite ones."""

    on_r: tuple[tuple[str, str], ...]
    on_minus_r: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Conclusion:
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


@dataclass(frozen=True)
class CleanPairCertificate:
    pair: PairHypothesis
    r: Fraction
    fiber_plus: CertifiedFiber
    fiber_minus: CertifiedFiber
    preimage_check: PreimageCheck
    conclusion: Conclusion


# -- construction ---------------------------------------------------------------


def _fiber_poly(E1: WeierstrassCurve, E2: WeierstrassCurve, r: Fraction) -> tuple[UniPoly, ...]:
    """F = f(x1) - r^2 g(x2) as its coefficients in x1, polynomials in x2."""
    F = [UniPoly.constant("x2", c) for c in E1.rhs_poly().coeffs]
    F[0] = F[0] - r * r * E2.rhs_poly("x2")
    return tuple(F)


def _numerators(node: NodeData, q2: UniPoly, q3: UniPoly) -> tuple[UniPoly, UniPoly]:
    """N1 and N2 with x1 = N1/Q3 and x2 = N2/Q3 on the line of slope L."""
    return node.t1 * q3 - UniPoly.gen(_LVAR) * q2, node.t2 * q3 - q2


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
    """Check that (t1, t2) is a singular point of the fiber and classify
    it by the determinant of second partials.  F is separable, so it
    vanishes with its gradient where f(t1) = r^2 g(t2), f'(t1) = 0 and
    r^2 g'(t2) = 0, and the determinant is f''(t1) (-r^2 g''(t2)) =
    -36 r^2 t1 t2: a node unless t1 t2 = 0."""
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
    kind = NodeKind.NODE if det != 0 else NodeKind.CUSP
    return NodeData(t1, t2, det, kind)


def parametrize(fiber: PencilFiber, node: NodeData) -> NodalParametrization:
    """Substitute the pencil of lines through the node into F.  The terms
    of F in tau^2 and tau^3 are Q2 = 3 t1 L^2 - 3 r^2 t2 and Q3 = L^3 - r^2
    (the u^2 and u^3 terms of f(t1 + u) and of -r^2 g(t2 + u)); the lower
    ones vanish at a singular point.  Checks the on-fiber identity."""
    if node.kind is not NodeKind.NODE:
        raise CuspNotSupported("cuspidal fibers are not parametrized")
    r2 = fiber.r * fiber.r
    q2 = UniPoly(_LVAR, [-3 * r2 * node.t2, 0, 3 * node.t1])
    q3 = UniPoly(_LVAR, [-r2, 0, 0, 1])
    if resultant(q2, q3) == 0:
        raise ReducibleFiber(
            "a line through the node is a component of the fiber; "
            "no nodal parametrization exists"
        )
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
    lin = UniPoly(_LVAR, [-lam_p, 1])
    roots = rational_roots(q3)
    if roots:
        rho = roots[0][0]
        return 1, lin, UniPoly(_LVAR, [-rho, 1])
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
    return r, CertifiedFiber(fiber, node, par, wit)


# Which sign choices (s1*P1, s2*P2) land on which fiber; it holds for every
# pair, because r = y1/y2.
_PREIMAGE_TABLE = PreimageCheck(
    on_r=(("+", "+"), ("-", "-")), on_minus_r=(("+", "-"), ("-", "+"))
)


def _statement_text(m: int, conditional: bool) -> str:
    base = (
        f"{m} * Phi(([P1] - [-P1]) (x) ([P2] - [-P2])) = 0 in CH^2(E1 x E2)"
    )
    if conditional:
        tail = (
            "; rank-1 hypotheses supplied for both curves, so the pair "
            "(E1, E2) is clean"
        )
    else:
        tail = "; if both curves have rank 1 then the pair (E1, E2) is clean"
    return base + tail


def _torsion_factor_text(m: int) -> str:
    return f"4*n*n'*{m}"


def assemble_certificate(pair: PairHypothesis) -> CleanPairCertificate:
    """Run the whole construction for a validated pair and package every
    intermediate object."""
    m1, m2 = pair.left, pair.right
    P1, P2 = m1.marked_point, m2.marked_point
    r, cf_plus = _certify_fiber(m1.curve, m2.curve, P1, P2, m1.t, m2.t)
    # The fiber through (P1, -P2) has ratio -r.  F depends on r only through
    # r^2 and the target (x(P1), x(P2)) is the same, so everything but r
    # agrees with the +r fiber.
    cf_minus = replace(cf_plus, fiber=replace(cf_plus.fiber, r=-r))
    m = cf_plus.witness.multiplier
    conditional = pair.rank_one_asserted[0] and pair.rank_one_asserted[1]
    conclusion = Conclusion(
        statement=_statement_text(m, conditional),
        multiplier=m,
        rank_one_hypotheses=tuple(pair.rank_one_asserted),
        rank_one_conditional=conditional,
        n=None,
        n_prime=None,
        torsion_factor=_torsion_factor_text(m),
    )
    return CleanPairCertificate(pair, r, cf_plus, cf_minus, _PREIMAGE_TABLE, conclusion)


# -- serialization --------------------------------------------------------------


def _poly_json(p: UniPoly) -> list[str]:
    return [rational_to_str(c) for c in p.coeffs]


def _ratfunc_json(f: RatFunc) -> dict:
    return {"num": _poly_json(f.num), "den": _poly_json(f.den)}


def _poly_from(coeffs, var: str) -> UniPoly:
    if not isinstance(coeffs, list):
        raise ValueError(f"expected a JSON array of coefficients, got {coeffs!r}")
    return UniPoly(var, [parse_rational(c) for c in coeffs])


def _ratfunc_from(data, var: str) -> RatFunc:
    den = _poly_from(data["den"], var)
    if not den:
        raise ValueError("rational function with a zero denominator")
    return RatFunc(_poly_from(data["num"], var), den)


def _int_from(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _two_from(value) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected a JSON array of two entries, got {value!r}")
    return tuple(value)


def _signs_from(value) -> tuple[str, str]:
    signs = _two_from(value)
    if any(sign not in ("+", "-") for sign in signs):
        raise ValueError(f"expected two signs \"+\" or \"-\", got {value!r}")
    return signs


def _bool_from(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _fiber_json(cf: CertifiedFiber) -> dict:
    par = cf.parametrization
    wit = cf.witness
    return {
        "r": rational_to_str(cf.fiber.r),
        "F": [_poly_json(c) for c in cf.fiber.F],
        "node": {
            "t1": rational_to_str(cf.node.t1),
            "t2": rational_to_str(cf.node.t2),
            "hessian": rational_to_str(cf.node.hessian_det),
            "kind": cf.node.kind.value,
        },
        "parametrization": {
            "Q2": _poly_json(par.node_branch_poly),
            "Q3": _poly_json(par.infinity_branch_poly),
            "tau": _ratfunc_json(par.tau),
            "x1": _ratfunc_json(par.x1_of),
            "x2": _ratfunc_json(par.x2_of),
        },
        "witness": {
            "lambda_P": rational_to_str(wit.lambda_p),
            "multiplier": wit.multiplier,
            "h": _ratfunc_json(wit.h),
        },
    }


def certificate_to_json(cert: CleanPairCertificate) -> dict:
    pair = cert.pair
    members = []
    for m in (pair.left, pair.right):
        members.append(
            {
                "t": rational_to_str(m.t),
                "a": rational_to_str(m.curve.a),
                "b": rational_to_str(m.curve.b),
                "point": [
                    rational_to_str(m.marked_point.x),
                    rational_to_str(m.marked_point.y),
                ],
            }
        )
    return {
        "format": CERTIFICATE_FORMAT,
        "pair": {
            "s": rational_to_str(pair.shared_s),
            "members": members,
            "rank_one": list(pair.rank_one_asserted),
        },
        "r": rational_to_str(cert.r),
        "fiber_plus": _fiber_json(cert.fiber_plus),
        "fiber_minus": _fiber_json(cert.fiber_minus),
        "preimage_check": {
            "on_r": [list(p) for p in cert.preimage_check.on_r],
            "on_minus_r": [list(p) for p in cert.preimage_check.on_minus_r],
        },
        "conclusion": {
            "statement": cert.conclusion.statement,
            "multiplier": cert.conclusion.multiplier,
            "rank_one_hypotheses": list(cert.conclusion.rank_one_hypotheses),
            "rank_one_conditional": cert.conclusion.rank_one_conditional,
            "n": cert.conclusion.n,
            "n_prime": cert.conclusion.n_prime,
            "torsion_factor": cert.conclusion.torsion_factor,
        },
    }


def _member_from(data, s: Fraction) -> FamilyMember:
    t = parse_rational(data["t"])
    a = parse_rational(data["a"])
    b = parse_rational(data["b"])
    curve = WeierstrassCurve.possibly_singular(a, b)
    x, y = _two_from(data["point"])
    point = CurvePoint.affine(parse_rational(x), parse_rational(y))
    return FamilyMember(s, t, curve, point, True)


def _fiber_from(data, curves) -> CertifiedFiber:
    r = parse_rational(data["r"])
    F = tuple(_poly_from(c, "x2") for c in data["F"])
    nd = data["node"]
    node = NodeData(
        parse_rational(nd["t1"]),
        parse_rational(nd["t2"]),
        parse_rational(nd["hessian"]),
        NodeKind(nd["kind"]),
    )
    pd = data["parametrization"]
    par = NodalParametrization(
        _ratfunc_from(pd["tau"], _LVAR),
        _ratfunc_from(pd["x1"], _LVAR),
        _ratfunc_from(pd["x2"], _LVAR),
        _poly_from(pd["Q2"], _LVAR),
        _poly_from(pd["Q3"], _LVAR),
        node,
    )
    wd = data["witness"]
    wit = DivisorWitness(
        _ratfunc_from(wd["h"], _LVAR),
        parse_rational(wd["lambda_P"]),
        _int_from(wd["multiplier"]),
    )
    return CertifiedFiber(PencilFiber(r, F, curves), node, par, wit)


def certificate_from_json(data: dict) -> CleanPairCertificate:
    """A malformed document raises ValueError, KeyError or TypeError."""
    if not isinstance(data, dict):
        raise ValueError(
            f"certificate must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != CERTIFICATE_FORMAT:
        raise ValueError(f"unsupported certificate format: {data.get('format')!r}")
    pd = data["pair"]
    s = parse_rational(pd["s"])
    # unpacking raises ValueError on a list of the wrong length
    left, right = (_member_from(m, s) for m in pd["members"])
    flag1, flag2 = pd["rank_one"]
    pair = PairHypothesis(left, right, s, (_bool_from(flag1), _bool_from(flag2)))
    curves = (left.curve, right.curve)
    pc = data["preimage_check"]
    cd = data["conclusion"]
    hyp1, hyp2 = cd["rank_one_hypotheses"]
    return CleanPairCertificate(
        pair=pair,
        r=parse_rational(data["r"]),
        fiber_plus=_fiber_from(data["fiber_plus"], curves),
        fiber_minus=_fiber_from(data["fiber_minus"], curves),
        preimage_check=PreimageCheck(
            tuple(_signs_from(p) for p in pc["on_r"]),
            tuple(_signs_from(p) for p in pc["on_minus_r"]),
        ),
        conclusion=Conclusion(
            statement=cd["statement"],
            multiplier=_int_from(cd["multiplier"]),
            rank_one_hypotheses=(_bool_from(hyp1), _bool_from(hyp2)),
            rank_one_conditional=_bool_from(cd["rank_one_conditional"]),
            n=cd["n"],
            n_prime=cd["n_prime"],
            torsion_factor=cd["torsion_factor"],
        ),
    )


def certificate_dumps(cert: CleanPairCertificate) -> str:
    return json.dumps(certificate_to_json(cert), indent=2, sort_keys=True)


def certificate_loads(text: str) -> CleanPairCertificate:
    return certificate_from_json(json.loads(text))


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _check_membership(cert: CleanPairCertificate) -> list[str]:
    bad = []
    pair = cert.pair
    if pair.left.s != pair.shared_s or pair.right.s != pair.shared_s:
        bad.append("PairMembership")
    if pair.left.t == pair.right.t:
        bad.append("PairMembership")
    for m in (pair.left, pair.right):
        a, b = family_coefficients(m.s, m.t)
        x, y = marked_point_coords(m.s, m.t)
        P = m.marked_point
        if (m.curve.a, m.curve.b) != (a, b) or (P.x, P.y) != (x, y):
            bad.append("PairMembership")
            continue
        on_curve = P.y * P.y == m.curve.rhs_poly().evaluate(P.x)
        if not on_curve or not verify_member_identity(m):
            bad.append("PairMembership")
            continue
        if discriminant_formula(m.s, m.t) == 0 or is_torsion_overQ(m.curve, P):
            bad.append("PairMembership")
    return bad


def _check_ratio(cert: CleanPairCertificate) -> list[str]:
    bad = []
    pair = cert.pair
    y1 = pair.left.marked_point.y
    y2 = pair.right.marked_point.y
    if y2 == 0 or cert.r != Fraction(y1) / Fraction(y2):
        bad.append("RatioMismatch")
    f = pair.left.curve.rhs_poly()
    g = pair.right.curve.rhs_poly()
    if cert.r * cert.r * g.evaluate(pair.right.t) != f.evaluate(pair.left.t):
        bad.append("RatioMismatch")
    if cert.fiber_plus.fiber.r != cert.r or cert.fiber_minus.fiber.r != -cert.r:
        bad.append("RatioMismatch")
    return bad


def _check_fiber(cf: CertifiedFiber, fiber: PencilFiber) -> list[str]:
    bad = []
    F = cf.fiber.F
    if F != fiber.F:
        bad.append("FiberMismatch")
    if len(F) != 4 or F[3] != 1 or F[0].coeff(3) != -(fiber.r * fiber.r):
        bad.append("FiberMismatch")
    if any(i + c.degree() > 3 for i, c in enumerate(F) if c):
        bad.append("FiberMismatch")
    return bad


def _check_node(cf: CertifiedFiber, fiber: PencilFiber, t1, t2) -> list[str]:
    node = cf.node
    if (node.t1, node.t2) != (t1, t2):
        return ["NodeMismatch"]
    try:
        fresh = find_node(fiber, t1, t2)
    except (NotOnFiber, NotSingular):
        return ["NodeMismatch"]
    if (
        node.hessian_det != fresh.hessian_det
        or node.kind != fresh.kind
        or node.kind is not NodeKind.NODE
    ):
        return ["NodeMismatch"]
    return []


def _check_parametrization(cf: CertifiedFiber, fiber: PencilFiber) -> list[str]:
    """Q3 a monic cubic and Q2 a quadric without a common root, tau, x1 and
    x2 the quotients -Q2/Q3, N1/Q3 and N2/Q3, and the on-fiber identity.
    With the node fixed, the identity leaves tau = -Q2/Q3 for the true Q2
    and Q3 only, so it pins them."""
    par = cf.parametrization
    q2 = par.node_branch_poly
    q3 = par.infinity_branch_poly
    if (
        q3.degree() != 3
        or not q3.is_monic()
        or q2.degree() != 2
        or resultant(q2, q3) == 0
    ):
        return ["ParametrizationMismatch"]
    n1, n2 = _numerators(cf.node, q2, q3)
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
    t1, t2 = cf.node.t1, cf.node.t2
    tau_p = Fraction(target[1]) - t2
    if tau_p == 0:
        return ["DivisorMismatch"]
    lam_p = (Fraction(target[0]) - t1) / tau_p
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
    if not poles_ok or wit.h.num != UniPoly(_LVAR, [-lam_p, 1]) ** m:
        return ["DivisorMismatch"]
    return []


def _check_preimage(cert: CleanPairCertificate) -> list[str]:
    """The sign table, whose every row s1*y1 = (+-r)*s2*y2 reads y1 = r*y2."""
    y1 = cert.pair.left.marked_point.y
    y2 = cert.pair.right.marked_point.y
    if cert.preimage_check != _PREIMAGE_TABLE or y1 != cert.r * y2:
        return ["PreimageMismatch"]
    return []


def _check_conclusion(cert: CleanPairCertificate) -> list[str]:
    con = cert.conclusion
    m = cert.fiber_plus.witness.multiplier
    expected_cond = con.rank_one_hypotheses[0] and con.rank_one_hypotheses[1]
    ok = (
        con.multiplier == m
        and con.rank_one_hypotheses == tuple(cert.pair.rank_one_asserted)
        and con.rank_one_conditional == expected_cond
        and con.n is None
        and con.n_prime is None
        and con.statement == _statement_text(m, expected_cond)
        and con.torsion_factor == _torsion_factor_text(m)
    )
    return [] if ok else ["ConclusionMismatch"]


_MIRROR_REASONS = {
    "F": "FiberMismatch",
    "node": "NodeMismatch",
    "parametrization": "ParametrizationMismatch",
    "witness": "DivisorMismatch",
}


def _check_mirror(cert: CleanPairCertificate) -> list[str]:
    """The -r fiber must repeat the +r one in every section but r (see
    assemble_certificate); its r is checked with the ratio."""
    plus = _fiber_json(cert.fiber_plus)
    minus = _fiber_json(cert.fiber_minus)
    return [reason for key, reason in _MIRROR_REASONS.items() if plus[key] != minus[key]]


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
    try:
        fiber = PencilFiber(cert.r, _fiber_poly(*curves, cert.r), curves)
    except (ArithmeticError, ValueError, TypeError):
        return VerificationResult(False, tuple(reasons) + ("FiberMismatch",))
    target = (cert.pair.left.marked_point.x, cert.pair.right.marked_point.x)
    cf = cert.fiber_plus
    run("FiberMismatch", _check_fiber, cf, fiber)
    run("NodeMismatch", _check_node, cf, fiber, cert.pair.left.t, cert.pair.right.t)
    run("ParametrizationMismatch", _check_parametrization, cf, fiber)
    run("DivisorMismatch", _check_witness, cf, target)
    run("FiberMismatch", _check_mirror, cert)

    run("PreimageMismatch", _check_preimage, cert)
    run("ConclusionMismatch", _check_conclusion, cert)
    seen = []
    for tag in reasons:
        if tag not in seen:
            seen.append(tag)
    return VerificationResult(not seen, tuple(seen))
