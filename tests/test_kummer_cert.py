"""Fiber construction, nodal parametrization, witness functions, and the
certificate round trip.

The frozen constants (r = 1/2, hessian -18, Q2 = 3L^2 - 3/2, Q3 = L^3 - 1/4,
lambda_P = 1/2, the m = 1 witness (L+1)/(L-1)) were computed by hand from
the Taylor expansions f(1+u) = 9 + 3u^2 + u^3 and g(2+v) = 36 + 6v^2 + v^3.
The closed forms of the node and the parametrization are also compared
with that Taylor route on seeded pairs.
"""

import copy
import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy

from cleanpair import kummer_cert
from cleanpair.ec_core import CurvePoint, O, WeierstrassCurve
from cleanpair.exactmath import (
    RatFunc,
    UniPoly,
    parse_rational,
    poly_gcd,
    rational_to_str,
    sqrt_rational,
    taylor_coefficients,
)
from cleanpair.exactmath import poly as poly_module
from cleanpair.family import MembershipFailure, PairHypothesis, make_member, pair_hypothesis
from cleanpair.kummer_cert import (
    CertifiedFiber,
    CleanPairCertificate,
    CuspNotSupported,
    DivisorWitness,
    IrrationalParameter,
    NodalParametrization,
    NodeData,
    NodeIsTarget,
    NotOnFiber,
    NotSingular,
    PREIMAGE_SIGNS,
    ReducibleFiber,
    TwoTorsionError,
    assemble_certificate,
    build_fiber,
    certificate_dumps,
    certificate_from_json,
    certificate_loads,
    certificate_to_json,
    divisor_witness,
    find_node,
    parametrize,
    verify_certificate,
)

L = UniPoly([0, 1])


def worked_pair():
    return pair_hypothesis(make_member(1, 1), make_member(1, 2))


def m1_pair():
    # Q3 = L^3 - 1 has a rational root, so the witness has degree 1
    return pair_hypothesis(make_member(1, 1), make_member(1, -1), (True, True))


def worked_chain():
    pair = worked_pair()
    r, fiber = build_fiber(
        pair.left.curve, pair.right.curve,
        pair.left.marked_point, pair.right.marked_point,
    )
    node = find_node(fiber, 1, 2)
    par = parametrize(fiber, node)
    return pair, r, fiber, node, par


# -- fiber ----------------------------------------------------------------------


def test_build_fiber_ratio_and_layout():
    pair, r, fiber, _, _ = worked_chain()
    assert r == F(1, 2)
    # F = x1^3 - 3 x1 + 11 - (1/4)(x2^3 - 12 x2 + 52)
    assert fiber.F[0] == UniPoly([-2, 3, 0, F(-1, 4)])
    assert fiber.F[1] == UniPoly([-3])
    assert not fiber.F[2]
    assert fiber.F[3] == UniPoly([1])
    # critical-value ratio: r^2 g(t2) = f(t1) = 9
    f = pair.left.curve.rhs_poly()
    g = pair.right.curve.rhs_poly()
    assert f.evaluate(F(1)) == 9
    assert r * r * g.evaluate(F(2)) == 9


def test_build_fiber_sign():
    pair = worked_pair()
    P2 = pair.right.marked_point
    r, _ = build_fiber(
        pair.left.curve, pair.right.curve,
        pair.left.marked_point, CurvePoint.affine(P2.x, -P2.y),
    )
    assert r == F(-1, 2)


def test_build_fiber_rejects_two_torsion():
    E = WeierstrassCurve(F(-1), F(0))  # y^2 = x^3 - x
    P = CurvePoint.affine(F(1), F(0))
    good = WeierstrassCurve(F(-3), F(11))
    Q = CurvePoint.affine(F(-2), F(-3))
    with pytest.raises(TwoTorsionError):
        build_fiber(E, good, P, Q)
    with pytest.raises(TwoTorsionError):
        build_fiber(good, good, Q, O)


# -- node -----------------------------------------------------------------------


def test_find_node_worked_example():
    # find_node returns only at a node: a cusp raises CuspNotSupported
    _, _, fiber, node, _ = worked_chain()
    assert (node.t1, node.t2) == (1, 2)
    assert node.hessian_det == -18


def test_find_node_rejects_off_fiber_point():
    _, _, fiber, _, _ = worked_chain()
    with pytest.raises(NotOnFiber):
        find_node(fiber, 1, 1)


def test_find_node_rejects_smooth_point():
    # the marked-point image itself lies on the fiber but is smooth
    _, _, fiber, _, _ = worked_chain()
    with pytest.raises(NotSingular):
        find_node(fiber, -2, -4)


def cusp_fiber():
    E1 = WeierstrassCurve(F(0), F(1))   # critical point of rhs at x = 0
    E2 = WeierstrassCurve(F(-3), F(3))  # critical point at x = 1
    P1 = CurvePoint.affine(F(0), F(1))
    P2 = CurvePoint.affine(F(1), F(1))
    _, fiber = build_fiber(E1, E2, P1, P2)
    return fiber


def test_cusp_detected_and_not_parametrized():
    # (0, 1) is on the fiber and singular, so find_node passes both of those
    # tests; the Hessian -36 r^2 t1 t2 is 0 there, so it refuses the cusp
    fiber = cusp_fiber()
    with pytest.raises(CuspNotSupported, match="^cuspidal fibers are not parametrized$"):
        find_node(fiber, 0, 1)


# -- parametrization ------------------------------------------------------------


def test_parametrization_worked_example():
    _, _, _, _, par = worked_chain()
    assert par.node_branch_poly == 3 * L**2 - F(3, 2)
    assert par.infinity_branch_poly == L**3 - F(1, 4)
    assert par.tau == RatFunc(-(3 * L**2) + F(3, 2), L**3 - F(1, 4))
    assert par.tau.evaluate(F(1, 2)) == -6
    assert par.x1_of.evaluate(F(1, 2)) == -2
    assert par.x2_of.evaluate(F(1, 2)) == -4


def test_parametrization_satisfies_fiber_equation():
    _, _, fiber, _, par = worked_chain()
    acc = RatFunc(UniPoly([0]))
    for i, c in enumerate(fiber.F):
        c_at_x2 = RatFunc(UniPoly([0]))
        for coeff in reversed(c.coeffs):  # Horner's rule in Q(L)
            c_at_x2 = c_at_x2 * par.x2_of + coeff
        acc = acc + c_at_x2 * par.x1_of**i
    assert not acc


def limit_at_infinity(f):
    """The value of f as L -> infinity, read from the coefficients of
    L^deg(den)."""
    d = f.den.degree()
    assert f.num.degree() <= d
    top = f.num.coeffs[d] if f.num.degree() == d else 0
    return top / f.den.coeffs[d]


def coprime(p, q):
    """Whether the polynomials p and q in L share no root, by sympy's gcd."""
    sym = sympy.Symbol("T")
    p, q = (sum(sympy.Rational(c.numerator, c.denominator) * sym**i for i, c in enumerate(f.coeffs))
            for f in (p, q))
    return sympy.degree(sympy.gcd(p, q), sym) == 0


def test_infinite_slope_lands_at_minus_two_t1():
    _, _, _, node, par = worked_chain()
    x1 = limit_at_infinity(par.x1_of)
    x2 = limit_at_infinity(par.x2_of)
    assert (x1, x2) == (-2 * node.t1, node.t2)


def test_witness_finite_nonzero_on_node_branches():
    # the branch slopes +-sqrt(1/2) are the roots of Q2 = 3L^2 - 3/2; h is
    # finite and nonzero at both exactly when Q2 shares no root with num(h)
    # or den(h)
    _, _, _, _, par = worked_chain()
    wit = divisor_witness(par, (-2, -4))
    q2 = par.node_branch_poly
    assert q2 == 3 * L**2 - F(3, 2) and sqrt_rational(F(1, 2)) is None
    assert coprime(q2, wit.h.num) and coprime(q2, wit.h.den)


# -- closed forms against the Taylor route --------------------------------------


def taylor_shifts(fiber, t1, t2):
    """c and d with F(t1 + u, t2 + v) = sum c_k u^k + d_k v^k: the Taylor
    coefficients of f at t1 and of -r^2 g at t2."""
    E1, E2 = fiber.source_curves
    c = list(taylor_coefficients(E1.rhs_poly(), t1))
    d = list(taylor_coefficients(-(fiber.r * fiber.r) * E2.rhs_poly(), t2))
    return c, d


def taylor_node(fiber, t1, t2):
    """The node test of the Taylor route: the exception find_node must
    raise, a cusp's included, or the Hessian 4 c2 d2 of a node."""
    c, d = taylor_shifts(fiber, t1, t2)
    if c[0] + d[0]:
        return NotOnFiber
    if c[1] or d[1]:
        return NotSingular
    return 4 * c[2] * d[2] or CuspNotSupported


def node_outcome(fiber, t1, t2):
    try:
        return find_node(fiber, t1, t2).hessian_det
    except (NotOnFiber, NotSingular, CuspNotSupported) as exc:
        return type(exc)


def seeded_fibers(count, seed=1401):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = F(rng.randint(-6, 8), rng.randint(1, 4))
        t1 = F(rng.randint(-5, 5), rng.randint(1, 3))
        t2 = F(rng.randint(-5, 5), rng.randint(1, 3))
        if s == 0 or t1 == t2:
            continue
        m1, m2 = make_member(s, t1), make_member(s, t2)
        if m1.in_u and m2.in_u:
            P1, P2 = m1.marked_point, m2.marked_point
            out.append((build_fiber(m1.curve, m2.curve, P1, P2)[1], (t1, t2), (P1.x, P2.x)))
    return out


def reference_fibers():
    """Seeded pairs (t = 0 among them gives cusps), the cusp fiber and the
    reducible fiber at s = -5/7, t = 4, 1."""
    m1, m2 = make_member(F(-5, 7), 4), make_member(F(-5, 7), 1)
    reducible = build_fiber(m1.curve, m2.curve, m1.marked_point, m2.marked_point)[1]
    return seeded_fibers(40) + [
        (cusp_fiber(), (F(0), F(1)), (F(0), F(1))),
        (reducible, (F(4), F(1)), (m1.marked_point.x, m2.marked_point.x)),
    ]


def test_find_node_matches_the_taylor_route():
    kinds = set()
    for fiber, (t1, t2), (x1, x2) in reference_fibers():
        for point in ((t1, t2), (x1, x2), (t1, t2 + 1), (x1 + 1, x2), (-t1, t2)):
            expected = taylor_node(fiber, *point)
            assert node_outcome(fiber, *point) == expected, point
            kinds.add(expected if isinstance(expected, type) else "node")
    assert kinds == {NotOnFiber, NotSingular, CuspNotSupported, "node"}


def test_parametrize_matches_the_taylor_route():
    outcomes = set()
    for fiber, (t1, t2), _ in reference_fibers():
        c, d = taylor_shifts(fiber, t1, t2)
        q2, q3 = (c[k] * L**k + d[k] for k in (2, 3))
        if c[2] * d[2] == 0:
            expected = CuspNotSupported  # raised by find_node
        elif poly_gcd(q2, q3).degree() > 0:
            expected = ReducibleFiber
        else:
            par = parametrize(fiber, find_node(fiber, t1, t2))
            assert (par.node_branch_poly, par.infinity_branch_poly) == (q2, q3)
            tau = RatFunc(-q2, q3)
            assert par.tau == tau
            assert par.x1_of == t1 + RatFunc(L) * tau
            assert par.x2_of == t2 + tau
            outcomes.add("node")
            continue
        with pytest.raises(expected):
            parametrize(fiber, find_node(fiber, t1, t2))
        outcomes.add(expected)
    assert outcomes == {"node", CuspNotSupported, ReducibleFiber}


# -- witness --------------------------------------------------------------------


def test_witness_worked_example():
    _, _, _, _, par = worked_chain()
    wit = divisor_witness(par, (-2, -4))
    assert wit.lambda_p == F(1, 2)
    assert wit.multiplier == 3
    assert wit.h == RatFunc((L - F(1, 2)) ** 3, L**3 - F(1, 4))
    assert wit.h.num.degree() == wit.h.den.degree() == 3
    assert coprime(wit.h.num, par.node_branch_poly) and coprime(wit.h.den, par.node_branch_poly)


def test_witness_rejects_node_target():
    _, _, _, _, par = worked_chain()
    with pytest.raises(NodeIsTarget):
        divisor_witness(par, (1, 2))


def test_witness_rejects_infinite_parameter():
    # (-2, 2) is the image of the infinite slope; its own line is vertical
    _, _, _, _, par = worked_chain()
    with pytest.raises(IrrationalParameter):
        divisor_witness(par, (-2, 2))


def test_witness_rejects_off_fiber_target():
    _, _, _, _, par = worked_chain()
    with pytest.raises(NotOnFiber):
        divisor_witness(par, (0, 0))


def test_degree_one_witness_when_infinity_cubic_splits():
    cert = assemble_certificate(m1_pair())
    assert cert.r == -1
    wit = cert.fiber_plus.witness
    assert wit.multiplier == 1
    assert wit.lambda_p == -1
    assert wit.h == RatFunc(L + 1, L - 1)
    assert cert.fiber_plus.parametrization.infinity_branch_poly == L**3 - 1
    assert cert.fiber_minus.witness.multiplier == 1
    assert verify_certificate(cert).ok


def test_family_pair_with_t_zero_hits_the_cusp_abort():
    # t = 0 members are perfectly good (their discriminant is
    # -432 s^2 (1-s)^4), but the fiber singularity they produce is a cusp
    m0 = make_member(2, 0)
    m1 = make_member(2, 1)
    assert m0.in_u and m1.in_u
    with pytest.raises(CuspNotSupported):
        assemble_certificate(pair_hypothesis(m0, m1))


def test_reducible_fiber_rejected():
    # (y1/y2)^2 = (t1/t2)^3 makes the line x1 = (t1/t2) x2 a fiber component
    s = F(-5, 7)
    m1 = make_member(s, 4)
    m2 = make_member(s, 1)
    r, fiber = build_fiber(m1.curve, m2.curve, m1.marked_point, m2.marked_point)
    assert r == 8
    for x2 in (F(1), F(-3), F(7, 5)):
        assert sum(c.evaluate(x2) * (4 * x2) ** i for i, c in enumerate(fiber.F)) == 0
    with pytest.raises(ReducibleFiber):
        assemble_certificate(pair_hypothesis(m1, m2))


def hand_built(pair, r, node, q2, q3):
    """The certificate on the pair with this r, node, Q2 and Q3, with tau,
    x1 and x2 made from them as parametrize makes them and the cubic
    witness h = (L - 8)^3/Q3 (lambda_P = 8), dumped and loaded back."""
    curves = (pair.left.curve, pair.right.curve)
    fiber = kummer_cert.PencilFiber(r, kummer_cert._fiber_poly(*curves, r), curves)
    n1, n2 = kummer_cert._numerators(node, q2, q3)
    par = NodalParametrization(RatFunc(-q2, q3), RatFunc(n1, q3), RatFunc(n2, q3), q2, q3, node)
    plus = CertifiedFiber(fiber, par, DivisorWitness(RatFunc((L - 8) ** 3, q3), F(8), 3))
    minus = plus._replace(fiber=fiber._replace(r=-r))
    cert = CleanPairCertificate(pair, r, plus, minus, kummer_cert._conclusion(3, pair.rank_one_asserted))
    return certificate_loads(certificate_dumps(cert))


def reducible_pair():
    s = F(-5, 7)
    return PairHypothesis(make_member(s, 4), make_member(s, 1), s, (False, False))


def test_a_torsion_marked_point_fails_only_the_membership():
    # (1, -4/3) passes every test of make_member but the torsion one
    member = make_member(1, F(-4, 3))
    assert member.failure_reason is MembershipFailure.TORSION_MARKED_POINT
    pair = PairHypothesis(member, make_member(1, 2), F(1), (False, False))
    cert = certificate_loads(certificate_dumps(assemble_certificate(pair)))
    assert verify_certificate(cert).reasons == ("PairMembership",)


def test_a_member_built_at_another_s_fails_the_membership():
    # The verifier reads each member at the pair's s, so a left member made
    # at s' = 2 fails on its marked point, x = 1 - s' - 2t, and not on an
    # s field of its own, which no loaded document can set apart.
    stray = make_member(2, 1)
    assert stray.in_u
    cert = assemble_certificate(worked_pair())
    cert = cert._replace(pair=cert.pair._replace(left=stray))
    assert kummer_cert._check_membership(cert) == ["PairMembership"]
    assert verify_certificate(cert).reasons == (
        "PairMembership", "RatioMismatch", "FiberMismatch", "NodeMismatch",
        "ParametrizationMismatch", "DivisorMismatch",
    )


def test_a_certificate_on_the_reducible_fiber_fails_its_parametrization():
    # t1^3 = r^2 t2^3 (64 = 8^2 * 1): the closed forms Q2 = 12 L^2 - 192 and
    # Q3 = L^3 - 64 share the root t1/t2 = 4, a rational root of Q3, so the
    # cubic witness is not minimal either
    pair = reducible_pair()
    r = F(8)
    node = NodeData(F(4), F(1), -36 * r * r * 4)
    q2, q3 = 12 * L**2 - 192, L**3 - 64
    cert = hand_built(pair, r, node, q2, q3)
    assert verify_certificate(cert).reasons == ("ParametrizationMismatch", "DivisorMismatch")


@pytest.mark.parametrize(
    "case, reasons",
    [
        ("r = 0", ("PairMembership", "NodeMismatch", "ParametrizationMismatch", "DivisorMismatch")),
        ("smooth point of the conic", ("NodeMismatch", "ParametrizationMismatch", "DivisorMismatch")),
        ("point off the fiber", ("NodeMismatch", "ParametrizationMismatch", "DivisorMismatch")),
    ],
)
def test_a_parametrization_with_a_common_root_fails_at_any_stored_node(case, reasons):
    # Q2 and Q3 that share a root fail the parametrization wherever the
    # stored node lies, as they did when it was tested by a resultant: at
    # r = 0 (the first member has y = 1 - s - 3t = 0, and F = f(x1)), and
    # on the fiber (x1 - 4 x2)(x1^2 + 4 x1 x2 + 16 x2^2 - 48) of the
    # reducible pair, at its smooth point (-44/7, -2/7) with tau onto the
    # conic, and at (4, -1), off F, with tau onto the line
    if case == "r = 0":
        pair = PairHypothesis(make_member(-2, 1), make_member(-2, 2), F(-2), (False, False))
        r, node, q2, q3 = F(0), NodeData(F(1), F(2), F(0)), 3 * L**2, L**3
    elif case == "smooth point of the conic":
        pair, r, (p1, p2) = reducible_pair(), F(8), (F(-44, 7), F(-2, 7))
        node = NodeData(p1, p2, F(-1))
        q2, q3 = ((2 * p1 + 4 * p2) * L + 4 * p1 + 32 * p2) * L, (L**2 + 4 * L + 16) * L
    else:
        pair, r, node = reducible_pair(), F(8), NodeData(F(4), F(-1), F(-1))
        q2, q3 = 8 * L**2 + 8, (L - 4) * (L**2 + 1)
    assert not coprime(q2, q3)
    cert = hand_built(pair, r, node, q2, q3)
    assert verify_certificate(cert).reasons == reasons


# -- assembly -------------------------------------------------------------------


def test_assembled_certificate_structure():
    cert = assemble_certificate(worked_pair())
    assert cert.r == F(1, 2)
    assert cert.fiber_plus.fiber.r == F(1, 2)
    assert cert.fiber_minus.fiber.r == F(-1, 2)
    assert cert.fiber_plus.fiber.F == cert.fiber_minus.fiber.F
    signs = certificate_to_json(cert)["preimage_check"]
    assert signs == PREIMAGE_SIGNS
    assert PREIMAGE_SIGNS == {"on_r": [["+", "+"], ["-", "-"]], "on_minus_r": [["+", "-"], ["-", "+"]]}
    signs["on_r"][0][0] = "-"  # each dump holds a fresh copy of the constant
    assert PREIMAGE_SIGNS["on_r"] == [["+", "+"], ["-", "-"]]
    con = cert.conclusion
    assert con.multiplier == 3
    assert con.rank_one_hypotheses == (False, False)
    assert con.rank_one_conditional is False
    assert con.n is None and con.n_prime is None
    assert con.torsion_factor == "4*n*n'*3"
    assert "= 0 in CH^2(E1 x E2)" in con.statement
    assert "if both curves have rank 1" in con.statement
    assert verify_certificate(cert).ok


def test_conditional_statement_with_rank_flags():
    pair = pair_hypothesis(make_member(1, 1), make_member(1, 2), (True, True))
    cert = assemble_certificate(pair)
    assert cert.conclusion.rank_one_conditional is True
    assert "is clean" in cert.conclusion.statement
    assert "rank-1 hypotheses supplied" in cert.conclusion.statement


def test_preimage_signs_select_fibers():
    cert = assemble_certificate(worked_pair())
    P1 = cert.pair.left.marked_point
    P2 = cert.pair.right.marked_point
    sign = {"+": 1, "-": -1}
    for s1, s2 in PREIMAGE_SIGNS["on_r"]:
        assert sign[s1] * P1.y == cert.r * sign[s2] * P2.y
    for s1, s2 in PREIMAGE_SIGNS["on_minus_r"]:
        assert sign[s1] * P1.y == -cert.r * sign[s2] * P2.y


def test_random_pairs_certify_and_verify():
    rng = random.Random(20240817)
    done = 0
    tries = 0
    while done < 6 and tries < 200:
        tries += 1
        s = F(rng.randint(-6, 8), rng.randint(1, 4))
        t1 = F(rng.randint(-5, 5), rng.randint(1, 3))
        t2 = F(rng.randint(-5, 5), rng.randint(1, 3))
        if s == 0 or t1 == t2 or t1 == 0 or t2 == 0:
            continue
        m1 = make_member(s, t1)
        m2 = make_member(s, t2)
        if not (m1.in_u and m2.in_u):
            continue
        try:
            cert = assemble_certificate(pair_hypothesis(m1, m2))
        except ReducibleFiber:
            continue
        assert cert.fiber_plus.witness.multiplier in (1, 3)
        res = verify_certificate(cert)
        assert res.ok, res.reasons
        done += 1
    assert done == 6


# -- serialization and verification ---------------------------------------------


def test_json_layout():
    cert = assemble_certificate(worked_pair())
    data = certificate_to_json(cert)
    assert data["format"] == "cleanpair.certificate/1"
    assert data["r"] == "1/2"
    assert data["pair"]["s"] == "1/1"
    assert data["pair"]["members"][0]["point"] == ["-2/1", "-3/1"]
    fp = data["fiber_plus"]
    assert fp["F"] == [["-2/1", "3/1", "0/1", "-1/4"], ["-3/1"], [], ["1/1"]]
    assert fp["node"] == {"t1": "1/1", "t2": "2/1", "hessian": "-18/1", "kind": "Node"}
    assert fp["parametrization"]["Q2"] == ["-3/2", "0/1", "3/1"]
    assert fp["parametrization"]["Q3"] == ["-1/4", "0/1", "0/1", "1/1"]
    assert fp["witness"]["lambda_P"] == "1/2"
    assert fp["witness"]["multiplier"] == 3
    assert fp["witness"]["h"]["num"] == ["-1/8", "3/4", "-3/2", "1/1"]
    assert data["fiber_minus"]["r"] == "-1/2"
    assert data["conclusion"]["n"] is None


def test_roundtrip_is_bit_exact():
    for pair in (
        worked_pair(),
        pair_hypothesis(make_member(1, 1), make_member(1, -1), (True, False)),
    ):
        cert = assemble_certificate(pair)
        text = certificate_dumps(cert)
        again = certificate_loads(text)
        assert certificate_dumps(again) == text
        assert verify_certificate(again).ok


def test_format_string_checked():
    data = certificate_to_json(assemble_certificate(worked_pair()))
    data["format"] = "something-else"
    with pytest.raises(ValueError, match="^/format: "):
        certificate_from_json(data)
    # the tag is read before any other field
    data["pair"] = None
    with pytest.raises(ValueError, match="^/format: "):
        certificate_from_json(data)
    del data["format"]
    with pytest.raises(ValueError, match="^/format: missing$"):
        certificate_from_json(data)


def test_load_errors_lead_with_the_json_pointer():
    base = certificate_to_json(assemble_certificate(worked_pair()))
    doc = copy.deepcopy(base)
    del doc["fiber_plus"]["node"]["t2"]
    with pytest.raises(ValueError) as missing:
        certificate_from_json(doc)
    assert str(missing.value) == "/fiber_plus/node/t2: missing"
    doc = copy.deepcopy(base)
    doc["fiber_minus"]["parametrization"]["x1"]["den"][1] = "1/0"
    with pytest.raises(ValueError) as zero:
        certificate_from_json(doc)
    assert str(zero.value) == "/fiber_minus/parametrization/x1/den/1: zero denominator: '1/0'"


def test_load_errors_quote_a_large_value_cut():
    # 3,000 array entries or 980 nested arrays in place of any field: the
    # error quotes the value cut, so verify's "malformed certificate: "
    # line stays under 300 characters
    base = certificate_to_json(assemble_certificate(worked_pair()))
    nested = []
    for _ in range(979):
        nested = [nested]
    paths, stack = [], [((), base)]
    while stack:
        path, node = stack.pop()
        if not isinstance(node, (dict, list)):
            continue
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            paths.append(path + (key,))
            stack.append((path + (key,), child))
    longest = 0
    for path in paths:
        for value in (list(range(3000)), nested):
            doc = copy.deepcopy(base)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                certificate_from_json(doc)
            except ValueError as exc:
                longest = max(longest, len(f"malformed certificate: {exc}"))
                if path == ("fiber_plus", "node", "t1"):
                    cut = "[[[[...]]]]" if value is nested else "[0, 1, 2, 3, 4, 5, ...]"
                    assert str(exc) == f"/fiber_plus/node/t1: not a rational string: {cut}"
    assert len(paths) > 150 and 100 < longest < 300


# sha256 over certificate_dumps, each document followed by a NUL byte, for
# every certifiable pair of the grid below (111 of its 112 triples): it pins
# the cleanpair.certificate/1 layout byte for byte
V1_GRID_S = (F(1), F(2), F(-1), F(1, 2))
V1_GRID_T = (F(-3), F(-2), F(-1), F(1), F(2), F(3), F(1, 2), F(-3, 2))
V1_GRID_SHA256 = "eb55fa3f944dd5a0fb7d309d2c37e8dbae2b071178134e9696c893dad9d2b4bd"


def test_dumps_are_pinned_over_a_grid_of_pairs():
    digest = hashlib.sha256()
    count = 0
    for s in V1_GRID_S:
        for t1 in V1_GRID_T:
            for t2 in (t for t in V1_GRID_T if t1 < t):
                pair = pair_hypothesis(make_member(s, t1), make_member(s, t2))
                try:
                    cert = assemble_certificate(pair)
                except (ValueError, ArithmeticError):
                    continue
                doc = certificate_dumps(cert)
                assert certificate_dumps(certificate_loads(doc)) == doc
                digest.update(doc.encode() + b"\0")
                count += 1
    assert (count, digest.hexdigest()) == (111, V1_GRID_SHA256)


def test_named_tamper_reasons():
    base = certificate_to_json(assemble_certificate(worked_pair()))
    assert verify_certificate(certificate_from_json(base))
    doc = copy.deepcopy(base)
    doc["fiber_plus"]["witness"]["lambda_P"] = "2/3"
    res = verify_certificate(certificate_from_json(doc))
    assert not res.ok and res.reasons == ("DivisorMismatch",)
    assert not res
    doc = copy.deepcopy(base)
    doc["r"] = "1/3"
    res = verify_certificate(certificate_from_json(doc))
    assert not res.ok and "RatioMismatch" in res.reasons
    assert not res


def _refuse(*args, **kwargs):
    raise AssertionError("the verifier must not call this")


def test_verifier_reruns_no_part_of_the_builder(monkeypatch):
    certs = [
        certificate_loads(certificate_dumps(assemble_certificate(pair)))
        for pair in (worked_pair(), m1_pair())
    ]
    assert [c.fiber_plus.witness.multiplier for c in certs] == [3, 1]
    for name in ("parametrize", "divisor_witness", "_witness_parts"):
        monkeypatch.setattr(kummer_cert, name, _refuse)
    # every gcd, RatFunc arithmetic included, goes through _int_gcd
    monkeypatch.setattr(poly_module, "_int_gcd", _refuse)
    for name in ("__add__", "__radd__", "__sub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__pow__"):
        monkeypatch.setattr(RatFunc, name, _refuse)
    for cert in certs:
        assert verify_certificate(cert).ok


CERT_V1 = Path(__file__).parent / "data" / "cert_1_1_2_v1.json"


def _loaded_sections(cf):
    """The four polynomials of F, Q2, Q3, tau, x1, x2 and h of a fiber."""
    par = cf.parametrization
    return (*cf.fiber.F, par.node_branch_poly, par.infinity_branch_poly,
            par.tau, par.x1_of, par.x2_of, cf.witness.h)


def _curves_as_keys(value):
    # a record tree as plain tuples, each curve as (type(a), a, b)
    if isinstance(value, WeierstrassCurve):
        return (type(value.a), value.a, value.b)
    if isinstance(value, tuple):
        return tuple(_curves_as_keys(v) for v in value)
    return value


def test_a_load_builds_each_distinct_polynomial_once(monkeypatch):
    # the -r fiber repeats the +r one and Q3 is the denominator of tau, x1
    # and x2: 28 coefficient arrays and 8 rational functions, of which a
    # load builds 10 and 4, straight into the integer form
    text = CERT_V1.read_text()
    calls = {"_int_gcd": 0, "UniPoly.__init__": 0}
    int_gcd, init = poly_module._int_gcd, UniPoly.__init__

    def counted_gcd(*args):
        calls["_int_gcd"] += 1
        return int_gcd(*args)

    def counted_init(self, *args):
        calls["UniPoly.__init__"] += 1
        init(self, *args)

    monkeypatch.setattr(poly_module, "_int_gcd", counted_gcd)
    monkeypatch.setattr(UniPoly, "__init__", counted_init)
    cert = certificate_loads(text)
    assert calls == {"_int_gcd": 4, "UniPoly.__init__": 0}
    monkeypatch.undo()
    plus, minus = _loaded_sections(cert.fiber_plus), _loaded_sections(cert.fiber_minus)
    assert len(plus) == 10 and all(p is m for p, m in zip(plus, minus))
    built = certificate_loads(certificate_dumps(assemble_certificate(worked_pair())))
    assert _curves_as_keys(cert) == _curves_as_keys(built)
    assert verify_certificate(cert)

    # the table lasts one call: two loads of one text share no object
    def objects(c):
        out = []
        for value in _loaded_sections(c.fiber_plus):
            out += [value.num, value.den] if isinstance(value, RatFunc) else [value]
        return out

    again = certificate_loads(text)
    ids = {id(x) for x in objects(again)}
    assert _curves_as_keys(again) == _curves_as_keys(cert) and not ids & {id(x) for x in objects(cert)}


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("parametrization", "Q2"), ["-3/2", 0, "3/1"], "parametrization/Q2/1: not a rational string: 0"),
        (("parametrization", "Q3"), "-1/4", "parametrization/Q3: expected a JSON array, got '-1/4'"),
        (("F", 1), [-3], "F/1/0: not a rational string: -3"),
        (("parametrization", "tau", "num"), ["3/2", "0/1", None],
         "parametrization/tau/num/2: not a rational string: None"),
        (("witness", "h"), [["-1/8"], ["1/1"]], "witness/h: expected a JSON object, got [['-1/8'], ['1/1']]"),
    ],
)
@pytest.mark.parametrize("side", ["fiber_plus", "fiber_minus"])
def test_an_array_of_anything_but_strings_fails_as_alone(side, path, value, message):
    # the other fiber's copy of the array loads first or after; neither
    # order lets the broken one through or changes its message
    doc = _with_mutation(json.loads(CERT_V1.read_text()), (side, *path), value)
    with pytest.raises(ValueError) as exc:
        certificate_from_json(doc)
    assert str(exc.value) == f"/{side}/{message}"


def _scaled(coeffs, k):
    return [rational_to_str(k * parse_rational(c)) for c in coeffs]


@pytest.mark.parametrize("pair", [worked_pair, m1_pair], ids=["m3", "m1"])
def test_scaled_q2_and_q3_fail_only_the_parametrization(pair):
    # tau and the coordinate functions, the on-fiber identity and the
    # witness all hold for 2 Q2 and 2 Q3; only the closed forms catch them
    doc = certificate_to_json(assemble_certificate(pair()))
    for side in ("fiber_plus", "fiber_minus"):
        par = doc[side]["parametrization"]
        par["Q2"], par["Q3"] = _scaled(par["Q2"], 2), _scaled(par["Q3"], 2)
    res = verify_certificate(certificate_from_json(doc))
    assert res.reasons == ("ParametrizationMismatch",)


def test_cubic_witness_with_a_rational_pole_is_not_minimal():
    # Q3 = L^3 - 1 has the rational root 1, so m = 3 is not the least
    # multiplier, even with h = (L + 1)^3/Q3 and the conclusion rewritten
    doc = certificate_to_json(assemble_certificate(m1_pair()))
    h = RatFunc((L + 1) ** 3, L**3 - 1)
    for side in ("fiber_plus", "fiber_minus"):
        wit = doc[side]["witness"]
        assert wit["multiplier"] == 1 and wit["lambda_P"] == "-1/1"
        wit["multiplier"] = 3
        wit["h"] = {"num": [rational_to_str(c) for c in h.num.coeffs],
                    "den": [rational_to_str(c) for c in h.den.coeffs]}
    con = doc["conclusion"]
    con["multiplier"] = 3
    con["statement"] = con["statement"].replace("1 * Phi", "3 * Phi", 1)
    con["torsion_factor"] = "4*n*n'*3"
    res = verify_certificate(certificate_from_json(doc))
    assert res.reasons == ("DivisorMismatch",)


# -- mutation walk: every stored leaf must be load-bearing ------------------------


def _leaves(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))
    else:
        yield path, node


def _mutate(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 7
    if value == "+":
        return "-"
    if value == "-":
        return "+"
    if value == "Node":
        return "Cusp"
    try:
        return rational_to_str(parse_rational(value) + 1)
    except (ValueError, ZeroDivisionError):
        return value + "X"


def _with_mutation(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


def _outcome(doc):
    """What verify says about doc: OK, its FAIL reasons in order, or the
    load message."""
    try:
        cert = certificate_from_json(doc)
    except ValueError as exc:
        return f"malformed certificate: {exc}"
    res = verify_certificate(cert)
    return "OK" if res.ok else " ".join(f"FAIL: {reason}" for reason in res.reasons)


@pytest.mark.parametrize(
    "pair_args, outcomes_sha256",
    [
        (((1, 1), (1, 2), (False, False)),
         "04dbf099df91713ae09c75366db664ee1a050b5306da91a488bd7ab6ced11cd6"),
        (((1, 1), (1, -1), (True, True)),
         "affae12ebdc1d4920120fd497875a942086447b7a85f63ade54447bb957c286b"),
    ],
    ids=["m3", "m1"],
)
def test_every_single_field_corruption_is_caught(pair_args, outcomes_sha256):
    # and what verify says about each mutation is pinned by one sha256 over
    # its "<path> => <outcome>" lines
    (s1, t1), (s2, t2), flags = pair_args
    pair = pair_hypothesis(make_member(s1, t1), make_member(s2, t2), flags)
    base = certificate_to_json(assemble_certificate(pair))
    assert verify_certificate(certificate_from_json(base)).ok
    survivors = []
    digest = hashlib.sha256()
    count = 0
    for path, value in _leaves(base):
        count += 1
        outcome = _outcome(_with_mutation(base, path, _mutate(value)))
        if outcome == "OK":
            survivors.append(path)
        digest.update(f"/{'/'.join(map(str, path))} => {outcome}\n".encode())
    assert count > 100  # the walk really visited the whole document
    assert survivors == []
    assert digest.hexdigest() == outcomes_sha256


@pytest.mark.parametrize(
    "section, reason",
    [
        ("F", "FiberMismatch"),
        ("node", "NodeMismatch"),
        ("parametrization", "ParametrizationMismatch"),
        ("witness", "DivisorMismatch"),
    ],
)
def test_mirror_fiber_leaf_names_its_section(section, reason):
    # the -r fiber is checked against the +r one, so a corrupted leaf in it
    # gives exactly the reason of its own section; the node's kind is a
    # constant of the format, so a corrupted kind does not load
    base = certificate_to_json(assemble_certificate(worked_pair()))
    count = 0
    for path, value in _leaves(base["fiber_minus"][section]):
        full = ("fiber_minus", section) + path
        doc = _with_mutation(base, full, _mutate(value))
        if path == ("kind",):
            with pytest.raises(ValueError) as exc:
                certificate_from_json(doc)
            assert str(exc.value) == "/fiber_minus/node/kind: expected 'Node', got 'Cusp'"
            continue
        assert verify_certificate(certificate_from_json(doc)).reasons == (reason,), full
        count += 1
    assert count > 0
