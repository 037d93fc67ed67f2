"""Per-layer metrics: each layer timed on its own, on seeded operands.

The probe runs at the end of every traced run, whatever the workload, so
each per-layer metric has one definition.  Operands are captured from the
workloads' own paths: a certificate's parametrization x1(L) = t1 + L tau
for the low-degree kernel band, and the ladder x(nP) at s = 1 for the
degree-24 and degree-48 bands.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction
from math import isqrt

from cleanpair.ec_core import (
    CurvePoint,
    WeierstrassCurve,
    add,
    is_torsion_overQ,
    scalar_mul,
    torsion_points_overQ,
)
from cleanpair.exactmath import RatFunc, factor_rational_poly, poly_gcd
from cleanpair.family import make_member, pair_hypothesis
from cleanpair.ffheights import (
    bad_places,
    canonical_height,
    family_functionfield_curve,
    generic_rank,
)
from cleanpair.kummer_cert import (
    assemble_certificate,
    build_fiber,
    certificate_dumps,
    certificate_loads,
    divisor_witness,
    find_node,
    parametrize,
    verify_certificate,
)
from cleanpair import search

import workloads

# ladder multiple n at s = 1 whose x(nP) sets each degree band
BANDS = {"deg4": 3, "deg24": 8, "deg48": 12}
PROBE_PAIRS = 8
PROBE_TAMPERS = 8
SWEEP_H = 12
ENUMERATE_H = 200
# curve-table rows above this |Delta| are left to the survey workload
SMALL_DISC = 4 * 10**11


def _median(values):
    return statistics.median(values)


def _per_call_us(rec, layer, name, fn, min_s=0.03, min_reps=5):
    """Median wall time of one call in microseconds, over repeated calls."""
    times = []
    with rec.call(layer, name):
        spent = 0.0
        while len(times) < min_reps or spent < min_s:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
            spent += times[-1]
    return _median(times) * 1e6


def _timed(rec, layer, name, fn):
    with rec.call(layer, name) as timer:
        out = fn()
    return out, timer.elapsed


def run_probe(rec, seed: int) -> dict[str, tuple[float, str]]:
    rng = random.Random(seed)
    m: dict[str, tuple[float, str]] = {}
    with rec.stage("probe.kummer_cert"):
        x1_of = _probe_certs(rec, seed, m)
    with rec.stage("probe.ladder"):
        multiples = _probe_ladder(rec, m)
    with rec.stage("probe.exactmath"):
        operands = {"deg4": (x1_of.num, x1_of.den)}
        for band in ("deg24", "deg48"):
            x = multiples[BANDS[band]].x
            operands[band] = (x.num, x.den)
        _probe_kernel(rec, operands, multiples, m)
    with rec.stage("probe.search"):
        _probe_search(rec, rng, seed, m)
    return m


def _probe_certs(rec, seed, m):
    pairs = workloads.certs_inputs(seed + 1, 4 * PROBE_PAIRS)
    stage_ms = {k: [] for k in ("build_fiber", "find_node", "parametrize", "divisor_witness")}
    member_us, hyp_us, docs, x1_of = [], [], [], None
    for s, t1, t2 in pairs:
        if len(docs) >= PROBE_PAIRS:
            break
        m1, dt = _timed(rec, "family", "make_member", lambda: make_member(s, t1))
        member_us.append(dt * 1e6)
        m2, dt = _timed(rec, "family", "make_member", lambda: make_member(s, t2))
        member_us.append(dt * 1e6)
        try:
            pair, dt = _timed(rec, "family", "pair_hypothesis", lambda: pair_hypothesis(m1, m2))
            hyp_us.append(dt * 1e6)
            P1, P2 = m1.marked_point, m2.marked_point
            (r, fiber), t_build = _timed(
                rec, "kummer_cert", "build_fiber",
                lambda: build_fiber(m1.curve, m2.curve, P1, P2))
            node, t_node = _timed(rec, "kummer_cert", "find_node",
                                  lambda: find_node(fiber, m1.t, m2.t))
            par, t_par = _timed(rec, "kummer_cert", "parametrize",
                                lambda: parametrize(fiber, node))
            _, t_wit = _timed(rec, "kummer_cert", "divisor_witness",
                              lambda: divisor_witness(par, (P1.x, P2.x)))
            cert = assemble_certificate(pair)
        except (ValueError, ArithmeticError):
            continue
        for key, dt in zip(stage_ms, (t_build, t_node, t_par, t_wit)):
            stage_ms[key].append(dt * 1e3)
        docs.append(certificate_dumps(cert))
        x1_of = x1_of or par.x1_of
    for key, values in stage_ms.items():
        m[f"kummer_cert.{key}_ms"] = (_median(values), "ms")
    m["family.make_member_us"] = (_median(member_us), "us")
    m["family.pair_hypothesis_us"] = (_median(hyp_us), "us")
    dumps_ms, loads_ms, verify_ms = [], [], []
    for doc in docs:
        cert, dt = _timed(rec, "kummer_cert", "certificate_loads", lambda: certificate_loads(doc))
        loads_ms.append(dt * 1e3)
        res, dt = _timed(rec, "kummer_cert", "verify_certificate", lambda: verify_certificate(cert))
        verify_ms.append(dt * 1e3)
        _, dt = _timed(rec, "kummer_cert", "certificate_dumps", lambda: certificate_dumps(cert))
        dumps_ms.append(dt * 1e3)
        workloads.check(res.ok, "probe certificate failed to verify")
    m["kummer_cert.dumps_ms"] = (_median(dumps_ms), "ms")
    m["kummer_cert.loads_ms"] = (_median(loads_ms), "ms")
    m["kummer_cert.verify_certificate_ms"] = (_median(verify_ms), "ms")
    m["kummer_cert.doc_bytes"] = (_median([len(d.encode()) for d in docs]), "bytes")
    m["kummer_cert.doc_leaves"] = (
        _median([len(list(workloads.json_leaves(json.loads(d)))) for d in docs]), "count")
    caught = 0
    for i in range(PROBE_TAMPERS):
        text, _ = workloads.tampered_document(docs[i % len(docs)], seed + 17 * i)
        try:
            with rec.call("kummer_cert", "certificate_loads"):
                cert = certificate_loads(text)
        except (ValueError, KeyError, TypeError, ArithmeticError):
            caught += 1
            continue
        with rec.call("kummer_cert", "verify_certificate"):
            caught += not verify_certificate(cert).ok
    m["kummer_cert.reject_caught_ratio"] = (caught / PROBE_TAMPERS, "ratio")
    return x1_of


def _probe_ladder(rec, m):
    """Multiples of P at s = 1 by repeated addition, with the add times,
    the heights of two odd and two even multiples, the trailing-doubling
    ratio and generic_rank."""
    (E, P), _ = _timed(rec, "ffheights", "family_functionfield_curve",
                       lambda: family_functionfield_curve(1))
    W = E.weierstrass()
    multiples = {1: P}
    Q = P
    for n in range(2, max(BANDS.values()) + 1):
        Q, dt = _timed(rec, "ec_core", "add", lambda: add(W, Q, P))
        multiples[n] = Q
        for band, k in BANDS.items():
            if k == n:
                m[f"ec_core.add_ms.{band}"] = (dt * 1e3, "ms")
    height = {}
    for parity, ns in (("odd", (5, 7)), ("even", (6, 8))):
        times = []
        for n in ns:
            rep, dt = _timed(rec, "ffheights", "canonical_height",
                             lambda: canonical_height(E, multiples[n]))
            times.append(dt * 1e3)
            height[n] = rep.total
        m[f"ffheights.canonical_height_ms.{parity}"] = (_median(times), "ms")
    for n, h in height.items():
        workloads.check(h == Fraction(n * n, 6), f"probe h({n}P) = {h} at s = 1")
    _, dt = _timed(rec, "ffheights", "bad_places", lambda: bad_places(E))
    m["ffheights.bad_places_ms"] = (dt * 1e3, "ms")
    times = []
    for s in (1, 4, 2):
        _, dt = _timed(rec, "ffheights", "generic_rank", lambda: generic_rank(s))
        times.append(dt * 1e3)
    m["ffheights.generic_rank_ms"] = (_median(times), "ms")
    base = multiples[4]
    t_add = _per_call_us(rec, "ec_core", "add", lambda: add(W, base, base), min_s=0.2) / 1e6
    doubled, t_mul = _timed(rec, "ec_core", "scalar_mul", lambda: scalar_mul(W, 2, base))
    workloads.check(doubled == multiples[8], "probe 2*(4P) differs from 8P")
    m["ec_core.doubling_waste"] = (t_mul / t_add, "ratio")
    m["ec_core.doubling_waste.base_ms"] = (t_add * 1e3, "ms")
    return multiples


def _probe_kernel(rec, operands, multiples, m):
    max_deg = max_bits = 0
    for band, (a, b) in operands.items():
        m[f"exactmath.mul_us.{band}"] = (
            _per_call_us(rec, "exactmath", f"mul.{band}", lambda: a * b), "us")
        aa = a * a
        m[f"exactmath.divmod_us.{band}"] = (
            _per_call_us(rec, "exactmath", f"divmod.{band}", lambda: divmod(aa, b)), "us")
        m[f"exactmath.gcd_us.{band}"] = (
            _per_call_us(rec, "exactmath", f"gcd.{band}", lambda: poly_gcd(a, b)), "us")
        m[f"exactmath.ratfunc_new_us.{band}"] = (
            _per_call_us(rec, "exactmath", f"ratfunc_new.{band}", lambda: RatFunc(a, b)), "us")
    for Q in multiples.values():
        for p in (Q.x.num, Q.x.den, Q.y.num, Q.y.den):
            max_deg = max(max_deg, p.degree())
            max_bits = max(max_bits, max(
                max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.coeffs))
    m["exactmath.max_degree"] = (max_deg, "count")
    m["exactmath.max_coeff_bits"] = (max_bits, "count")
    times = []
    for n in (6, 7, 8):
        den = multiples[n].x.den
        _, dt = _timed(rec, "exactmath", "factor_rational_poly",
                       lambda: factor_rational_poly(den))
        times.append(dt * 1e3)
    m["exactmath.factor_ms"] = (_median(times), "ms")


def _curve_and_point(a, b, x, y):
    """The curve and point, or None when the curve is singular."""
    if 4 * a**3 + 27 * b * b == 0:
        return None
    return WeierstrassCurve(Fraction(a), Fraction(b)), CurvePoint(Fraction(x), Fraction(y))


def _probe_search(rec, rng, seed, m):
    records, dt = _timed(rec, "search", "enumerate_s1", lambda: search.enumerate_s1(ENUMERATE_H))
    m["search.enumerate_s1_s"] = (dt, "s")
    workloads.check_records(records, ENUMERATE_H)
    candidates = sum(r.is_candidate for r in records)
    m["search.candidate_ratio"] = (candidates / len(records), "ratio")
    rows, dt = _timed(rec, "search", "convention_sweep", lambda: search.convention_sweep(SWEEP_H))
    m["search.convention_sweep_s"] = (dt, "s")
    m["search.sweep_useful_ratio"] = (workloads.sweep_useful_ratio(rows), "ratio")
    oracle, _ = workloads.rank_oracle(seed, records)
    ranked = search.attach_ranks(records, oracle)
    _, dt = _timed(rec, "search", "pairing_summary", lambda: search.pairing_summary(ranked))
    m["search.pairing_summary_ms"] = (dt * 1e3, "ms")
    back, dt = _timed(rec, "search", "csv_roundtrip",
                      lambda: search.records_from_csv(search.records_to_csv(ranked)))
    m["search.csv_roundtrip_ms"] = (dt * 1e3, "ms")
    workloads.check(back == ranked, "probe CSV round trip changed the records")
    # torsion tests on sampled sweep models and enumerated records
    H3 = 30**3
    samples = []
    while len(samples) < 100:
        u = rng.choice((1, -1)) * rng.randint(1, isqrt(30 * 30 // 3))
        head = H3 - 2 * u**3
        if head >= 1:
            v = rng.randint(1, isqrt(head))
            samples.append(_curve_and_point(-3 * u * u, 2 * u**3 + v * v, -2 * u, v))
    for r in rng.sample(records, 100):
        a, b = search.integral_coefficients(r.p, r.q)
        samples.append(_curve_and_point(a, b, -2 * r.p * r.q, -3 * r.p * r.q * r.q))
    samples = [pair for pair in samples if pair is not None]
    times = []
    for E, P in samples:
        _, dt = _timed(rec, "ec_core", "is_torsion_overQ", lambda: is_torsion_overQ(E, P))
        times.append(dt * 1e6)
    m["ec_core.is_torsion_us"] = (_median(times), "us")
    # the curve table without its large long-model rows
    lines, shape, square, rank_one, disc = workloads.curve_table(seed)
    small = [ln for ln in lines if ln.split()[0] not in disc or disc[ln.split()[0]] < SMALL_DISC]
    entries, dt = _timed(rec, "search", "parse_curve_db", lambda: search.parse_curve_db(small))
    m["search.parse_curve_db_ms"] = (dt * 1e3, "ms")
    report, dt = _timed(rec, "search", "filter_db_family_candidates",
                        lambda: search.filter_db_family_candidates(entries))
    m["search.filter_db_s"] = (dt, "s")
    kept = {e.label for e in entries}
    workloads.check(report.shape_labels == tuple(x for x in shape if x in kept),
                    "probe shape labels differ")
    times = []
    for c in report.classifications:
        if c.shape:
            E = WeierstrassCurve(Fraction(c.short_a), Fraction(c.short_b))
            _, dt = _timed(rec, "ec_core", "torsion_points_overQ", lambda: torsion_points_overQ(E))
            times.append(dt * 1e3)
    m["ec_core.torsion_points_ms"] = (_median(times), "ms")
