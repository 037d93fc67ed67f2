"""Enumeration of integral s = 1 members, rank plumbing, the database
filter, and the command-line surface."""

import copy
import hashlib
import inspect
import json
import random
import sys
import time
from fractions import Fraction as F
from functools import cache
from math import gcd, isqrt
from operator import attrgetter
from pathlib import Path

import pytest

from cleanpair import cli
from cleanpair import search as searchmod
from cleanpair.ec_core import (
    _REFUTING_PRIMES,
    CurvePoint,
    WeierstrassCurve,
    _order_exceeds_mazur_bound,
    add,
    is_torsion_overQ,
    torsion_points_overQ,
)
from cleanpair.family import make_member
from cleanpair.search import (
    CurveDbEntry,
    ParseError,
    SearchRecord,
    attach_ranks,
    convention_sweep,
    enumerate_s1,
    filter_db_family_candidates,
    format_sweep,
    integral_coefficients,
    load_rank_oracle,
    pair_counts,
    pairing_summary,
    parse_curve_db,
    records_from_csv,
    records_to_csv,
)
from cleanpair.search import _sweep_models, _torsion_tables


# Every (p, q, h) with h <= 10^6, frozen from the defining formulas.
H10_TABLE = [
    (-1, 1, 49),
    (1, 1, 121),
    (-2, 1, 1728),
    (2, 1, 2704),
    (-1, 2, 16384),
    (-3, 1, 19683),
    (3, 1, 19683),
    (1, 2, 25600),
    (-4, 1, 110592),
    (4, 1, 110592),
    (-5, 1, 421875),
    (5, 1, 421875),
    (-1, 3, 455625),
    (1, 3, 613089),
]


def _height(p, q):
    # h(t) = max{(3 p^2 q^2)^3, (2 p^3 q^3 + 9 p^2 q^4)^2}, read off the definition
    return max((3 * p * p * q * q) ** 3, (2 * p**3 * q**3 + 9 * p * p * q**4) ** 2)


def test_height_of_matches_hand_values():
    heights = {(r.p, r.q): r.height_value for r in enumerate_s1(10)}
    assert heights[1, 1] == 121
    assert heights[-1, 1] == 49  # (2(-1)^3 + 9)^2 = 49 beats 27
    assert heights[2, 1] == 2704
    assert heights[1, 2] == 25600
    assert (0, 1) not in heights  # t = 0 is never enumerated


def test_integral_model_carries_its_marked_point():
    # (-2pq, -3pq^2) must sit on y^2 = x^3 + ax + b for every (p, q).
    for p in range(-6, 7):
        for q in range(1, 5):
            if p == 0 or gcd(p, q) != 1:
                continue
            a, b = integral_coefficients(p, q)
            x, y = -2 * p * q, -3 * p * q * q
            assert y * y == x**3 + a * x + b
            assert 4 * a**3 + 27 * b * b == 243 * p**4 * q**7 * (4 * p + 9 * q)


def test_h2_against_brute_force_scan():
    # Independent oracle: scan a generous (p, q) box with the raw formula.
    expected = set()
    for p in range(-8, 9):
        for q in range(1, 9):
            if p != 0 and gcd(p, q) == 1 and _height(p, q) <= 64:
                expected.add((p, q))
    assert expected == {(-1, 1)}  # t = 1 is out: h(1) = 121 > 64
    records = enumerate_s1(2)
    assert [(r.p, r.q) for r in records] == [(-1, 1)]
    assert records[0].is_candidate
    assert enumerate_s1(1) == []


def test_h10_records_frozen():
    records = enumerate_s1(10)
    assert [(r.p, r.q, r.height_value) for r in records] == H10_TABLE
    assert all(r.is_candidate for r in records)
    assert records == sorted(records, key=attrgetter("height_value", "p", "q"))


def test_enumeration_monotone_in_h():
    keys10 = {(r.p, r.q) for r in enumerate_s1(10)}
    keys20 = {(r.p, r.q) for r in enumerate_s1(20)}
    assert keys10 < keys20
    assert len(keys20) == 36


def test_candidates_are_good_family_members():
    records = enumerate_s1(10)
    # every candidate is a good s = 1 member, and the integral model is
    # exactly the d = q rescaling of the fiber
    for r in records:
        member = make_member(1, F(r.p, r.q))
        assert member.in_u or not r.is_candidate
        a, b = integral_coefficients(r.p, r.q)
        assert F(a) == member.curve.a * r.q**4
        assert F(b) == member.curve.b * r.q**6


def test_torsion_and_discriminant_exclusions_are_real():
    # t = -4/3 enters at H = 21: its marked point (24, 108) is 5-torsion.
    by_key = {(r.p, r.q): r for r in enumerate_s1(21)}
    rec = by_key[(-4, 3)]
    assert rec.disc_ok and not rec.non_torsion_ok and not rec.is_candidate
    assert not make_member(1, F(-4, 3)).in_u
    # t = -9/4 enters at H = 63 and is the discriminant exclusion.
    by_key = {(r.p, r.q): r for r in enumerate_s1(63)}
    rec = by_key[(-9, 4)]
    assert not rec.disc_ok and not rec.non_torsion_ok
    assert rec.height_value == _height(-9, 4) == 58773123072


# The readings that the retired options --all-pairs, --sign and
# --include-zero listed, as (sign, with the t = 0 record, every gcd).
READINGS = {
    "default": ("both", False, False),
    "all-pairs": ("both", False, True),
    "positive-with-zero": ("positive", True, False),
    "negative": ("negative", False, False),
    "negative-with-zero": ("negative", True, False),
    "all-pairs-with-zero": ("both", True, True),
}
ZERO_RECORD = SearchRecord(0, 1, 0, False, False)  # t = 0: singular, never a candidate


def _read_as(records, H, reading):
    """The records a retired option listed, rebuilt from the one reduced
    list: the pair (gp, gq) has height g^12 h(p/q) and the flags of (p, q)."""
    sign, zero, every_gcd = READINGS[reading]
    if every_gcd:
        records = sorted(
            (r._replace(p=g * r.p, q=g * r.q, height_value=g**12 * r.height_value)
             for r in records for g in range(1, isqrt(H) + 1) if g**12 * r.height_value <= H**6),
            key=attrgetter("height_value", "p", "q"),
        )
    keep = {"both": lambda p: True, "positive": lambda p: p > 0, "negative": lambda p: p < 0}[sign]
    return [ZERO_RECORD] * zero + [r for r in records if keep(r.p)]


def _counts(records):
    return len(records), sum(r.is_candidate for r in records)


@pytest.mark.parametrize(
    "H, reading",
    [
        (63, "default"),
        (63, "all-pairs"),
        (63, "positive-with-zero"),
        (63, "negative"),
        (250, "default"),
        (250, "all-pairs-with-zero"),
    ],
    ids=["default", "all-pairs", "positive-with-zero", "negative", "default-H250", "all-pairs-with-zero-H250"],
)
def test_records_match_an_independent_reference(H, reading):
    # H = 63 takes in t = -9/4 (the discriminant exclusion) and t = -4/3
    # (5-torsion); at H = 250 the sort and the cut meet many more ties in
    # |pq|.  The reference scans a (p, q) box, reads the discriminant from
    # the integral model and tests torsion by the walk over Q, on every
    # pair of any gcd; (3 p^2 q^2)^3 <= H^6 already bounds |p| and q by
    # isqrt(H^2 // 3).  Each reading of the box is compared with the same
    # reading rebuilt from the enumeration, and its counts with the sweep.
    box = isqrt(H * H // 3) + 4
    pairs = []
    for p in range(-box, box + 1):
        for q in range(1, box + 1):
            h = _height(p, q)
            if p == 0 or h > H**6:
                continue
            a, b = integral_coefficients(p, q)
            disc_ok = 4 * a**3 + 27 * b * b != 0
            non_torsion = disc_ok and (
                is_torsion_overQ(
                    WeierstrassCurve(F(a), F(b)), CurvePoint(F(-2 * p * q), F(-3 * p * q * q))
                )
                is None
            )
            pairs.append(SearchRecord(p, q, h, disc_ok, non_torsion))
    pairs.sort(key=attrgetter("height_value", "p", "q"))
    reduced = [r for r in pairs if gcd(r.p, r.q) == 1]
    records = enumerate_s1(H)
    assert records == reduced
    sign, zero, every_gcd = READINGS[reading]
    expected = [r for r in (pairs if every_gcd else reduced)
                if sign == "both" or (r.p > 0) == (sign == "positive")]
    assert _read_as(records, H, reading) == [ZERO_RECORD] * zero + expected
    rows = {e.name: (e.records, e.candidates) for e in convention_sweep(H)}
    assert rows["pairs-any-gcd"] == _counts(pairs)
    assert rows["reduced-positive"] == _counts([r for r in reduced if r.p > 0])
    negative = _counts([r for r in reduced if r.p < 0])
    assert tuple(b - p for b, p in zip(rows["reduced-both"], rows["reduced-positive"])) == negative
    by_key = {(r.p, r.q): r for r in reduced}
    assert not by_key[(-9, 4)].disc_ok
    assert by_key[(-4, 3)].disc_ok and not by_key[(-4, 3)].non_torsion_ok


# (len, candidates, sha256 of repr([(h, p, q, disc_ok, non_torsion_ok)]))
# at both ends of the perfbench `enumerate` range, captured before the
# enumeration was rewritten as one pass over plain tuples.
ENUMERATION_PINS = {
    994: (3404, 3401, "d2e77e25b47e8e01d86332db719d8c755ab75529834b72b286a2ad71a7e75a9a"),
    1010: (3467, 3464, "805b5976029663e8f1fdaf335def257a498b0e5aa66c2a7961c0ebee68c814f8"),
}
# the same at H = 1000 under two readings the retired options listed,
# captured before the enumeration built each record in one pass and sorted
# once by height; with the sweep rows that print their counts
CONVENTION_PINS = {
    "all-pairs": (
        (4872, 4858, "7fd50caeada15d0f4d78a2efc660722bdf4b219b0e4171bc31c35f0da83f8f42"),
        (4872, 4858),  # pairs-any-gcd
    ),
    "negative-with-zero": (
        (1733, 1729, "dfb1e21c2ef4825a94e3b0e0e98f85ea6c67de9b6f0101cb95586e462ce9bcb2"),
        (1732, 1729),  # reduced-both - reduced-positive, without the t = 0 record
    ),
}


def _pin(records):
    rows = [(r.height_value, r.p, r.q, r.disc_ok, r.non_torsion_ok) for r in records]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    return len(records), sum(r.is_candidate for r in records), digest


@pytest.mark.parametrize("H", sorted(ENUMERATION_PINS))
def test_enumeration_is_pinned_over_the_benchmark_range(H):
    assert _pin(enumerate_s1(H)) == ENUMERATION_PINS[H]


@pytest.mark.parametrize("name", sorted(CONVENTION_PINS))
def test_enumeration_is_pinned_under_other_conventions(name):
    pin, row = CONVENTION_PINS[name]
    assert _pin(_read_as(enumerate_s1(1000), 1000, name)) == pin
    rows = {e.name: (e.records, e.candidates) for e in convention_sweep(1000)}
    if name == "all-pairs":
        assert rows["pairs-any-gcd"] == row
    else:
        assert tuple(b - p for b, p in zip(rows["reduced-both"], rows["reduced-positive"])) == row


def test_enumeration_computes_heights_only_for_the_records_it_returns():
    # The loop bound |pq| <= isqrt(H^2 // 3) walks 5,374 reduced pairs at
    # H = 1000; the H^3 test on the second height term keeps 3,426, and
    # only those reach the line that squares it for the height, which a
    # line tracer counts with the pair it is run for.
    H = 1000
    m = isqrt(H * H // 3)
    walked = sum(2 for q in range(1, m + 1) for ap in range(1, m // q + 1) if gcd(ap, q) == 1)
    source, first = inspect.getsourcelines(enumerate_s1)
    (height_line,) = [first + i for i, line in enumerate(source) if "second * second" in line]
    code, calls = enumerate_s1.__code__, []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == height_line:
            calls.append((frame.f_locals["p"], frame.f_locals["q"]))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is code else None

    sys.settrace(trace)
    try:
        records = enumerate_s1(H)
    finally:
        sys.settrace(None)
    assert walked == 5374
    assert len(records) == len(calls) == 3426
    assert sorted(calls) == sorted((r.p, r.q) for r in records)


def test_torsion_tables_are_read_once_per_call():
    info = _torsion_tables.cache_info
    _torsion_tables()
    for run in (lambda: enumerate_s1(30), lambda: _sweep_models(30)):
        before = info().hits
        run()
        assert info().hits - before == 1
    before = info().hits
    convention_sweep(12)
    assert info().hits - before == 2  # one enumeration, one model walk


@pytest.mark.parametrize("H, p, q", [(12, 3, 2), (180, -9, 10), (264, -3, 22)])
def test_height_cut_keeps_its_edge(H, p, q):
    # Each pair's second height term is exactly H^3, so h(t) = H^6 and the
    # pair enters at H, not at H - 1; these are the only such pairs with
    # H < 400.  The edge is never met with 2p + 9q < 0: then
    # |p^2 q^3 (2p + 9q)| < 2 |pq|^3, so the first term decides the cut.
    assert p * p * q**3 * (2 * p + 9 * q) == H**3
    assert _height(p, q) == H**6
    assert (p, q) in {(r.p, r.q) for r in enumerate_s1(H)}
    assert (p, q) not in {(r.p, r.q) for r in enumerate_s1(H - 1)}
    m = isqrt(H * H // 3)
    for b in range(1, m + 1):
        for a in range(-(m // b), 0):
            if 2 * a + 9 * b < 0:
                assert (a * a * b**3 * (2 * a + 9 * b)) ** 2 < (3 * a * a * b * b) ** 3


@pytest.mark.parametrize(
    "H, target, expected",
    [
        pytest.param(
            10,
            823,
            {
                "reduced-both": (14, 14),
                "reduced-positive": (7, 7),
                "pairs-any-gcd": (16, 16),
                "integer-t": (10, 10),
                "models-v-positive": (310, 308),
                "models-v-both": (620, 616),
                "models-coprime": (218, 217),
                "models-dedupe-curve": (310, 308),
            },
            id="H10",
        ),
        pytest.param(
            15,
            None,
            {
                "reduced-both": (26, 26),
                "reduced-positive": (13, 13),
                "pairs-any-gcd": (30, 30),
                "integer-t": (16, 16),
                "models-v-positive": (919, 916),
                "models-v-both": (1838, 1832),
                "models-coprime": (595, 594),
                "models-dedupe-curve": (919, 916),
            },
            id="H15",
        ),
        pytest.param(
            30,
            13055,
            {
                "reduced-both": (62, 61),
                "reduced-positive": (31, 31),
                "pairs-any-gcd": (74, 73),
                "integer-t": (34, 34),
                "models-v-positive": (5556, 5550),
                "models-v-both": (11112, 11100),
                "models-coprime": (3536, 3535),
                "models-dedupe-curve": (5556, 5550),
            },
            id="H30",
        ),
        pytest.param(
            60,
            74069,
            {
                "reduced-both": (137, 135),
                "reduced-positive": (68, 68),
                "pairs-any-gcd": (177, 175),
                "integer-t": (68, 68),
                "models-v-positive": (31483, 31475),
                "models-v-both": (62966, 62950),
                "models-coprime": (19397, 19396),
                "models-dedupe-curve": (31483, 31475),
            },
            id="H60",
        ),
    ],
)
def test_convention_sweep_documents_the_mismatch(H, target, expected):
    # None of the plausible readings of the height cut reproduces the
    # published total at H = 10, 30 or 60; the sweep reports each delta.
    # H = 15 has no published total, so every target and delta is None.
    entries = {e.name: e for e in convention_sweep(H)}
    observed = {name: (e.records, e.candidates) for name, e in entries.items()}
    assert observed == expected
    assert list(entries) == list(expected)
    if target is None:
        assert all(e.target is None and e.delta is None for e in entries.values())
    else:
        assert all(e.target == target and e.delta != 0 for e in entries.values())
    text = format_sweep(list(entries.values()))
    assert "delta" in text.splitlines()[0]
    assert len(text.splitlines()) == 1 + len(entries)


def test_model_sweep_grows_like_h_to_the_five_halves():
    # The "models-*" rows count lattice points (u, v) under the height
    # cut, about H^(5/2) of them; n^2 / H^5 stays between 5/4 and 4/3
    # (1.275 at H = 60 up to 1.324 at H = 1,000, tending to about 1.326),
    # in integers.  At H = 500 and 1,000 a row runs to about 13,000 and
    # 37,000 bits, so the cut to n bits and the scan for unrefuted models
    # work on multi-digit ints.
    sweeps = {H: _sweep_models(H) for H in (60, 100, 150, 200, 500, 1000)}
    assert sweeps[200] == ((648646, 648629), (396943, 396942))
    assert sweeps[500] == ((6422159, 6422133), (3907717, 3907716))
    assert sweeps[1000] == ((36392781, 36392742), (22154250, 22154249))
    for H, ((n, _), _) in sweeps.items():
        assert 15 * H**5 < 12 * n * n < 16 * H**5, H


def test_model_sweep_matches_a_recount_model_by_model():
    # The sweep reads each prime's verdict row as a period in v; here each
    # model under the cut is tested alone, by the probe walked on the model
    # itself and exact addition.  The singular models u = -k^2, v = 2k^3
    # (4u^3 + v^2 = 0) are records and never candidates.
    verdicts, singular = {}, []
    for u in range(-40, 41):
        for v in range(1, isqrt(2 * 40**3) + 1):
            height = max((3 * u * u) ** 3, (2 * u**3 + v * v) ** 2)
            if u == 0 or height > 40**6:
                continue
            if 4 * u**3 + v * v == 0:
                singular.append((u, v))
                verdicts[u, v] = (height, False)
                continue
            E = WeierstrassCurve(F(-3 * u * u), F(2 * u**3 + v * v))
            verdicts[u, v] = (height, is_torsion_overQ(E, CurvePoint(F(-2 * u), F(v))) is None)
    assert singular == [(-16, 128), (-9, 54), (-4, 16), (-1, 2)]
    for H in (*range(1, 25), 40):
        kept = [(gcd(u, v) == 1, candidate)
                for (u, v), (height, candidate) in verdicts.items() if height <= H**6]
        every = (len(kept), sum(c for _, c in kept))
        coprime = (sum(g for g, _ in kept), sum(g and c for g, c in kept))
        assert _sweep_models(H) == (every, coprime), H


def test_torsion_tables_match_the_probe_on_every_model_mod_l():
    # Every cell (u, v) mod l, not only the representatives (tau, 3 tau)
    # the grids are read from: the lookup the enumeration makes must agree
    # with good reduction and the probe run on the model itself.
    tables = _torsion_tables()
    assert [p for p, *_ in tables] == list(_REFUTING_PRIMES)
    cases = refuted = 0
    for p, grid, bits in tables:
        assert len(grid) == p and all(type(row) is bytes and len(row) == p for row in grid)
        assert len(bits) == p and all(0 <= row < 1 << p for row in bits)
        for u in range(p):
            for v in range(p):
                a, b = -3 * u * u, 2 * u**3 + v * v
                good = (4 * a**3 + 27 * b * b) % p != 0
                expected = good and _order_exceeds_mazur_bound(a % p, (-2 * u % p, v), p)
                got = grid[u][v]
                assert got in (0, 1), (p, u, v)
                assert got == expected == bits[u] >> v & 1, (p, u, v)
                cases += 1
                refuted += got
    assert cases == 8219  # the sum of l^2 over the refuting primes
    assert 0 < refuted < cases


def _record_exact_walks(monkeypatch):
    # each call of the exact torsion walk from search, with its verdict
    exact = searchmod._exact_torsion_order
    calls = []

    def recorded(a, b, x, y):
        order = exact(a, b, x, y)
        calls.append(((a, b, x, y), order))
        return order

    monkeypatch.setattr(searchmod, "_exact_torsion_order", recorded)
    return calls


def test_sweep_falls_back_to_exact_addition_only_where_the_walk_did(monkeypatch):
    # Walking P, ..., 6P at every good refuting prime leaves 55 models of
    # the H = 60 sweep to exact addition.  The tables leave the same 55; 5
    # are torsion, and each of the other 50 meets a non-integral multiple
    # (Nagell-Lutz) by 3P, counted here by add.
    calls = _record_exact_walks(monkeypatch)
    convention_sweep(60)
    assert len(calls) == 55
    assert sum(order is not None for _, order in calls) == 5
    for (a, b, x, y), order in calls:
        disc = 4 * a**3 + 27 * b * b
        for p in _REFUTING_PRIMES:
            if disc % p:
                assert not _order_exceeds_mazur_bound(a % p, (x % p, y % p), p), (p, a, b)
        E, P = WeierstrassCurve(a, b), CurvePoint.affine(F(x), F(y))
        n, Q = 1, P
        while n <= 12 and not Q.is_infinity and Q.x.denominator == 1:
            n, Q = n + 1, add(E, Q, P)
        # nP is O, at n the order, or the first non-integral multiple
        assert Q.is_infinity == (order is not None)
        assert n == order if order else n <= 3


def test_enumeration_falls_back_to_the_exact_walk_at_seven_t(monkeypatch):
    # The tables settle all but seven records of enumerate_s1(1000); the
    # model of t = p/q has P = (-2u, v) with u = pq and v = 3pq^2, so
    # t = 9u^3/v^2.  Two are torsion, of orders 5 and 3.
    calls = _record_exact_walks(monkeypatch)
    records = enumerate_s1(1000)
    assert len(calls) == 7
    verdicts = {F(9 * (-x // 2) ** 3, y * y): order for (_, _, x, y), order in calls}
    assert verdicts == {
        F(-4, 3): 5, F(-8, 3): 3,
        F(19, 6): None, F(-44, 5): None, F(-23, 19): None, F(-456): None, F(533): None,
    }
    for r in records:
        if F(r.p, r.q) in verdicts:
            assert r.non_torsion_ok == (verdicts[F(r.p, r.q)] is None)


def test_rank_oracle_parsing():
    table = load_rank_oracle(
        [
            "# comment line\n",
            "\n",
            "1 1 1\n",
            "-1 1 2   # trailing comment\n",
            "2 1 ?\n",
            "1 1 1\n",  # harmless duplicate
        ]
    )
    assert table == {(1, 1): 1, (-1, 1): 2, (2, 1): None}


def test_rank_oracle_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_rank_oracle(["1 1 1\n", "1 1\n"])
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        load_rank_oracle(["x 1 1\n"])
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        load_rank_oracle(["1 1 one\n"])
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        load_rank_oracle(["1 1 1\n", "# fine\n", "1 1 2\n"])
    assert err.value.line_no == 3


def test_attach_ranks_and_buckets():
    records = enumerate_s1(2)
    annotated = attach_ranks(records, ["-1 1 1\n"])
    assert annotated[0].rank == 1
    assert records[0].rank is None  # input untouched
    summary = pairing_summary(annotated)
    assert summary.candidate_count == 1
    assert summary.rank_buckets == (("1", 1),)
    assert (summary.pair_count_unordered, summary.pair_count_ordered) == (0, 0)


def test_pairing_summary_buckets_candidates_only():
    def rec(p, rank, non_torsion=True):
        return SearchRecord(p, 1, _height(p, 1), True, non_torsion, rank)

    records = [rec(1, 1), rec(2, 1), rec(3, 1), rec(4, 2), rec(5, None), rec(6, 1, False)]
    summary = pairing_summary(records)
    assert summary.candidate_count == 5  # the torsion record drops out
    assert summary.rank_buckets == (("1", 3), ("2", 1), ("?", 1))
    assert summary.rank_one_count == 3
    assert (summary.pair_count_unordered, summary.pair_count_ordered) == (3, 6)


def test_pair_counts_exact():
    assert pair_counts(0) == (0, 0)
    assert pair_counts(2) == (1, 2)
    # 27062 rank-1 curves, every two of which pair: both conventions.
    assert pair_counts(27062) == (366162391, 732324782)


def test_csv_round_trip(tmp_path):
    records = attach_ranks(enumerate_s1(10), ["1 1 1\n", "-1 1 1\n", "2 1 2\n"])
    text = records_to_csv(records)
    assert text.splitlines()[0] == "p,q,height,disc_ok,nontorsion_ok,rank"
    assert records_from_csv(text) == records
    path = tmp_path / "records.csv"
    path.write_text(text)
    assert records_from_csv(path.read_text()) == records


def test_search_record_is_an_immutable_tuple():
    records = enumerate_s1(63)
    rec = records[0]
    assert rec == (rec.p, rec.q, rec.height_value, rec.disc_ok, rec.non_torsion_ok, None)
    with pytest.raises(AttributeError):
        rec.rank = 1
    with pytest.raises(AttributeError):
        rec.p = 2
    oracle = ["-1 1 1\n", "-4 3 0\n", "5 1 2\n", "7 1 ?\n"]
    before = list(records)
    ranked = attach_ranks(records, oracle)
    assert records == before and all(r.rank is None for r in records)
    ranks = {(r.p, r.q): r.rank for r in ranked if r.rank is not None}
    assert ranks == {(-1, 1): 1, (-4, 3): 0, (5, 1): 2}
    assert [r._replace(rank=None) for r in ranked] == records
    assert records_from_csv(records_to_csv(ranked)) == ranked


def test_csv_rejects_foreign_layouts():
    with pytest.raises(ParseError):
        records_from_csv("a,b,c\n1,2,3\n")
    header = "p,q,height,disc_ok,nontorsion_ok,rank\n"
    with pytest.raises(ParseError) as err:
        records_from_csv(header + "1,1,121,1\n")
    assert err.value.line_no == 2
    # numbers read -?[0-9]+ and flags only 0 or 1; each bad row names its line
    good = "-2,7,121,1,0,\n"
    assert records_from_csv(header + good + "10,3,5,0,1,0\n") == [
        SearchRecord(-2, 7, 121, True, False), SearchRecord(10, 3, 5, False, True, 0)]
    bad_rows = ["1_0,+1,\u0661\u0662\u0661,2,-1,\u0663", "1_0,1,121,1,1,", "1,+1,121,1,1,",
                "1,1,\u0661\u0662\u0661,1,1,", "1,1,121,1,1,\u0663", "1,1,121,2,1,",
                "1,1,121,1,-1,", "1,1,121,,1,", "1,1,121,01,1,", " 1,1,121,1,1,",
                "1,1," + "9" * 5000 + ",1,1,"]
    for row in bad_rows:
        with pytest.raises(ParseError) as err:
            records_from_csv(header + good + row + "\n")
        message = str(err.value)
        assert err.value.line_no == 3 and message.startswith("line 3: "), row
        assert "\n" not in message and len(message) < 300, row


def test_csv_refuses_a_negative_rank():
    # as load_rank_oracle does
    with pytest.raises(ParseError) as err:
        records_from_csv("p,q,height,disc_ok,nontorsion_ok,rank\n1,1,1,1,1,-4\n")
    assert str(err.value) == "line 2: negative rank in '1,1,1,1,1,-4'"


# ---------------------------------------------------------------------------
# database filter

DB_FIXTURE = [
    "43a1 0 1 1 0 0 1 1 43",
    "65a1 1 0 0 -1 0 1 1 65",
    "37a1 0 0 1 -1 0 1 1 37",
    "mord9 0 0 0 0 9 1 3 999",  # y^2 = x^3 + 9: (0, 3) is 3-torsion
    "syn1 0 0 0 -3 4 1 1 998",  # shape t = 1, shift 2 is not a square
    "syn7 0 0 0 -3 7 1 1 997",  # the t = -1 fiber: shift 9 = 3^2
    "rank0 0 0 0 0 1 0 6 27",
]


def test_parse_curve_db():
    entries = parse_curve_db(DB_FIXTURE)
    assert len(entries) == 7
    assert entries[0] == CurveDbEntry("43a1", (0, 1, 1, 0, 0), 1, 1, 43)
    with pytest.raises(ParseError) as err:
        parse_curve_db(["43a1 0 1 1 0 0 1 1 43", "65a1 1 0 0 -1 0 1 1"])
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_curve_db(["a 0 0 0 0 1 1 1 1", "a 0 0 0 0 2 1 1 2"])
    assert parse_curve_db(["# only comments", ""]) == []


def test_db_filter_classification():
    report = filter_db_family_candidates(parse_curve_db(DB_FIXTURE))
    assert report.total_rank_one == 6  # rank0 never enters
    assert report.shape_labels == ("43a1", "65a1", "mord9", "syn1", "syn7")
    assert report.eligible_labels == ("43a1", "65a1", "syn1", "syn7")
    assert report.excluded_labels == ("mord9",)
    assert report.square_labels == ("43a1", "syn7")
    assert (report.shape_count, report.eligible_count, report.square_count) == (5, 4, 2)
    assert (report.square_pairs_unordered, report.square_pairs_ordered) == (1, 4)

    by_label = {c.label: c for c in report.classifications}
    c43 = by_label["43a1"]
    # -432 = -3 * 12^2 and 15120 - 2 * 12^3 = 108^2
    assert (c43.short_a, c43.short_b, c43.shape, c43.square_shift) == (-432, 15120, True, True)
    c65 = by_label["65a1"]
    assert (c65.short_a, c65.shape, c65.square_shift) == (-1323, True, False)
    assert by_label["37a1"].shape is False


def test_db_filter_empty():
    report = filter_db_family_candidates([])
    assert report.shape_count == report.eligible_count == report.square_count == 0
    assert report.square_pairs_ordered == 0


def _long_invariants(rng, a4, a6):
    """A long model of y^2 = x^3 + a4 x + a6: the substitution x -> x + r,
    y -> y + s x + w with small random integers keeps c4 and c6."""
    r, s, w = (rng.randint(-3, 3) for _ in range(3))
    return (2 * s, 3 * r - s * s, 2 * w, a4 + 3 * r * r - 2 * s * w, a6 + r * a4 + r**3 - w * w)


def _tate_normal_invariants(order, d):
    """Integral a-invariants of Kubert's Tate normal form
    y^2 + (1 - c) xy - by = x^3 - bx^2, where (0, 0) has the given order."""
    b, c = {
        4: lambda: (d, 0),
        5: lambda: (d, d),
        6: lambda: (d + d * d, d),
        7: lambda: (d**3 - d * d, d * d - d),
        8: lambda: ((2 * d - 1) * (d - 1), (2 * d - 1) * (d - 1) / d),
        9: lambda: (d * d * (d - 1) * (d * d - d + 1), d * d * (d - 1)),
    }[order]()
    a = (F(1 - c), F(-b), F(-b), F(0), F(0))
    u = 1
    while any((x * u**i).denominator != 1 for i, x in zip((1, 2, 3, 4, 6), a)):
        u += 1
    return tuple(int(x * u**i) for i, x in zip((1, 2, 3, 4, 6), a))


def _reference_classification(a, b):
    """(shape, excluded, square_shift) of the integral
    model y^2 = x^3 + ax + b, read from the list of all its torsion points."""
    t = 0 if a == 0 else isqrt(-a // 3) if a < 0 and a % 3 == 0 else None
    if t is None or 3 * t * t != -a:
        return False, False, False
    torsion_x = {pt.x for pt in torsion_points_overQ(WeierstrassCurve(a, b)) if not pt.is_infinity}
    signs = (t, -t) if t else (0,)
    square = [s for s in signs if b - 2 * s**3 >= 0 and isqrt(b - 2 * s**3) ** 2 == b - 2 * s**3]
    usable = [s for s in square if s not in torsion_x]
    return True, bool(square) and not usable, bool(usable)


def _shape_models(rng):
    """Nonsingular short models (a, b) of the shape a = -3t^2: random b,
    b - 2 sigma^3 a square, torsion at x = sigma (orders 5 and 6), t = 0
    (the point at x = 0 has order 3) and rational 2-torsion."""
    models = []
    while len(models) < 1850:
        kind = len(models) % 37
        t = rng.randint(0, 40)
        if kind < 28:
            sigma = rng.choice((t, -t))
            b = 2 * sigma**3 + rng.randint(1, 300) ** 2 if kind % 2 else rng.randint(-10**4, 10**4)
        elif kind < 31:
            lam = rng.randint(1, 6)
            sigma, v = rng.choice(((-12 * lam**2, 108 * lam**3), (-6 * lam**2, 27 * lam**3)))
            t, b = -sigma, 2 * sigma**3 + v * v
        elif kind < 34:
            t = 0
            square, cube = rng.randint(1, 200) ** 2, rng.randint(-30, 30) ** 3
            b = rng.choice((square, cube, -432, rng.randint(-999, 999)))
        else:
            r = rng.randint(-50, 50)
            b = 3 * t * t * r - r**3
        a = -3 * t * t
        if 4 * a**3 + 27 * b * b:
            models.append((a, b))
    return models


@cache
def _agreement_table():
    """The rows of the agreement test below: the lines that parse, the first
    letter of each line refused, and the expected (A, B, classification) of
    each shape row by label.  Built once: the stdout pin reads it too."""
    rng = random.Random(2468)
    lines, expected = [], {}
    for i in range(20):
        sigma, u = rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 6))
        inv = _long_invariants(rng, -3 * sigma**2 * u**4, 2 * sigma**3 * u**6)
        lines.append(f"z{i} {' '.join(map(str, inv))} 1 1 11")
    for i, (a, b) in enumerate(_shape_models(rng)):
        u = rng.choice((1, 2, 3, 5, 6))
        inv = _long_invariants(rng, u**4 * a, u**6 * b)
        label = f"s{i}"
        lines.append(f"{label} {' '.join(map(str, inv))} 1 1 11")
        expected[label] = ((6 * u) ** 4 * a, (6 * u) ** 6 * b, _reference_classification(a, b))
    for i in range(150):
        d = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
        try:
            inv = _tate_normal_invariants(4 + i % 6, d)
        except ZeroDivisionError:
            continue
        lines.append(f"k{i} {' '.join(map(str, inv))} 1 1 11")
    kept, refused = [], []
    for line in lines:
        try:
            parse_curve_db([line])
        except ParseError as exc:
            assert "singular" in str(exc)
            refused.append(line[0])
        else:
            kept.append(line)
    return kept, refused, expected


def test_db_filter_agrees_with_the_torsion_point_list():
    # About 2,000 rank-1 rows.  Shape models scaled by u^4, u^6 and written
    # as long a-invariants must read as (6u)^4 a, (6u)^6 b and classify as
    # the full torsion list of the unscaled model says; Tate normal forms
    # (torsion of order 4 to 9) are checked on the model as read.  A row
    # with b = 2 sigma^3 is (x - sigma)^2 (x + 2 sigma), so it is refused.
    kept, refused, expected = _agreement_table()
    assert refused.count("z") == 20 and set(refused) <= {"z", "k"}
    rows = parse_curve_db(kept)
    report = filter_db_family_candidates(rows)
    assert report.total_rank_one == len(rows) > 1950
    outcomes = {}
    for c in report.classifications:
        got = (c.shape, c.excluded, c.square_shift)
        if c.label in expected:
            a, b, want = expected[c.label]
            assert (c.short_a, c.short_b, got) == (a, b, want), c.label
        else:
            assert got == _reference_classification(c.short_a, c.short_b), c.label
        outcomes[got[:3]] = outcomes.get(got[:3], 0) + 1
    # every outcome is well represented
    assert min(outcomes.values()) > 100 and len(outcomes) == 4, outcomes


# y^2 = x^3 + c^2 with c = (10^20 + 39)(3 10^20 + 53), a product of two
# 21-digit primes: the point (0, c) has order 3, and |Delta| = 432 c^4 is
# slow to factor.
HARD_DB_ROWS = (
    f"hard1 0 0 0 0 {((10**20 + 39) * (3 * 10**20 + 53)) ** 2} 1 3 11",
    "hard2 0 0 0 -300000000000000000000 12345678901234567890 1 1 11",
)


def test_db_filter_classifies_a_large_discriminant_row_quickly():
    start = time.perf_counter()
    report = filter_db_family_candidates(parse_curve_db(HARD_DB_ROWS[:1]))
    elapsed = time.perf_counter() - start
    assert report.excluded_labels == ("hard1",) and report.square_count == 0
    assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_member(capsys):
    code, out, _ = run_cli(capsys, "member", "1", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["in_u"] is True
    assert payload["curve"] == {"a": "-12/1", "b": "52/1"}
    assert payload["marked_point"] == {"x": "-4/1", "y": "-6/1"}

    code, out, _ = run_cli(capsys, "member", "1", "0")
    assert code == 0
    assert json.loads(out)["failure"] == "ZeroDiscriminant"


def test_cli_reads_a_negative_fraction_after_the_option_terminator(capsys):
    # argparse takes "-4/3" for an option; "--" ends the options, as the
    # README and the cli docstring say
    assert run_cli(capsys, "member", "1", "-4/3")[0] == 2
    code, out, _ = run_cli(capsys, "member", "1", "--", "-4/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == "-4/3" and payload["failure"] == "TorsionMarkedPoint"


def test_cli_certify_verify_round_trip(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, "certify", "1", "1", "2", "--out", str(cert))
    assert code == 0 and out == "" and err == ""
    code, out, _ = run_cli(capsys, "verify", str(cert))
    assert code == 0 and out.strip() == "OK"

    tampered = tmp_path / "tampered.json"
    tampered.write_text(cert.read_text().replace('"1/2"', '"2/3"', 1))
    code, out, _ = run_cli(capsys, "verify", str(tampered))
    assert code == 1
    assert "DivisorMismatch" in out

    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 1 and "cannot read" in err


CERT_V1_FIXTURE = Path(__file__).parent / "data" / "cert_1_1_2_v1.json"


def test_cli_certify_reproduces_the_pinned_v1_document(capsys, tmp_path):
    # the cleanpair.certificate/1 layout is pinned byte for byte; verify
    # reads the fixture as it is
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, "certify", "1", "1", "2", "--out", str(cert)) == (0, "", "")
    assert cert.read_bytes() == CERT_V1_FIXTURE.read_bytes()
    assert run_cli(capsys, "verify", str(CERT_V1_FIXTURE)) == (0, "OK\n", "")


def test_cli_verify_rejects_a_document_that_is_not_an_object(capsys, tmp_path):
    for i, text in enumerate(["[]", "3", '"cert"', "null"]):
        path = tmp_path / f"doc{i}.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("malformed certificate:") and "JSON object" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "path, value, pointer",
    [
        (("pair", "members"), [], "/pair/members"),
        (("pair", "members", 0, "point"), ["-2/1"], "/pair/members/0/point"),
        (("pair", "s"), 5, "/pair/s"),
        (("r",), "1/0", "/r"),
        # strings unpack like two-entry arrays, but they are not the format
        (("preimage_check",), {"on_r": ["++", "--"], "on_minus_r": ["+-", "-+"]},
         "/preimage_check/on_r/0"),
        (("pair", "members", 0, "point"), "12", "/pair/members/0/point"),
        (("fiber_plus", "F", 3), "1", "/fiber_plus/F/3"),
    ],
    ids=["no-members", "one-coordinate", "s-not-a-string", "zero-denominator",
         "sign-pairs-as-strings", "point-as-a-string", "coefficients-as-a-string"],
)
def test_cli_verify_rejects_malformed_nested_fields(capsys, tmp_path, path, value, pointer):
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, "certify", "1", "1", "2", "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(cert))
    assert code == 1 and out == ""
    assert err.startswith(f"malformed certificate: {pointer}: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag", [True, "no", 1], ids=["true", "string", "int"])
def test_cli_verify_reads_rank_flags_only_as_json_booleans(capsys, tmp_path, flag):
    # Every flag set to the same value, with the conditional statement: a
    # truthy non-boolean must not pass as a supplied rank-1 hypothesis.
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, "certify", "1", "1", "2", "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    doc["pair"]["rank_one"] = [flag, flag]
    conclusion = doc["conclusion"]
    conclusion["rank_one_hypotheses"] = [flag, flag]
    conclusion["rank_one_conditional"] = flag
    conclusion["statement"] = conclusion["statement"].replace(
        "if both curves have rank 1 then",
        "rank-1 hypotheses supplied for both curves, so",
    )
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(cert))
    if flag is True:
        assert code == 0 and out.strip() == "OK"
        return
    assert code == 1 and out == ""
    assert err.startswith("malformed certificate:") and repr(flag) in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


WRONG_TYPES = [None, True, 0, "x", [], {}, "1/0", [[]]]


def test_cli_verify_survives_a_wrong_type_at_every_node(capsys, tmp_path):
    # Two seeded substitutes at each of the 196 nodes, the root included.
    # The loader raises only ValueError, so the verdict is OK, FAIL lines,
    # or one "malformed certificate" line.  Below the root, that line names
    # a field on the substituted node's branch: the node itself, one of its
    # ancestors, or a field inside the substitute.
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, "certify", "1", "1", "2", "--out", str(cert))[0] == 0
    base = json.loads(cert.read_text())
    rng = random.Random(1011)
    case = tmp_path / "case.json"
    count = 0
    for path in _nodes(base):
        for value in rng.sample(WRONG_TYPES, 2):
            doc = copy.deepcopy(base)
            if path:
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
            else:
                doc = value
            case.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "verify", str(case))
            where = (path, value)
            assert code in (0, 1) and "Traceback" not in out + err, where
            if err:
                assert code == 1 and out == "", where
                assert err.startswith("malformed certificate: "), where
                assert len(err.splitlines()) == 1, where
                if path:
                    pointer = err[len("malformed certificate: "):].split(": ", 1)[0]
                    keys = tuple(pointer.split("/")[1:])
                    names = tuple(map(str, path))
                    assert pointer.startswith("/"), where
                    assert keys == names[:len(keys)] or names == keys[:len(names)], where
            elif code == 0:
                assert out == "OK\n", where
            else:
                lines = out.splitlines()
                assert lines and all(ln.startswith("FAIL: ") for ln in lines), where
            count += 1
    assert count == 2 * 196


def test_cli_certify_stdout_and_failures(capsys):
    code, out, _ = run_cli(capsys, "certify", "1", "1", "2")
    assert code == 0
    assert json.loads(out)["format"] == "cleanpair.certificate/1"

    code, _, err = run_cli(capsys, "certify", "1", "0", "1")
    assert code == 1 and "ZeroDiscriminant" in err

    code, _, err = run_cli(capsys, "certify", "2", "0", "1")
    assert code == 1  # the t = 0 fiber is good here but the node degenerates
    assert "cusp" in err.lower()


def test_cli_heights(capsys):
    code, out, _ = run_cli(capsys, "heights", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["places"] == ["(T)", "(T + 9/4)", "infinity"]
    assert payload["local_heights"] == ["0/1", "1/12", "1/12"]
    assert payload["total"] == "1/6"
    assert payload["shioda_tate_bound"] == 1

    code, out, _ = run_cli(capsys, "heights", "1", "--markdown")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| place |")
    assert lines[-1] == "| total |  |  | 1/6 |"

    code, _, err = run_cli(capsys, "heights", "0")
    assert code == 1 and "s = 0" in err


RANK_FF_GOLDEN = Path(__file__).parent / "data" / "rank_ff_stdout.json"


def test_cli_rank_ff(capsys):
    # stdout of `rank-ff -- s` byte for byte, at s = 1 and at square and
    # non-square s
    golden = json.loads(RANK_FF_GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 10
    for s, expected in golden.items():
        assert run_cli(capsys, "rank-ff", "--", s) == (0, expected, ""), s
    assert json.loads(golden["4"])["rank"] == 2
    assert json.loads(golden["2"])["rank"] == 1


HEIGHTS_GOLDEN = Path(__file__).parent / "data" / "heights_stdout.json"


def test_cli_heights_stdout(capsys):
    # stdout of `heights -- s` and `heights --markdown -- s` byte for byte:
    # two linear places, a quadratic place and irreducible cubic places
    golden = json.loads(HEIGHTS_GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 20
    for key, expected in golden.items():
        s, *flags = key.split()
        assert run_cli(capsys, "heights", *flags, "--", s) == (0, expected, ""), key
    assert "| (T^2 + 4*T + 1) | 1 | Multiplicative | 1/12 |" in golden["2 --markdown"]
    assert "| (T^3 + 21/4*T^2 + 14/3*T + 28/27) | 1 |" in golden["7/3 --markdown"]


def test_cli_search_plain(capsys):
    code, out, _ = run_cli(capsys, "search", "2")
    assert code == 0
    assert out.splitlines() == ["H=2 records=1 candidates=1"]


def test_cli_search_reports_the_published_mismatch(capsys):
    code, out, _ = run_cli(capsys, "search", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H=10 records=14 candidates=14"
    assert lines[1] == "published_total=823 delta=-809"
    assert any("convention sweep" in line for line in lines)
    assert any(line.startswith("models-v-both") for line in lines)


def test_cli_search_oracle_and_csv(capsys, tmp_path):
    oracle = tmp_path / "oracle.txt"
    oracle.write_text("# oracle\n1 1 1\n-1 1 1\n2 1 2\n")
    out_csv = tmp_path / "records.csv"
    code, out, _ = run_cli(
        capsys, "search", "10", "--oracle", str(oracle), "--csv", str(out_csv)
    )
    assert code == 0
    assert "rank 1: 2" in out
    assert "rank 2: 1" in out
    assert "rank ?: 11" in out
    assert "unordered=1 ordered=2" in out
    restored = records_from_csv(out_csv.read_text())
    assert len(restored) == 14
    assert {(r.p, r.q): r.rank for r in restored}[(1, 1)] == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    code, _, err = run_cli(capsys, "search", "10", "--oracle", str(bad))
    assert code == 1 and "line 1" in err


def test_cli_search_60_meets_its_time_target(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "search", "60")
    assert time.perf_counter() - start < 5
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H=60 records=137 candidates=135"
    assert lines[1] == "published_total=74069 delta=-73934"
    assert "models-v-positive         31483      31475   -42594" in lines


SEARCH_GOLDEN = Path(__file__).parent / "data" / "search_stdout.json"


def test_cli_search_stdout(capsys):
    # stdout of `search 60` (the sweep runs on the mismatch) and of
    # `search 30 --sweep`, byte for byte
    golden = json.loads(SEARCH_GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == ["60", "30 --sweep"]
    for argv, expected in golden.items():
        assert run_cli(capsys, "search", *argv.split()) == (0, expected, ""), argv
    assert "models-coprime             3536       3535    -9520" in golden["30 --sweep"]


@pytest.mark.parametrize(
    "argv",
    [("certify", "1", "1", "2", "--out"), ("search", "10", "--csv")],
    ids=["certify-out", "search-csv"],
)
def test_cli_reports_an_unwritable_output_path(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, str(target))
    assert code == 1 and out == ""
    assert err.startswith("cannot write:")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not target.exists()


def test_cli_dbfilter(capsys, tmp_path):
    db = tmp_path / "db.txt"
    db.write_text("\n".join(DB_FIXTURE) + "\n")
    code, out, _ = run_cli(capsys, "dbfilter", str(db))
    assert code == 0
    payload = json.loads(out)
    assert payload["shape_count"] == 5
    assert payload["eligible_count"] == 4
    assert payload["square_count"] == 2
    assert payload["square_labels"] == ["43a1", "syn7"]

    code, _, err = run_cli(capsys, "dbfilter", str(tmp_path / "absent.txt"))
    assert code == 1 and "cannot read" in err


DBFILTER_GOLDEN = Path(__file__).parent / "data" / "dbfilter_stdout.json"


def test_cli_dbfilter_stdout(capsys, tmp_path):
    # stdout of `dbfilter` on DB_FIXTURE and on each hard row, byte for
    # byte, and the sha256 and length of its stdout on the rows of the
    # agreement test that parse
    golden = json.loads(DBFILTER_GOLDEN.read_text(encoding="utf-8"))
    kept, _, _ = _agreement_table()
    tables = {"fixture": DB_FIXTURE, **{row.split()[0]: [row] for row in HARD_DB_ROWS}, "agreement": kept}
    assert list(golden) == list(tables) == ["fixture", "hard1", "hard2", "agreement"]
    for name, rows in tables.items():
        db = tmp_path / f"{name}.txt"
        db.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "dbfilter", str(db))
        if name == "agreement":
            out = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "length": len(out)}
        assert (code, out, err) == (0, golden[name], ""), name


@pytest.mark.parametrize(
    "row",
    ["s 0 0 0 0 0 1 1 1", "n 0 0 0 -3 2 1 1 1"],
    ids=["cusp-a-b-zero", "node"],
)
def test_cli_dbfilter_rejects_a_singular_row(capsys, tmp_path, row):
    # y^2 = x^3 and y^2 = x^3 - 3x + 2 have 4A^3 + 27B^2 = 0; the filter
    # reads only rank-1 rows, so the same model at rank 0 still parses
    assert len(parse_curve_db([DB_FIXTURE[0], row.replace(" 1 1 1", " 0 1 1")])) == 2
    with pytest.raises(ParseError) as exc:
        parse_curve_db([DB_FIXTURE[0], row])
    assert exc.value.line_no == 2
    db = tmp_path / "db.txt"
    db.write_text(DB_FIXTURE[0] + "\n" + row + "\n")
    code, out, err = run_cli(capsys, "dbfilter", str(db))
    assert code == 1 and out == ""
    assert err.startswith("database: line 2: singular curve")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def assert_one_line_failure(code, out, err, prefix):
    assert code == 1 and out == ""
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, prefix",
    [(("dbfilter",), "cannot read database: "), (("search", "5", "--oracle"), "cannot read oracle: ")],
    ids=["dbfilter", "oracle"],
)
def test_cli_reports_a_file_that_is_not_utf8(capsys, tmp_path, argv, prefix):
    # a UTF-16 byte-order mark is not UTF-8; the decoder fails while the
    # parser iterates the handle
    path = tmp_path / "table.txt"
    path.write_bytes(b"\xff\xfe" + "43a1 0 1 1 0 0 1 1 43\n".encode("utf-16-le"))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_one_line_failure(code, out, err, prefix)
    assert "codec can't decode" in err


def test_cli_verify_reports_a_document_nested_past_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert_one_line_failure(code, out, err, "malformed certificate: ")


FUZZ_TOKENS = ["x", "", "-", "--", "1/", "/2", "1/0", "0/0", "3.5", "1e3", "nan", "0x10",
               "1//2", " 2", "--markdown", "--sweep", "--out", "--sign", "--bogus"]


def _fuzz_rational(rng):
    n, d = rng.randint(-12, 12), rng.randint(1, 12)
    return str(n) if rng.random() < 0.3 else f"{n}/{d}"


def _fuzz_arg(rng):
    return rng.choice(FUZZ_TOKENS) if rng.random() < 0.15 else _fuzz_rational(rng)


def _fuzz_table_row(rng, label):
    """A curve-table line: mostly nine integer fields with |a_i| <= 10^4,
    some of the family shape (a4 = -3t^2) or singular, some malformed."""
    a = [rng.randint(-2, 2) for _ in range(3)] + [rng.randint(-10**4, 10**4) for _ in range(2)]
    kind = rng.random()
    if kind < 0.25:
        a = [0, 0, 0, -3 * rng.randint(1, 50) ** 2, rng.randint(-10**4, 10**4)]
    elif kind < 0.35:
        k = rng.randint(0, 20)
        a = [0, 0, 0, -3 * k * k, 2 * k**3]  # 4A^3 + 27B^2 = 0
    fields = [label, *map(str, a), str(rng.choice((1, 1, 1, 0, 2))), "1", str(rng.randint(11, 999))]
    if rng.random() < 0.04:
        fields[rng.randrange(len(fields))] = rng.choice(FUZZ_TOKENS[:14]) or "?"
    if rng.random() < 0.04:
        del fields[rng.randrange(len(fields)):]
    return " ".join(fields)


def _fuzz_oracle_row(rng):
    fields = [str(rng.randint(-12, 12)), str(rng.randint(1, 3)), rng.choice(("0", "1", "2", "?"))]
    if rng.random() < 0.15:
        fields[rng.randrange(3)] = rng.choice(FUZZ_TOKENS[:14]) or "x"
    if rng.random() < 0.1:
        fields = fields[: rng.randint(0, 2)] + ["1"] * rng.randint(0, 2)
    return " ".join(fields)


def _fuzz_file(rng, path, rows):
    data = "\n".join(rows + [rng.choice(("", "# comment", "  "))]).encode()
    if rng.random() < 0.15:  # raw bytes that are not UTF-8
        cut = rng.randint(0, len(data))
        data = data[:cut] + bytes(rng.choice((0x80, 0xC3, 0xFF, 0xFE)) for _ in range(2)) + data[cut:]
    path.write_bytes(data)
    return str(path)


def _fuzz_subtree(rng, base, paths):
    """A replacement for a certificate node: a wrong type, a rational
    string, a large or odd number, or another node of the same document."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(WRONG_TYPES + [-1, 10**40, 1.5, "-0/1", {"x": []}])
    if kind == 1:
        return [_fuzz_rational(rng) for _ in range(rng.randint(0, 5))]
    if kind == 2:
        return copy.deepcopy(_at(base, rng.choice(paths)))
    return f"{rng.randint(-10**6, 10**6)}/{rng.randint(0, 10**6)}"


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def test_cli_contract_fuzz(capsys, tmp_path):
    # Seeded argv for all seven commands, malformed curve tables and oracle
    # files, and certificates with random subtrees replaced.  Every case
    # ends in 0, 1 or 2 without an exception; 0 and 1 leave at most one
    # stderr line, and 2 ends with argparse's error line.
    rng = random.Random(1717)
    cert = tmp_path / "cert.json"
    assert run_cli(capsys, "certify", "1", "1", "2", "--out", str(cert))[0] == 0
    base = json.loads(cert.read_text())
    paths = list(_nodes(base))
    cases = []
    for _ in range(80):
        count = 2 if rng.random() < 0.8 else rng.choice((0, 1, 3))
        cases.append(["member", "--", *(_fuzz_arg(rng) for _ in range(count))])
        count = 3 if rng.random() < 0.8 else rng.choice((0, 2, 4))
        cases.append(["certify", "--", *(_fuzz_arg(rng) for _ in range(count))])
    for _ in range(40):
        for command in ("heights", "rank-ff"):
            argv = [command, "--", _fuzz_arg(rng)]
            if rng.random() < 0.3:
                argv.insert(1, rng.choice(("--markdown", "-x", "1")))
            cases.append(argv)
    for i in range(40):
        rows = [_fuzz_oracle_row(rng) for _ in range(rng.randint(0, 8))]
        oracle = _fuzz_file(rng, tmp_path / f"oracle{i}.txt", rows)
        argv = ["search", str(rng.randint(1, 12)) if rng.random() < 0.9 else _fuzz_arg(rng)]
        if rng.random() < 0.3:
            argv.append("--sweep")
        if rng.random() < 0.8:
            argv += ["--oracle", oracle]
        cases.append(argv)
        rows = [_fuzz_table_row(rng, f"c{rng.randint(1, 60)}") for _ in range(rng.randint(0, 8))]
        table = _fuzz_file(rng, tmp_path / f"table{i}.txt", rows)
        cases.append(["dbfilter", table])
    for i in range(100):
        doc = copy.deepcopy(base)
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            path = rng.choice(paths)
            value = _fuzz_subtree(rng, base, paths)
            if not path:
                doc = value
                continue
            try:
                _at(doc, path[:-1])[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                pass  # an earlier replacement removed this path
        case = tmp_path / f"cert{i}.json"
        case.write_text(json.dumps(doc))
        cases.append(["verify", str(case)])
    cases += [["verify", str(tmp_path)], ["dbfilter", str(tmp_path / "absent")], [], ["nosuch"]]
    for i, row in enumerate(HARD_DB_ROWS):
        table = tmp_path / f"hard{i}.txt"
        table.write_text(row + "\n")
        cases.append(["dbfilter", str(table)])
    codes = {0: 0, 1: 0, 2: 0}
    written = []
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code in codes and "Traceback" not in out + err, argv
        codes[code] += 1
        if argv[:1] == ["certify"] and code == 0:
            written.append((argv, out))
        lines = err.splitlines()
        if code == 2:
            assert lines and lines[-1].startswith("cleanpair") and ": error: " in lines[-1], argv
        else:
            assert len(lines) <= 1, argv
    assert min(codes.values()) > 20, codes
    # whatever certify writes with exit 0, verify reads as OK
    assert written
    for argv, text in written:
        case = tmp_path / "written.json"
        case.write_text(text)
        assert run_cli(capsys, "verify", str(case)) == (0, "OK\n", ""), argv
    # Large numbers: a computed result prints at any size, while what is
    # read stops at CPython's int-to-str limit, named in one short line.
    limit = f"more than {sys.get_int_max_str_digits()} digits"
    code, out, err = run_cli(capsys, "member", "1", "1" + "0" * 1449)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["curve"]["b"]) > sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "member", "1", "1" + "0" * 4999)
    lines = err.splitlines()
    assert (code, out, len(lines)) == (2, "", 2) and lines[0].startswith("usage: ")
    assert ": error: " in lines[1] and limit in lines[1] and len(lines[1]) < 300
    # t of 1,451 digits gives a b of more than 4,300; certify reads its own
    # document back as verify would, so it refuses it and writes nothing
    big = tmp_path / "big.json"
    code, out, err = run_cli(capsys, "certify", "1", "1", "1" + "0" * 1450, "--out", str(big))
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("cannot certify: the certificate would not load: /pair/members/1/b: " + limit)
    assert len(err) < 300 and not big.exists()
    doc = json.loads(CERT_V1_FIXTURE.read_text())
    doc["pair"]["members"][1]["point"][0] = "7" * 10**6 + "/1"
    case = tmp_path / "huge.json"
    case.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", str(case))
    assert time.perf_counter() - start < 1.0
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("malformed certificate: /pair/members/1/point/0: " + limit)
    assert len(err) < 300


def test_cli_usage_errors(capsys):
    assert run_cli(capsys, "nosuch")[0] == 2
    assert run_cli(capsys, "member", "1")[0] == 2
    assert run_cli(capsys, "member", "x", "1")[0] == 2
    assert run_cli(capsys, "search", "0")[0] == 2
    assert run_cli(capsys)[0] == 2
    # a "--" in place of a later positional reaches no handler
    for argv in (("member", "--", "1", "--"), ("certify", "--", "1", "--", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", "cleanpair: error: '--' is not a value")


def test_search_refuses_an_h_above_its_ceiling(capsys, monkeypatch):
    # One past each ceiling ends in exit 2 and one short line that names
    # it, before any enumeration; the sweep's ceiling binds only with --sweep.

    def refuse(*args):
        raise AssertionError("search worked past its ceiling")

    for name in ("enumerate_s1", "convention_sweep"):
        monkeypatch.setattr(searchmod, name, refuse)
    for argv, ceiling in ((["search", "500001"], 500_000), (["search", "2001", "--sweep"], 2_000)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.1, argv
        assert (code, out, len(err.splitlines())) == (2, "", 1), argv
        assert f"at most {ceiling}" in err and len(err) < 300, argv
    monkeypatch.undo()
    assert run_cli(capsys, "search", "2001")[:2] == (0, "H=2001 records=7374 candidates=7371\n")


# Python's int() reads all of these; the documented grammar, -?[0-9]+ with
# an optional /[0-9]+, none of them
OFF_GRAMMAR = ("1_0", "\uff12", "\u0661", " 1_0/1_0 ", "\uff11/\uff12", "\u0663/4", "+5/+7",
               "1/-2", " 3 / 4 ")


def test_numbers_outside_the_grammar_are_refused(capsys, tmp_path):
    doc = json.loads(CERT_V1_FIXTURE.read_text())
    case = tmp_path / "case.json"
    for text in OFF_GRAMMAR:
        argvs = [("member", "1", text), ("certify", text, "1", "2")]
        if "/" not in text:
            argvs.append(("search", text))
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv)
            errors = [line for line in err.splitlines() if "error:" in line]
            assert (code, out, len(errors)) == (2, "", 1), argv
            refusal = "not an integer" if argv[0] == "search" else "not a rational string"
            assert errors[0].endswith(f"{refusal}: {text!r}"), argv
        doc["pair"]["members"][0]["t"] = text
        case.write_text(json.dumps(doc))
        assert run_cli(capsys, "verify", str(case)) == (
            1, "", f"malformed certificate: /pair/members/0/t: not a rational string: {text!r}\n")
    # in the grammar: the canonical forms, and integers for H
    doc["pair"]["members"][0]["t"] = "1/1"
    case.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", str(case)) == (0, "OK\n", "")
    assert run_cli(capsys, "member", "2", "--", "-4/2")[0] == 0
    assert run_cli(capsys, "search", "2")[0] == 0
    code, _, err = run_cli(capsys, "search", "2/1")
    assert (code, err.splitlines()[-1]) == (2, "cleanpair search: error: argument H: not an integer: '2/1'")
    code, _, err = run_cli(capsys, "search", "1" + "0" * 4999)
    limit = f"more than {sys.get_int_max_str_digits()} digits, the limit on integers read"
    assert code == 2 and limit in err.splitlines()[-1] and len(err.splitlines()[-1]) < 300
    # oracle files and curve tables: one short line that names the line
    oracle, table = tmp_path / "oracle.txt", tmp_path / "table.txt"
    for text in ("1_0", "\uff13", "\u0661", "+2", "1 0", "1" + "0" * 4999):
        for row in (f"{text} 1 1", f"1 {text} 1", f"1 1 {text}"):
            oracle.write_text(f"1 1 1\n{row}\n")
            code, out, err = run_cli(capsys, "search", "5", "--oracle", str(oracle))
            assert (code, out, len(err.splitlines())) == (1, "", 1), row
            assert err.startswith("oracle: line 2: ") and len(err) < 300, row
        table.write_text(f"{DB_FIXTURE[0]}\nc2 0 0 0 -3 {text} 1 1 11\n")
        code, out, err = run_cli(capsys, "dbfilter", str(table))
        assert (code, out, len(err.splitlines())) == (1, "", 1), text
        assert err.startswith("database: line 2: ") and len(err) < 300, text
        assert (limit in err) == (len(text) > 4999), text
    assert load_rank_oracle(["1 1 1", "-2 7 ?", "10 3 0"]) == {(1, 1): 1, (-2, 7): None, (10, 3): 0}
    with pytest.raises(ParseError, match="^line 3: negative rank in '10 3 -1'$"):
        load_rank_oracle(["1 1 1", "-2 7 ?", "10 3 -1"])
    oracle.write_text("1 1 -1\n-1 1 -3\n")
    assert run_cli(capsys, "search", "10", "--oracle", str(oracle)) == (
        1, "", "oracle: line 1: negative rank in '1 1 -1'\n")
