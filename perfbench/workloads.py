"""The three seeded workloads and their output checks.

Each workload turns ``--seed`` into inputs once, up front.  ``units()``
then yields, forever, lists of ``(stage, fn)``: one unit of work whose
stages share state.  ``fn(rec)`` makes its cleanpair calls through
``rec.call`` and raises ``Refused`` for a documented refusal or
``CheckFailed`` when an output is wrong.  The checks never compare the
program with itself on the same input: they use identities the outputs
must satisfy, facts fixed by how the inputs were built, or a second
route through different code.
"""

from __future__ import annotations

import json
import random
import statistics
from fractions import Fraction
from math import gcd, isqrt

from cleanpair.ec_core import add, scalar_mul
from cleanpair.family import make_member, pair_hypothesis
from cleanpair.ffheights import canonical_height, family_functionfield_curve, generic_rank
from cleanpair.kummer_cert import (
    assemble_certificate,
    certificate_dumps,
    certificate_loads,
    verify_certificate,
)
from cleanpair import search


class Refused(Exception):
    """The program declined the input in a documented way."""


class CheckFailed(Exception):
    """An output failed its check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- certs -------------------------------------------------------------------


def good_locus(s: Fraction, t: Fraction) -> bool:
    """Nonzero discriminant, from the closed form
    -432 s w^2 (4 t^3 + w^2 s) with w = 1 - s - 3t."""
    w = 1 - s - 3 * t
    return s != 0 and w != 0 and 4 * t**3 + w * w * s != 0


def small_rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def certs_inputs(seed: int, count: int = 400) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(s, t1, t2) with s = a/b, |a| <= 4, b <= 3 and t = a/b, |a| <= 6,
    b <= 3, both members off the zero-discriminant locus, t1 != t2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = small_rational(rng, 4, 3)
        t1 = small_rational(rng, 6, 3)
        t2 = small_rational(rng, 6, 3)
        if t1 != t2 and good_locus(s, t1) and good_locus(s, t2):
            out.append((s, t1, t2))
    return out


def json_leaves(node, path=()):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from json_leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_leaves(value, path + (i,))
    else:
        yield path, node


_SWAPS = {"+": "-", "-": "+", "Node": "Cusp"}


def tamper_value(value):
    """A different value of the same JSON kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 7
    if value in _SWAPS:
        return _SWAPS[value]
    try:
        x = Fraction(value) + 1
    except (ValueError, ZeroDivisionError):
        return value + "X"
    return f"{x.numerator}/{x.denominator}"


def tampered_document(doc: str, leaf: int) -> tuple[str, str]:
    """The document with leaf number ``leaf`` (mod the leaf count) changed,
    and that leaf's JSON path."""
    data = json.loads(doc)
    leaves = list(json_leaves(data))
    path, value = leaves[leaf % len(leaves)]
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = tamper_value(value)
    return json.dumps(data, indent=2, sort_keys=True), "/".join(map(str, path))


class Certs:
    name = "certs"
    stages = ("certify", "verify", "reject")

    def __init__(self, seed: int, count: int = 400):
        self.pairs = certs_inputs(seed, count)
        self.leaf_start = random.Random(seed ^ 0x5EED).randrange(1 << 16)

    @classmethod
    def warmup(cls, seed: int):
        return cls(seed, count=8)

    def describe(self) -> dict:
        return {"pairs": len(self.pairs), "s": "a/b, |a| <= 4, 1 <= b <= 3",
                "t": "a/b, |a| <= 6, 1 <= b <= 3", "leaf_start": self.leaf_start}

    def report_extra(self, loop, report) -> None:
        pass

    def units(self):
        i = 0
        while True:
            yield self._unit(self.pairs[i % len(self.pairs)], self.leaf_start + i)
            i += 1

    def _unit(self, inputs, leaf):
        s, t1, t2 = inputs
        state = {}

        def certify(rec):
            with rec.call("family", "make_member"):
                m1 = make_member(s, t1)
            with rec.call("family", "make_member"):
                m2 = make_member(s, t2)
            try:
                with rec.call("family", "pair_hypothesis"):
                    pair = pair_hypothesis(m1, m2)
                with rec.call("kummer_cert", "assemble_certificate"):
                    cert = assemble_certificate(pair)
            except (ValueError, ArithmeticError) as exc:
                raise Refused(type(exc).__name__) from exc
            with rec.call("kummer_cert", "certificate_dumps"):
                state["doc"] = certificate_dumps(cert)

        def verify(rec):
            doc = state["doc"]
            with rec.call("kummer_cert", "certificate_loads"):
                cert = certificate_loads(doc)
            with rec.call("kummer_cert", "verify_certificate"):
                result = verify_certificate(cert)
            check(result.ok, f"valid certificate rejected: {result.reasons}")
            with rec.call("kummer_cert", "certificate_dumps", counted=False):
                again = certificate_dumps(cert)
            check(again == doc, "dumps(loads(d)) differs from d")

        def reject(rec):
            text, path = tampered_document(state["doc"], leaf)
            try:
                with rec.call("kummer_cert", "certificate_loads"):
                    cert = certificate_loads(text)
            except (ValueError, KeyError, TypeError, ArithmeticError):
                return
            with rec.call("kummer_cert", "verify_certificate"):
                result = verify_certificate(cert)
            check(not result.ok, f"tampered leaf {path} verified")

        return [("certify", certify), ("verify", verify), ("reject", reject)]


# -- ff-ladder -----------------------------------------------------------------

# Every unit runs the same s, so that the cost does not change with the
# seed: ladders to degree 40 differ by up to 10 % between small s and
# doublings by up to 40 %, and generic_rank times depend on what sympy's
# cache holds, so the rank calls keep one order.  The seed picks the sign
# of P.
LADDER_S = Fraction(2)
SQUARE_S = (Fraction(4), Fraction(9), Fraction(1, 4), Fraction(9, 4))
NONSQUARE_S = (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2))
RANKS = [(Fraction(1), 1)] + [(s, 2) for s in SQUARE_S] + [(s, 1) for s in NONSQUARE_S]


def x_degree(P) -> int:
    return max(P.x.num.degree(), P.x.den.degree())


class FFLadder:
    name = "ff-ladder"
    stages = ("ladder", "doubling", "rank")

    def __init__(self, seed: int, target_degree: int = 40, count: int = 64):
        rng = random.Random(seed)
        self.target_degree = target_degree
        self.max_multiple = 0
        self.negate = [rng.random() < 0.5 for _ in range(count)]

    @classmethod
    def warmup(cls, seed: int):
        return cls(seed, target_degree=4, count=1)

    def describe(self) -> dict:
        return {"target_degree": self.target_degree, "ladder_s": str(LADDER_S),
                "rank_s": [str(s) for s, _ in RANKS]}

    def report_extra(self, loop, report) -> None:
        report["max_multiple"] = self.max_multiple
        print(f"  ladder reached {self.max_multiple}P (x degree >= {self.target_degree})")

    def units(self):
        i = 0
        while True:
            yield self._unit(LADDER_S, self.negate[i % len(self.negate)])
            i += 1

    def _unit(self, s, negate):
        state = {}

        def ladder(rec):
            with rec.call("ffheights", "family_functionfield_curve"):
                E, P = family_functionfield_curve(s)
                W = E.weierstrass()
            if negate:
                P = -P
            with rec.call("ffheights", "canonical_height"):
                h1 = canonical_height(E, P).total
            check(h1 > 0, f"h(P) = {h1} at s = {s}")
            multiples = {1: P}
            Q, n = P, 1
            while x_degree(Q) < self.target_degree:
                n += 1
                with rec.call("ec_core", "add"):
                    Q = add(W, Q, P)
                with rec.call("ffheights", "canonical_height"):
                    h = canonical_height(E, Q).total
                check(h == n * n * h1, f"h({n}P) = {h} != {n * n} h(P) at s = {s}")
                multiples[n] = Q
            state.update(W=W, P=P, multiples=multiples)
            self.max_multiple = n

        def doubling(rec):
            W, multiples = state["W"], state["multiples"]
            Q, n = state["P"], 1
            while 2 * n in multiples:
                with rec.call("ec_core", "scalar_mul"):
                    Q = scalar_mul(W, 2, Q)
                n *= 2
                check(Q == multiples[n], f"2*({n // 2}P) differs from the ladder's {n}P")

        def rank(s_rank, expected):
            def stage(rec):
                with rec.call("ffheights", "generic_rank"):
                    r, evidence = generic_rank(s_rank)
                check(r == expected, f"generic_rank({s_rank}) = {r}, expected {expected}")
                if s_rank == 1:
                    h = evidence.heights["P"]
                    check(h == Fraction(1, 6), f"h(P) = {h} at s = 1, expected 1/6")
            return stage

        return [("ladder", ladder), ("doubling", doubling)] + [
            ("rank", rank(s_rank, expected)) for s_rank, expected in RANKS]


# -- survey --------------------------------------------------------------------


def height_cut(p: int, q: int) -> int:
    """max{(3 p^2 q^2)^3, (2 p^3 q^3 + 9 p^2 q^4)^2}, as documented."""
    return max((3 * p * p * q * q) ** 3, (2 * p**3 * q**3 + 9 * p * p * q**4) ** 2)


def reduced_pairs(H: int) -> set[tuple[int, int]]:
    """Every reduced t = p/q, p != 0, with height <= H^6, found by brute
    force over |p q| <= H / sqrt(3)."""
    out = set()
    bound = isqrt(H * H // 3)
    for q in range(1, bound + 1):
        for ap in range(1, bound // q + 1):
            if gcd(ap, q) == 1:
                for p in (ap, -ap):
                    if height_cut(p, q) <= H**6:
                        out.add((p, q))
    return out


def check_records(records, H: int) -> None:
    keys = [(r.height_value, r.p, r.q) for r in records]
    check(keys == sorted(keys), "records are not sorted by (height, p, q)")
    for r in records:
        check(r.height_value == height_cut(r.p, r.q), f"wrong height for {r.p}/{r.q}")
    got = {(r.p, r.q) for r in records}
    check(len(got) == len(records), "duplicate records")
    check(got == reduced_pairs(H), f"records differ from the reduced pairs under H = {H}")


def nontorsion(A: int, B: int, x: int, y: int) -> bool:
    """Whether (x, y) on y^2 = x^3 + A x + B has infinite order, decided
    by hand: a torsion point of an integral model has integral multiples
    (Nagell-Lutz) and order at most 12 (Mazur)."""
    P = (Fraction(x), Fraction(y))
    Q = P
    for _ in range(12):
        if Q[0] == P[0]:
            if Q[1] != P[1] or Q[1] == 0:
                return False  # Q = -P, so the next multiple is O
            lam = (3 * Q[0] ** 2 + A) / (2 * Q[1])
        else:
            lam = (Q[1] - P[1]) / (Q[0] - P[0])
        x3 = lam * lam - Q[0] - P[0]
        Q = (x3, lam * (P[0] - x3) - P[1])
        if Q[0].denominator != 1 or Q[1].denominator != 1:
            return True
    return True


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


def _short_entry(rng, want_square):
    """(0,0,0,-3t^2,B) with t squarefree, so the model is twist-minimal."""
    while True:
        t = rng.choice([k for k in range(1, 11) if squarefree(k)])
        if want_square:
            sigma = rng.choice((t, -t))
            v = rng.randint(1, 40)
            B = 2 * sigma**3 + v * v
        else:
            B = rng.randint(-2000, 2000)
        if B == 0 or 4 * (-3 * t * t) ** 3 + 27 * B * B == 0:
            continue
        if _square_label(-3 * t * t, B, t) is want_square:
            return (0, 0, 0, -3 * t * t, B), -3 * t * t, B


def _a3_entry(rng, want_square):
    """(0,0,1,-3m^2,a6): short model -48m^2, 16(1 + 4 a6), shape t = 4m."""
    while True:
        m = rng.choice([k for k in range(1, 6) if squarefree(k)])
        if want_square:
            w = 2 * rng.randint(0, 20) + 1
            sign = rng.choice((1, -1))
            a6 = (w * w - 1 + sign * 8 * m**3) // 4
        else:
            a6 = rng.randint(-60, 60)
        A, B = -48 * m * m, 16 * (1 + 4 * a6)
        if 4 * A**3 + 27 * B * B == 0:
            continue
        if _square_label(A, B, 4 * m) is want_square:
            return (0, 0, 1, -3 * m * m, a6), A, B


def _a1_row(a6):
    """(1,0,0,0,a6): short model -27, 54 + 46656 a6, shape t = 3; |B| is
    large although the a-invariants are small."""
    A, B = -27, 54 + 46656 * a6
    return (1, 0, 0, 0, a6), A, B, _square_label(A, B, 3)


def _square_label(A, B, t):
    """True when B - 2 sigma^3 is a square for sigma = t or -t and the
    point (sigma, sqrt) is provably non-torsion; False when neither is a
    square; None when a square point might be torsion (such draws are
    skipped)."""
    label = False
    for sigma in (t, -t):
        v2 = B - 2 * sigma**3
        if v2 >= 0 and isqrt(v2) ** 2 == v2:
            if not nontorsion(A, B, sigma, isqrt(v2)):
                return None
            label = True
    return label


# a6 of the long a1 = 1 rows.  The O(sqrt|Delta|) torsion search makes
# them the most expensive rows of the table, and its cost also depends on
# how many squares divide Delta, so these rows are the same for every seed.
A1_ROWS = (1, -2, 3, -5)


def curve_table(seed: int):
    """Lines in the parse_curve_db format, the expected shape and square
    label lists in table order, the rank-1 count, and |Delta| per label."""
    rng = random.Random(seed)
    rows = []  # (a_invariants, rank, shape, square, A, B)
    for _ in range(6):
        inv, A, B = _short_entry(rng, True)
        rows.append((inv, 1, True, True, A, B))
    for _ in range(4):
        inv, A, B = _short_entry(rng, False)
        rows.append((inv, 1, True, False, A, B))
    for want in (True, True, False, False):
        inv, A, B = _a3_entry(rng, want)
        rows.append((inv, 1, True, want, A, B))
    for a6 in A1_ROWS:
        inv, A, B, label = _a1_row(a6)
        rows.append((inv, 1, True, label, A, B))
    for _ in range(6):
        # positive a4 keeps A = 6^4 a4 / u^4 > 0, so never the shape
        inv = (0, 0, 0, rng.randint(1, 50), rng.randint(-500, 500))
        rows.append((inv, 1, False, False, None, None))
    for rank in (0, 2, 0, 2):
        inv = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
               rng.randint(-50, 50), rng.randint(-500, 500))
        rows.append((inv, rank, False, False, None, None))
    rng.shuffle(rows)
    lines, shape, square, disc = [], [], [], {}
    for i, (inv, rank, is_shape, is_square, A, B) in enumerate(rows):
        label = f"g{seed % 1000}.{i}"
        lines.append(f"{label} {' '.join(map(str, inv))} {rank} 1 {11 + i}")
        if rank == 1 and is_shape:
            shape.append(label)
            disc[label] = abs(16 * (4 * A**3 + 27 * B * B))
            if is_square:
                square.append(label)
    rank_one = sum(1 for row in rows if row[1] == 1)
    return lines, tuple(shape), tuple(square), rank_one, disc


SEARCH_H = 30


def sweep_useful_ratio(rows) -> float:
    """Distinct models over torsion tests run: the four models-* rows each
    test every (u, v) they list once, and models-v-both lists the
    models-v-positive grid with weight 2."""
    got = {e.name: e.records for e in rows}
    positive = got["models-v-positive"]
    tests = positive + got["models-v-both"] // 2 + got["models-coprime"] + got["models-dedupe-curve"]
    return positive / tests


def rank_oracle(seed: int, records) -> tuple[list[str], int]:
    """Seeded 'p q rank' lines for the records, and the number of
    candidates given rank 1."""
    rng = random.Random(seed)
    lines, rank_one = ["# seeded rank oracle"], 0
    for r in records:
        rank = rng.choice(("0", "1", "1", "2", "?"))
        lines.append(f"{r.p} {r.q} {rank}")
        rank_one += rank == "1" and r.is_candidate
    return lines, rank_one


class Survey:
    name = "survey"
    stages = ("search", "enumerate", "dbfilter")

    def __init__(self, seed: int, enumerate_h: int | None = None,
                 search_h: int = SEARCH_H, max_disc: int | None = None):
        rng = random.Random(seed)
        self.seed = seed
        self.search_h = search_h
        self.enumerate_h = enumerate_h or rng.randint(990, 1010)
        table, shape, square, self.rank_one, disc = curve_table(seed)
        if max_disc is not None:
            drop = {label for label, d in disc.items() if d > max_disc}
            table = [line for line in table if line.split()[0] not in drop]
            shape = tuple(x for x in shape if x not in drop)
            square = tuple(x for x in square if x not in drop)
            disc = {k: v for k, v in disc.items() if k not in drop}
            self.rank_one -= len(drop)
        self.table, self.shape, self.square, self.disc = table, shape, square, disc
        self.last_sweep = None

    @classmethod
    def warmup(cls, seed: int):
        return cls(seed, enumerate_h=20, search_h=5, max_disc=10**8)

    def describe(self) -> dict:
        return {"search_h": self.search_h, "enumerate_h": self.enumerate_h,
                "table_rows": len(self.table), "shape_rows": len(self.shape),
                "square_rows": len(self.square),
                "abs_disc_range": [min(self.disc.values()), max(self.disc.values())]}

    def report_extra(self, loop, report) -> None:
        ratio = sweep_useful_ratio(self.last_sweep)
        positive = next(e.records for e in self.last_sweep if e.name == "models-v-positive")
        report["sweep_useful_ratio"] = ratio
        print(f"  sweep_useful_ratio = {ratio:.4f} (H={self.search_h}: "
              f"{positive} distinct models / {round(positive / ratio)} torsion tests)")
        lo, hi = report["inputs"]["abs_disc_range"]
        print(f"  curve table |Delta| range: {lo:.3e} .. {hi:.3e}")
        rate = len(self.table) / statistics.median(loop.samples["dbfilter"])
        report["dbfilter_curves_per_s"] = rate
        print(f"  dbfilter_curves_per_s = {rate:.4f} ({len(self.table)} rows)")
        if not loop.rec.trace:
            return
        # share of the dbfilter stage taken by its two largest-|Delta| rows
        top = sorted(self.disc, key=self.disc.get)[-2:]
        lines = [line for line in self.table if line.split()[0] in top]
        entries = search.parse_curve_db(lines)
        with loop.rec.stage("dbfilter.largest"):
            with loop.rec.call("search", "filter_db_family_candidates") as timer:
                search.filter_db_family_candidates(entries)
        whole = statistics.median(loop.samples["dbfilter"])
        share = timer.elapsed / whole
        report["dbfilter_largest2_share"] = share
        print(f"  dbfilter: the 2 largest-|Delta| rows ({', '.join(top)}) take "
              f"{timer.elapsed:.3f} s of {whole:.3f} s = {100 * share:.1f} %")

    def units(self):
        # the short stages run twice, so that a 20-second run (one unit)
        # has two samples of each
        while True:
            yield [("search", self.search), ("enumerate", self.enumerate),
                   ("dbfilter", self.dbfilter), ("enumerate", self.enumerate),
                   ("dbfilter", self.dbfilter)]

    def search(self, rec):
        """What `cleanpair search H --sweep` does, plus a seeded oracle."""
        H = self.search_h
        with rec.call("search", "enumerate_s1"):
            records = search.enumerate_s1(H)
        oracle, rank_one = rank_oracle(self.seed, records)
        with rec.call("search", "attach_ranks"):
            ranked = search.attach_ranks(records, oracle)
        with rec.call("search", "pairing_summary"):
            summary = search.pairing_summary(ranked)
        with rec.call("search", "csv_roundtrip"):
            back = search.records_from_csv(search.records_to_csv(ranked))
        with rec.call("search", "convention_sweep"):
            rows = search.convention_sweep(H)
            search.format_sweep(rows)
        self.check_search(records, ranked, back, summary, rank_one, rows)
        self.last_sweep = rows

    def check_search(self, records, ranked, back, summary, rank_one, rows):
        H = self.search_h
        check_records(records, H)
        check(back == list(ranked), "CSV round trip changed the records")
        check(summary.rank_one_count == rank_one,
              f"rank-1 bucket {summary.rank_one_count} != {rank_one} from the oracle")
        got = {e.name: (e.records, e.candidates) for e in rows}
        pos = got["models-v-positive"]
        check(got["models-v-both"] == (2 * pos[0], 2 * pos[1]),
              "models-v-both is not twice models-v-positive")
        check(got["models-dedupe-curve"] == pos,
              "models-dedupe-curve differs from models-v-positive")
        candidates = sum(r.is_candidate for r in records)
        check(got["reduced-both"] == (len(records), candidates),
              "reduced-both row differs from enumerate_s1")

    def enumerate(self, rec):
        with rec.call("search", "enumerate_s1"):
            records = search.enumerate_s1(self.enumerate_h)
        check_records(records, self.enumerate_h)

    def dbfilter(self, rec):
        with rec.call("search", "parse_curve_db"):
            entries = search.parse_curve_db(self.table)
        with rec.call("search", "filter_db_family_candidates"):
            report = search.filter_db_family_candidates(entries)
        check(report.total_rank_one == self.rank_one, "rank-1 count differs")
        check(report.shape_labels == self.shape,
              f"shape labels {report.shape_labels} != {self.shape}")
        check(report.square_labels == self.square,
              f"square labels {report.square_labels} != {self.square}")
        check(report.excluded_labels == (), f"excluded {report.excluded_labels}")


WORKLOADS = {cls.name: cls for cls in (Certs, FFLadder, Survey)}
