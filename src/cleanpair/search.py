"""Integral enumeration of the s = 1 subfamily, plus the data plumbing
around it.

The curves swept here are the fibers of the family at s = 1.  For
t = p/q in lowest terms, rescaling by d = q turns the fiber into the
integral model

    y^2 = (x - pq)^2 (x + 2pq) + 9 p^2 q^4
        = x^3 - 3 (pq)^2 x + (2 p^3 q^3 + 9 p^2 q^4),

whose marked point is (-2pq, -3pq^2).  `enumerate_s1` sweeps one
convention, the survey's: t = p/q in lowest terms, p != 0 of either sign.
One pass builds the SearchRecord of each such t under the cut, carrying
the exact height

    h(t) = max{(3 p^2 q^2)^3, (2 p^3 q^3 + 9 p^2 q^4)^2},

a nonzero-discriminant flag, and a non-torsion flag for the marked
point (a record is a *candidate* when both flags hold), and one stable
sort orders them by height.  Ranks are not computed here: they arrive
from an external oracle file and get attached to records by key.

Torsion over Q is decided by one integer walk, `ec_core._exact_torsion_order`,
which is all `is_torsion_overQ` runs: P, 2P, ... on the integral model, to
the first non-integral multiple.  The enumeration, the convention sweep and
the database filter call it on the ints they already hold.  Every model the
enumeration and the sweep test is the s = 1 fiber at some t with its marked
point, so its reduction mod a prime l depends on t mod l alone: per-prime
grids of (u mod l, v mod l) filled from the verdicts on t mod l
(`_torsion_tables`) refute most points before the walk, a point at a time in
the enumeration and, as a row is periodic in v, a row at a time in the sweep.

The published totals for h(t) <= H^6 (823 at H = 10 up through 74069 at
H = 60) could not be reproduced from the stated height cut under this
convention or any close variant; `convention_sweep` counts the
plausible readings side by side, from that one enumeration and one walk
over integral models, so a mismatch is reported with data instead of
being papered over.  See TABLE_TOTALS and the sweep docstring.

The module also hosts the small-conductor database filter: given a
table of rank-1 curves it keeps those whose short model (A, B) =
(-27 c4, -54 c6), as read, has the shape y^2 = x^3 - 3t^2 x + b, and for
each sign sigma = +-t with b - 2 sigma^3 = y^2 walks (sigma, y) on the
integers A, B to ask whether it has infinite order (the curve then carries a
rational marked point).  No twist reduction is needed: (u^4 A, u^6 B) scales
t by u^2 and keeps each verdict.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from functools import cache
from math import gcd, isqrt
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .ec_core import _REFUTING_PRIMES, _exact_torsion_order, _order_exceeds_mazur_bound
from .exactmath import sqrt_int
from .exactmath.scalars import parse_ints, short_repr

#: Published candidate totals per height bound H; the enumeration
#: convention behind them is unknown (no reading of the height cut we
#: tried reproduces 823 at H = 10; see convention_sweep).  Acceptance
#: check 8 asserts that each total exceeds the most fractions the
#: stated cut can admit, 2 * sum_{q <= m} floor(m / q) with
#: m = isqrt(H^2 // 3), i.e. 20 at H = 10.
TABLE_TOTALS = {10: 823, 20: 4710, 30: 13055, 40: 26828, 50: 46956, 60: 74069}


class ParseError(ValueError):
    """Malformed line in an oracle or database file."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# enumeration


def integral_coefficients(p: int, q: int) -> tuple[int, int]:
    """(a, b) of the integral model y^2 = x^3 + a x + b at t = p/q."""
    return -3 * p * p * q * q, 2 * p**3 * q**3 + 9 * p * p * q**4


class SearchRecord(NamedTuple):
    p: int
    q: int
    height_value: int
    disc_ok: bool
    non_torsion_ok: bool
    rank: Optional[int] = None

    @property
    def is_candidate(self) -> bool:
        return self.disc_ok and self.non_torsion_ok


@cache
def _torsion_tables() -> tuple[tuple[int, tuple[bytes, ...], tuple[int, ...]], ...]:
    """For each refuting prime l, largest first, the byte `grid[u % l][v % l]`:
    1 when P on (u, v) reduces at l to order above the Mazur bound, which proves
    infinite order; and the grid's rows as l-bit ints, bit v for v mod l.

    The model (u, v) is the s = 1 fiber at t = 9u^3/v^2, and over F_l the
    map (u, v) -> (lambda^2 u, lambda^3 v) with lambda = v/(3u) carries
    (tau, 3 tau) and its marked point onto it for tau = t.  So a grid is
    read from the verdicts on (tau, 3 tau), tau mod l, with one inverse
    square per v.  The cells u = 0 (P reduces to (0, v), of order 3),
    v = 0 and tau = -9/4 (bad reduction) read 0.  Built on first use,
    not at import: about 3 ms for the eleven grids (8,219 cells).
    """
    tables = []
    for p in _REFUTING_PRIMES:
        bad = -9 * pow(4, -1, p) % p
        row = [
            tau not in (0, bad)
            and _order_exceeds_mazur_bound(-3 * tau * tau % p, (-2 * tau % p, 3 * tau % p), p)
            for tau in range(p)
        ]
        inverse_squares = [pow(v, -2, p) for v in range(1, p)]
        grid = [bytes(p)]
        for u in range(1, p):
            nine_u3 = 9 * u**3
            grid.append(bytes((0, *(row[nine_u3 * w % p] for w in inverse_squares))))
        tables.append((p, tuple(grid), tuple(sum(b << v for v, b in enumerate(r)) for r in grid)))
    return tuple(tables)


def enumerate_s1(H: int) -> list[SearchRecord]:
    """The SearchRecord of each t = p/q in lowest terms, p != 0 of either
    sign, with h(t) <= H^6, sorted by (height, p, q).

    One pass over p ascending, then q ascending: (3 p^2 q^2)^3 <= H^6
    pins |pq| <= sqrt(H^2 / 3), so inside that bound the first height
    term needs no check, and a pair is inside the cut exactly when the
    second term s = p^2 q^3 (2p + 9q) has |s| <= H^3.  Where 2p + 9q < 0,
    |s| < 2 |pq|^3 < H^3, so only s > H^3 misses, and s grows with q from
    there: the row stops at its first miss.  Each pair kept becomes its
    record at once, and one stable sort by height leaves tied heights in
    (p, q) order.
    """
    if H < 1:
        raise ValueError("H must be a positive integer")
    H3 = H**3
    pq_max = isqrt(H * H // 3)
    tables = _torsion_tables()
    kept = []
    for p in (*range(-pq_max, 0), *range(1, pq_max + 1)):
        for q in range(1, pq_max // abs(p) + 1):
            pq = p * q
            pq2 = pq * pq
            second = pq2 * q * (2 * p + 9 * q)
            if second > H3:
                break
            if gcd(p, q) != 1:
                continue
            first = 3 * pq2
            # 4a^3 + 27b^2 = 243 p^4 q^7 (4p + 9q) for (a, b) = integral_coefficients(p, q)
            disc_ok = 4 * p + 9 * q != 0
            non_torsion = disc_ok
            if disc_ok:
                # the integral model is the (u, v) = (pq, 3pq^2) one, with P negated;
                # the first prime whose grid holds proves infinite order, else the walk
                v = 3 * pq * q
                for ell, grid, _ in tables:
                    if grid[pq % ell][v % ell]:
                        break
                else:
                    non_torsion = _exact_torsion_order(-first, 2 * pq * pq2 + v * v, -2 * pq, v) is None
            cube, square = first * first * first, second * second  # h = max, without a call
            h = cube if cube > square else square
            kept.append(tuple.__new__(SearchRecord, (p, q, h, disc_ok, non_torsion, None)))
    kept.sort(key=itemgetter(2))
    return kept


# ---------------------------------------------------------------------------
# convention sweep
#
# The published totals grow like H^(5/2), which no sweep of reduced
# fractions can produce (those grow like H log H under the stated height
# cut).  The only readings with the right growth enumerate integral
# models y^2 = (x - u)^2 (x + 2u) + v^2 directly, i.e. pairs (u, v)
# rather than reduced fractions; each such model is the d = v/(3u)
# rescaling of the s = 1 fiber at t = 9u^3/v^2.  None of the variants
# below lands on 823 at H = 10 either, so the sweep exists to report the
# deltas rather than to pick a winner.
#
# The eight rows come from two walks, one over reduced fractions and one
# over models; "pairs-any-gcd", "models-v-both" and "models-dedupe-curve"
# are derived from them instead of walked (see convention_sweep for why).


class SweepEntry(NamedTuple):
    name: str
    records: int
    candidates: int
    target: Optional[int]

    @property
    def delta(self) -> Optional[int]:
        return None if self.target is None else self.candidates - self.target


def _sweep_models(H: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(records, candidates) over the models with u != 0, v >= 1 and
    max{(3u^2)^3, (2u^3 + v^2)^2} <= H^6, and over those with gcd(u, v) = 1.
    For fixed u, prime l's verdicts, a bit per v, repeat its l-bit row of u mod l,
    so each row is spread once per call to the n_max bits any u needs.  The OR of
    u's eleven, cut to its n bits, marks the refuted models, and the multiples of
    the primes dividing u mark those sharing a factor with u; bit_count counts."""
    H3 = H**3
    u_max = isqrt(H * H // 3)
    n_max = isqrt(H3 + 2 * u_max**3) + 1  # one bit for each v = 0..V at u = -u_max

    def multiples_of(d: int) -> int:  # bit v set for v = 0, d, 2d, ..., to n_max bits or past
        row, period = 1, d
        while period < n_max:
            row |= row << period
            period *= 2
        return row

    # an l-bit row r repeats as r * multiples_of(l): the copies of r do not overlap
    rows = [(p, [r * ones for r in bits])
            for p, _, bits in _torsion_tables() for ones in [multiples_of(p)]]
    multiples = {}  # each prime d <= au -> multiples_of(d)
    records = candidates = coprime_records = coprime_candidates = 0
    for au in range(1, u_max + 1):
        shared = 0
        for d, row in multiples.items():
            if au % d == 0:
                shared |= row
        if not shared and au > 1:  # no smaller prime divides au
            shared = multiples[au] = multiples_of(au)
        for u in (au, -au):
            four_u3, a, x = 4 * u**3, -3 * u * u, -2 * u  # P = (x, v) on y^2 = x^3 + ax + b
            n = isqrt(H3 - four_u3 // 2) + 1  # one bit for each v = 0..V; 3u^2 <= H^2 keeps 2u^3 < H^3
            mask, infinite = (1 << n) - 1, 0
            for p, residues in rows:
                infinite |= residues[u % p]
            infinite &= mask
            unsettled = bin(infinite ^ mask)[:1:-1]  # character v is bit v
            v = unsettled.find("1", 1)
            while v != -1:  # refuted by no prime: the exact test
                # 4a^3 + 27b^2 = 27 v^2 (4u^3 + v^2), and v >= 1
                if four_u3 + v * v != 0 and _exact_torsion_order(a, 2 * u**3 + v * v, x, v) is None:
                    candidates += 1
                    coprime_candidates += gcd(u, v) == 1
                v = unsettled.find("1", v + 1)
            records += n - 1
            candidates += infinite.bit_count()
            coprime_records += n - (shared & mask | 1).bit_count()
            coprime_candidates += (infinite & ~shared).bit_count()
    return (records, candidates), (coprime_records, coprime_candidates)


def convention_sweep(H: int) -> list[SweepEntry]:
    """Record/candidate counts for each plausible enumeration convention.

    "reduced-both" is the convention of `enumerate_s1`, and the fraction
    rows read its one list: "reduced-positive" keeps the records with
    p > 0 and "integer-t" those with q = 1.  "pairs-any-gcd" counts every
    pair (p, q), p != 0 and q >= 1, of any gcd, and is derived: the pair
    (gp, gq) over a reduced (p, q) has height g^12 h(p/q), as both height
    terms are homogeneous of degree 12 in (p, q), and the same flags, as
    4p + 9q scales by g and its integral model is the (g^2, g^3) rescaling
    of that of (p, q), an isomorphism over Q.  So the row counts, over
    g >= 1, the reduced records with h <= H^6 // g^12, each count a bisect
    of the height-sorted list; h >= 1 makes g^2 <= H the last g to count.

    The "models-*" entries sweep integral models (u, v) with
    max{(3u^2)^3, (2u^3 + v^2)^2} <= H^6 instead of reduced fractions.
    One walk over v >= 1 gives "models-v-positive" and, from its
    gcd(u, v) = 1 part, "models-coprime".  The other two are derived:

    * "models-v-both" is twice "models-v-positive": b = 2u^3 + v^2
      depends only on v^2, and (-2u, -v) is the negative of (-2u, v), so
      both signs of v give the same curve with the same torsion status;
    * "models-dedupe-curve" equals "models-v-positive": for fixed u, b
      determines v > 0, so no two models of the walk share a curve (u, b).
    """
    target = TABLE_TOTALS.get(H)
    reduced = enumerate_s1(H)
    heights = [r.height_value for r in reduced]
    candidate_heights = [r.height_value for r in reduced if r.is_candidate]
    H6 = H**6
    any_gcd = tuple(sum(bisect_right(hs, H6 // g**12) for g in range(1, isqrt(H) + 1))
                    for hs in (heights, candidate_heights))

    def counts(records):
        return len(records), sum(1 for r in records if r.is_candidate)

    positive, coprime = _sweep_models(H)
    rows = [
        ("reduced-both", counts(reduced)),
        ("reduced-positive", counts([r for r in reduced if r.p > 0])),
        ("pairs-any-gcd", any_gcd),
        ("integer-t", counts([r for r in reduced if r.q == 1])),
        ("models-v-positive", positive),
        ("models-v-both", (2 * positive[0], 2 * positive[1])),
        ("models-coprime", coprime),
        ("models-dedupe-curve", positive),
    ]
    return [SweepEntry(name, *counted, target) for name, counted in rows]


def format_sweep(entries: Sequence[SweepEntry]) -> str:
    lines = [f"{'convention':<22} {'records':>8} {'candidates':>10} {'delta':>8}"]
    for e in entries:
        delta = "-" if e.delta is None else f"{e.delta:+d}"
        lines.append(f"{e.name:<22} {e.records:>8} {e.candidates:>10} {delta:>8}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# rank oracle


def load_rank_oracle(lines: Iterable[str]) -> dict[tuple[int, int], Optional[int]]:
    """Parse "p q rank" lines ('#' comments and blank lines allowed), rank a
    nonnegative integer or '?' for unknown; a conflicting duplicate raises."""
    table: dict[tuple[int, int], Optional[int]] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'p q rank', got {short_repr(raw.strip())}", line_no)
        try:
            p, q, rank = parse_ints(parts) if parts[2] != "?" else [*parse_ints(parts[:2]), None]
            if rank is not None and rank < 0:
                raise ValueError("negative rank")
        except ValueError as exc:
            raise ParseError(f"{exc} in {short_repr(raw.strip())}", line_no) from None
        key = (p, q)
        if key in table and table[key] != rank:
            raise ParseError(
                f"conflicting ranks for p={p} q={q}: {table[key]} vs {rank}", line_no
            )
        table[key] = rank
    return table


def attach_ranks(
    records: Sequence[SearchRecord], oracle_lines: Iterable[str]
) -> list[SearchRecord]:
    """Fill in ranks from an oracle file; records without an entry keep
    rank None and land in the '?' bucket."""
    table = load_rank_oracle(oracle_lines)
    out = []
    for rec in records:
        rank = table.get((rec.p, rec.q))
        out.append(rec._replace(rank=rank) if rank is not None else rec)
    return out


# ---------------------------------------------------------------------------
# pairing arithmetic


def pair_counts(n: int) -> tuple[int, int]:
    """(unordered, ordered-without-diagonal) pair counts over n curves."""
    return n * (n - 1) // 2, n * n - n


class PairingSummary(NamedTuple):
    candidate_count: int
    rank_buckets: tuple[tuple[str, int], ...]
    rank_one_count: int
    pair_count_unordered: int
    pair_count_ordered: int


def pairing_summary(records: Sequence[SearchRecord]) -> PairingSummary:
    """Bucket the candidates by rank and count clean pairs over the
    rank-1 bucket (any two distinct rank-1 members pair cleanly)."""
    buckets: dict[Optional[int], int] = {}
    candidates = 0
    for rec in records:
        if not rec.is_candidate:
            continue
        candidates += 1
        buckets[rec.rank] = buckets.get(rec.rank, 0) + 1
    known = sorted(k for k in buckets if k is not None)
    labeled = [(str(k), buckets[k]) for k in known]
    if None in buckets:
        labeled.append(("?", buckets[None]))
    n1 = buckets.get(1, 0)
    unordered, ordered = pair_counts(n1)
    return PairingSummary(candidates, tuple(labeled), n1, unordered, ordered)


# ---------------------------------------------------------------------------
# CSV persistence

_CSV_HEADER = ["p", "q", "height", "disc_ok", "nontorsion_ok", "rank"]
_CSV_FLAGS = ("0", "1")


def records_to_csv(records: Sequence[SearchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in records:
        writer.writerow(
            [
                r.p,
                r.q,
                r.height_value,
                int(r.disc_ok),
                int(r.non_torsion_ok),
                "" if r.rank is None else r.rank,
            ]
        )
    return buf.getvalue()


def records_from_csv(text: str) -> list[SearchRecord]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != _CSV_HEADER:
        raise ParseError(f"expected header {','.join(_CSV_HEADER)}", 1)
    out = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}", line_no)
        p, q, height, disc_ok, non_torsion_ok, rank = row
        try:
            if disc_ok not in _CSV_FLAGS or non_torsion_ok not in _CSV_FLAGS:
                raise ValueError("flags must be 0 or 1")
            nums = parse_ints([p, q, height, rank] if rank else [p, q, height])
            if rank and nums[3] < 0:
                raise ValueError("negative rank")
        except ValueError as exc:
            raise ParseError(f"{exc} in {short_repr(','.join(row))}", line_no) from None
        rank = nums[3] if rank else None
        out.append(SearchRecord(nums[0], nums[1], nums[2], disc_ok == "1", non_torsion_ok == "1", rank))
    return out


# ---------------------------------------------------------------------------
# curve database filter


class CurveDbEntry(NamedTuple):
    label: str
    a_invariants: tuple[int, int, int, int, int]
    rank: int
    torsion_order: int
    conductor: int


def parse_curve_db(lines: Iterable[str]) -> list[CurveDbEntry]:
    """One curve per line: label a1 a2 a3 a4 a6 rank torsionOrder conductor.
    A singular model on a rank-1 row is malformed; the filter reads only
    rank-1 rows, so rows of other ranks are left as given."""
    entries = []
    labels = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 9:
            raise ParseError(f"expected 9 fields, got {len(parts)}", line_no)
        label = parts[0]
        if label in labels:
            raise ParseError(f"duplicate label {short_repr(label)}", line_no)
        labels.add(label)
        try:
            nums = parse_ints(parts[1:])
        except ValueError as exc:
            raise ParseError(f"{exc} in {short_repr(raw.strip())}", line_no) from None
        if nums[5] == 1:
            A, B = _short_model(nums[0:5])
            if 4 * A**3 + 27 * B * B == 0:
                raise ParseError(f"singular curve {short_repr(label)} of rank 1", line_no)
        entries.append(
            CurveDbEntry(label, tuple(nums[0:5]), nums[5], nums[6], nums[7])
        )
    return entries


def _short_model(a_invariants: Sequence[int]) -> tuple[int, int]:
    """Long Weierstrass -> integral short model y^2 = x^3 + Ax + B via the
    standard b2/b4/b6 -> c4/c6 reduction (characteristic 0)."""
    a1, a2, a3, a4, a6 = a_invariants
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    return -27 * c4, -54 * c6


class DbCurveClassification(NamedTuple):
    label: str
    short_a: int  # A = -27 c4 of the model as read, not twist-minimal
    short_b: int  # B = -54 c6 of the same model
    shape: bool  # short_a = -3 t^2 for an integer t
    excluded: bool  # every point at x = sigma with B - 2 sigma^3 a square is torsion
    square_shift: bool  # B - 2 sigma^3 is a square for a usable sign sigma


class DbFilterReport(NamedTuple):
    total_rank_one: int
    shape_count: int
    eligible_count: int
    square_count: int
    shape_labels: tuple[str, ...]
    eligible_labels: tuple[str, ...]
    square_labels: tuple[str, ...]
    excluded_labels: tuple[str, ...]
    square_pairs_unordered: int  # C(n, 2) over the square bucket
    square_pairs_ordered: int  # n^2, the published "256" counts the diagonal
    classifications: tuple[DbCurveClassification, ...]


def _classify_entry(entry: CurveDbEntry) -> DbCurveClassification:
    A, B = _short_model(entry.a_invariants)
    shape_t = 0 if A == 0 else sqrt_int(-A // 3) if A < 0 and A % 3 == 0 else None
    if shape_t is None:
        return DbCurveClassification(entry.label, A, B, False, False, False)
    # Both sign choices present the curve as y^2 = x^3 - 3t^2 x + b.  The
    # point at x = sigma exists when b - 2 sigma^3 = y^2, and sigma is usable
    # when it (equivalently its double at x = -2 sigma) has infinite order.
    signs = (0,) if shape_t == 0 else (shape_t, -shape_t)
    points = [(s, y) for s in signs if (y := sqrt_int(B - 2 * s**3)) is not None]
    usable = any(_exact_torsion_order(A, B, s, y) is None for s, y in points)
    return DbCurveClassification(entry.label, A, B, True, bool(points) and not usable, usable)


def filter_db_family_candidates(db: Sequence[CurveDbEntry]) -> DbFilterReport:
    """Classify the rank-1 entries of a curve table against the family
    shape, preserving the input order (label lists report "first" hits
    in table order).  Points are walked on the integers (A, B) with no
    curve built, so no discriminant is checked: each rank-1 entry must be
    nonsingular, as `parse_curve_db` ensures (on a singular one the walk
    still ends, with a verdict that means nothing)."""
    rank_one = [e for e in db if e.rank == 1]
    classifications = [_classify_entry(e) for e in rank_one]
    shape = [c for c in classifications if c.shape]
    eligible = [c for c in shape if not c.excluded]
    square = [c for c in eligible if c.square_shift]
    excluded = [c for c in shape if c.excluded]
    n = len(square)
    unordered, _ = pair_counts(n)
    return DbFilterReport(
        total_rank_one=len(rank_one),
        shape_count=len(shape),
        eligible_count=len(eligible),
        square_count=n,
        shape_labels=tuple(c.label for c in shape),
        eligible_labels=tuple(c.label for c in eligible),
        square_labels=tuple(c.label for c in square),
        excluded_labels=tuple(c.label for c in excluded),
        square_pairs_unordered=unordered,
        square_pairs_ordered=n * n,
        classifications=tuple(classifications),
    )

