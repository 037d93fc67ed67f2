"""Command-line surface.

Subcommands:

    member s t            report whether (s, t) is a good parameter pair
    certify s t1 t2       emit a clean-pair certificate as JSON
    verify cert.json      recheck a certificate from scratch
    heights s             per-place local heights of the marked section
    rank-ff s             generic rank over Q(T) with its evidence
    search H              enumerate s = 1 members with h <= H^6 (H <= 500000),
                          t = p/q in lowest terms, p != 0 of either sign
    dbfilter file         classify a rank-1 curve table against the family shape

A negative fraction such as -4/3 reads as an option, so put "--" before
the first one: ``cleanpair member 1 -- -4/3``.

Exit codes: 0 success, 1 verification or data failure, 2 usage error.
All output is deterministic: JSON is emitted with sorted keys and no
timestamps, so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath.scalars import parse_ints, parse_rational, rational_to_str


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        (value,) = parse_ints([text])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError("H must be >= 1")
    return value


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fail(message: str, code: int = 1) -> int:
    print(message, file=sys.stderr)
    return code


def _write_file(path: str, text: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        return _fail(f"cannot write: {exc}")
    return 0


# ---------------------------------------------------------------------------
# handlers; each imports the module it runs, so a command loads no other


def _cmd_member(args) -> int:
    from .family import make_member

    member = make_member(args.s, args.t)
    _emit_json(
        {
            "s": rational_to_str(member.s),
            "t": rational_to_str(member.t),
            "in_u": member.in_u,
            "failure": None if member.failure_reason is None else member.failure_reason.value,
            "curve": {
                "a": rational_to_str(member.curve.a),
                "b": rational_to_str(member.curve.b),
            },
            "marked_point": {
                "x": rational_to_str(member.marked_point.x),
                "y": rational_to_str(member.marked_point.y),
            },
        }
    )
    return 0


def _cmd_certify(args) -> int:
    from .family import make_member, pair_hypothesis
    from .kummer_cert import assemble_certificate, certificate_dumps, certificate_loads

    left = make_member(args.s, args.t1)
    right = make_member(args.s, args.t2)
    try:
        pair = pair_hypothesis(left, right)
        cert = assemble_certificate(pair)
    except (ValueError, ArithmeticError) as exc:
        return _fail(f"cannot certify: {exc}")
    text = certificate_dumps(cert)
    try:
        # what certify writes is exactly what verify can read
        certificate_loads(text)
    except ValueError as exc:
        return _fail(f"cannot certify: the certificate would not load: {exc}")
    if args.out:
        return _write_file(args.out, text + "\n")
    print(text)
    return 0


def _cmd_verify(args) -> int:
    from .kummer_cert import certificate_loads, verify_certificate

    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            cert = certificate_loads(handle.read())
    except OSError as exc:
        return _fail(f"cannot read certificate: {exc}")
    except (ValueError, RecursionError) as exc:
        return _fail(f"malformed certificate: {exc}")
    result = verify_certificate(cert)
    if result.ok:
        print("OK")
        return 0
    for reason in result.reasons:
        print(f"FAIL: {reason}")
    return 1


def _cmd_heights(args) -> int:
    from .ffheights import (
        bad_places, canonical_height, family_functionfield_curve, shioda_tate_rank,
    )

    try:
        curve, point = family_functionfield_curve(args.s)
        report = canonical_height(curve, point)
        table = report.to_table_json()
        table["s"] = rational_to_str(Fraction(args.s))
        table["shioda_tate_bound"] = shioda_tate_rank(bad_places(curve))
    except (ValueError, ArithmeticError) as exc:
        return _fail(str(exc))
    if args.markdown:
        print("| place | val Delta | reduction | local height |")
        print("|---|---|---|---|")
        for place, val, red, lam in zip(
            table["places"], table["val_delta"], table["reduction"], table["local_heights"]
        ):
            print(f"| {place} | {val} | {red} | {lam} |")
        print(f"| total |  |  | {table['total']} |")
    else:
        _emit_json(table)
    return 0


def _cmd_rank_ff(args) -> int:
    from .ffheights import generic_rank

    try:
        rank, evidence = generic_rank(args.s)
    except (ValueError, ArithmeticError) as exc:
        return _fail(str(exc))
    _emit_json(
        {
            "s": rational_to_str(Fraction(args.s)),
            "rank": rank,
            "shioda_tate_bound": evidence.shioda_tate_bound,
            "heights": {
                name: rational_to_str(value) for name, value in evidence.heights.items()
            },
            "orthogonal": evidence.orthogonal,
            "galois_action": evidence.galois_action,
            "note": evidence.note,
        }
    )
    return 0


def _cmd_search(args) -> int:
    # the largest H taken: 2,849,650 records, 510 MB peak RSS; with --sweep,
    # 1.2 to 1.9 s at 27 MB on 2 vCPUs (Python 3.11), most of it the model sweep
    ceiling = 2_000 if args.sweep else 500_000
    if args.H > ceiling:
        sweep = " with --sweep" if args.sweep else ""
        return _fail(f"cleanpair search: error: H must be at most {ceiling}{sweep}", 2)
    from . import search as searchmod

    records = searchmod.enumerate_s1(args.H)
    if args.oracle:
        try:
            with open(args.oracle, "r", encoding="utf-8") as handle:
                records = searchmod.attach_ranks(records, handle)
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(f"cannot read oracle: {exc}")
        except searchmod.ParseError as exc:
            return _fail(f"oracle: {exc}")
    if args.csv and _write_file(args.csv, searchmod.records_to_csv(records)):
        return 1
    summary = searchmod.pairing_summary(records)
    print(f"H={args.H} records={len(records)} candidates={summary.candidate_count}")
    target = searchmod.TABLE_TOTALS.get(args.H)
    if target is not None:
        print(f"published_total={target} delta={summary.candidate_count - target:+d}")
    if args.oracle:
        for label, count in summary.rank_buckets:
            print(f"rank {label}: {count}")
        print(
            f"rank-1 pairs: unordered={summary.pair_count_unordered}"
            f" ordered={summary.pair_count_ordered}"
        )
    # each published total exceeds the most fractions the height cut admits
    # at its H (acceptance check 8), so a published H always mismatches
    if args.sweep or target is not None:
        if target is not None:
            print(
                "candidate count differs from the published total;"
                " running the convention sweep:"
            )
        print(searchmod.format_sweep(searchmod.convention_sweep(args.H)))
    return 0


def _cmd_dbfilter(args) -> int:
    from . import search as searchmod

    try:
        with open(args.database, "r", encoding="utf-8") as handle:
            entries = searchmod.parse_curve_db(handle)
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read database: {exc}")
    except searchmod.ParseError as exc:
        return _fail(f"database: {exc}")
    report = searchmod.filter_db_family_candidates(entries)
    _emit_json(
        {
            "rank_one_entries": report.total_rank_one,
            "shape_count": report.shape_count,
            "eligible_count": report.eligible_count,
            "square_count": report.square_count,
            "shape_labels": list(report.shape_labels),
            "eligible_labels": list(report.eligible_labels),
            "square_labels": list(report.square_labels),
            "excluded_labels": list(report.excluded_labels),
            "square_pairs_unordered": report.square_pairs_unordered,
            "square_pairs_ordered": report.square_pairs_ordered,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleanpair",
        description="clean-pair certificates and surveys for a rank-1 curve family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_member = sub.add_parser("member", help="membership report for a parameter pair")
    p_member.add_argument("s", type=_rational_arg)
    p_member.add_argument("t", type=_rational_arg)
    p_member.set_defaults(func=_cmd_member)

    p_certify = sub.add_parser("certify", help="emit a clean-pair certificate")
    p_certify.add_argument("s", type=_rational_arg)
    p_certify.add_argument("t1", type=_rational_arg)
    p_certify.add_argument("t2", type=_rational_arg)
    p_certify.add_argument("--out", help="write the certificate here instead of stdout")
    p_certify.set_defaults(func=_cmd_certify)

    p_verify = sub.add_parser("verify", help="recheck a certificate from scratch")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=_cmd_verify)

    p_heights = sub.add_parser("heights", help="local height table of the marked section")
    p_heights.add_argument("s", type=_rational_arg)
    p_heights.add_argument("--markdown", action="store_true")
    p_heights.set_defaults(func=_cmd_heights)

    p_rank = sub.add_parser("rank-ff", help="generic rank over Q(T) with evidence")
    p_rank.add_argument("s", type=_rational_arg)
    p_rank.set_defaults(func=_cmd_rank_ff)

    p_search = sub.add_parser("search", help="enumerate integral s = 1 members")
    p_search.add_argument("H", type=_positive_int)
    p_search.add_argument("--oracle", help="rank oracle file with 'p q rank' lines")
    p_search.add_argument("--csv", help="write records to this CSV file")
    p_search.add_argument("--sweep", action="store_true", help="print the convention sweep (H <= 2000)")
    p_search.set_defaults(func=_cmd_search)

    p_db = sub.add_parser("dbfilter", help="classify a curve table against the family")
    p_db.add_argument("database")
    p_db.set_defaults(func=_cmd_dbfilter)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():
            # argparse before 3.13 drops a "--" that stands for a later
            # positional and stores [] without calling its type
            parser.error("'--' is not a value")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; silence the
        # interpreter's shutdown flush and report the conventional code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
