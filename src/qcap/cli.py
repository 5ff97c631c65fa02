"""Command-line front end.

Subcommands:
    verify      run identity cases over a parameter grid, JSON-lines reports
    series      print a single registered series evaluator
    partitions  counting tables (counts or weighted totals) with match column

Exit codes: 0 success, 1 verification failure, 2 configuration error or
output that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from typing import Callable, Sequence, TextIO

from qcap import identities, partitions
from qcap.identities import Bounds, ParamOutOfRange, Report
from qcap.qcombinat import (
    jtp_product,
    jtp_sum,
    quintuple_product,
    quintuple_sum,
)
from qcap.series import QSeries

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


class OutUnavailable(Exception):
    """The --out path cannot be opened for writing."""


def _open_out(path: str | None) -> TextIO:
    """The --out file, opened before any work so a bad path costs nothing."""
    if not path:
        return sys.stdout
    try:
        return open(path, "w")
    except OSError as exc:
        raise OutUnavailable(f"cannot open --out {path!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# The bounds of `qcap verify`: (flag, Bounds field, least value).  A bound
# below the least f or nu would leave their cases with no instance to check.
_BOUND_FLAGS = (("--L-max", "l_max", 0), ("--M-max", "m_max", 0),
                ("--f-max", "f_max", identities.LEAST["f"]),
                ("--nu-max", "nu_max", identities.LEAST["nu"]), ("--trunc", "trunc", 0))


def _emit(out: TextIO, fmt: str, report: Report) -> None:
    if fmt == "json":
        out.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    else:
        status = "pass" if report.verdict else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
        line = f"{status}  {report.id}  {params}"
        if report.first_mismatch:
            line += f"  mismatch={report.first_mismatch}"
        out.write(line + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all:
        case_ids = sorted(identities.CASES)
    elif args.case:
        case_ids = list(dict.fromkeys(args.case))
        unknown = [c for c in case_ids if c not in identities.CASES]
        if unknown:
            print(f"unknown case id(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"valid ids: {', '.join(sorted(identities.CASES))}",
                  file=sys.stderr)
            return EXIT_CONFIG
    else:
        print("choose --case ID (repeatable) or --all", file=sys.stderr)
        return EXIT_CONFIG

    for flag, field, least in _BOUND_FLAGS:
        if getattr(args, field) < least:
            print(f"{flag} must be >= {least}, got {getattr(args, field)}", file=sys.stderr)
            return EXIT_CONFIG
    if args.s is not None and not 0 <= args.s <= args.f_max:
        print(f"--s must satisfy 0 <= s <= --f-max ({args.f_max}), got {args.s}",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.s is not None and not any("s" in identities.CASES[c].params for c in case_ids):
        print("--s: no selected case takes a twist s", file=sys.stderr)
        return EXIT_CONFIG

    bounds = Bounds(s=args.s, **{field: getattr(args, field) for _, field, _ in _BOUND_FLAGS})

    out = _open_out(args.out)
    try:
        start = time.perf_counter()
        reports = identities.verify_grid(case_ids, bounds)
        elapsed_ms = (time.perf_counter() - start) * 1000.0

        if args.format == "text":
            out.write(f"# cases={len(case_ids)} instances={len(reports)} "
                      f"bounds: L<={bounds.l_max} M<={bounds.m_max} "
                      f"f<={bounds.f_max} nu<={bounds.nu_max} "
                      f"trunc={bounds.trunc}\n")
        for report in reports:
            _emit(out, args.format, report)
        failed = sum(1 for r in reports if not r.verdict)
        summary = {
            "summary": {
                "cases": len(case_ids),
                "instances": len(reports),
                "failed": failed,
                "verdict": failed == 0,
            },
            "timing": {"total_millis": elapsed_ms},
        }
        if args.format == "json":
            out.write(json.dumps(summary, sort_keys=True) + "\n")
        else:
            out.write(f"# {len(reports) - failed}/{len(reports)} passed "
                      f"({elapsed_ms:.0f} ms)\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK if failed == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

_CLASSICAL: dict[str, Callable[[int, int], QSeries]] = {
    "sum:jtp": jtp_sum,
    "product:jtp": jtp_product,
    "sum:quintuple": quintuple_sum,
    "product:quintuple": quintuple_product,
}


# The parameter flags of `qcap series`: each is --name, but n is --trunc.
_SERIES_FLAGS = {"L": "L", "M": "M", "f": "f", "s": "s", "nu": "nu", "k": "k", "b": "b", "n": "trunc"}


def _series_params(args: argparse.Namespace, owner: str, names: Sequence[str]) -> dict:
    """owner's parameters from their flags; a flag for none of them is an error."""
    params = {}
    for name, dest in _SERIES_FLAGS.items():
        value = getattr(args, dest)
        if name in names:
            if value is None:
                raise ParamOutOfRange(f"missing flag --{dest} for parameter {name!r}")
            params[name] = value
        elif value is not None:
            raise ParamOutOfRange(f"{owner}: no parameter takes the flag --{dest}")
    return params


def cmd_series(args: argparse.Namespace) -> int:
    expr = args.expr
    if expr in _CLASSICAL:
        n = _series_params(args, expr, ("n",))["n"]
        flag, _, least = next(row for row in _BOUND_FLAGS if row[1] == "trunc")
        if n < least:
            raise ParamOutOfRange(f"{flag} must be >= {least}, got {n}")
        print(_CLASSICAL[expr](args.z_shift, n).to_text())
        return EXIT_OK
    side, _, case_id = expr.partition(":")
    case = identities.CASES.get(case_id)
    if case is None or not side:
        print(f"unknown series id {expr!r}; use side:case_id with case_id in: "
              f"{', '.join(sorted(identities.CASES))} "
              f"or one of: {', '.join(sorted(_CLASSICAL))}", file=sys.stderr)
        return EXIT_CONFIG
    fn = dict(case.sides).get(side)
    if fn is None:
        names = ", ".join(name for name, _ in case.sides)
        print(f"case {case_id!r} has sides: {names}", file=sys.stderr)
        return EXIT_CONFIG
    if args.z_shift:
        raise ParamOutOfRange(f"{case_id}: no parameter takes the flag --z-shift")
    params = _series_params(args, case_id, case.params)
    identities.check_params(case, params)
    print(fn(**params).to_text())
    return EXIT_OK


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def cmd_partitions(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        print(f"--n-max must be >= 0, got {args.n_max}", file=sys.stderr)
        return EXIT_CONFIG
    out = _open_out(args.out)
    mismatch = False
    try:
        writer = csv.writer(out)
        if args.sub == "counts":
            writer.writerow(["n", f"C_{args.m}", f"D_{args.m}", "match"])
            rows = zip(partitions.count_c(args.m, args.n_max),
                       partitions.count_d(args.m, args.n_max))
        else:
            writer.writerow(["n", "lhs", "rhs", "match"])
            rows = partitions.weighted_sum(args.theorem, args.n_max)
        for n, (left, right) in enumerate(rows):
            writer.writerow([n, left, right, left == right])
            mismatch |= left != right
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_FAIL if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # built on the first main call, then reused; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    defaults = Bounds()
    p_verify.add_argument("--case", action="append",
                          help="case id (repeatable)")
    p_verify.add_argument("--all", action="store_true")
    for flag, field, _ in _BOUND_FLAGS:
        p_verify.add_argument(flag, dest=field, type=int, default=getattr(defaults, field))
    p_verify.add_argument("--s", type=int, default=None,
                          help="fix the twist (default: all 0..f)")
    p_verify.add_argument("--out")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.set_defaults(fn=cmd_verify)

    p_series = sub.add_parser("series", help="print a registered series")
    p_series.add_argument("expr", help="side:case_id or e.g. product:jtp")
    for dest in _SERIES_FLAGS.values():
        p_series.add_argument(f"--{dest}", dest=dest, type=int, default=None)
    p_series.add_argument("--z-shift", dest="z_shift", type=int, default=0)
    p_series.set_defaults(fn=cmd_series)

    p_part = sub.add_parser("partitions", help="counting tables")
    part_sub = p_part.add_subparsers(dest="sub", required=True)
    p_counts = part_sub.add_parser("counts")
    p_counts.add_argument("--m", type=int, choices=(1, 2), required=True)
    p_counts.add_argument("--n-max", dest="n_max", type=int, default=40)
    p_counts.add_argument("--out")
    p_counts.set_defaults(fn=cmd_partitions)
    p_weighted = part_sub.add_parser("weighted")
    p_weighted.add_argument("--theorem", choices=("W1", "W2", "W3"),
                            required=True)
    p_weighted.add_argument("--n-max", dest="n_max", type=int, default=25)
    p_weighted.add_argument("--out")
    p_weighted.set_defaults(fn=cmd_partitions)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a write that cannot land fails here, not at exit
        return code
    except (ParamOutOfRange, OutUnavailable) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # stdout or --out cannot take the output: its reader is gone, or its
        # device is full
        try:
            sys.stdout.flush()
        except OSError:
            # what stdout still holds would fail again at exit: devnull takes it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write the output: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
