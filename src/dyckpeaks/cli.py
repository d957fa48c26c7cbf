"""Command-line front end.

Subcommands: ``series`` (generating-function coefficients), ``count`` (one
exact count by any of three methods), ``table`` (a full count table),
``bijection`` (apply a path rewrite), ``cfrac`` (evaluate a JSON weight
spec), and ``verify`` (the full cross-validation report).

Exit codes: 0 success, 1 usage or input error, 2 verification failure (a
failed ``verify`` report, an internal check raising ``InvariantError``, or a
counting series with a fractional coefficient raising ``NonIntegralError``).
A reader that closes stdout early (``| head``) gives exit code 1 and no stderr.
JSON output renders counts and coefficients as decimal strings so arbitrary
precision survives any JSON reader.

Counts of any size print. CPython (3.10.7 and later) refuses to convert an
int of more than ``sys.int_info.default_max_str_digits`` (4300) digits to a
string, and Catalan-size counts pass that near n = 7150. :func:`main` lifts
the cap for the duration of one command and restores the caller's value
after it; importing the package leaves the cap alone.
"""

from __future__ import annotations

import argparse
import os
import sys

from .gfcount import stat_gf
from .paths import (
    DEFAULT_ENUM_GUARD,
    METHODS,
    CountTable,
    StatKind,
    _check_count_args,
    _check_guard,
    build_table,
    count_exact_dp,
    count_exact_enum,
    parse_path,
    psi,
    statistics,
    theta_forward,
)
from .series import BivarSeries, InvariantError, NonIntegralError, Series

FORMATS = ("plain", "csv", "json")


def _print_json(doc: object) -> None:
    import json  # only JSON output needs it, so no other command loads it
    print(json.dumps(doc, indent=2))


def _format_series(series: Series, fmt: str) -> None:
    coeffs = list(map(str, series.coeffs))
    if fmt == "plain":
        print(",".join(coeffs))
    elif fmt == "csv":
        sys.stdout.write("n,coefficient\n")
        sys.stdout.writelines(f"{n},{c}\n" for n, c in enumerate(coeffs))
    else:
        _print_json({"order": series.order, "coefficients": coeffs})


def _format_bivar(bv: BivarSeries, fmt: str) -> None:
    entries = [list(map(str, entry.coeffs)) for entry in bv.entries]
    if fmt == "plain":
        print("\n".join(f"z^{j}: " + ",".join(coeffs) for j, coeffs in enumerate(entries)))
    elif fmt == "csv":
        sys.stdout.write("z,n,coefficient\n")
        sys.stdout.writelines(f"{j},{n},{c}\n" for j, coeffs in enumerate(entries) for n, c in enumerate(coeffs))
    else:
        _print_json({"z_order": bv.z_order, "x_order": bv.x_order, "entries": entries})


def _format_table(table: CountTable, fmt: str) -> None:
    """The cells in the table's order, one string per (n, k) pair of rows
    (:meth:`CountTable.row_pairs`): a 40 x 5 table is hundreds of kilobytes
    of text, and only one pair's is held at once. A cell is its pair's head,
    r, its kind's text, its count and a tail."""
    if fmt == "json":  # the layout of json.dumps(..., indent=2), counts as decimal strings
        head = ',\n    {{\n      "n": {},\n      "k": {},\n      "r": '
        text, tail = ',\n      "kind": "{}",\n      "count": "', '"\n    }'
        opening, closing = '{\n  "entries": [', "\n  ]\n}\n"
    else:
        sep = "," if fmt == "csv" else " "
        head, text, tail = f"{{}}{sep}{{}}{sep}", f"{sep}{{}}{sep}", "\n"
        opening, closing = "n,k,r,kind,count\n" if fmt == "csv" else "", ""
    peak, valley = text.format(StatKind.PEAK.value), text.format(StatKind.VALLEY.value)

    def pair(n: int, k: int, peaks: list[int], valleys: list[int]) -> str:
        pre = head.format(n, k)
        cells = enumerate(zip(peaks, valleys))
        return "".join(f"{pre}{r}{peak}{p}{tail}{pre}{r}{valley}{v}{tail}" for r, (p, v) in cells)

    pairs = (pair(*rows) for rows in table.row_pairs())
    sys.stdout.write(opening + next(pairs, "").lstrip(","))  # only a JSON entry begins with a comma
    sys.stdout.writelines(pairs)
    sys.stdout.write(closing)


def _profile_dict(path) -> dict:
    profile = statistics(path)
    return {
        "path": path.to_text(),
        "peaks": {str(h): profile.peaks_by_height[h] for h in sorted(profile.peaks_by_height)},
        "valleys": {str(h): profile.valleys_by_height[h] for h in sorted(profile.valleys_by_height)},
        "max_height": profile.max_height,
    }


def _profile_lines(label: str, path) -> list[str]:
    info = _profile_dict(path)
    peaks = " ".join(f"{h}:{c}" for h, c in info["peaks"].items()) or "-"
    valleys = " ".join(f"{h}:{c}" for h, c in info["valleys"].items()) or "-"
    return [
        f"{label}: {info['path'] or '(empty)'}",
        f"  peaks by height:   {peaks}",
        f"  valleys by height: {valleys}",
    ]


def _cmd_series(args) -> int:
    _format_series(stat_gf(StatKind(args.stat), args.k, args.r, args.order), args.format)
    return 0


def _cmd_count(args) -> int:
    kind = StatKind(args.stat)
    _check_count_args(args.n, args.k, args.r, kind)
    _check_guard(0, args.enum_guard)  # refuses a negative guard under every method
    if args.method == "enum":
        count = count_exact_enum(args.n, args.k, args.r, kind, guard=args.enum_guard)
    elif args.method == "dp":
        count = count_exact_dp(args.n, args.k, args.r, kind)
    else:
        series = stat_gf(kind, args.k, args.r, args.n)
        count = series.as_integer_sequence()[args.n]
    print(count)
    return 0


def _cmd_table(args) -> int:
    _format_table(build_table(args.n_max, args.k_max, args.method, guard=args.enum_guard), args.format)
    return 0


def _cmd_bijection(args) -> int:
    path = parse_path(args.path)
    if args.map == "psi":
        if args.k is None:
            raise ValueError("--map psi requires --k")
        image = psi(path, args.k)
    else:
        image = theta_forward(path)
    if args.format == "json":
        doc = {
            "input": _profile_dict(path),
            "output": _profile_dict(image) if image is not None else None,
        }
        _print_json(doc)
        return 0
    lines = _profile_lines("input", path)
    if image is None:
        lines.append("output: none (empty path has no outer arch)")
    else:
        lines.extend(_profile_lines("output", image))
    print("\n".join(lines))
    return 0


def _cmd_cfrac(args) -> int:
    from .cfrac import rv_cfrac, weight_spec_from_json

    with open(args.spec, "r", encoding="utf-8") as handle:
        text = handle.read()
    spec = weight_spec_from_json(text, args.order, args.z_order)
    _format_bivar(rv_cfrac(spec, args.order, args.z_order), args.format)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify

    # the parser sets no defaults: run_verify's signature is their one home
    report = run_verify(**{k: v for k, v in vars(args).items() if k not in ("command", "func")})
    print(report.text(), end="")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckpeaks",
        description="Exact counts of Dyck-path peaks and valleys at a fixed height.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stat_choices = [kind.value for kind in StatKind]

    def add_format(p, choices=FORMATS):
        p.add_argument("--format", choices=choices, default="plain", help="output format")

    def add_method(p):
        p.add_argument("--method", choices=METHODS, default="dp")
        p.add_argument("--enum-guard", type=int, default=DEFAULT_ENUM_GUARD)

    p = sub.add_parser("series", help="print generating-function coefficients")
    p.add_argument("--stat", choices=stat_choices, required=True)
    p.add_argument("--k", type=int, required=True, help="height of the statistic")
    p.add_argument("--r", type=int, required=True, help="exact number of occurrences")
    p.add_argument("--order", type=int, default=30, help="truncation order (default 30)")
    add_format(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("count", help="print one exact count")
    p.add_argument("--stat", choices=stat_choices, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="semilength")
    add_method(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="emit a full count table")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    add_method(p)
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("bijection", help="apply a statistic-preserving rewrite")
    p.add_argument("--map", choices=("psi", "theta"), required=True)
    p.add_argument("--k", type=int, help="height parameter (psi only)")
    p.add_argument("--path", required=True, help="path text over U/D")
    add_format(p, choices=("plain", "json"))
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("cfrac", help="evaluate a weighted continued fraction")
    p.add_argument("--spec", required=True, help="JSON weight-spec file")
    p.add_argument("--order", type=int, default=30, help="x truncation order")
    p.add_argument("--z-order", type=int, default=0, help="z truncation order")
    add_format(p)
    p.set_defaults(func=_cmd_cfrac)

    p = sub.add_parser("verify", help="run the cross-validation report", argument_default=argparse.SUPPRESS)
    p.add_argument("--n-max", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--r-max", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--enum-guard", type=int, dest="guard", metavar="ENUM_GUARD")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    capped = hasattr(sys, "set_int_max_str_digits")  # CPython >= 3.10.7
    if capped:
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe: the exit's flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (InvariantError, NonIntegralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if capped:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
