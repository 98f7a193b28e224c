"""Command-line surface: evaluate, verify, report extrema, scan, export.

    oddsum eval <fn> <n>              one exact value (fn in the dispatch set)
    oddsum verify <id|all> [...]      run theorem checkers, exit 0 iff all pass
    oddsum extremal <m>               extrema of g on the block I_m
    oddsum scan g-below <p/q> <bound> all n <= bound with g(n) < p/q
    oddsum cesaro <f> <n>             weighted mean and its limit
    oddsum table <fns> <from> <to>    bulk rows, one column per function

Every command takes --format plain|json|csv and --decimal N (N
significant digits, round-half-even; exact p/q strings otherwise).
--decimal N costs about one integer division at the value's width and
prints what Decimal division at precision N prints; N beyond
DECIMAL_DIGITS_CAP exits 3 before any work.  main() builds its
parser on the first call and every later call in the process reuses it;
build_parser() still returns a fresh one.
Arguments are decimal or 0b-prefixed binary.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 resource cap exceeded.  The
interpreter's int/str digit limit (sys.get_int_max_str_digits()) is one
such cap: a decimal argument, an echoed argument or an exact value
beyond it exits 3 and names the way round it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from . import sums, verify
from .bitcore import (
    ResourceLimitError,
    digit_limit_error,
    format_rational,
    hat,
    parse_rational,
    str_digit_limit,
    tilde,
)
from .deviations import dev_g_closed, dev_u_closed, dev_v, h_eval
from .extremal import LAMBDA_M_CAP, argmax_g, lambda_m, scan_g_below, theta
from .sums import alpha, g_fast, u_fast, v_fast

__all__ = ["DECIMAL_DIGITS_CAP", "main", "parse_nat"]

# --decimal N refuses a larger N.  N costs mostly the memory of its
# output, about 2.3 bytes a digit: `eval v 13` peaks at 19 MB for 10**6
# digits (0.01 s) and 86 MB for 3 * 10**7 (0.17 s).  A million digits is
# three times the width of lambda_m at LAMBDA_M_CAP, the widest value
# eval makes from a small argument.
DECIMAL_DIGITS_CAP = 10**6

EVAL_FUNCTIONS = {
    "alpha": alpha,
    "V": v_fast,
    "U": u_fast,
    "G": g_fast,
    "v": dev_v,
    "u": dev_u_closed,
    "g": dev_g_closed,
    "h": h_eval,
    "theta": theta,
    "hat": hat,
    "tilde": tilde,
    "lambda_m": lambda_m,
}

# 12 significant digits of (2/3) ln 2, the one irrational limit on offer
_IRRATIONAL_LIMITS = {"inv1px": "0.462098120373"}


def parse_nat(text: str) -> int:
    """A natural number, written in decimal or with a 0b binary prefix.

    Raises ResourceLimitError, which argparse passes through, for a
    decimal numeral longer than the interpreter's digit limit.
    """
    t = text.strip()
    binary = t[:2].lower() == "0b"
    try:
        value = int(t, 2 if binary else 10)
    except ValueError:
        digits = t.lstrip("+-").replace("_", "")
        limit = str_digit_limit()
        if not binary and digits.isdecimal() and limit and len(digits) > limit:
            raise digit_limit_error(
                "the decimal argument", "write it in binary with the 0b prefix"
            ) from None
        raise ValueError(f"not a natural number: {text!r}") from None
    if value < 0:
        raise ValueError(f"negative argument: {text!r}")
    return value


# floor(log10(2) * 10**17), a shade below log10(2): k * _LOG10_2 // 10**17 - 1
# stays at or below k * log10(2) for every bit count k an int can have
_LOG10_2 = 30102999566398119


def _decimal_str(value: Fraction, digits: int) -> str:
    """str(Decimal(p) / Decimal(q)) at prec=digits, ROUND_HALF_EVEN, byte for byte.

    Turning an int into a Decimal is quadratic in its digits.  When p or
    q is wider than the digits asked for, one integer division first
    yields a quotient of digits+1 to digits+3 digits and only that
    coefficient becomes a Decimal.  An inexact quotient gets a sticky
    digit 1, which rounds to any precision up to its own length as the
    exact value would; an exact one sheds trailing zeros toward exponent
    0, the ideal exponent of a division of integers.  Narrower operands
    cost no more to convert than that quotient, so they are divided as
    Decimals.
    """
    with localcontext() as ctx:
        ctx.prec = digits  # ValueError below 1, as the division gave
        ctx.rounding = ROUND_HALF_EVEN
        p, q = value.numerator, value.denominator
        magnitude = abs(p)
        # 10/3 bits a digit, a shade over log2(10)
        if 3 * max(magnitude.bit_length(), q.bit_length()) <= 10 * digits:
            return str(Decimal(p) / Decimal(q))
        # magnitude/q > 2**k >= 10**(digits - shift): the quotient reaches 10**digits
        k = magnitude.bit_length() - q.bit_length() - 1
        shift = digits - (k * _LOG10_2 // 10**17 - 1)
        if shift >= 0:
            coefficient, rest = divmod(magnitude * 10**shift, q)
        else:
            coefficient, rest = divmod(magnitude, q * 10**-shift)
        exponent = -shift
        if rest:
            coefficient, exponent = 10 * coefficient + 1, exponent - 1
        else:
            while exponent < 0 and coefficient % 10 == 0:
                coefficient //= 10
                exponent += 1
        if p < 0:
            coefficient = -coefficient
        # Decimal(int) and a (sign, digits, exponent) tuple are exact and never
        # pass through str(int), so a coefficient past the digit limit is fine
        result = ctx.multiply(Decimal(coefficient), Decimal((0, (1,), exponent)))
    return str(result)


def _render(value: Fraction | int, decimal_digits: int | None) -> str:
    if decimal_digits is not None:
        return _decimal_str(Fraction(value), decimal_digits)
    try:
        return format_rational(value)
    except ValueError:  # str() of an int beyond the digit limit
        raise digit_limit_error(
            "the exact value", "print N significant digits with --decimal N"
        ) from None


def _check_printable(n: int, remedy: str, what: str = "the argument") -> None:
    """Fail before any work if n, printed in decimal, breaks the digit limit."""
    limit = str_digit_limit()
    # below 2**(3 * limit) < 10**limit a bit count settles it
    if limit and n.bit_length() > 3 * limit and n >= 10**limit:
        raise digit_limit_error(what, remedy)


_ECHO_REMEDY = (
    "json and csv output repeat it in decimal; use --format plain, adding"
    " --decimal N if the value is as wide"
)


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _cmd_eval(args) -> int:
    if args.format != "plain":
        _check_printable(args.n, _ECHO_REMEDY)
    value = EVAL_FUNCTIONS[args.function](args.n)
    rendered = _render(value, args.decimal)
    if args.format == "json":
        print(json.dumps({"function": args.function, "n": args.n, "value": rendered}))
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["function", "n", "value"])
        writer.writerow([args.function, args.n, rendered])
    else:
        print(rendered)
    return 0


def _cmd_verify(args) -> int:
    if args.theorem != "all" and args.theorem not in verify.THEOREM_IDS:
        raise ValueError(
            f"unknown theorem id {args.theorem!r};"
            f" valid ids: {', '.join(verify.THEOREM_IDS)} or 'all'"
        )
    config = verify.RangeConfig(
        max_n=args.max_n,
        max_m=args.max_m,
        max_r=args.max_r,
        max_p=args.max_p,
        random_big_trials=args.trials,
        random_bits=args.bits,
        seed=args.seed,
    )
    ids = verify.THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    writer = None
    if args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["theorem", "status", "checked", "counterexample"])
    all_pass = True
    for theorem in ids:
        report = verify.check(theorem, config)
        all_pass = all_pass and report.status == "pass"
        if args.format == "json":
            print(json.dumps(report.record()))
        elif args.format == "csv":
            ce = report.counterexample
            detail = ce.detail() if ce is not None else ""
            writer.writerow([report.theorem, report.status, report.checked_count, detail])
        else:
            print(report.line())
        sys.stdout.flush()
    return 0 if all_pass else 1


def _cmd_extremal(args) -> int:
    # the points print in decimal, the widest being 2**(m+1) - 1; an m
    # past LAMBDA_M_CAP is argmax_g's to refuse, without building it
    if args.m <= LAMBDA_M_CAP:
        _check_printable(
            (2 << args.m) - 1,
            "the points always print in decimal; python -X int_max_str_digits=N"
            " or PYTHONINTMAXSTRDIGITS=N raises the limit",
            what="the largest extremal point",
        )
    report = argmax_g(args.m)
    min_value = _render(report.min_value, args.decimal)
    max_value = _render(report.max_value, args.decimal)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "m": report.m,
                    "min_value": min_value,
                    "min_points": list(report.min_points),
                    "max_value": max_value,
                    "max_points": list(report.max_points),
                    "degenerate": report.degenerate,
                }
            )
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(
            ["m", "min_value", "min_points", "max_value", "max_points", "degenerate"]
        )
        writer.writerow(
            [
                report.m,
                min_value,
                ";".join(map(str, report.min_points)),
                max_value,
                ";".join(map(str, report.max_points)),
                report.degenerate,
            ]
        )
    else:
        min_at = ",".join(map(str, report.min_points))
        max_at = ",".join(map(str, report.max_points))
        print(f"min {min_value} at {min_at}; max {max_value} at {max_at}")
    return 0


def _cmd_scan(args) -> int:
    matches = scan_g_below(args.threshold, args.bound)
    if args.format == "json":
        print(json.dumps(matches))
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["n"])
        for n in matches:
            writer.writerow([n])
    else:
        print(" ".join(map(str, matches)))
    return 0


def _cmd_cesaro(args) -> int:
    if args.format != "plain":
        _check_printable(args.n, _ECHO_REMEDY)
    mean = sums.cesaro_mean(args.function, args.n)
    exact_limit = sums.cesaro_limit(args.function)
    if exact_limit is not None:
        limit = _render(exact_limit, args.decimal)
    else:
        limit = _IRRATIONAL_LIMITS[args.function]
    rendered = _render(mean, args.decimal)
    if args.format == "json":
        print(
            json.dumps(
                {"function": args.function, "n": args.n, "mean": rendered, "limit": limit}
            )
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["function", "n", "mean", "limit"])
        writer.writerow([args.function, args.n, rendered, limit])
    else:
        print(f"mean {rendered} limit {limit}")
    return 0


def _cmd_table(args) -> int:
    names = [name.strip() for name in args.functions.split(",")]
    for name in names:
        if name not in EVAL_FUNCTIONS:
            raise ValueError(
                f"unknown function {name!r}; valid: {', '.join(EVAL_FUNCTIONS)}"
            )
    if args.start > args.stop:
        raise ValueError(f"inverted range: {args.start} > {args.stop}")
    if args.stop - args.start > sums.DEFAULT_BRUTE_CAP:
        raise ResourceLimitError(
            f"range of {args.stop - args.start + 1} rows exceeds the scan cap"
            f" {sums.DEFAULT_BRUTE_CAP}"
        )
    _check_printable(args.stop, "every table row prints n in decimal")
    rows = (
        (n, [_render(EVAL_FUNCTIONS[name](n), args.decimal) for name in names])
        for n in range(args.start, args.stop + 1)
    )
    if args.format == "json":
        records = [{"n": n} | dict(zip(names, values)) for n, values in rows]
        print(json.dumps(records))
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["n"] + names)
        for n, values in rows:
            writer.writerow([n] + values)
    else:
        for n, values in rows:
            print(" ".join([str(n)] + values))
    return 0


def _late(name: str):
    """An argparse type that calls this module's `name` when it parses.

    The parser main() shares outlives any one call, so a replacement for
    cli.parse_nat or cli.parse_rational must be looked up at parse time.
    The function's name keeps argparse's "invalid parse_nat value" text.
    """

    def convert(text: str):
        return globals()[name](text)

    convert.__name__ = name
    return convert


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the oddsum command line."""
    nat = _late("parse_nat")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain",
        help="output format (default plain)",
    )
    shared.add_argument(
        "--decimal", type=int, default=None, metavar="N",
        help="render rationals with N significant digits instead of p/q",
    )

    parser = argparse.ArgumentParser(
        prog="oddsum",
        description="Exact partial sums of the largest-odd-divisor function"
        " and their sharp-bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate one function")
    p_eval.add_argument("function", choices=tuple(EVAL_FUNCTIONS))
    p_eval.add_argument("n", type=nat)
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify", parents=[shared], help="run theorem checkers")
    p_verify.add_argument("theorem", help="a theorem id or 'all'")
    p_verify.add_argument("--max-n", type=nat, default=verify.RangeConfig.max_n)
    p_verify.add_argument("--max-m", type=nat, default=verify.RangeConfig.max_m)
    p_verify.add_argument("--max-r", type=nat, default=verify.RangeConfig.max_r)
    p_verify.add_argument("--max-p", type=nat, default=verify.RangeConfig.max_p)
    p_verify.add_argument(
        "--trials", type=nat, default=verify.RangeConfig.random_big_trials
    )
    p_verify.add_argument(
        "--bits", type=nat, default=verify.RangeConfig.random_bits
    )
    p_verify.add_argument("--seed", type=int, default=verify.RangeConfig.seed)
    p_verify.set_defaults(handler=_cmd_verify)

    p_extremal = sub.add_parser(
        "extremal", parents=[shared], help="extrema of g on a block I_m"
    )
    p_extremal.add_argument("m", type=nat)
    p_extremal.set_defaults(handler=_cmd_extremal)

    p_scan = sub.add_parser("scan", parents=[shared], help="threshold scans")
    p_scan.add_argument("predicate", choices=("g-below",))
    p_scan.add_argument("threshold", type=_late("parse_rational"))
    p_scan.add_argument("bound", type=nat)
    p_scan.set_defaults(handler=_cmd_scan)

    p_cesaro = sub.add_parser(
        "cesaro", parents=[shared], help="weighted mean against its limit"
    )
    p_cesaro.add_argument("function", choices=sums.CESARO_FUNCTIONS)
    p_cesaro.add_argument("n", type=nat)
    p_cesaro.set_defaults(handler=_cmd_cesaro)

    p_table = sub.add_parser("table", parents=[shared], help="bulk value export")
    p_table.add_argument("functions", help="comma-separated function names")
    p_table.add_argument("start", type=nat, metavar="from")
    p_table.add_argument("stop", type=nat, metavar="to")
    p_table.set_defaults(handler=_cmd_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call in this process shares, built on the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        if args.decimal is not None and args.decimal > DECIMAL_DIGITS_CAP:
            raise ResourceLimitError(
                f"--decimal {args.decimal} asks for more than {DECIMAL_DIGITS_CAP}"
                " significant digits (oddsum.cli.DECIMAL_DIGITS_CAP)"
            )
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DomainError is a ValueError: usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
