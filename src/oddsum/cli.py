"""Command-line surface: evaluate, verify, report extrema, scan, export.

    oddsum eval <fn> <n>              one exact value (fn in the dispatch set)
    oddsum verify <id|all> [...]      run theorem checkers, exit 0 iff all pass
    oddsum extremal <m>               extrema of g on the block I_m
    oddsum scan g-below <p/q> <bound> all n <= bound with g(n) < p/q
    oddsum cesaro <f> <n>             weighted mean and its limit
    oddsum table <fns> <from> <to>    bulk rows, one column per function

Every command takes --format plain|json|csv and --decimal N (N
significant digits, round-half-even; exact p/q strings otherwise).
One emitter writes every format: csv is a header line, then a line per
row; json is an object per line, or one array for table and scan.  Rows
stream out as computed: table and scan read a deviations.Kernel's column over
windows of up to 4096 n, and table reduces and renders the exact cells of
a window column 64 at a time, through bitcore.dyadic_pairs.  One writer cuts
every table, json array and scan line into pieces of about 8 KB, with the
table's cells joined by " " or ","; the rows before a cell past the digit
limit still print.
--decimal N prints what Decimal division at precision N prints, from
operands cut to about 4N bits, or converted to Decimal by halves when N
is large; N beyond DECIMAL_DIGITS_CAP exits 3, and N below 1 exits 2,
before any work.  main() builds its parser on the first call and every
later call in the process reuses it; build_parser() still returns a
fresh one.
Arguments are decimal or 0b-prefixed binary.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 resource cap exceeded, 141
(128 + SIGPIPE) when the reader closes stdout early.  The
interpreter's int/str digit limit (sys.get_int_max_str_digits()) is one
such cap: a decimal argument, an echoed argument or an exact value
beyond it exits 3 and names the way round it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from decimal import Inexact, localcontext
from fractions import Fraction
from itertools import repeat

from . import deviations, extremal, sums, verify
from .bitcore import (
    ResourceLimitError,
    check_cap,
    digit_limit_error,
    dyadic_pairs,
    dyadic_third,
    format_rational,
    hat,
    parse_rational,
    str_digit_limit,
    tilde,
)
from .deviations import Kernel, _windows, dev_g_closed, dev_u_closed, dev_v, h_eval
from .extremal import _g_below_windows, argmax_g, lambda_m, theta
from .sums import alpha, g_fast, u_fast, v_fast

__all__ = ["DECIMAL_DIGITS_CAP", "main", "parse_nat"]

# --decimal N refuses a larger N.  N costs mostly the memory of its
# output, about 2.3 bytes a digit: `eval v 13` peaks at 19 MB for 10**6
# digits (0.01 s) and 86 MB for 3 * 10**7 (0.17 s).  A million digits is
# three times the width of lambda_m at LAMBDA_M_CAP, the widest value eval
# makes from a small argument: 0.9 s there, 0.6 s at 400,000 digits.
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

# about the most characters in one piece of _pieces' output: 2**16 raised the
# peak memory of a 2**14-row csv table by about 2 MB, and a cap of 64 items a
# piece slowed a dense json scan by about 10 %
_PIECE_CHARS = 1 << 13

# the exact cells of a window column reduced and rendered at a time: chunks of
# 256 or 4096 cells raised the peak memory of a 2**14-row table by 1 to 5 MB
_CHUNK = 64

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


def _to_decimal(n: int, power=None) -> Decimal:
    """Decimal(n) exactly; from 16,386 bits, where Decimal(int) is quadratic in
    the digits, by halves joined by one multiply-add on a cached power of two
    (94 ms at 10**6 bits, against 128 uncached and 1.7 s whole)."""
    half = n.bit_length() >> 1
    if half <= 1 << 13:
        return Decimal(n)
    power = power or functools.cache(lambda k: Decimal(2) ** k)
    with localcontext(Context(MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        low = _to_decimal(n & ((1 << half) - 1), power)
        return _to_decimal(n >> half, power) * power(half) + low


def _quotient(a: int, b: int, shift: int, bits: int) -> tuple[int, int]:
    """floor(a * 10**shift / b) for a, b >= 1, one wider than `bits`, and a
    remainder, 0 iff exact; given as 1 when a, b and 10**|shift| cut to `bits`
    bits put the quotient between two bounds with one floor, the lower not an
    integer, else divided at full width."""
    def cut(lo: int, hi: int, e: int = 0) -> tuple[int, int, int]:  # [lo, hi] * 2**e
        drop = max(hi.bit_length() - bits, 0)
        return lo >> drop, -(-hi >> drop), e + drop

    s, lo, hi, e = abs(shift), 1, 1, 0
    for digit in map(int, bin(s)[2:]):  # floor and ceiling chains to 5**s
        lo, hi, e = cut(lo * lo * 5**digit, hi * hi * 5**digit, 2 * e)
    (a_lo, a_hi, da), (b_lo, b_hi, db) = cut(a, a), cut(b, b)
    if shift >= 0:  # 10**s = 5**s * 2**s
        a_lo, a_hi, z = a_lo * lo, a_hi * hi, da - db + e + s
    else:
        b_lo, b_hi, z = b_lo * lo, b_hi * hi, da - db - e - s
    # a_lo * 2**z / b_hi <= a * 10**shift / b <= a_hi * 2**z / b_lo
    up, down = max(z, 0), max(-z, 0)
    quotient, rest = divmod(a_lo << up, b_hi << down)
    if rest and a_hi << up < (quotient + 1) * (b_lo << down):
        return quotient, 1
    return divmod(a * 10**s, b) if shift >= 0 else divmod(a, b * 10**s)


def _decimal_str(value: Fraction, digits: int) -> str:
    """str(Decimal(p) / Decimal(q)) at prec=digits, ROUND_HALF_EVEN, byte for byte.

    Operands no wider than twice the cut width 4 * digits + 96 bits are divided as
    Decimals (cut, 2.7 s against 0.3 for lambda_m(2**20) at 400,000 digits), p / 2**k
    to no more digits than it has (4 against 540 us for 11/4 at 10**6 digits), and an
    integer is rounded (23 against 36 ms divided, 300,000 bits at 40,000 digits).
    Wider, _quotient yields digits+1 to digits+3 digits from operands cut to that
    width (0.05 against 180 ms divided, lambda_m(2**20) at 10 digits).  An inexact
    one gets a sticky digit 1, rounding as the exact value would at any precision up
    to its length; an exact one sheds trailing zeros toward the ideal exponent 0.
    """
    with localcontext() as ctx:
        ctx.prec = digits  # ValueError below 1, as the division gave
        ctx.rounding = ROUND_HALF_EVEN
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN  # every value a kernel returns
        p, q = value.numerator, value.denominator
        magnitude, cut = abs(p), 4 * digits + 96
        if 2 * cut >= max(magnitude.bit_length(), q.bit_length()):
            if q == 1:
                return str(ctx.plus(_to_decimal(p)))
            if q & (q - 1) == 0:  # p / 2**k ends within bits(p) + k digits
                ctx.prec = min(digits, magnitude.bit_length() + q.bit_length())
            return str(_to_decimal(p) / _to_decimal(q))
        # magnitude/q > 2**k >= 10**(digits - shift): the quotient reaches 10**digits
        k = magnitude.bit_length() - q.bit_length() - 1
        shift = digits - (k * _LOG10_2 // 10**17 - 1)
        coefficient, rest = _quotient(magnitude, q, shift, cut)
        exponent = -shift
        if rest:
            coefficient, exponent = 10 * coefficient + 1, exponent - 1
        else:
            while exponent < 0 and coefficient % 10 == 0:
                coefficient //= 10
                exponent += 1
        # _to_decimal and a (sign, digits, exponent) tuple are exact and never
        # pass through str(int), so a coefficient past the digit limit is fine
        scale = Decimal((int(p < 0), (1,), exponent))  # -1 or 1 times 10**exponent
        return str(ctx.multiply(_to_decimal(coefficient), scale))


def _render(value: Fraction | int, decimal_digits: int | None) -> str:
    if decimal_digits is not None:
        return _decimal_str(Fraction(value), decimal_digits)
    try:
        return format_rational(value)
    except ValueError:  # str() of an int beyond the digit limit
        raise digit_limit_error("the exact value", _EXACT_REMEDY) from None


def _exact(p: int, q: int) -> str:
    """p/q, given in lowest terms, as format_rational prints it."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # str() of an int beyond the digit limit
        raise digit_limit_error("the exact value", _EXACT_REMEDY) from None


def _exact_chunks(pairs):
    """Lists of the rendered cells of (num, den) pairs, den 1 or 3 * 2**e,
    _CHUNK cells a list; a chunk with a cell past the digit limit comes
    lazily through _exact, so that the cells before that one still print."""
    pairs = iter(pairs)
    while chunk := dyadic_pairs(itertools.islice(pairs, _CHUNK)):
        try:
            cells = [str(p) if q == 1 else f"{p}/{q}" for p, q in chunk]
        except ValueError:  # str() of an int beyond the digit limit
            cells = itertools.starmap(_exact, chunk)
        yield cells


def _cells(pairs, decimal_digits: int | None):
    """The rendered cells of (num, den) pairs, den 1 or 3 * 2**e."""
    if decimal_digits is None:
        return itertools.chain.from_iterable(_exact_chunks(pairs))
    values = (p if q == 1 else dyadic_third(p, q) for p, q in pairs)
    return map(_render, values, repeat(decimal_digits))


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
_EXACT_REMEDY = "print N significant digits with --decimal N"


def _emit(args, columns, rows, lines, items=None, text_rows=None) -> None:
    """Print one command's output in args.format; no other code reads it.

    csv: the header `columns`, then `rows`.  plain: `lines`, newlines
    included.  json: `items`, each row as an object over `columns` unless
    given; one array for table and scan, else one object per line.
    text_rows, given by table alone, stands for `rows` in csv and for
    `lines`: rows of str cells, each written as its cells joined by "," or
    " ", the csv header leading the first piece.  A table cell is an
    integer, a p/q or a Decimal string and a column a key of
    EVAL_FUNCTIONS, so none needs csv's quotes, and the joined line is what
    csv.writer writes.  rows, lines, items and text_rows may be lazy views
    of one computation: only one is read.
    """
    if items is None:
        items = (dict(zip(columns, row)) for row in rows)
    if text_rows is not None and args.format != "json":
        # each row joined as it is read, so that zip reuses its row tuple
        lines = map(("," if args.format == "csv" else " ").join, text_rows)
        header = ",".join(columns) + "\n" if args.format == "csv" else ""
        sys.stdout.writelines(_pieces(lines, "\n".join, header, "\n", "\n"))
    elif args.format == "plain":
        sys.stdout.writelines(lines)
    elif args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            itertools.chain([columns], rows)
        )
    elif args.command not in ("table", "scan"):
        sys.stdout.writelines(json.dumps(item) + "\n" for item in items)
    else:  # the bytes of json.dumps(list(items))
        encode = lambda chunk: json.dumps(chunk)[1:-1]  # noqa: E731
        sys.stdout.writelines(_pieces(items, encode, "[", ", ", "]\n"))


def _pieces(items, encode, opening: str, separator: str, closing: str):
    """opening, encode(chunk) for chunks of 1, 2, 4, ... items, fewer where a
    piece would pass about _PIECE_CHARS characters, joined by separator, and
    closing; the items pulled before one that raises go out before the error."""
    items, started, size = iter(items), False, 1
    while True:
        lead, chunk = separator if started else opening, []
        try:  # list.extend keeps the items it appended before an error
            chunk.extend(itertools.islice(items, size))
        except Exception:
            if chunk:
                yield lead + encode(chunk)
            raise
        if not chunk:
            yield closing if started else opening + closing
            return
        text = encode(chunk)
        yield lead + text
        started, size = True, max(1, min(2 * size, size * _PIECE_CHARS // len(text)))


def _cmd_eval(args) -> int:
    if args.format != "plain":
        _check_printable(args.n, _ECHO_REMEDY)
    value = _render(EVAL_FUNCTIONS[args.function](args.n), args.decimal)
    row, line = (args.function, args.n, value), value + "\n"
    _emit(args, ("function", "n", "value"), [row], [line])
    return 0


def _cmd_verify(args) -> int:
    if args.theorem != "all" and args.theorem not in verify.THEOREM_IDS:
        raise ValueError(
            f"unknown theorem id {args.theorem!r};"
            f" valid ids: {', '.join(verify.THEOREM_IDS)} or 'all'"
        )
    config = verify.RangeConfig(
        max_n=args.max_n, max_m=args.max_m, max_r=args.max_r, max_p=args.max_p,
        random_big_trials=args.trials, random_bits=args.bits, seed=args.seed,
    )  # fmt: skip
    done = []

    def check(theorem):
        sys.stdout.flush()  # the reports so far show while this checker runs
        done.append(verify.check(theorem, config))
        return done[-1]

    ids = verify.THEOREM_IDS if args.theorem == "all" else [args.theorem]
    reports = map(check, ids)
    _emit(
        args,
        ("theorem", "status", "checked", "counterexample"),
        (
            (r.theorem, r.status, r.checked_count,
             r.counterexample.detail() if r.counterexample is not None else "")
            for r in reports
        ),
        (r.line() + "\n" for r in reports),
        (r.record() for r in reports),
    )  # fmt: skip
    return 0 if all(r.status == "pass" for r in done) else 1


def _cmd_extremal(args) -> int:
    check_cap("m", args.m, extremal.__name__, "LAMBDA_M_CAP")
    # the points print in decimal, the widest being 2**(m+1) - 1
    _check_printable(
        (2 << args.m) - 1,
        "the points always print in decimal; python -X int_max_str_digits=N"
        " or PYTHONINTMAXSTRDIGITS=N raises the limit",
        what="the largest extremal point",
    )
    report = argmax_g(args.m)
    low, high = (_render(v, args.decimal) for v in (report.min_value, report.max_value))
    record = asdict(report) | {"min_value": low, "max_value": high}
    at = [",".join(map(str, p)) for p in (report.min_points, report.max_points)]
    row = (report.m, low, at[0].replace(",", ";"), high, at[1].replace(",", ";"))
    line = f"min {low} at {at[0]}; max {high} at {at[1]}\n"
    _emit(args, tuple(record), [row + (report.degenerate,)], [line], [record])
    return 0


def _cmd_scan(args) -> int:
    found = itertools.chain.from_iterable(_g_below_windows(args.threshold, args.bound))
    line = _pieces(map(str, found), " ".join, "", " ", "\n")
    _emit(args, ("n",), ((n,) for n in found), line, found)
    return 0


def _check_inv1px_printable(n: int) -> None:
    """Refuse, before summing, an exact inv1px mean too wide to print: an odd prime
    with one multiple in [n+1, 2n] divides one denominator alone, so the mean's."""
    if n <= sums.CESARO_INV1PX_CAP:  # past it cesaro_mean refuses n at once
        sieve = bytearray([1]) * (2 * n + 1)
        for p in range(2, math.isqrt(2 * n) + 1):
            sieve[p * p :: p] = bytes(len(range(p * p, 2 * n + 1, p)))
        odd = range(3, 2 * n + 1, 2)
        primes = math.prod(p for p in odd if sieve[p] and 2 * n // p - n // p == 1)
        _check_printable(primes, _EXACT_REMEDY, "the exact value")


def _cmd_cesaro(args) -> int:
    if args.format != "plain":
        _check_printable(args.n, _ECHO_REMEDY)
    if args.function == "inv1px" and args.decimal is None:
        _check_inv1px_printable(args.n)
    mean = _render(sums.cesaro_mean(args.function, args.n), args.decimal)
    exact = sums.cesaro_limit(args.function)  # None where _IRRATIONAL_LIMITS has it
    limit = _IRRATIONAL_LIMITS.get(args.function) or _render(exact, args.decimal)
    row, line = (args.function, args.n, mean, limit), f"mean {mean} limit {limit}\n"
    _emit(args, ("function", "n", "mean", "limit"), [row], [line])
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
    sums._check_brute_cap("the range to - from", args.stop - args.start)
    count = args.stop - args.start + 1
    # no more cells than a table of distinct functions asks for at the row cap
    cells = len(EVAL_FUNCTIONS) * (sums.DEFAULT_BRUTE_CAP + 1)
    if count * len(names) > cells:
        raise ResourceLimitError(
            f"{count} rows of {len(names)} columns exceed {cells} cells"
            f" ({len(EVAL_FUNCTIONS)} x (oddsum.sums.DEFAULT_BRUTE_CAP + 1))"
        )
    if "lambda_m" in names:  # eval's refusal, before any row
        check_cap("m", args.stop, extremal.__name__, "LAMBDA_M_CAP")
    _check_printable(args.stop, "every table row prints n in decimal")
    functions = [EVAL_FUNCTIONS[name] for name in names]
    windowed = any(isinstance(function, Kernel) for function in functions)

    def window(lo: int, hi: int, label):
        """Rows lo..hi, lo = hi = 0 or inside one block, rendered as read,
        each led by label(n)."""
        ns, kernels = range(lo, hi + 1), lo and windowed and deviations._Window(lo, hi)
        return zip(map(label, ns), *(
            _cells(function.column(kernels), args.decimal)
            if kernels and isinstance(function, Kernel)
            else map(_render, map(function, ns), repeat(args.decimal))
            for function in functions
        ))  # fmt: skip

    def rows(label):
        bounds = _windows(args.start, args.stop)
        return itertools.chain.from_iterable(window(lo, hi, label) for lo, hi in bounds)

    _emit(args, ["n"] + names, rows(int), None, text_rows=rows(str))
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
        if args.decimal is not None and args.decimal < 1:
            raise ValueError(f"--decimal {args.decimal}: N must be at least 1")
        check_cap("--decimal N", args.decimal or 0, __name__, "DECIMAL_DIGITS_CAP")
        return args.handler(args)
    except BrokenPipeError:
        # the reader left: what is still buffered, and the last flush, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DomainError is a ValueError: usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
