"""The benchmark's workloads: the oddsum CLI calls one pass makes, and the
checks their output must pass.

Every call goes through oddsum.cli.main with stdout captured; only that
call is timed.  The first output of each call is checked in full
against evaluators the CLI does not use; a repeat of the call must
reproduce that output byte for byte.  A non-zero exit, an exception or
a mismatch counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Callable

import hostspeed
from oddsum import cli, deviations, verify

FUNCTIONS = ("V", "U", "G", "v", "u", "g", "h")
# Significant digits of eval output wider than Sizes.exact_max_bits.
DECIMAL_DIGITS = 30

# Independent evaluators: none of them is what cli.EVAL_FUNCTIONS calls
# for the same name.
REFERENCE = {
    "V": lambda n: Fraction(2 * n, 3) + deviations.dev_v(n),
    "U": lambda n: Fraction(n * n + n, 3) - deviations.dev_u_closed(n),
    "G": lambda n: Fraction(n * (n + 2), 3) - deviations.dev_g(n),
    "v": deviations.dev_v_recur,
    "u": deviations.dev_u_closed,
    "g": deviations.dev_g_digit,
    # h(n) = 3 u(2n) / 2 with u from the recurrence, which never calls h_eval
    "h": lambda n: 3 * deviations.dev_u(2 * n) / 2,
}


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; the self-test shrinks all of it."""

    # `verify all` at the default range takes about 30 s, more than one
    # run can afford, so the scan range and the trial count are smaller.
    verify: verify.RangeConfig = verify.RangeConfig(
        max_n=1 << 13, random_big_trials=200
    )
    widths: tuple[tuple[str, int], ...] = (("1k", 1024), ("4k", 4096), ("16k", 16384))
    # Wider values exceed the int->str digit limit in exact form, so
    # wider arguments are printed with --decimal.
    exact_max_bits: int = 4096
    table_rows: int = 1 << 14
    trace_repeats: tuple[int, ...] = (20, 5, 1)  # eval calls per width, traced
    setup_children: int = 11
    min_passes: int = 3


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Callable[[str], bool]  # verdict on the stdout of a zero exit


def workload_names(sizes: Sizes) -> list[str]:
    return ["verify-all"] + [f"eval-{label}" for label, _ in sizes.widths] + ["table-sweep"]


def calls_for(workload: str, sizes: Sizes, seed: int) -> list[Call]:
    """One pass of the workload, with its inputs drawn from seed."""
    if workload == "verify-all":
        return verify_calls(sizes, seed)
    if workload == "table-sweep":
        return table_calls(sizes, seed)
    if workload.startswith("eval-"):
        return eval_calls(sizes, workload.removeprefix("eval-"), seed)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ verify-all


def verify_config(sizes: Sizes, seed: int) -> verify.RangeConfig:
    return replace(sizes.verify, seed=seed)


def verify_calls(sizes: Sizes, seed: int) -> list[Call]:
    config = verify_config(sizes, seed)
    argv = (
        "verify", "all", "--format", "json",
        "--max-n", str(config.max_n),
        "--max-m", str(config.max_m),
        "--max-r", str(config.max_r),
        "--max-p", str(config.max_p),
        "--trials", str(config.random_big_trials),
        "--bits", str(config.random_bits),
        "--seed", str(config.seed),
    )  # fmt: skip
    return [Call(argv, lambda out: verify_output_ok(config, out))]


def verify_output_ok(config: verify.RangeConfig, out: str) -> bool:
    """Every checker in order, each passing over exactly this range."""
    try:
        records = [json.loads(line) for line in out.splitlines()]
        return [r["theorem"] for r in records] == list(verify.THEOREM_IDS) and all(
            r["status"] == "pass"
            and r["counterexample"] is None
            and r["range"] == asdict(config)
            for r in records
        )
    except (ValueError, KeyError, TypeError):
        return False


# ------------------------------------------------------------- eval-<w>


def eval_argument(seed: int, bits: int, function: str) -> int:
    rng = random.Random(f"{seed}:{bits}:{function}")
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def eval_calls(sizes: Sizes, label: str, seed: int) -> list[Call]:
    bits = dict(sizes.widths)[label]
    exact = bits <= sizes.exact_max_bits
    options = ("--format", "json") if exact else ("--decimal", str(DECIMAL_DIGITS))
    calls = []
    for function in FUNCTIONS:
        n = eval_argument(seed, bits, function)
        if exact:
            check = _exact_eval_check(function, n)
        else:
            check = _decimal_eval_check(function, n, DECIMAL_DIGITS)
        calls.append(Call(("eval", function, bin(n)) + options, check))
    return calls


def _exact_eval_check(function: str, n: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        try:
            record = json.loads(out)
            return (record["function"], record["n"]) == (function, n) and Fraction(
                record["value"]
            ) == REFERENCE[function](n)
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            return False

    return check


def _decimal_eval_check(function: str, n: int, digits: int) -> Callable[[str], bool]:
    return lambda out: out == decimal_text(REFERENCE[function](n), digits) + "\n"


def decimal_text(value: Fraction, digits: int) -> str:
    """value to `digits` significant digits, rounding half to even."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))


# ----------------------------------------------------------- table-sweep


def table_columns(seed: int) -> list[str]:
    columns = list(FUNCTIONS)
    random.Random(seed).shuffle(columns)
    return columns


def table_calls(sizes: Sizes, seed: int) -> list[Call]:
    columns = table_columns(seed)
    argv = ("table", ",".join(columns), "1", str(sizes.table_rows), "--format", "csv")
    return [Call(argv, lambda out: table_output_ok(columns, sizes.table_rows, out))]


def table_output_ok(columns: list[str], rows: int, out: str) -> bool:
    reader = csv.reader(io.StringIO(out))
    if next(reader, None) != ["n", *columns]:
        return False
    count = 0
    try:
        for count, row in enumerate(reader, 1):
            if int(row[0]) != count:
                return False
            for function, text in zip(columns, row[1:], strict=True):
                if Fraction(text) != REFERENCE[function](count):
                    return False
    except (ValueError, IndexError, ZeroDivisionError):
        return False
    return count == rows


# ----------------------------------------------------------- measuring


def run_call(argv: tuple[str, ...]) -> tuple[int | None, str, float]:
    """(exit code or None on an exception, stdout, seconds) of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed operation, not the end of the run
            code = None
        elapsed = time.perf_counter() - start
    if code is None:
        traceback.print_exc()
    return code, buf.getvalue(), elapsed


class Tally:
    """Operations attempted and failed.  Each call's first output is
    checked in full; its repeats must reproduce it byte for byte, which
    is compared by digest so that no output is kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._first: dict[tuple[str, ...], tuple[bytes, bool]] = {}

    def judge(self, call: Call, code: int | None, out: str) -> None:
        digest = hashlib.sha256(out.encode()).digest()
        if call.argv not in self._first:
            self._first[call.argv] = (digest, code == 0 and call.check(out))
        first_digest, first_ok = self._first[call.argv]
        self.attempted += 1
        self.failed += not (code == 0 and first_ok and digest == first_digest)


def measure(
    calls: list[Call], seconds: float, min_passes: int, tally: Tally
) -> tuple[list[float], list[float]]:
    """(reference-speed, measured) seconds per pass over calls, passing
    until `seconds` have gone by.  See hostspeed for the scaling."""
    scaled: list[float] = []
    measured: list[float] = []
    started = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while len(measured) < min_passes or time.perf_counter() - started < seconds:
            first = len(sampler.units)
            total = 0.0
            for call in calls:
                spent = sampler.spent
                code, out, elapsed = run_call(call.argv)
                total += elapsed - (sampler.spent - spent)
                tally.judge(call, code, out)
            # this pass's samples, or the last ten if the pass took fewer
            recent = sampler.units[max(0, min(first, len(sampler.units) - 10)) :]
            measured.append(total)
            scaled.append(total * hostspeed.factor(recent))
    return scaled, measured


SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
before = hostspeed.unit_seconds(0.01)
start = time.perf_counter()
import oddsum, oddsum.cli
imported = time.perf_counter()
oddsum.cli.build_parser()
built = time.perf_counter()
after = hostspeed.unit_seconds(0.01)
print(oddsum.__file__, imported - start, built - imported, hostspeed.factor([before, after]))
"""


def setup_times(src: str, children: int) -> list[tuple[float, float, float]]:
    """(import s, build_parser s, hostspeed factor) in each of `children`
    fresh interpreters, each calibrating itself around what it times.

    One more interpreter runs first, untimed, so that the bytecode cache
    is written before anything is measured.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    times = []
    for _ in range(children + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, src, here],
            capture_output=True, text=True, check=True, timeout=120,
        )  # fmt: skip
        where, imported, built, factor = done.stdout.rsplit(maxsplit=3)
        if not where.startswith(src):
            raise RuntimeError(f"fresh interpreter imported oddsum from {where}")
        times.append((float(imported), float(built), float(factor)))
    return times[1:]
