"""Where the deficit g is extremal on each dyadic block.

For every block I_m = [2**m, 2**(m+1)) up to --max-m, prints the exact
block maximum lambda_m with its attaining points (two of them once
m >= 2), the rounded-thirds form of those points, and confirms the
minimum 0 at the all-ones point.  With --brute the whole block is also
scanned literally and compared, which is what makes the table an
experiment rather than a printout.

Usage: python3 scripts/block_extrema.py [--max-m 14] [--brute]
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from itertools import repeat

from oddsum.bitcore import format_rational, round_pow2_over_3
from oddsum.extremal import _block_levels, argmax_g, lambda_m

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=14)
    parser.add_argument(
        "--brute", action="store_true",
        help="re-derive each row by scanning all 2**m block values",
    )
    args = parser.parse_args()

    # n = 1 grown once, level by level: its level m is g over I_m
    levels = _block_levels(1, args.max_m) if args.brute else repeat(None)
    for m, level in zip(range(args.max_m + 1), levels):
        report = argmax_g(m)
        points = ",".join(map(str, report.max_points))
        rounded = (1 << m) - 1 + round_pow2_over_3(m), (1 << m) - 1 + round_pow2_over_3(m + 1)
        tag = " (degenerate)" if report.degenerate else ""
        print(
            f"m={m:<2} lambda={format_rational(lambda_m(m)):>12}"
            f" max at {points:<14} round form {rounded[0]},{rounded[1]}"
            f" min at {report.min_points[0]}{tag}"
        )
        if args.brute:
            nums, den = level
            top = max(nums)
            where = tuple((1 << m) + t for t, num in enumerate(nums) if num == top)
            best = Fraction(top, den)
            status = "ok" if (best, where) == (report.max_value, report.max_points) else "MISMATCH"
            print(f"     brute max {format_rational(best)} at {where} -> {status}")


if __name__ == "__main__":
    main()
