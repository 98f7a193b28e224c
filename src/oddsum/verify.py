"""Mechanical checkers for every claimed bound, identity, and equality set.

Each TheoremId names one claim about V, U, G, their deviations, or the
block extrema, and its checker exercises the claim exactly as stated:
inequalities with their exact strictness, equality characterizations in
both directions (every claimed witness attains, no non-witness does),
identities by structural rational equality.  A checker scans its whole
configured range in ascending order and stops at the first violation,
so a failure always comes with the smallest counterexample.

Identity-type claims (P2C, P2D, P6B, EQL21, EQ4_IDENTITY) additionally
run seeded random trials at big arguments (256-bit by default), which
guards the closed-form and recurrence evaluators far beyond scan range.
The seed is part of the RangeConfig, so every report is reproducible.

Verdicts are integer arithmetic: a checker cross-multiplies the
numerators and denominators of its values (as_integer_ratio, exact for
ints, Fractions and floats) or brings them over one common denominator,
with an exact Fraction fallback for a value outside it.  Fractions are
built only to write a failure report, which is that of exact comparison.

All checkers read their evaluators from an Evaluators bundle rather
than calling module functions directly.  Swapping in a corrupted
wrapper (dataclasses.replace on the default bundle) is the
fault-injection hook: it lets the test suite demonstrate that a checker
actually notices wrong values.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import deviations, extremal, sums
from .bitcore import format_rational, hat, round_pow2_over_3, tilde

__all__ = [
    "CLAIMS",
    "Counterexample",
    "Evaluators",
    "RangeConfig",
    "THEOREM_IDS",
    "VerifyReport",
    "check",
    "run_all",
]


@dataclass(frozen=True)
class RangeConfig:
    """How far each checker scans, and how the random trials are seeded."""

    max_n: int = 1 << 16
    max_m: int = 14
    max_r: int = 8
    max_p: int = 256
    random_big_trials: int = 1000
    random_bits: int = 256
    seed: int = 0


@dataclass(frozen=True)
class Evaluators:
    """The functions under test, bundled so tests can corrupt one of them."""

    sum_v: Callable[[int], Fraction] = sums.v_fast
    sum_u: Callable[[int], int] = sums.u_fast
    sum_g: Callable[[int], Fraction] = sums.g_fast
    dev_v: Callable[[int], Fraction] = deviations.dev_v
    dev_u: Callable[[int], Fraction] = deviations.dev_u
    dev_g: Callable[[int], Fraction] = deviations.dev_g
    h: Callable[[int], int] = deviations.h_eval


@dataclass(frozen=True)
class Counterexample:
    """First failing instance: named inputs plus expected and actual values."""

    inputs: tuple[tuple[str, str], ...]
    expected: str
    actual: str


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one checker over one range.

    elapsed is wall-clock seconds and deliberately stays out of line()
    and record(), which must be byte-identical across runs.
    """

    theorem: str
    range: RangeConfig
    status: str
    counterexample: Counterexample | None
    checked_count: int
    elapsed: float

    def line(self) -> str:
        parts = [self.theorem, self.status, f"checked={self.checked_count}"]
        if self.counterexample is not None:
            parts.extend(f"{k}={v}" for k, v in self.counterexample.inputs)
            parts.append(f"expected={self.counterexample.expected}")
            parts.append(f"actual={self.counterexample.actual}")
        return " ".join(parts)

    def record(self) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = {
                "inputs": dict(self.counterexample.inputs),
                "expected": self.counterexample.expected,
                "actual": self.counterexample.actual,
            }
        return {
            "theorem": self.theorem,
            "status": self.status,
            "checked": self.checked_count,
            "range": {
                "max_n": self.range.max_n,
                "max_m": self.range.max_m,
                "max_r": self.range.max_r,
                "max_p": self.range.max_p,
                "random_big_trials": self.range.random_big_trials,
                "random_bits": self.range.random_bits,
                "seed": self.range.seed,
            },
            "counterexample": ce,
        }


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _ce(expected, actual, **inputs) -> Counterexample:
    return Counterexample(
        tuple((k, _fmt(v)) for k, v in inputs.items()), _fmt(expected), _fmt(actual)
    )


def _random_args(config: RangeConfig, theorem: str) -> list[int]:
    """Deterministic arguments of exactly random_bits bits."""
    rng = random.Random(f"{config.seed}:{theorem}")
    bits = config.random_bits
    if bits <= 1:
        return [1] * config.random_big_trials
    top = 1 << (bits - 1)
    return [top | rng.getrandbits(bits - 1) for _ in range(config.random_big_trials)]


def _numerators_over(denominator: int, values) -> list[int] | None:
    """The values as integer numerators over one common denominator.

    None when some value is not a rational whose denominator divides it,
    which only a corrupted evaluator returns; the caller then falls back
    to exact Fraction arithmetic.
    """
    nums = []
    for value in values:
        try:
            scale, rest = divmod(denominator, value.denominator)
        except AttributeError:  # not a rational at all
            return None
        if rest:
            return None
        nums.append(value.numerator * scale)
    return nums


def _scan_then_random(config: RangeConfig, theorem: str, first: int = 1):
    """first..max_n ascending, then the random big arguments."""
    yield from range(first, config.max_n + 1)
    yield from _random_args(config, theorem)


def _first_failure(violation, args, checked: int = 0):
    """Count through args up to the first n where violation(n) reports."""
    for n in args:
        checked += 1
        bad = violation(n)
        if bad:
            return checked, bad
    return checked, None


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _is_all_ones(n: int) -> bool:
    return n >= 1 and n & (n + 1) == 0


# ---------------------------------------------------------------- checkers


def _check_p1b(config, ev):
    """2n/3 < V(n) < (2n+2)/3, strictly, for every n."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value = ev.sum_v(n)
        p, q = value.as_integer_ratio()
        if not 2 * n * q < 3 * p < (2 * n + 2) * q:
            return checked, _ce(
                f"strictly between {_fmt(Fraction(2 * n, 3))} and"
                f" {_fmt(Fraction(2 * n + 2, 3))}",
                3 * value / 3,  # an int value reports as a float, e.g. 3.0
                n=n,
            )
    return checked, None


def _check_cor3(config, ev):
    """v sits in (0, 1/3) at even arguments and (1/3, 2/3) at odd ones."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        even = ev.dev_v(2 * n)
        p, q = even.as_integer_ratio()
        if not (0 < p and 3 * p < q):
            return checked, _ce("in (0, 1/3)", even, n=2 * n)
        odd = ev.dev_v(2 * n + 1)
        p, q = odd.as_integer_ratio()
        if not q < 3 * p < 2 * q:
            return checked, _ce("in (1/3, 2/3)", odd, n=2 * n + 1)
    return checked, None


def _check_cor4(config, ev):
    """Block bounds of v on I_m, sharp exactly at 2^m and 2^(m+1)-1."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        m = n.bit_length() - 1
        value = ev.dev_v(n)
        p, q = value.as_integer_ratio()
        # value and both bounds over 3n * 2**m, times q
        scaled = (3 * n << m) * p
        low_q, high_q = n * q, (((2 * n - 2) << m) + 1) * q
        in_range, at_low = low_q <= scaled <= high_q, scaled == low_q
        is_top = n == (2 << m) - 1
        if in_range and at_low == _is_pow2(n) and (scaled == high_q) == is_top:
            continue
        low = Fraction(1, 3 << m)
        high = Fraction(2, 3) - Fraction((2 << m) - 1, (3 * n) << m)
        if not in_range:
            return checked, _ce(f"in [{_fmt(low)}, {_fmt(high)}]", value, n=n)
        if at_low != _is_pow2(n):
            return checked, _ce(f"{_fmt(low)} exactly iff n = 2^m", value, n=n)
        return checked, _ce(f"{_fmt(high)} exactly iff n = 2^(m+1)-1", value, n=n)
    return checked, None


def _check_t5(config, ev):
    """Sharp bracketing of V; equality iff n resp. n+1 is a power of two."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value = ev.sum_v(n)
        p, q = value.as_integer_ratio()
        low_gap = 3 * n * p - (2 * n * n + 1) * q
        if low_gap < 0:
            return checked, _ce(f">= {_fmt(Fraction(2 * n * n + 1, 3 * n))}", value, n=n)
        if (low_gap == 0) != _is_pow2(n):
            return checked, _ce("lower equality iff n = 2^m", value, n=n)
        high_gap = 2 * n * (n + 2) * q - 3 * (n + 1) * p
        if high_gap < 0:
            return checked, _ce(
                f"<= {_fmt(Fraction(2 * n * (n + 2), 3 * (n + 1)))}", value, n=n
            )
        if (high_gap == 0) != _is_pow2(n + 1):
            return checked, _ce("upper equality iff n = 2^m - 1", value, n=n)
    return checked, None


def _check_l1(config, ev):
    """0 <= h(n) <= n-1, hitting 0 only all-ones and n-1 only powers of two."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value = ev.h(n)
        if not 0 <= value <= n - 1:
            return checked, _ce(f"in [0, {n - 1}]", value, n=n)
        if (value == 0) != _is_all_ones(n):
            return checked, _ce("0 exactly iff n = 2^(m+1)-1", value, n=n)
        if (value == n - 1) != _is_pow2(n):
            return checked, _ce(f"{n - 1} exactly iff n = 2^m", value, n=n)
    return checked, None


def _check_t2(config, ev):
    """Parity-split bounds of U with all four equality families.

    Even n: n^2+2 <= 3U <= n^2+n, sharp at 2^m and 2^m-2.  Odd n: the
    coarse 3U >= n^2+n+1 holds everywhere, the sharp form is
    3U >= n^2+n+3 for odd n >= 3 with equality exactly at 2^m+1, and
    3U <= n^2+2n is sharp exactly at 2^m-1.
    """
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        triple = 3 * ev.sum_u(n)
        if n % 2 == 0:
            low, high = n * n + 2, n * n + n
            if not low <= triple <= high:
                return checked, _ce(f"3*U(n) in [{low}, {high}]", triple, n=n)
            if (triple == low) != _is_pow2(n):
                return checked, _ce(f"3*U(n) = {low} iff n = 2^m", triple, n=n)
            if (triple == high) != _is_pow2(n + 2):
                return checked, _ce(f"3*U(n) = {high} iff n = 2^m - 2", triple, n=n)
        else:
            if triple < n * n + n + 1:
                return checked, _ce(f"3*U(n) >= {n * n + n + 1}", triple, n=n)
            if n >= 3 and triple < n * n + n + 3:
                return checked, _ce(f"3*U(n) >= {n * n + n + 3}", triple, n=n)
            if (triple == n * n + n + 3) != (n >= 3 and _is_pow2(n - 1)):
                return checked, _ce(
                    f"3*U(n) = {n * n + n + 3} iff n = 2^m + 1", triple, n=n
                )
            high = n * n + 2 * n
            if triple > high:
                return checked, _ce(f"3*U(n) <= {high}", triple, n=n)
            if (triple == high) != _is_pow2(n + 1):
                return checked, _ce(f"3*U(n) = {high} iff n = 2^m - 1", triple, n=n)
    return checked, None


def _check_p4b(config, ev):
    """n(n + 7/4)/3 <= G(n) <= n(n+2)/3 for every n."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value = ev.sum_g(n)
        p, q = value.as_integer_ratio()
        if 12 * p < (4 * n * n + 7 * n) * q:
            return checked, _ce(f">= {_fmt(Fraction(4 * n * n + 7 * n, 12))}", value, n=n)
        if 3 * p > n * (n + 2) * q:
            return checked, _ce(f"<= {_fmt(Fraction(n * (n + 2), 3))}", value, n=n)
    return checked, None


def _check_p5c(config, ev):
    """0 <= g(n) <= floor_lg(n)/3."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value = ev.dev_g(n)
        m = n.bit_length() - 1
        p, q = value.as_integer_ratio()
        if not (0 <= p and 3 * p <= m * q):
            return checked, _ce(f"in [0, {_fmt(Fraction(m, 3))}]", value, n=n)
    return checked, None


def _check_cor5(config, ev):
    """g vanishes exactly on the all-ones integers 2^r - 1."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value = ev.dev_g(n)
        if (value.as_integer_ratio()[0] == 0) != _is_all_ones(n):
            return checked, _ce("0 exactly iff n = 2^r - 1", value, n=n)
    return checked, None


def _check_p2c(config, ev):
    """Telescoping: v(n) + sum_p v(n >> p) = (2/3) popcount(n).

    Every term v(n >> p) lives over 3 * 2**m, m = floor_lg(n), so the
    terms are summed as integers over that denominator and compared with
    2 * popcount(n) * 2**m.  The scan telescopes, S(n) = sum_p v(n >> p)
    over 3 * 2**m being v(n) + 2 S(n >> 1), so it evaluates v(n) alone.
    A term outside the denominator (from a corrupted evaluator), an
    unconfirmed S(n >> 1) or a mismatch re-runs the sum in exact Fraction
    arithmetic, which alone produces the report.
    """

    def violation(n: int):
        terms = [ev.dev_v(n)]
        x = n
        while x:
            terms.append(ev.dev_v(x))
            x >>= 1
        m = n.bit_length() - 1
        nums = _numerators_over(3 << m, terms)
        if nums is not None and sum(nums) == n.bit_count() << (m + 1):
            return None
        total = terms[0]
        for term in terms[1:]:
            total += term
        target = Fraction(2 * n.bit_count(), 3)
        if total != target:
            return _ce(target, total, n=n)
        return None

    prefix_sums = [0] + [None] * config.max_n  # S(n), None where unconfirmed
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value, m = ev.dev_v(n), n.bit_length() - 1
        prefix = prefix_sums[n >> 1]
        nums = _numerators_over(3 << m, (value,))
        if nums is not None and prefix is not None:
            total = nums[0] + 2 * prefix
            if nums[0] + total == n.bit_count() << (m + 1):
                prefix_sums[n] = total
                continue
        bad = violation(n)
        if bad:
            return checked, bad
    return _first_failure(violation, _random_args(config, "P2C"), checked)


def _check_p2d(config, ev):
    """Complement symmetry: v(n) + v(hat(n)) = 2/3."""

    def violation(n: int):
        left, right = ev.dev_v(n), ev.dev_v(hat(n))
        a, b = left.as_integer_ratio()
        c, d = right.as_integer_ratio()
        if 3 * (a * d + c * b) != 2 * b * d:
            return _ce(Fraction(2, 3), left + right, n=n)
        return None

    return _first_failure(violation, _scan_then_random(config, "P2D"))


def _check_p6b(config, ev):
    """Reflection symmetry: g(n) = g(tilde(n))."""

    def violation(n: int):
        left, right = ev.dev_g(n), ev.dev_g(tilde(n))
        a, b = left.as_integer_ratio()
        c, d = right.as_integer_ratio()
        if a * d != c * b:
            return _ce(right, left, n=n)
        return None

    return _first_failure(violation, _scan_then_random(config, "P6B"))


def _check_eql21(config, ev):
    """Two-step rules: g(4n), g(4n+1), g(4n+2), g(4n+3) from g(n), v(n).

    g(n) and v(n) live over 3 * 2**m, m = floor_lg(n), and g(4n + r) over
    3 * 2**(m+2), so all six values are brought over the latter and the
    four rules compared as integers.  A value outside it (from a
    corrupted evaluator) or a mismatch re-runs the comparisons in exact
    Fraction arithmetic, which alone produces the report.
    """

    def violation(n: int):
        g, v = ev.dev_g(n), ev.dev_v(n)
        actuals = [ev.dev_g(4 * n + residue) for residue in range(4)]
        m = max(n.bit_length() - 1, 0)  # n = 0 fits the n = 1 denominators
        nums = _numerators_over(12 << m, (g, v, *actuals))
        if nums is not None:  # four times each rule over 12 * 2**m: 4/6 is 2**(m+3)
            g4, v_num = 4 * nums[0], nums[1]
            expect = [g4 + 3 * v_num, g4 + 2 * v_num, g4 + (8 << m) + v_num, g4]
            if [4 * num for num in nums[2:]] == expect:
                return None
        for residue, actual in enumerate(actuals):
            expect = (
                g + Fraction(3, 4) * v,
                g + v / 2,
                g + Fraction(1, 6) + v / 4,
                g,
            )[residue]
            if actual != expect:
                return _ce(expect, actual, n=n, residue=residue)
        return None

    return _first_failure(violation, _scan_then_random(config, "EQL21", first=0))


def _check_l2(config, ev):
    """The two skeleton-offset difference identities, all p >= 0, r >= 0."""
    third = Fraction(1, 3)

    def gap(a: int, b: int) -> tuple[int, int]:
        """g(a) - g(b) as an unreduced numerator and denominator."""
        c, d = ev.dev_g(a).as_integer_ratio()
        e, f = ev.dev_g(b).as_integer_ratio()
        return c * f - e * d, d * f

    checked = 0
    for r in range(0, config.max_r + 1):
        pair = extremal.skeleton(r)
        x_r, y_r = pair.x, pair.y
        x_next = extremal.skeleton(r + 1).x
        for p in range(0, config.max_p + 1):
            checked += 1
            vp = ev.dev_v(p)
            s, t = vp.as_integer_ratio()
            # each identity with both sides times 9t * 2**k * den, v(p) = s/t
            base = p << (2 * r + 2)
            num, den = gap(base + x_next, base + y_r)
            k = 2 * r + 1
            if (9 * t * num) << k != ((1 << k) + 1) * (t - 3 * s) * den:
                left = ev.dev_g(base + x_next) - ev.dev_g(base + y_r)
                right = (1 + Fraction(1, 1 << (2 * r + 1))) * (third - vp) / 3
                return checked, _ce(right, left, p=p, r=r, identity="even-shift")
            base = p << (2 * r + 1)
            num, den = gap(base + x_r, base + y_r)
            k = 2 * r
            if (9 * t * num) << k != ((1 << k) - 1) * (3 * s - t) * den:
                left = ev.dev_g(base + x_r) - ev.dev_g(base + y_r)
                right = (1 - Fraction(1, 1 << (2 * r))) * (vp - third) / 3
                return checked, _ce(right, left, p=p, r=r, identity="odd-shift")
    return checked, None


def _check_cor6(config, ev):
    """Four strict orderings between skeleton offsets, all p, r >= 1."""
    checked = 0
    for r in range(1, config.max_r + 1):
        pair = extremal.skeleton(r)
        x_r, y_r = pair.x, pair.y
        x_next = extremal.skeleton(r + 1).x
        y_prev = extremal.skeleton(r - 1).y
        for p in range(1, config.max_p + 1):
            checked += 1
            even_base = p << (2 * r + 2)
            odd_base = p << (2 * r + 1)
            pairs = (
                (even_base + x_r, even_base + y_r),
                (even_base + (1 << (2 * r + 1)) + y_r, even_base + x_next),
                (odd_base + y_prev, odd_base + x_r),
                (odd_base + (1 << (2 * r)) + x_r, odd_base + y_r),
            )
            for smaller, larger in pairs:
                a, b = ev.dev_g(smaller).as_integer_ratio()
                c, d = ev.dev_g(larger).as_integer_ratio()
                if not a * d < c * b:
                    return checked, _ce(
                        f"g({smaller}) < g({larger})",
                        f"{_fmt(ev.dev_g(smaller))} vs {_fmt(ev.dev_g(larger))}",
                        p=p,
                        r=r,
                    )
    return checked, None


def _check_t3(config, ev):
    """Closed two-candidate block maximum against the literal scan."""
    checked = 0
    for n in range(1, min(config.max_n, 64) + 1):
        for m in range(1, min(config.max_m, 12) + 1):
            checked += 1
            closed = extremal.lambda_block(n, m)
            brute = extremal.lambda_block_brute(n, m)
            if closed != brute:
                return checked, _ce(brute, closed, n=n, m=m)
    for mm in range(1, min(config.max_m, 7) + 1):
        checked += 1
        odd = extremal.lambda_block(1, 2 * mm - 1)
        want = Fraction((6 * mm - 2) * (1 << (2 * mm - 1)) + 1, 27 << (2 * mm - 1))
        if odd != want:
            return checked, _ce(want, odd, m=2 * mm - 1)
        checked += 1
        even = extremal.lambda_block(1, 2 * mm)
        want = Fraction((6 * mm + 1) * (1 << (2 * mm)) - 1, 27 << (2 * mm))
        if even != want:
            return checked, _ce(want, even, m=2 * mm)
    return checked, None


def _check_cor7(config, ev):
    """Maximum of g on I_m is lambda_m."""
    checked = 0
    for m in range(0, config.max_m + 1):
        checked += 1
        brute = extremal.lambda_block_brute(1, m)
        closed = extremal.lambda_m(m)
        if brute != closed:
            return checked, _ce(closed, brute, m=m)
    return checked, None


def _check_cor8(config, ev):
    """Chain 0 <= g(n) <= theta_n <= floor_lg(n)/9 + 1/18."""
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        value = ev.dev_g(n)
        bound = extremal.theta(n)
        m = n.bit_length() - 1
        p, q = value.as_integer_ratio()
        t, s = bound.as_integer_ratio()
        if not (0 <= p and p * s <= t * q and 18 * t <= (2 * m + 1) * s):
            return checked, _ce(
                f"0 <= g <= {_fmt(bound)} <= {_fmt(Fraction(2 * m + 1, 18))}",
                value,
                n=n,
            )
    return checked, None


def _check_p10(config, ev):
    """Extrema of g on I_m localized: min 0 once, max at the two points."""
    checked = 0
    for m in range(0, config.max_m + 1):
        checked += 1
        values = extremal.block_g_values(1, m)
        best, low = max(values), min(values)
        base = 1 << m
        max_points = tuple(base + t for t, val in enumerate(values) if val == best)
        min_points = tuple(base + t for t, val in enumerate(values) if val == low)
        report = extremal.argmax_g(m)
        ok = (
            low == 0 == report.min_value
            and min_points == report.min_points
            and best == report.max_value
            and max_points == report.max_points
        )
        if m >= 2:
            rounded = tuple(
                sorted(
                    (
                        base - 1 + round_pow2_over_3(m),
                        base - 1 + round_pow2_over_3(m + 1),
                    )
                )
            )
            ok = ok and len(max_points) == 2 and max_points == rounded
        if not ok:
            expected = (
                f"max {_fmt(report.max_value)} at"
                f" {','.join(map(str, report.max_points))},"
                f" min 0 at {','.join(map(str, report.min_points))}"
            )
            actual = (
                f"max {_fmt(best)} at {','.join(map(str, max_points))},"
                f" min {_fmt(low)} at {','.join(map(str, min_points))}"
            )
            return checked, _ce(expected, actual, m=m)
    return checked, None


def _check_cor10(config, ev):
    """g(n) = theta_n exactly on the two rounded families."""
    members = frozenset(extremal.equality_set("G_THETA", config.max_n))
    checked = 0
    for n in range(1, config.max_n + 1):
        checked += 1
        p, q = ev.dev_g(n).as_integer_ratio()
        t, s = extremal.theta(n).as_integer_ratio()
        if (p * s == t * q) != (n in members):
            return checked, _ce(
                "g = theta_n exactly on the rounded families", ev.dev_g(n), n=n
            )
    return checked, None


def _check_eq4(config, ev):
    """G(n) = (n+1) V(n) - U(n).

    The fast sums share one kernel, so the identity alone holds by
    algebra; G and U are also held against their envelopes minus the
    deviations, which come from independent evaluators.  All five values
    are compared as integers over 3 * 2**m, m = floor_lg(n); a value
    outside it or a mismatch re-runs them in exact Fraction arithmetic.
    """

    def violation(n: int):
        g, u, v = ev.sum_g(n), ev.sum_u(n), ev.sum_v(n)
        dev_g, dev_u = ev.dev_g(n), ev.dev_u(n)
        m = n.bit_length() - 1
        nums = _numerators_over(3 << m, (g, u, v, dev_g, dev_u))
        if nums is not None:
            g_num, u_num, v_num, g_dev, u_dev = nums
            identity, envelope = (n + 1) * v_num - u_num, (n * (n + 2) << m) - g_dev
            if g_num == identity == envelope and u_num == ((n * n + n) << m) - u_dev:
                return None
        right = (n + 1) * v - u
        if g != right:
            return _ce(right, g, n=n)
        from_dev = Fraction(n * (n + 2), 3) - dev_g
        if g != from_dev:
            return _ce(from_dev, g, n=n, function="G")
        from_dev = Fraction(n * n + n, 3) - dev_u
        if u != from_dev:
            return _ce(from_dev, u, n=n, function="U")
        return None

    return _first_failure(violation, _scan_then_random(config, "EQ4_IDENTITY"))


def _check_oracle(config, ev):
    """Closed-form evaluators agree with the defining sums, term by term."""
    checked = 0
    for n, v_ref, u_ref, g_ref in sums.scan_sums(config.max_n):
        checked += 1
        fast_v = ev.sum_v(n)
        if fast_v != v_ref:
            return checked, _ce(v_ref, fast_v, n=n, function="V")
        fast_u = ev.sum_u(n)
        if fast_u != u_ref:
            return checked, _ce(u_ref, fast_u, n=n, function="U")
        fast_g = ev.sum_g(n)
        if fast_g != g_ref:
            return checked, _ce(g_ref, fast_g, n=n, function="G")
    return checked, None


_CHECKERS = {
    "P1B": _check_p1b,
    "COR3": _check_cor3,
    "COR4": _check_cor4,
    "T5": _check_t5,
    "L1": _check_l1,
    "T2": _check_t2,
    "P4B": _check_p4b,
    "P5C": _check_p5c,
    "COR5": _check_cor5,
    "P2C": _check_p2c,
    "P2D": _check_p2d,
    "P6B": _check_p6b,
    "EQL21": _check_eql21,
    "L2": _check_l2,
    "COR6": _check_cor6,
    "T3": _check_t3,
    "COR7": _check_cor7,
    "COR8": _check_cor8,
    "P10": _check_p10,
    "COR10": _check_cor10,
    "EQ4_IDENTITY": _check_eq4,
    "ORACLE_UVG": _check_oracle,
}

THEOREM_IDS = tuple(_CHECKERS)

CLAIMS = {theorem: fn.__doc__.strip().splitlines()[0] for theorem, fn in _CHECKERS.items()}


def check(
    theorem: str,
    config: RangeConfig | None = None,
    evaluators: Evaluators | None = None,
) -> VerifyReport:
    """Run one checker; failures are reported, never raised."""
    if theorem not in _CHECKERS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    config = config if config is not None else RangeConfig()
    ev = evaluators if evaluators is not None else Evaluators()
    start = time.perf_counter()
    checked, counterexample = _CHECKERS[theorem](config, ev)
    elapsed = time.perf_counter() - start
    status = "fail" if counterexample is not None else "pass"
    return VerifyReport(theorem, config, status, counterexample, checked, elapsed)


def run_all(
    config: RangeConfig | None = None,
    evaluators: Evaluators | None = None,
) -> list[VerifyReport]:
    """Every checker in declaration order; deterministic for a fixed config."""
    return [check(theorem, config, evaluators) for theorem in THEOREM_IDS]
