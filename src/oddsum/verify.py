"""Mechanical checkers for every claimed bound, identity, and equality set.

Each TheoremId names one claim about V, U, G, their deviations, or the
block extrema, and its checker exercises the claim exactly as stated:
inequalities with their exact strictness, equality characterizations in
both directions (every claimed witness attains, no non-witness does),
identities by structural rational equality.

A checker is a declaration: a predicate, (ev, item) -> Counterexample or
None, over a domain, (config, theorem, ev) -> items in ascending order
(an n range, with the values each n reads, then perhaps the random
trials, the (r, p) grid, an m range, T3's blocks then its closed-form m,
or the rows of sums.scan_sums).  A checker that builds something once
per run (P2C's memo of prefix sums, COR10's member set, the skeleton
pairs of L2 and COR6, T3's two phases) registers a setup, (config, ev)
-> (items, predicate), instead.  check() alone walks the items: it
counts them, stops at the first counterexample, which is then the
smallest, and times the run.

Identity-type claims (P2C, P2D, P6B, EQL21, EQ4_IDENTITY) additionally
run seeded random trials at big arguments (256-bit by default), which
guards the closed-form and recurrence evaluators far beyond scan range;
every second EQ4_IDENTITY trial is at least _H_SPLIT_BITS (90) bits
wide, so that U and G reach the product branch of h also under a narrow
--bits.  The seed is part of the RangeConfig, so every report is
reproducible.  P2C's scan and its trials run one recurrence, S(x) =
v(x) + S(x >> 1), from the longest prefix of n that the scan has summed.

A RangeConfig past a cap raises bitcore.check_cap's ResourceLimitError
when it is built, before any checker runs: MAX_N_CAP, MAX_M_CAP and
MAX_R_CAP bound one field each, GRID_CELLS_CAP the (r, p) grid and
TRIAL_WORK_CAP the trials times the square of their width.

Verdicts are integer arithmetic.  Every checker reads its evaluators
from an Evaluators bundle, and _reader reads each value as one exact pair
(num, den): a deviations.Kernel, as every default field is, by its
integer core (den 3 * 2**m, 3 or 1), and any other callable by the
as_integer_ratio of what it returns.  The n-range scans read a Kernel's
column a window of one block at a time, hat(n), tilde(n) and 4n + r from
mirrored or scaled windows, and call any other field once per n, lazily;
the trials, the grids and ORACLE_UVG read per n.  A checker
cross-multiplies these integers or brings them over one common
denominator, widened for a value outside it, and a failure reports
Fraction(num, den), the exact value the verdict used.

Swapping a corrupted wrapper into the bundle (dataclasses.replace on the
default) is the fault-injection hook: it lets the test suite demonstrate
that a checker notices wrong values.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, starmap
from typing import Callable

from . import bitcore, deviations, extremal, sums
from .deviations import Kernel

__all__ = [
    "CLAIMS",
    "Counterexample",
    "Evaluators",
    "GRID_CELLS_CAP",
    "MAX_M_CAP",
    "MAX_N_CAP",
    "MAX_R_CAP",
    "RangeConfig",
    "THEOREM_IDS",
    "TRIAL_WORK_CAP",
    "VerifyReport",
    "check",
    "run_all",
]


# Every other EQ4_IDENTITY trial is at least this wide, so that u(n) reads
# h(n) through its product branch, past deviations._H_BASE_BITS digits.
_H_SPLIT_BITS = deviations._H_BASE_BITS + 2

# At each cap the slowest checker takes at most about 2 s and 60 MB on 2
# cores, Python 3.11.7: P2C at max_n 2**20 (1.2 s), P10 at max_m 18
# (0.8 s), one trial of 16384 bits (0.08 s in P2C; a trial costs at
# least its width squared); L2 and COR6 take 0.5 and 0.8 s on a grid of
# GRID_CELLS_CAP cells at max_r 64.  P2C, EQL21, EQ4_IDENTITY, P6B and P2D
# take 2.0, 0.8, 0.7, 0.3 and 0.15 s for 33140 trials of 90 bits, and 1.5,
# 0.5, 0.4, 0.2 and 0.08 s for 16384 of 128 bits (medians of 3 runs).
MAX_N_CAP = 1 << 20
MAX_M_CAP = 18
MAX_R_CAP = 64
GRID_CELLS_CAP = 1 << 15  # (max_r + 1) * (max_p + 1)
TRIAL_WORK_CAP = 1 << 28  # trials * max(bits, _H_SPLIT_BITS) ** 2


@dataclass(frozen=True)
class RangeConfig:
    """How far each checker scans, and how the random trials are seeded.

    Raises DomainError for max_n below 1 and ResourceLimitError for a
    range past one of the caps above.
    """

    max_n: int = 1 << 16
    max_m: int = 14
    max_r: int = 8
    max_p: int = 256
    random_big_trials: int = 1000
    random_bits: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise bitcore.DomainError("--max-n must be at least 1")
        cells = (self.max_r + 1) * (self.max_p + 1)
        work = self.random_big_trials * max(self.random_bits, _H_SPLIT_BITS) ** 2
        trials = f"--trials * max(--bits, {_H_SPLIT_BITS})**2"
        for what, value, name in (
            ("--max-n", self.max_n, "MAX_N_CAP"),
            ("--max-m", self.max_m, "MAX_M_CAP"),
            ("--max-r", self.max_r, "MAX_R_CAP"),
            ("(--max-r + 1) * (--max-p + 1)", cells, "GRID_CELLS_CAP"),
            (trials, work, "TRIAL_WORK_CAP"),
        ):
            bitcore.check_cap(what, value, __name__, name)


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

    def detail(self) -> str:
        """The inputs, expected and actual value as space-separated key=value."""
        words = [f"{k}={v}" for k, v in self.inputs]
        return " ".join(words + [f"expected={self.expected}", f"actual={self.actual}"])


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
            parts.append(self.counterexample.detail())
        return " ".join(parts)

    def record(self) -> dict:
        ce = self.counterexample
        if ce is not None:
            ce = asdict(ce) | {"inputs": dict(ce.inputs)}  # keeps the key order
        return {
            "theorem": self.theorem,
            "status": self.status,
            "checked": self.checked_count,
            "range": asdict(self.range),
            "counterexample": ce,
        }


def _fmt(value) -> str:
    return bitcore.format_rational(value) if isinstance(value, Fraction) else str(value)


def _ce(expected, actual, **inputs) -> Counterexample:
    return Counterexample(
        tuple((k, _fmt(v)) for k, v in inputs.items()), _fmt(expected), _fmt(actual)
    )


def _random_args(config: RangeConfig, theorem: str, wide_bits: int = 0) -> list[int]:
    """Deterministic arguments of exactly random_bits bits.

    Every second one has max(random_bits, wide_bits) bits instead.
    """
    rng = random.Random(f"{config.seed}:{theorem}")
    args = []
    for trial in range(config.random_big_trials):
        bits = max(config.random_bits, wide_bits) if trial % 2 else config.random_bits
        args.append((1 << (bits - 1)) | rng.getrandbits(bits - 1) if bits > 1 else 1)
    return args


def _reader(field: Callable) -> Callable[[int], tuple[int, int]]:
    """n -> field(n) as (num, den): a Kernel's core, or the returned value's
    as_integer_ratio()."""
    if isinstance(field, Kernel):
        return field.core
    return lambda n: field(n).as_integer_ratio()


def _column(field: Callable, ns: range, windowed: bool):
    """field(n) for n in ns, step 1 or -1, as _reader's pairs, lazily: windowed,
    a Kernel's column over deviations._windows, else _reader per n."""
    if not (windowed and isinstance(field, Kernel)):
        return map(_reader(field), ns)
    pieces = deviations._windows(min(ns[0], ns[-1]), max(ns[0], ns[-1]))
    pairs = chain.from_iterable(map(field.column, starmap(deviations._Window, pieces)))
    return pairs if ns.step > 0 else reversed(list(pairs))


def _over(denominator: int, reads) -> tuple[list[int], int]:
    """The (num, den) reads as numerators over denominator, which every
    shipped kernel's den divides, or else over the lcm of it and each den."""
    nums = []
    for p, q in reads:
        scale, rest = divmod(denominator, q)
        if rest:
            return _over(math.lcm(denominator, *(q for _, q in reads)), reads)
        nums.append(p * scale)
    return nums, denominator


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _is_all_ones(n: int) -> bool:
    return n >= 1 and n & (n + 1) == 0


# ----------------------------------------------------------------- domains


def _n_scan(first: int, *reads, trials: bool = False, wide_bits: int = 0):
    """The domain (n, *values) of n in first..max_n, read a window at a time,
    then with trials the random trials, read per n.  A read names an
    Evaluators field, read at n, or is (name, at): the field at at(n) for a
    function at (hat, tilde), or for an int at the tuple of its values at
    at * n + r, r < at."""

    def items(ev: Evaluators, lo: int, hi: int, windowed: bool = True):
        columns = []
        for field, at in ((r, 1) if isinstance(r, str) else r for r in reads):
            if callable(at):
                k, ns = 1, range(at(lo), at(hi) - 1, -1)
            else:
                k, ns = at, range(at * lo, at * hi + at)
            column = _column(getattr(ev, field), ns, windowed)
            columns.append(zip(*[column] * k) if k > 1 else column)
        return zip(range(lo, hi + 1), *columns)

    def domain(config: RangeConfig, theorem: str, ev: Evaluators):
        windows = deviations._windows(first, config.max_n)
        args = _random_args(config, theorem, wide_bits) if trials else ()
        scan = (items(ev, lo, hi) for lo, hi in windows)
        return chain.from_iterable(chain(scan, (items(ev, n, n, False) for n in args)))

    return domain


def _m_range(config: RangeConfig, theorem: str, ev: Evaluators):
    """m in 0..max_m."""
    return range(0, config.max_m + 1)


def _scan_rows(config: RangeConfig, theorem: str, ev: Evaluators):
    """(n, V(n), U(n), G(n)) for n in 1..max_n, by running the defining sums."""
    return sums.scan_sums(config.max_n)


def _skeleton_grid(config: RangeConfig, first: int):
    """The (r, p) grid from (first, first), and skeleton(r) for r <= max_r + 1."""
    pairs = [extremal.skeleton(r) for r in range(config.max_r + 2)]
    r_range, p_range = range(first, config.max_r + 1), range(first, config.max_p + 1)
    return itertools.product(r_range, p_range), pairs


_SETUPS: dict[str, Callable] = {}  # theorem -> (config, ev) -> (items, predicate)
CLAIMS: dict[str, str] = {}


def _claim(theorem: str, domain=None):
    """Register a predicate over domain, or without one a setup, as theorem.

    THEOREM_IDS keeps the order of registration, CLAIMS each docstring's
    first line.
    """

    def register(fn):
        if domain is None:
            _SETUPS[theorem] = fn
        else:
            _SETUPS[theorem] = lambda config, ev: (domain(config, theorem, ev), fn)
        CLAIMS[theorem] = fn.__doc__.strip().splitlines()[0]
        return fn

    return register


# ---------------------------------------------------------------- checkers


@_claim("P1B", _n_scan(1, "sum_v"))
def _check_p1b(ev, item):
    """2n/3 < V(n) < (2n+2)/3, strictly, for every n."""
    n, (p, q) = item
    if not 2 * n * q < 3 * p < (2 * n + 2) * q:
        return _ce(
            f"strictly between {_fmt(Fraction(2 * n, 3))} and"
            f" {_fmt(Fraction(2 * n + 2, 3))}",
            Fraction(p, q),
            n=n,
        )


@_claim("COR3", _n_scan(1, ("dev_v", 2)))
def _check_cor3(ev, item):
    """v sits in (0, 1/3) at even arguments and (1/3, 2/3) at odd ones."""
    n, ((p, q), odd) = item
    if not (0 < p and 3 * p < q):
        return _ce("in (0, 1/3)", Fraction(p, q), n=2 * n)
    p, q = odd
    if not q < 3 * p < 2 * q:
        return _ce("in (1/3, 2/3)", Fraction(p, q), n=2 * n + 1)


@_claim("COR4", _n_scan(1, "dev_v"))
def _check_cor4(ev, item):
    """Block bounds of v on I_m, sharp exactly at 2^m and 2^(m+1)-1."""
    n, (p, q) = item
    m = n.bit_length() - 1
    # value and both bounds over 3n * 2**m, times q
    scaled = (3 * n << m) * p
    low_q, high_q = n * q, (((2 * n - 2) << m) + 1) * q
    in_range, at_low = low_q <= scaled <= high_q, scaled == low_q
    is_top = n == (2 << m) - 1
    if in_range and at_low == _is_pow2(n) and (scaled == high_q) == is_top:
        return None
    low, value = Fraction(1, 3 << m), Fraction(p, q)
    high = Fraction(2, 3) - Fraction((2 << m) - 1, (3 * n) << m)
    if not in_range:
        return _ce(f"in [{_fmt(low)}, {_fmt(high)}]", value, n=n)
    if at_low != _is_pow2(n):
        return _ce(f"{_fmt(low)} exactly iff n = 2^m", value, n=n)
    return _ce(f"{_fmt(high)} exactly iff n = 2^(m+1)-1", value, n=n)


@_claim("T5", _n_scan(1, "sum_v"))
def _check_t5(ev, item):
    """Sharp bracketing of V; equality iff n resp. n+1 is a power of two."""
    n, (p, q) = item
    low_gap = 3 * n * p - (2 * n * n + 1) * q
    high_gap = 2 * n * (n + 2) * q - 3 * (n + 1) * p
    if low_gap > 0 and high_gap > 0 and not (_is_pow2(n) or _is_pow2(n + 1)):
        return None
    value = Fraction(p, q)
    if low_gap < 0:
        return _ce(f">= {_fmt(Fraction(2 * n * n + 1, 3 * n))}", value, n=n)
    if (low_gap == 0) != _is_pow2(n):
        return _ce("lower equality iff n = 2^m", value, n=n)
    if high_gap < 0:
        return _ce(f"<= {_fmt(Fraction(2 * n * (n + 2), 3 * (n + 1)))}", value, n=n)
    if (high_gap == 0) != _is_pow2(n + 1):
        return _ce("upper equality iff n = 2^m - 1", value, n=n)


@_claim("L1", _n_scan(1, "h"))
def _check_l1(ev, item):
    """0 <= h(n) <= n-1, hitting 0 only all-ones and n-1 only powers of two."""
    n, (p, q) = item
    value = p if q == 1 else Fraction(p, q)
    if not 0 <= value <= n - 1:
        return _ce(f"in [0, {n - 1}]", value, n=n)
    if (value == 0) != _is_all_ones(n):
        return _ce("0 exactly iff n = 2^(m+1)-1", value, n=n)
    if (value == n - 1) != _is_pow2(n):
        return _ce(f"{n - 1} exactly iff n = 2^m", value, n=n)


@_claim("T2", _n_scan(1, "sum_u"))
def _check_t2(ev, item):
    """Parity-split bounds of U with all four equality families.

    Even n: n^2+2 <= 3U <= n^2+n, sharp at 2^m and 2^m-2.  Odd n: the
    coarse 3U >= n^2+n+1 holds everywhere, the sharp form is
    3U >= n^2+n+3 for odd n >= 3 with equality exactly at 2^m+1, and
    3U <= n^2+2n is sharp exactly at 2^m-1.
    """
    n, (p, q) = item
    triple = 3 * p if q == 1 else Fraction(3 * p, q)
    if n % 2 == 0:
        low, high = n * n + 2, n * n + n
        if not low <= triple <= high:
            return _ce(f"3*U(n) in [{low}, {high}]", triple, n=n)
        if (triple == low) != _is_pow2(n):
            return _ce(f"3*U(n) = {low} iff n = 2^m", triple, n=n)
        if (triple == high) != _is_pow2(n + 2):
            return _ce(f"3*U(n) = {high} iff n = 2^m - 2", triple, n=n)
        return None
    if triple < n * n + n + 1:
        return _ce(f"3*U(n) >= {n * n + n + 1}", triple, n=n)
    if n >= 3 and triple < n * n + n + 3:
        return _ce(f"3*U(n) >= {n * n + n + 3}", triple, n=n)
    if (triple == n * n + n + 3) != (n >= 3 and _is_pow2(n - 1)):
        return _ce(f"3*U(n) = {n * n + n + 3} iff n = 2^m + 1", triple, n=n)
    high = n * n + 2 * n
    if triple > high:
        return _ce(f"3*U(n) <= {high}", triple, n=n)
    if (triple == high) != _is_pow2(n + 1):
        return _ce(f"3*U(n) = {high} iff n = 2^m - 1", triple, n=n)


@_claim("P4B", _n_scan(1, "sum_g"))
def _check_p4b(ev, item):
    """n(n + 7/4)/3 <= G(n) <= n(n+2)/3 for every n."""
    n, (p, q) = item
    if 12 * p < (4 * n * n + 7 * n) * q:
        return _ce(f">= {_fmt(Fraction(n * (4 * n + 7), 12))}", Fraction(p, q), n=n)
    if 3 * p > n * (n + 2) * q:
        return _ce(f"<= {_fmt(Fraction(n * (n + 2), 3))}", Fraction(p, q), n=n)


@_claim("P5C", _n_scan(1, "dev_g"))
def _check_p5c(ev, item):
    """0 <= g(n) <= floor_lg(n)/3."""
    n, (p, q) = item
    m = n.bit_length() - 1
    if not (0 <= p and 3 * p <= m * q):
        return _ce(f"in [0, {_fmt(Fraction(m, 3))}]", Fraction(p, q), n=n)


@_claim("COR5", _n_scan(1, "dev_g"))
def _check_cor5(ev, item):
    """g vanishes exactly on the all-ones integers 2^r - 1."""
    n, (p, q) = item
    if (p == 0) != _is_all_ones(n):
        return _ce("0 exactly iff n = 2^r - 1", Fraction(p, q), n=n)


@_claim("P2C")
def _check_p2c(config, ev):
    """Telescoping: v(n) + sum_p v(n >> p) = (2/3) popcount(n).

    One recurrence, S(x) = v(x) + S(x >> 1) for S(x) = sum_p v(x >> p),
    serves the scan and the trials: from the longest prefix of n in the
    memo (n >> 1 for a scanned n, about max_n wide for a trial) it adds v
    of each longer prefix, n last.  The memo keeps S(x) over
    3 * 2**bit_length(x) for each scanned x; the check at n holds only for
    the true, on-grid v(n), so no widened denominator reaches the memo.
    """
    memo, read = [0], _reader(ev.dev_v)

    def telescoped(ev, item):
        n, value = item  # value: v(n) read from a window, None in a trial
        k = max(n.bit_length() - len(memo).bit_length(), 0) + 1
        total, den = memo[n >> k], 3 << (n >> k).bit_length()
        for j in range(k - 1, -1, -1):
            num, q = read(n >> j) if j or value is None else value
            if q != den:  # v(x) off the grid of S(x >> 1): a replaced dev_v
                wide = math.lcm(den, q)
                num, total, den = num * (wide // q), total * (wide // den), wide
            num <<= 1  # S(x) = v(x) + S(x >> 1), over twice the den
            total, den = (total << 1) + num, den << 1
        if 3 * (num + total) != 2 * n.bit_count() * den:
            return _ce(Fraction(2 * n.bit_count(), 3), Fraction(num + total, den), n=n)
        if n == len(memo):
            memo.append(total)

    trials = ((n, None) for n in _random_args(config, "P2C"))
    return chain(_n_scan(1, "dev_v")(config, "P2C", ev), trials), telescoped


@_claim("P2D", _n_scan(1, "dev_v", ("dev_v", bitcore.hat), trials=True))
def _check_p2d(ev, item):
    """Complement symmetry: v(n) + v(hat(n)) = 2/3."""
    n, (a, b), (c, d) = item
    if 3 * (a * d + c * b) != 2 * b * d:
        return _ce(Fraction(2, 3), Fraction(a, b) + Fraction(c, d), n=n)


@_claim("P6B", _n_scan(1, "dev_g", ("dev_g", bitcore.tilde), trials=True))
def _check_p6b(ev, item):
    """Reflection symmetry: g(n) = g(tilde(n))."""
    n, (a, b), (c, d) = item
    if a * d != c * b:
        return _ce(Fraction(c, d), Fraction(a, b), n=n)


@_claim("EQL21", _n_scan(0, "dev_g", "dev_v", ("dev_g", 4), trials=True))
def _check_eql21(ev, item):
    """Two-step rules: g(4n), g(4n+1), g(4n+2), g(4n+3) from g(n), v(n).

    g(n) and v(n) live over 3 * 2**m, m = floor_lg(n), and g(4n + r) over
    3 * 2**(m+2), so all six values are brought over the latter and the
    four rules compared as integers.
    """
    n, g, v, quadruple = item
    values = [g, v, *quadruple]
    m = max(n.bit_length() - 1, 0)  # n = 0 fits the n = 1 denominators
    (g, v, *actuals), den = _over(12 << m, values)
    # four times each rule, over den: 4 * 1/6 is 2 * den / 3
    rules = (4 * g + 3 * v, 4 * g + 2 * v, 4 * g + 2 * den // 3 + v, 4 * g)
    for residue, (actual, rule) in enumerate(zip(actuals, rules)):
        if 4 * actual != rule:
            expected = Fraction(rule, 4 * den)
            return _ce(expected, Fraction(actual, den), n=n, residue=residue)


@_claim("L2")
def _check_l2(config, ev):
    """The two skeleton-offset difference identities, all p >= 0, r >= 0."""
    grid, pairs = _skeleton_grid(config, 0)
    read_g, read_v = _reader(ev.dev_g), _reader(ev.dev_v)

    def gap(a: int, b: int) -> tuple[int, int]:
        """g(a) - g(b) as an unreduced numerator and denominator."""
        (c, d), (e, f) = read_g(a), read_g(b)
        return c * f - e * d, d * f

    def identities(ev, item):
        r, p = item
        x_r, y_r, x_next = pairs[r].x, pairs[r].y, pairs[r + 1].x
        s, t = read_v(p)
        # g(base + offset) - g(base + y_r) = (1 + sign / 2**k) sign (1/3 - v(p)) / 3,
        # the right side over 9t * 2**k for v(p) = s/t, the left over den
        for name, base, offset, k, sign in (
            ("even-shift", p << (2 * r + 2), x_next, 2 * r + 1, 1),
            ("odd-shift", p << (2 * r + 1), x_r, 2 * r, -1),
        ):
            num, den = gap(base + offset, base + y_r)
            right = ((1 << k) + sign) * sign * (t - 3 * s)
            if (9 * t * num) << k != right * den:
                expected = Fraction(right, (9 * t) << k)
                return _ce(expected, Fraction(num, den), p=p, r=r, identity=name)

    return grid, identities


@_claim("COR6")
def _check_cor6(config, ev):
    """Four strict orderings between skeleton offsets, all p, r >= 1."""
    grid, pairs = _skeleton_grid(config, 1)
    read = _reader(ev.dev_g)

    def orderings(ev, item):
        r, p = item
        x_r, y_r = pairs[r].x, pairs[r].y
        x_next, y_prev = pairs[r + 1].x, pairs[r - 1].y
        even_base = p << (2 * r + 2)
        odd_base = p << (2 * r + 1)
        for smaller, larger in (
            (even_base + x_r, even_base + y_r),
            (even_base + (1 << (2 * r + 1)) + y_r, even_base + x_next),
            (odd_base + y_prev, odd_base + x_r),
            (odd_base + (1 << (2 * r)) + x_r, odd_base + y_r),
        ):
            (a, b), (c, d) = read(smaller), read(larger)
            if not a * d < c * b:
                return _ce(
                    f"g({smaller}) < g({larger})",
                    f"{_fmt(Fraction(a, b))} vs {_fmt(Fraction(c, d))}",
                    p=p,
                    r=r,
                )

    return grid, orderings


@_claim("T3")
def _check_t3(config, ev):
    """Closed two-candidate block maximum against the literal scan."""
    top = max(min(config.max_m, 12), 0)  # each n's block grows once, level by level
    blocks = (
        (n, m, Fraction(max(nums), den))
        for n in range(1, min(config.max_n, 64) + 1)
        for m, (nums, den) in enumerate(extremal._block_levels(n, top))
        if m
    )

    def block_maximum(ev, item):
        if isinstance(item, int):  # lambda_block(1, m) against its closed form
            m = item
            closed = extremal.lambda_block(1, m)
            want = Fraction(((3 * m + 1) << m) + (1 if m % 2 else -1), 27 << m)
            if closed != want:
                return _ce(want, closed, m=m)
            return None
        n, m, brute = item
        closed = extremal.lambda_block(n, m)
        if closed != brute:
            return _ce(brute, closed, n=n, m=m)

    closed_forms = range(1, 2 * min(config.max_m, 7) + 1)
    return itertools.chain(blocks, closed_forms), block_maximum


@_claim("COR7", _m_range)
def _check_cor7(ev, m):
    """Maximum of g on I_m is lambda_m."""
    brute = extremal.lambda_block_brute(1, m)
    closed = extremal.lambda_m(m)
    if brute != closed:
        return _ce(closed, brute, m=m)


@_claim("COR8", _n_scan(1, "dev_g"))
def _check_cor8(ev, item):
    """Chain 0 <= g(n) <= theta_n <= floor_lg(n)/9 + 1/18."""
    n, (p, q) = item
    m = n.bit_length() - 1
    t, s = extremal._theta_parts(m)
    if not (0 <= p and p * s <= t * q and 18 * t <= (2 * m + 1) * s):
        bound = f"{_fmt(Fraction(t, s))} <= {_fmt(Fraction(2 * m + 1, 18))}"
        return _ce(f"0 <= g <= {bound}", Fraction(p, q), n=n)


@_claim("P10", _m_range)
def _check_p10(ev, m):
    """Extrema of g on I_m localized: min 0 once, max at the two points."""
    nums = extremal.block_g_values(1, m)
    den, base = math.lcm(3 << m, *(g.denominator for g in nums)), 1 << m
    for t, g in enumerate(nums):  # in place: each Fraction is freed once read
        nums[t] = g.numerator * (den // g.denominator)
    best, low = max(nums), min(nums)
    max_points = tuple(base + t for t, num in enumerate(nums) if num == best)
    min_points = tuple(base + t for t, num in enumerate(nums) if num == low)
    report = extremal.argmax_g(m)
    ok = (
        low == 0 == report.min_value
        and min_points == report.min_points
        and Fraction(best, den) == report.max_value
        and max_points == report.max_points
    )
    if m >= 2:
        rounded = (base - 1 + bitcore.round_pow2_over_3(k) for k in (m, m + 1))
        ok = ok and len(max_points) == 2 and max_points == tuple(sorted(rounded))
    if ok:
        return None
    expected = (
        f"max {_fmt(report.max_value)} at"
        f" {','.join(map(str, report.max_points))},"
        f" min 0 at {','.join(map(str, report.min_points))}"
    )
    actual = (
        f"max {_fmt(Fraction(best, den))} at {','.join(map(str, max_points))},"
        f" min {_fmt(Fraction(low, den))} at {','.join(map(str, min_points))}"
    )
    return _ce(expected, actual, m=m)


@_claim("COR10")
def _check_cor10(config, ev):
    """g(n) = theta_n exactly on the two rounded families."""
    members = frozenset(extremal.equality_set("G_THETA", config.max_n))

    def on_families(ev, item):
        n, (p, q) = item
        t, s = extremal._theta_parts(n.bit_length() - 1)
        if (p * s == t * q) != (n in members):
            expected = "g = theta_n exactly on the rounded families"
            return _ce(expected, Fraction(p, q), n=n)

    return _n_scan(1, "dev_g")(config, "COR10", ev), on_families


_EQ4_READS = ("sum_g", "sum_u", "sum_v", "dev_g", "dev_u")


@_claim(
    "EQ4_IDENTITY", _n_scan(1, *_EQ4_READS, trials=True, wide_bits=_H_SPLIT_BITS)
)
def _check_eq4(ev, item):
    """G(n) = (n+1) V(n) - U(n).

    The fast sums share one kernel, so the identity alone holds by
    algebra; G and U are also held against their envelopes minus the
    deviations, which come from independent evaluators.  All five values
    are compared as integers over 3 * 2**m, m = floor_lg(n).
    """
    n, *values = item
    (g, u, v, dev_g, dev_u), den = _over(3 << (n.bit_length() - 1), values)
    for expected, actual, function in (
        ((n + 1) * v - u, g, None),
        (n * (n + 2) * (den // 3) - dev_g, g, "G"),
        ((n * n + n) * (den // 3) - dev_u, u, "U"),
    ):
        if actual != expected:
            named = {"function": function} if function else {}
            return _ce(Fraction(expected, den), Fraction(actual, den), n=n, **named)


@_claim("ORACLE_UVG", _scan_rows)
def _check_oracle(ev, row):
    """Closed-form evaluators agree with the defining sums, term by term."""
    n, *refs = row
    for function, field, ref in zip("VUG", (ev.sum_v, ev.sum_u, ev.sum_g), refs):
        p, q = _reader(field)(n)
        a, b = ref.as_integer_ratio()
        if p * b != a * q:
            return _ce(ref, Fraction(p, q), n=n, function=function)


THEOREM_IDS = tuple(_SETUPS)


def check(
    theorem: str,
    config: RangeConfig | None = None,
    evaluators: Evaluators | None = None,
) -> VerifyReport:
    """Run one checker; failures are reported, never raised.

    The one loop over a checker's items: it counts them, stops at the
    first counterexample and times the run, setup included.
    """
    if theorem not in _SETUPS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    config = config if config is not None else RangeConfig()
    ev = evaluators if evaluators is not None else Evaluators()
    start = time.perf_counter()
    items, predicate = _SETUPS[theorem](config, ev)
    checked, counterexample = 0, None
    for item in items:
        checked += 1
        counterexample = predicate(ev, item)
        if counterexample is not None:
            break
    elapsed = time.perf_counter() - start
    status = "fail" if counterexample is not None else "pass"
    return VerifyReport(theorem, config, status, counterexample, checked, elapsed)


def run_all(
    config: RangeConfig | None = None,
    evaluators: Evaluators | None = None,
) -> list[VerifyReport]:
    """Every checker in declaration order; deterministic for a fixed config."""
    return [check(theorem, config, evaluators) for theorem in THEOREM_IDS]
