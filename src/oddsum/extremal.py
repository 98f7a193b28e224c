"""Extrema of g on dyadic blocks, and the solved enumeration problems.

On each block I_m = [2**m, 2**(m+1)) the deviation g attains its
minimum 0 at the single point 2**(m+1)-1 and, for m >= 2, its maximum
at exactly two points.  The machinery for this:

  * skeleton offsets x_r = (2/3)(4**r - 1) (binary 1010...10) and
    y_r = 2*x_r, where block maxima of g occur;
  * the block maximum Lambda(n, m) = max g(2**m n + t) over
    0 <= t < 2**m, which collapses to two g-evaluations;
  * the envelope constants lambda_m = (3m + 1 - (-1)**m 2**-m)/27
    (the maximum of g on I_m) and theta_n = lambda_{floor_lg(n)};
  * the argmax report: max at 2**m + x_{m//2} and 2**m + y_{(m-1)//2},
    equivalently 2**m - 1 + round(2**m/3) and 2**m - 1 + round(2**(m+1)/3).

Also here: the enumerators for the sharp-bound equality sets, for the
perfect-mean equation 3U(n) = n(n+1) (solutions 2**m - 2, m >= 2), and
the threshold scan for g(n) < 1/4 and friends.  The equality sets come
from one table: each is a family {2**m + c : m >= first}, except
G_THETA, which is the set of block argmax points above.  Every member
is re-validated by direct evaluation, so bounds far beyond scan range
stay cheap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap

from . import deviations
from .bitcore import DomainError, check_cap, round_pow2_over_3
from .deviations import _dev_g_core, _dev_v_core, _windows, dev_g
from .sums import KERNELS, _check_brute_cap, u_fast, v_fast

__all__ = [
    "EQUALITY_KINDS",
    "ExtremalReport",
    "LAMBDA_M_CAP",
    "SkeletonPair",
    "argmax_g",
    "block_g_values",
    "equality_set",
    "lambda_block",
    "lambda_block_brute",
    "lambda_m",
    "perfect_mean_solutions",
    "scan_g_below",
    "skeleton",
    "theta",
]


# lambda_m refuses a larger m: its value has an m-bit numerator, and at
# m = 2**20 printing even 10 significant digits already takes seconds.
LAMBDA_M_CAP = 1 << 20


@dataclass(frozen=True)
class SkeletonPair:
    """The r-th skeleton offsets: x = (2/3)(4**r - 1) and y = 2x."""

    r: int
    x: int
    y: int


@dataclass(frozen=True)
class ExtremalReport:
    """Exact extrema of g on one block I_m with every attaining point.

    degenerate marks m in {0, 1}, where the maximum has a single
    attaining point instead of the usual two.
    """

    m: int
    min_value: Fraction
    min_points: tuple[int, ...]
    max_value: Fraction
    max_points: tuple[int, ...]
    degenerate: bool


def skeleton(r: int) -> SkeletonPair:
    """The pair (x_r, y_r) by closed form: x_r = (2/3)(4**r - 1), y_r = 2 x_r."""
    if r < 0:
        raise DomainError("skeleton requires r >= 0")
    x = 2 * ((1 << 2 * r) - 1) // 3
    return SkeletonPair(r, x, 2 * x)


def _peak_offsets(m: int) -> tuple[int, int]:
    """The offsets y_{(m-1)//2} and x_{m//2} where g peaks on a 2**m block:
    y_j and x_j for m = 2j+1, y_j and x_{j+1} for m = 2j+2."""
    return skeleton((m - 1) // 2).y, skeleton(m // 2).x


def lambda_block(n: int, m: int) -> Fraction:
    """Block maximum Lambda(n, m) = max g over {2**m n + t : 0 <= t < 2**m}.

    Closed form: only the two offsets of _peak_offsets can win.
    """
    if n <= 0:
        raise DomainError("lambda_block requires n >= 1")
    if m < 1:
        raise DomainError("lambda_block requires m >= 1")
    base = n << m
    return max(dev_g(base + t) for t in _peak_offsets(m))


def _block_levels(n: int, m: int):
    """For level = 0..m, g over the block {2**level n + t}, in offset order,
    as numerators over one common denominator 3 * 2**(floor_lg(n) + level).

    Grown level by level from (g(n), v(n)) with the doubling rules as
    scaled integers: at each level the scale doubles, so the even child
    2x gets 2g + v (g + v/2) and the odd child 2x+1 gets 2g (g
    unchanged), while v keeps its numerator at 2x and gains the 1/3
    step at 2x+1.  The domain and the cap are checked as level 0 is asked for.
    """
    if n <= 0:
        raise DomainError("block_g_values requires n >= 1")
    if m < 0:
        raise DomainError("block_g_values requires m >= 0")
    _check_brute_cap("the block size 2**m", 1 << m)
    m0 = n.bit_length() - 1
    g_nums = [_dev_g_core(n)[0]]  # both over 3 * 2**m0
    v_nums = [_dev_v_core(n)[0]]
    yield g_nums, 3 << m0
    for level in range(1, m + 1):
        size = 2 * len(g_nums)
        doubled = [g + g for g in g_nums]
        next_g = [0] * size
        next_g[0::2] = [d + v for d, v in zip(doubled, v_nums)]
        next_g[1::2] = doubled
        g_nums = next_g
        yield g_nums, 3 << (m0 + level)  # before v: a caller then holds one level
        if level < m:  # the last level needs no v
            third = 1 << (m0 + level)  # the 1/3 step at this scale
            next_v = [0] * size
            next_v[0::2] = v_nums
            next_v[1::2] = [v + third for v in v_nums]
            v_nums = next_v


def _block_g_numerators(n: int, m: int) -> tuple[list[int], int]:
    """g over the block {2**m n + t}: the last level of _block_levels(n, m)."""
    for last in _block_levels(n, m):  # one level held at a time
        pass
    return last


def block_g_values(n: int, m: int) -> list[Fraction]:
    """Exact g over the block {2**m n + t}, in offset order, by scan.

    One Fraction per element, built from the integer block kernel, which
    grows the block level by level from (g(n), v(n)) by the doubling
    rules.  Independent of the closed form in lambda_block, so it can
    serve as its oracle.  Raises ResourceLimitError when the block has
    more than DEFAULT_BRUTE_CAP elements.
    """
    g_nums, denominator = _block_g_numerators(n, m)
    return [Fraction(g_num, denominator) for g_num in g_nums]


def lambda_block_brute(n: int, m: int) -> Fraction:
    """Literal maximum of g over the 2**m block, by full scan.

    Takes the maximum of the block kernel's integer numerators over
    their one common denominator and builds a single Fraction; it shares
    nothing with the two-candidate closed form in lambda_block.
    """
    g_nums, denominator = _block_g_numerators(n, m)
    return Fraction(max(g_nums), denominator)


def lambda_m(m: int) -> Fraction:
    """Maximum of g on I_m: (3m + 1 - (-1)**m 2**-m)/27, exactly.

    Raises ResourceLimitError, before building anything, for m beyond
    LAMBDA_M_CAP.
    """
    if m < 0:
        raise DomainError("lambda_m requires m >= 0")
    check_cap("m", m, __name__, "LAMBDA_M_CAP")
    sign = -1 if m % 2 else 1
    return Fraction(((3 * m + 1) << m) - sign, 27 << m)


@functools.lru_cache(maxsize=64)  # the checkers read it once per block
def _theta_parts(m: int) -> tuple[int, int]:
    """theta_n for floor_lg(n) = m as (num, 9 * 2**m), unreduced."""
    return (m << m) + round_pow2_over_3(m), 9 << m


def theta(n: int) -> Fraction:
    """theta_n = lambda_{floor_lg(n)}, in the round(2**m/3) form."""
    if n <= 0:
        raise DomainError("theta requires n >= 1")
    return Fraction(*_theta_parts(n.bit_length() - 1))


def argmax_g(m: int) -> ExtremalReport:
    """Where g is extremal on I_m: min 0 at the all-ones point, max at
    the two skeleton points (one point only for m in {0, 1}).

    Raises ResourceLimitError, before any work, for m beyond LAMBDA_M_CAP.
    """
    if m < 0:
        raise DomainError("argmax_g requires m >= 0")
    if m == 0:
        zero = Fraction(0)
        return ExtremalReport(0, zero, (1,), zero, (1,), True)
    if m == 1:
        return ExtremalReport(1, Fraction(0), (3,), Fraction(1, 6), (2,), True)
    max_value = lambda_m(m)  # refuses m past LAMBDA_M_CAP before the skeleton work
    points = tuple(sorted((1 << m) + t for t in _peak_offsets(m)))
    return ExtremalReport(m, Fraction(0), ((2 << m) - 1,), max_value, points, False)


# kind: (first m, offset c, defining equality).  Each set is
# {2**m + c : m >= first} up to the bound, except G_THETA (c = None):
# {2**m - 1 + round(2**k/3) : k in {m, m+1}}, the block argmax points.
_EQUALITY_SETS = {
    "V_LOWER": (0, 0, lambda n: 3 * n * v_fast(n) == 2 * n * n + 1),
    "V_UPPER": (1, -1, lambda n: 3 * (n + 1) * v_fast(n) == 2 * n * (n + 2)),
    "U_EVEN_LOWER": (1, 0, lambda n: 3 * u_fast(n) == n * n + 2),
    "U_EVEN_UPPER": (2, -2, lambda n: 3 * u_fast(n) == n * n + n),
    "U_ODD_LOWER": (1, 1, lambda n: 3 * u_fast(n) == n * n + n + 3),
    "U_ODD_UPPER": (1, -1, lambda n: 3 * u_fast(n) == n * n + 2 * n),
    "G_UPPER": (1, -1, lambda n: dev_g(n) == 0),
    "G_THETA": (0, None, lambda n: dev_g(n) == theta(n)),
}

EQUALITY_KINDS = tuple(_EQUALITY_SETS)


def equality_set(kind: str, bound: int) -> list[int]:
    """All n <= bound attaining the sharp bound named by kind, ascending.

    Generated from the closed-form description of each set, then every
    member is re-validated against the defining equality; a failed
    validation would mean the closed form and the evaluators disagree
    and raises outright.

    Kinds, their closed forms, and the defining equalities:
        V_LOWER       {2**m}        3n V(n) = 2n**2 + 1
        V_UPPER       {2**m - 1}    3(n+1) V(n) = 2n(n+2)
        U_EVEN_LOWER  {2**m, m>=1}  3 U(n) = n**2 + 2
        U_EVEN_UPPER  {2**m - 2}    3 U(n) = n**2 + n
        U_ODD_LOWER   {2**m + 1}    3 U(n) = n**2 + n + 3
        U_ODD_UPPER   {2**m - 1}    3 U(n) = n**2 + 2n
        G_UPPER       {2**r - 1}    g(n) = 0
        G_THETA       the two round(2**r/3)-shifted families; g(n) = theta_n
    """
    if kind not in _EQUALITY_SETS:
        raise ValueError(f"unknown equality kind {kind!r}")
    if bound <= 0:
        raise DomainError("equality_set requires bound >= 1")
    first, c, attains = _EQUALITY_SETS[kind]
    # past m = bit_length(bound) every candidate exceeds the bound
    ms = range(first, bound.bit_length() + 1)
    if c is None:
        candidates = {
            (1 << m) - 1 + round_pow2_over_3(k) for m in ms for k in (m, m + 1)
        }
    else:
        candidates = {(1 << m) + c for m in ms}
    members = sorted(n for n in candidates if 1 <= n <= bound)
    for n in members:
        if not attains(n):
            raise RuntimeError(f"{kind} closed form emitted non-attaining n={n}")
    return members


def perfect_mean_solutions(bound: int) -> list[int]:
    """All n <= bound with 3 U(n) = n(n+1): exactly the 2**m - 2, m >= 2."""
    if bound <= 0:
        raise DomainError("perfect_mean_solutions requires bound >= 1")
    return equality_set("U_EVEN_UPPER", bound)


def _g_below_windows(threshold: Fraction, bound: int):
    """The n <= bound with g(n) < threshold, strictly, as one list per window
    of g, lazily; a bound past the cap is refused at the call."""
    if bound < 0:
        raise DomainError("scan_g_below requires bound >= 0")
    _check_brute_cap("the scan bound", bound)
    p, q = Fraction(threshold).as_integer_ratio()
    column = KERNELS["dev_g_closed"].column  # (num, 3 * 2**m) over a window of I_m

    def below(window):  # g(n) < p/q iff num < p * 3 * 2**m / q, rounded up
        top = -(-p * (3 << window.m) // q)
        return [n for n, (num, _) in zip(window.ns, column(window)) if num < top]

    return map(below, starmap(deviations._Window, _windows(1, bound)))


def scan_g_below(threshold: Fraction, bound: int) -> list[int]:
    """All n <= bound with g(n) < threshold, strictly, by full scan."""
    return list(chain.from_iterable(_g_below_windows(threshold, bound)))
