"""Deviations of the three sums from their leading-order envelopes.

    v(n) = V(n) - 2n/3              in [0, 2/3), dyadic thirds
    u(n) = (n**2 + n)/3 - U(n)      3*u(n) is an integer
    g(n) = n(n+2)/3 - G(n)          in [0, floor_lg(n)/3]

The doubling rules they inherit are

    v(2n) = v(n)/2                  v(2n+1) = 1/3 + v(n)/2
    u(2n + e) = u(n) + n/3 - e*(2n + e)/3
    g(2n) = g(n) + v(n)/2           g(2n+1) = g(n)

Because the rules are affine, each deviation also has a closed form in
two digit kernels, the digit reversal of n and the functional h below
(m = floor_lg(n), e0 the parity of n):

    v(n) = reverse(n) / (3 * 2**m)
    u(n) = (2 * h(n >> 1) - e0*n) / 3
    g(n) = n/3 - (n+1)*v(n) - u(n)

Each closed form lives once, as an integer core: _dev_v_core, _triple_u
and _dev_g_closed_core, which dev_v, dev_u_closed and dev_g_closed wrap
and from which sums builds V, U and G, so the checkers of V, U and G
check every closed form.  dev_u and dev_g, the doubling rules carrying
3u and v, are their independent second evaluators.  dev_v_recur (v's
rule digit by digit) and dev_g_digit (half the sum of v(n >> (p+1))
over the zero digits p < m of n) are references for the tests and the
benchmark that no checker reads.  Over a window of consecutive n in one
block, _stepped builds reverse, h, dev_u's 3u and dev_g's state 8 digits
at a time, each from the scalar core's own table entry for the chunk,
and a _Window holds them for one window, each built on its first read.

h(n) = sum of floor(n / 2**(k+1)) over the zero digits k of n below the
leading one; it sits in [0, n-1], vanishing exactly on the all-ones
integers and hitting n-1 exactly on the powers of two.  With s the digit
sum of n and a_d = popcount(n & (n >> d)) its pairs of one digits d
apart, the shifts over all k < m sum to n - s (Legendre's formula) and
those over the one digits to X/2, X = sum_{d>=1} a_d 2**d.  As a_d is
symmetric in d, P = n * reverse(n) = 2**m (s + X) + L, L the sum of
a_d 2**(m-d) over d >= 1.  Each a_d is at most m, so the terms T of L
with d <= bit_length(m) leave L - T < 2**m, and h(n) = n - s - X/2 is
n - (s + ((P - T) >> m)) / 2: O(M(m)), M(m) the cost of an m-bit
product, against O(m**2) for the defining sum.  Up to _H_BASE_BITS
digits, where the product's fixed costs dominate, the defining sum runs
8 digits per step, as 3u's doubling rule does below.

h and 3u share one affine rule shape, f(2x + e) = f(x) + alpha_e x +
beta_e with f(0) = 0: (alpha_e, beta_e) is (1 - e, 0) for h and
(1 - 2e, -e) for 3u.  _affine_table applies a one-digit rule 8 times to
give each chunk c of 8 digits its (a, b), f(256x + c) = f(x) + a x + b,
and _affine_walk reads n in whole bytes from the top, from f(0) = 0;
leading zeros add nothing, since f(0) = 0 forces beta_0 = 0.  The walk
serves h_eval and dev_u, and _affine_steps, the same step over a window
of x, serves their windows.  Each table comes from its kernel's own
one-digit rule, so dev_u's is not h's.  dev_g walks its scaled state
(g, v, level) over the same whole bytes, from n = 0, where g = v = 0, by
its own 8-digit table.  The walks are loops over integer state, so deep
arguments cost no recursion depth and no intermediate reductions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Callable

from . import bitcore
from .bitcore import DomainError, dyadic_third, reverse_digits

__all__ = [
    "dev_g",
    "dev_g_closed",
    "dev_g_digit",
    "dev_u",
    "dev_u_closed",
    "dev_v",
    "dev_v_recur",
    "h_eval",
]

# h walks its defining sum on at most this many digits and takes the product
# past them; near 90 digits both cost about 2 us (2 cores, Python 3.11).
_H_BASE_BITS = 88


def _affine_table(rule) -> list[tuple[int, int]]:
    """(a, b) per chunk c of 8 digits: f(256x + c) = f(x) + a*x + b.

    rule[e] = (alpha, beta) is f's one-digit rule f(2x + e) = f(x) +
    alpha*x + beta, applied once per digit of c, with beta = 0 at e = 0.
    """
    table = [(0, 0)]
    for width in range(8):  # append a lower digit e: the chunk c -> 2c + e
        table = [
            (a + (alpha << width), b + alpha * c + beta)
            for c, (a, b) in enumerate(table)
            for alpha, beta in rule
        ]
    return table


def _g_table() -> list[tuple[int, int, int]]:
    """(z, y, r) per chunk: g' = (g << 8) + z*v + (y << L), v' = v + (r << (L+1)).

    (g, v) is scaled by 3 * 2**L.  A digit e at level L + width:
    g' <- 2g' + (1-e) v' and v' <- v' + (e << (L + width + 1)).
    """
    table = [(0, 0, 0)]
    for width in range(8):
        bit = 1 << width
        table = [
            step
            for z, y, r in table
            for step in ((2 * z + 1, 2 * y + (r << 1), r), (2 * z, 2 * y, r + bit))
        ]
    return table


# h(2x + e) = h(x) + (1-e) x, and 3u(2x + e) = 3u(x) + (1-2e) x - e
_H_STEP = _affine_table(((1, 0), (0, 0)))
_G_STEP = _g_table()
_U_STEP = _affine_table(((1, 0), (-1, -1)))


def _affine_walk(n: int, table: list) -> int:
    """f(n) from f(0) = 0 over the whole bytes c of n, top first, each adding
    a*prefix + b, (a, b) = table[c]; n's leading zeros add nothing."""
    prefix = total = 0
    for c in n.to_bytes((n.bit_length() + 7) >> 3, "big"):
        a, b = table[c]
        total += a * prefix + b
        prefix = (prefix << 8) | c
    return total


def _dyadic(pair: tuple[int, int]) -> Fraction:
    """num / den for a core's (num, den), den = 3 * 2**m, in lowest terms."""
    return dyadic_third(pair[0], pair[1].bit_length() - 2)


def _dev_v_core(n: int) -> tuple[int, int]:
    """v(n) as (reverse(n), 3 * 2**m), unreduced; (0, 3) at n = 0."""
    if n < 0:
        raise DomainError("dev_v requires n >= 0")
    return (reverse_digits(n), 3 << (n.bit_length() - 1)) if n else (0, 3)


def dev_v(n: int) -> Fraction:
    """v(n) by the digit formula: reversed binary digits over 3 * 2**m."""
    return _dyadic(_dev_v_core(n))


# The second evaluators, dev_u_closed and the brute oracles build their own
# Fraction(num, den), so no check reads a value reduced by dyadic_third on both
# sides; and a gcd against 3, as in dev_u, is linear already.
def dev_v_recur(n: int) -> Fraction:
    """v(n) by the doubling rules, one digit at a time from the top."""
    if n < 0:
        raise DomainError("dev_v_recur requires n >= 0")
    if n == 0:
        return Fraction(0)
    m = n.bit_length() - 1
    num = 1  # v(prefix) scaled by 3 * 2**level
    for k in range(m - 1, -1, -1):
        num += ((n >> k) & 1) << (m - k)
    return Fraction(num, 3 << m)


def _dev_u_core(n: int) -> tuple[int, int]:
    """u(n) as (3u, 3), by the doubling rule, 8 digits per step."""
    if n < 0:
        raise DomainError("dev_u requires n >= 0")
    return _affine_walk(n, _U_STEP), 3


def dev_u(n: int) -> Fraction:
    """u(n) by the doubling rule, carrying the integer 3*u, 8 digits per step."""
    return Fraction(*_dev_u_core(n))


def _h_product(n: int) -> int:
    """h(n) for n >= 1 from the one product P = n * reverse(n)."""
    m = n.bit_length() - 1
    depth = min(m, m.bit_length())  # 2**depth > m bounds the terms left out
    head = 0  # T >> (m - depth): a_1 .. a_depth as digits from the top
    for d in range(1, depth + 1):
        head = (head << 1) + (n & (n >> d)).bit_count()
    total = ((n * reverse_digits(n) >> (m - depth)) - head) >> depth  # s + X
    return n - ((n.bit_count() + total) >> 1)


def h_eval(n: int) -> int:
    """h(n): sum of the right shifts n >> (k+1) over the zero digits k < m."""
    if n <= 0:
        raise DomainError("h_eval requires n >= 1")
    if n.bit_length() - 1 > _H_BASE_BITS:
        return _h_product(n)
    return _affine_walk(n, _H_STEP)  # the defining sum, 8 digits per step


def _triple_u(n: int, h_half: int | None = None) -> int:
    """3u(n) = 2h(n >> 1) - e0*n for n >= 0, taking h of the empty string as 0;
    h_half is h(n >> 1), when the caller has it."""
    if h_half is None:
        h_half = h_eval(n >> 1) if n > 1 else 0
    return 2 * h_half - (n & 1) * n


def dev_u_closed(n: int) -> Fraction:
    """u(n) by the closed form -e0*n/3 + (2/3) h(floor(n/2))."""
    if n < 0:
        raise DomainError("dev_u_closed requires n >= 0")
    return Fraction(_triple_u(n), 3)


def _dev_g_state(n: int) -> tuple[int, int, int]:
    """(g, v, level): g(n) and v(n) scaled by 3 * 2**level, n padded to level
    digits, by the doubling rules, 8 digits per step."""
    g_num = v_num = level = 0
    for c in n.to_bytes((n.bit_length() + 7) >> 3, "big"):
        z, y, r = _G_STEP[c]
        g_num = (g_num << 8) + z * v_num + (y << level)
        v_num += r << (level + 1)
        level += 8
    return g_num, v_num, level


def _dev_g_core(n: int) -> tuple[int, int]:
    """g(n) as (num, 3 * 2**m), m = floor_lg(n); (0, 3) at n = 0."""
    if n < 0:
        raise DomainError("dev_g requires n >= 0")
    g_num, _, level = _dev_g_state(n)
    drop = level + 1 - n.bit_length() if n else 0  # the byte padding's zeros
    if g_num & ((1 << drop) - 1):  # off the 3 * 2**m grid: a corrupted table
        drop = 0
    return g_num >> drop, 3 << (level - drop)


def dev_g(n: int) -> Fraction:
    """g(n) by the doubling rules, carrying v alongside, 8 digits per step."""
    return _dyadic(_dev_g_core(n))


def _dev_g_closed_core(n: int) -> tuple[int, int]:
    """g(n) as (num, 3 * 2**m) by the closed form n/3 - (n+1) v(n) - u(n)."""
    if n < 0:
        raise DomainError("dev_g_closed requires n >= 0")
    reverse, den = _dev_v_core(n)
    return _g_num(n, den.bit_length() - 2, reverse, _triple_u(n)), den


def _g_num(n: int, m: int, reverse: int, triple_u: int) -> int:  # g(n) * 3 * 2**m
    return ((n - triple_u) << m) - (n + 1) * reverse


# A window holds at most this many n, and n of at most this many digits in all
_WINDOW_ROWS, _WINDOW_BITS = 4096, 1 << 22


def _windows(start: int, stop: int):
    """[lo, hi] pieces of [start, stop]: n = 0 alone, else inside one block."""
    while start <= stop:
        rows = min(_WINDOW_ROWS, _WINDOW_BITS // max(start.bit_length(), 1))
        hi = min(stop, start + max(rows, 1) - 1, (1 << start.bit_length()) - 1)
        yield start, hi
        start = hi + 1


def _stepped(ns: range, core: Callable, steps: Callable) -> list:
    """core(n) for n in ns, a window inside one block I_m, 8 digits at a time.

    steps(xs, values, m) takes the values over the window xs of x = n >> 8,
    built the same way, to those of each n = 256x + c, by the table entry
    that core reads for the chunk c.  A window of at most 2 values, or of
    n < 256, is core's own.
    """
    lo, hi = ns[0], ns[-1]
    if hi - lo < 2 or hi < 256:
        return list(map(core, ns))
    xs = range(lo >> 8, (hi >> 8) + 1)
    column = steps(xs, _stepped(xs, core, steps), hi.bit_length() - 1)
    return column[lo & 0xFF : (lo & 0xFF) + len(ns)]


def _reverse_steps(xs, reverse, m):  # reverse_digits reads c's byte reversed
    tops = [r << (m - 7) for r in bitcore._REVERSED_BYTES]
    return [top + r for r in reverse for top in tops]


def _affine_steps(table: list) -> Callable:  # _affine_walk's last step
    return lambda xs, f, m: [f_x + a * x + b for x, f_x in zip(xs, f) for a, b in table]


def _h_column(ns: range) -> list[int]:
    return _stepped(ns, h_eval, _affine_steps(_H_STEP))


def _g_steps(xs, states, m):  # _dev_g_state's loop body, on the state of x
    return [
        ((g << 8) + z * v + (y << level), v + (r << (level + 1)), level + 8)
        for g, v, level in states
        for z, y, r in _G_STEP
    ]


class _Window:
    """The window kernels over ns = lo..hi, n = 0 alone or inside one block I_m,
    as the scalar cores give them, each built on its first read and then kept:
    reverse(n), h(n), the closed forms' 3u and g, and the recurrences'."""

    def __init__(self, lo: int, hi: int):
        self.ns, self.m = range(lo, hi + 1), max(hi.bit_length() - 1, 0)

    @cached_property
    def reverse(self) -> list[int]:  # 0 at n = 0, as in _dev_v_core
        return _stepped(self.ns, lambda n: _dev_v_core(n)[0], _reverse_steps)

    @cached_property
    def h(self) -> list[int]:
        return _h_column(self.ns)

    @cached_property
    def triple_u(self) -> list[int]:  # from h(n >> 1), 0 for n <= 1 as in _triple_u
        lo, hi = self.ns[0], self.ns[-1]
        h = _h_column(range(lo >> 1, (hi >> 1) + 1)) if lo > 1 else [0]
        halves = [value for value in h for _ in (0, 1)][lo & 1 :][: len(self.ns)]
        return list(map(_triple_u, self.ns, halves))

    @cached_property
    def g(self) -> list[int]:  # g(n) * 3 * 2**m by the closed form
        return list(map(_g_num, self.ns, repeat(self.m), self.reverse, self.triple_u))

    @cached_property
    def dev_u(self) -> list[int]:  # 3u(n), as _dev_u_core walks it
        return _stepped(self.ns, lambda n: _dev_u_core(n)[0], _affine_steps(_U_STEP))

    @cached_property
    def dev_g(self) -> list[tuple[int, int]]:  # _dev_g_core's states, then its drop
        states = _stepped(self.ns, _dev_g_state, _g_steps)
        drop = states[0][2] - self.m  # the byte padding's zeros
        mask, den, wide = (1 << drop) - 1, 3 << self.m, 3 << states[0][2]
        return [(g >> drop, den) if not g & mask else (g, wide) for g, _, _ in states]


def dev_g_closed(n: int) -> Fraction:
    """g(n) by the closed form n/3 - (n+1) v(n) - u(n), over 3 * 2**m."""
    return _dyadic(_dev_g_closed_core(n))


def dev_g_digit(n: int) -> Fraction:
    """g(n) by the digit formula: half the sum of v over zero-digit shifts.

    Each v(n >> (p+1)) is itself evaluated by digit reversal, so nothing
    here shares machinery with dev_g.
    """
    if n < 0:
        raise DomainError("dev_g_digit requires n >= 0")
    if n < 2:
        return Fraction(0)
    m = n.bit_length() - 1
    reversed_str = bin(n)[:1:-1]
    total = 0
    for p in range(m):
        if not (n >> p) & 1:
            # v(n >> (p+1)) has numerator int(reversed_str[p+1:], 2)
            total += int(reversed_str[p + 1 :], 2) << p
    return Fraction(total, 3 << m)
