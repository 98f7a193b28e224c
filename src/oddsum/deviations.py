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
(m = floor_lg(n), h(0) = 0):

    v(n) = reverse(n) / (3 * 2**m)
    u(n) = (2 * h(n) - n) / 3
    g(n) = n/3 - (n+1)*v(n) - u(n)

where 2h - n obeys 3u's doubling rule below, since h(2x + e) = h(x) + (1-e) x,
and both vanish at n = 0.

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

Every second evaluator walks a state (f, s, L) by a one-digit rule
(alpha_e, beta_e, gamma_e) and shifts (kf, ks, kt): the digit e maps the
state to (f 2**kf + alpha_e s + (beta_e << L), s 2**ks + (gamma_e << L),
L + kt), a 3x3 upper-triangular matrix on (f, s, 2**L).  h and 3u carry
(f, x, 0), x the prefix read so far, with shifts (0, 1, 0), so that
f(2x + e) = f(x) + alpha_e x + beta_e; h's rule is ((1, 0, 0), (0, 0, 1))
and 3u's ((1, 0, 0), (-1, -1, 1)).  dev_g carries (g, v, L), g and v
scaled by 3 * 2**L, with shifts (1, 0, 1) and the rule ((1, 0, 0),
(0, 0, 2)).  _chunk_table joins 8 one-digit maps into each 8-digit
chunk's map (a, b, c), and _walk reads n in whole bytes from the top,
from (0, 0, 0); there beta_0 = gamma_0 = 0 make leading zeros add only
to L.  The walk serves h_eval, dev_u and dev_g; over a window,
_affine_steps (h and 3u, values only) and _g_steps take its last step.
Each table comes from its kernel's own rule, so dev_u's is not h's.  The
walk is a loop over integer state, so deep arguments cost no recursion
depth and no intermediate reductions.
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


def _chunk_table(rule, kf: int, ks: int, kt: int) -> list[tuple[int, int, int]]:
    """(a, b, c) per chunk of 8 digits: the chunk maps (f, s, L) to
    (f 2**(8kf) + a s + (b << L), s 2**(8ks) + (c << L), L + 8kt).

    rule[e] = (alpha, beta, gamma) is the one-digit map (f 2**kf + alpha s +
    (beta << L), s 2**ks + (gamma << L), L + kt), joined once per digit.
    """
    table = [(0, 0, 0)]
    for w in range(8):  # append a lower digit e: chunk i becomes chunk 2i + e
        table = [
            (
                (a << kf) + (alpha << w * ks),
                (b << kf) + alpha * c + (beta << w * kt),
                (c << ks) + (gamma << w * kt),
            )
            for a, b, c in table
            for alpha, beta, gamma in rule
        ]
    return table


# h(2x + e) = h(x) + (1-e) x and 3u(2x + e) = 3u(x) + (1-2e) x - e; with g and v
# scaled by 3 * 2**L, g(2n + e) = 2g(n) + (1-e) v(n), v(2n + e) = v(n) + (2e << L)
_H_STEP = _chunk_table(((1, 0, 0), (0, 0, 1)), 0, 1, 0)
_U_STEP = _chunk_table(((1, 0, 0), (-1, -1, 1)), 0, 1, 0)
_G_STEP = _chunk_table(((1, 0, 0), (0, 0, 2)), 1, 0, 1)


def _walk(n: int, table: list, kf: int, ks: int, kt: int) -> tuple[int, int, int]:
    """(f, s, L) from (0, 0, 0) over the whole bytes c of n, top first, by the
    chunk maps table[c]; kf, ks and kt are a byte's shifts, 8 times a digit's."""
    f = s = level = 0
    for c in n.to_bytes((n.bit_length() + 7) >> 3, "big"):
        a, b, x = table[c]
        f = (f << kf) + a * s + (b << level)
        s = (s << ks) + (x << level)
        level += kt
    return f, s, level


def _dev_v_core(n: int) -> tuple[int, int]:
    """v(n) as (reverse(n), 3 * 2**m), unreduced; (0, 3) at n = 0."""
    if n < 0:
        raise DomainError("dev_v requires n >= 0")
    return (reverse_digits(n), 3 << (n.bit_length() - 1)) if n else (0, 3)


def dev_v(n: int) -> Fraction:
    """v(n) by the digit formula: reversed binary digits over 3 * 2**m."""
    return dyadic_third(*_dev_v_core(n))


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
    return _walk(n, _U_STEP, 0, 8, 0)[0], 3


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
    return _walk(n, _H_STEP, 0, 8, 0)[0]  # the defining sum, 8 digits per step


def _triple_u(n: int) -> int:
    """3u(n) = 2h(n) - n for n >= 0, taking h(0) as 0: dev_u_closed's core."""
    if n < 0:
        raise DomainError("dev_u_closed requires n >= 0")
    return 2 * h_eval(n) - n if n else 0


def dev_u_closed(n: int) -> Fraction:
    """u(n) by the closed form (2h(n) - n) / 3."""
    return Fraction(_triple_u(n), 3)


def _dev_g_core(n: int) -> tuple[int, int]:
    """g(n) as (num, 3 * 2**m), m = floor_lg(n); (0, 3) at n = 0."""
    if n < 0:
        raise DomainError("dev_g requires n >= 0")
    g_num, _, level = _walk(n, _G_STEP, 8, 0, 8)  # g and v at 3 * 2**level
    drop = level + 1 - n.bit_length() if n else 0  # the byte padding's zeros
    if g_num & ((1 << drop) - 1):  # off the 3 * 2**m grid: a corrupted table
        drop = 0
    return g_num >> drop, 3 << (level - drop)


def dev_g(n: int) -> Fraction:
    """g(n) by the doubling rules, carrying v alongside, 8 digits per step."""
    return dyadic_third(*_dev_g_core(n))


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


def _affine_steps(table: list) -> Callable:  # _walk's last step, on h's or 3u's f
    return lambda xs, f, m: [y + a * x + b for x, y in zip(xs, f) for a, b, _ in table]


def _g_steps(xs, states, m):  # _walk's last step, on g's state at x
    return [
        ((g << 8) + a * v + (b << level), v + (c << level), level + 8)
        for g, v, level in states
        for a, b, c in _G_STEP
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
        return _stepped(self.ns, h_eval, _affine_steps(_H_STEP))

    @cached_property
    def triple_u(self) -> list[int]:  # 2h(n) - n, 0 at n = 0, as in _triple_u
        return [2 * h - n for n, h in zip(self.ns, self.h)] if self.ns[0] else [0]

    @cached_property
    def g(self) -> list[int]:  # g(n) * 3 * 2**m by the closed form
        return list(map(_g_num, self.ns, repeat(self.m), self.reverse, self.triple_u))

    @cached_property
    def dev_u(self) -> list[int]:  # 3u(n), as _dev_u_core walks it
        return _stepped(self.ns, lambda n: _dev_u_core(n)[0], _affine_steps(_U_STEP))

    @cached_property
    def dev_g(self) -> list[tuple[int, int]]:  # _dev_g_core's states, then its drop
        states = _stepped(self.ns, lambda n: _walk(n, _G_STEP, 8, 0, 8), _g_steps)
        drop = states[0][2] - self.m  # the byte padding's zeros
        mask, den, wide = (1 << drop) - 1, 3 << self.m, 3 << states[0][2]
        return [(g >> drop, den) if not g & mask else (g, wide) for g, _, _ in states]


def dev_g_closed(n: int) -> Fraction:
    """g(n) by the closed form n/3 - (n+1) v(n) - u(n), over 3 * 2**m."""
    return dyadic_third(*_dev_g_closed_core(n))


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
