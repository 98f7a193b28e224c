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
8 digits per step from the bottom: the chunk c of digits j to j+7 adds
(n >> (j+8)) * Z_8(c) + H_8(c) from a table, Z_8(c) the complement of c
read in reverse and H_8(c) h over c padded to 8 digits, and a last chunk
of w < 8 digits adds (n >> m) * (Z_8(c) >> (8-w)) + H_8(c).

The recurrence evaluators walk digits most significant first with scaled
integer state, so deep arguments cost no recursion depth and no
intermediate reductions.  dev_u and dev_g start from n = 0, where the
doubling rules already hold with u = g = v = 0, and read n padded to a
multiple of 8 digits, 8 digits per step: a chunk acts on their state as
an affine map whose coefficients come from a 256-entry table.  Each
table is built at import by applying its kernel's one-digit rule 8
times; the recurrences' tables come from their own doubling rules, not
from h.
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


def _chunk_table(extend, start):
    """A table over the 256 chunks of 8 digits, grown one lower digit at a time.

    extend(table, width) applies a one-digit rule to the entries of the
    chunks c of `width` digits and returns those of 2c and of 2c + 1.
    """
    table = [start]
    for width in range(8):
        zero, one = extend(table, width)
        table = table * 2
        table[0::2], table[1::2] = zero, one
    return table


def _h_digit(table, width):
    """(Z, H) with S(high * 2**width + c) = high*Z + H.

    S sums n >> (j+1) over the zero digits j < width of n, and a lower
    digit e adds one term: S(2n + e) = S(n) + (1-e) n.
    """
    return [(z + (1 << width), h + c) for c, (z, h) in enumerate(table)], table


def _g_digit(table, width):
    """(z, y, r): g' = (g << width) + z*v + (y << L), v' = v + (r << (L+1)).

    (g, v) is scaled by 3 * 2**L.  A digit e at level L + width:
    g' <- 2g' + (1-e) v' and v' <- v' + (e << (L + width + 1)).
    """
    bit = 1 << width
    return (
        [(2 * z + 1, 2 * y + (r << 1), r) for z, y, r in table],
        [(2 * z, 2 * y, r + bit) for z, y, r in table],
    )


def _u_digit(table, width):
    """(a, b): 3u(high * 2**width + c) = 3u(high) + a*high + b.

    A digit e: 3u(2p + e) = 3u(p) + p - e(2p + e).
    """
    bit = 1 << width
    return (
        [(a + bit, b + c) for c, (a, b) in enumerate(table)],
        [(a - bit, b - c - 1) for c, (a, b) in enumerate(table)],
    )


_H_STEP = _chunk_table(_h_digit, (0, 0))
_G_STEP = _chunk_table(_g_digit, (0, 0, 0))
_U_STEP = _chunk_table(_u_digit, (0, 0))


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
    prefix = triple = 0  # triple is 3 * u(prefix)
    for c in n.to_bytes((n.bit_length() + 7) >> 3, "big"):
        a, b = _U_STEP[c]
        triple += a * prefix + b
        prefix = (prefix << 8) | c
    return triple, 3


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
    m = n.bit_length() - 1
    if m > _H_BASE_BITS:
        return _h_product(n)
    total = 0
    high = n
    for _ in range(m >> 3):  # the defining sum, 8 digits per step
        zeros, low = _H_STEP[high & 0xFF]
        high >>= 8
        total += high * zeros + low
    if width := m & 7:
        zeros, low = _H_STEP[high & ((1 << width) - 1)]
        total += (high >> width) * (zeros >> (8 - width)) + low
    return total


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


def _h_steps(xs, h, m):  # h_eval's first step: h(x) + x*Z + H
    return [h_x + x * z + low for x, h_x in zip(xs, h) for z, low in _H_STEP]


def _u_steps(xs, triple, m):  # _dev_u_core's last step: 3u(x) + a*x + b
    return [t + a * x + b for x, t in zip(xs, triple) for a, b in _U_STEP]


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
        return _stepped(self.ns, h_eval, _h_steps)

    @cached_property
    def triple_u(self) -> list[int]:  # from h(n >> 1), 0 for n <= 1 as in _triple_u
        lo, hi = self.ns[0], self.ns[-1]
        h = _stepped(range(lo >> 1, (hi >> 1) + 1), h_eval, _h_steps) if lo > 1 else [0]
        halves = [value for value in h for _ in (0, 1)][lo & 1 :][: len(self.ns)]
        return list(map(_triple_u, self.ns, halves))

    @cached_property
    def g(self) -> list[int]:  # g(n) * 3 * 2**m by the closed form
        return list(map(_g_num, self.ns, repeat(self.m), self.reverse, self.triple_u))

    @cached_property
    def dev_u(self) -> list[int]:  # 3u(n), as _dev_u_core walks it
        return _stepped(self.ns, lambda n: _dev_u_core(n)[0], _u_steps)

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
