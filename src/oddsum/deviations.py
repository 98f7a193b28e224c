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

These closed forms (dev_v, dev_u_closed, dev_g_closed) are the package's
one kernel family; sums builds V, U and G from the same two kernels.
Each deviation keeps an independent second evaluator, which the
checkers and tests compare against the closed form:

  * v: dev_v_recur, the doubling rule one digit at a time;
  * u: dev_u, the doubling rule carrying the integer 3u;
  * g: dev_g, the doubling rules carrying v alongside, and dev_g_digit,
    half the sum of v(floor(n / 2**(p+1))) over the zero digits p of n
    below the leading one.

h(n) = sum of floor(n / 2**(k+1)) over the zero digits k of n below the
leading one; it sits in [0, n-1], vanishing exactly on the all-ones
integers and hitting n-1 exactly on the powers of two.  It is evaluated
by binary splitting: with n = a * 2**k + b and b < 2**k,

    h(n) = h(a) + a * Z_k(b) + H_k(b)

where Z_k(b) is the complement of b within k digits, read in reverse,
and H_k(b) is h over b padded with leading zeros to k digits, which
splits the same way.  Up to _H_BASE_BITS digits the defining sum runs
directly.  An m-digit h costs O(M(m) log m), M(m) the cost of an m-bit
product, against O(m**2) for the defining sum.

The recurrence evaluators walk digits most significant first with scaled
integer state, so deep arguments cost no recursion depth and no
intermediate reductions.
"""

from __future__ import annotations

from fractions import Fraction

from .bitcore import DomainError, reverse_digits

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

# h runs its defining sum on at most this many digits instead of
# splitting further; between 128 and 512 digits the two cost about the same.
_H_BASE_BITS = 256


def dev_v(n: int) -> Fraction:
    """v(n) by the digit formula: reversed binary digits over 3 * 2**m."""
    if n < 0:
        raise DomainError("dev_v requires n >= 0")
    if n == 0:
        return Fraction(0)
    return Fraction(reverse_digits(n), 3 << (n.bit_length() - 1))


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


def dev_u(n: int) -> Fraction:
    """u(n) by the doubling rule, carrying the integer 3*u."""
    if n < 0:
        raise DomainError("dev_u requires n >= 0")
    if n == 0:
        return Fraction(0)
    m = n.bit_length() - 1
    prefix = 1
    triple = -1  # 3 * u(prefix)
    for k in range(m - 1, -1, -1):
        bit = (n >> k) & 1
        child = 2 * prefix + bit
        triple += prefix - bit * child
        prefix = child
    return Fraction(triple, 3)


def _h_low(n: int, k: int) -> int:
    """Sum of n >> (j+1) over the zero digits j < k of n, by binary splitting.

    With k = floor_lg(n) this is h(n); with n < 2**k it is H_k(n), h over
    n padded with leading zeros to k digits.
    """
    if k <= _H_BASE_BITS:
        return sum(n >> (j + 1) for j in range(k) if not (n >> j) & 1)
    low_k = k >> 1
    mask = (1 << low_k) - 1
    high = n >> low_k
    # Z: the complement of the low low_k digits, read in reverse within them
    zeros = int(format(~n & mask, f"0{low_k}b")[::-1], 2)
    return _h_low(high, k - low_k) + high * zeros + _h_low(n & mask, low_k)


def h_eval(n: int) -> int:
    """h(n): sum of the right shifts n >> (k+1) over the zero digits k < m."""
    if n <= 0:
        raise DomainError("h_eval requires n >= 1")
    return _h_low(n, n.bit_length() - 1)


def _triple_u(n: int) -> int:
    """3u(n) = 2h(n >> 1) - e0*n for n >= 0, taking h of the empty string as 0."""
    return (2 * h_eval(n >> 1) if n > 1 else 0) - (n & 1) * n


def dev_u_closed(n: int) -> Fraction:
    """u(n) by the closed form -e0*n/3 + (2/3) h(floor(n/2))."""
    if n < 0:
        raise DomainError("dev_u_closed requires n >= 0")
    return Fraction(_triple_u(n), 3)


def dev_g(n: int) -> Fraction:
    """g(n) by the doubling rules, carrying v alongside as scaled integers."""
    if n < 0:
        raise DomainError("dev_g requires n >= 0")
    if n < 2:
        return Fraction(0)
    m = n.bit_length() - 1
    g_num = 0  # g(prefix) scaled by 3 * 2**level
    v_num = 1  # v(prefix) scaled the same way
    for k in range(m - 1, -1, -1):
        bit = (n >> k) & 1
        g_num = 2 * g_num + (0 if bit else v_num)
        v_num += bit << (m - k)
    return Fraction(g_num, 3 << m)


def dev_g_closed(n: int) -> Fraction:
    """g(n) by the closed form n/3 - (n+1) v(n) - u(n), over 3 * 2**m."""
    if n < 0:
        raise DomainError("dev_g_closed requires n >= 0")
    if n == 0:
        return Fraction(0)
    m = n.bit_length() - 1
    return Fraction(((n - _triple_u(n)) << m) - (n + 1) * reverse_digits(n), 3 << m)


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
