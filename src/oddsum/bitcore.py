"""Exact integer and rational groundwork for the odd-divisor sums.

Everything downstream runs on arbitrary-precision integers and reduced
fractions, so the heavy lifting is delegated to the stdlib: ``int`` is
already an unbounded natural number and ``fractions.Fraction`` keeps
every value reduced with a positive denominator.  This module adds the
digit reversal, the two digit involutions (complement and reflection)
used throughout the package, the rounded thirds of powers of two, the
canonical ``p/q`` text form, and the reduction of values num / (3 * 2**m),
one or a column at a time, to lowest terms without math.gcd.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction

__all__ = [
    "DomainError",
    "ResourceLimitError",
    "check_cap",
    "digit_limit_error",
    "dyadic_pair",
    "dyadic_pairs",
    "dyadic_third",
    "floor_lg",
    "format_rational",
    "hat",
    "parse_rational",
    "reverse_digits",
    "round_pow2_over_3",
    "str_digit_limit",
    "tilde",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A brute-force computation or scan would exceed its configured cap."""


def str_digit_limit() -> int:
    """The interpreter's int/str conversion limit in decimal digits; 0 if none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def digit_limit_error(what: str, remedy: str) -> ResourceLimitError:
    """The error for a numeral or value beyond the int/str digit limit."""
    return ResourceLimitError(
        f"{what} has more than {str_digit_limit()} decimal digits, the limit"
        f" sys.get_int_max_str_digits() sets on int/str conversion; {remedy}"
    )


def check_cap(what: str, value: int, module: str, name: str) -> None:
    """Refuse value past the cap `name` of module (its owner's __name__), read
    at this call, naming the cap but not the value: that may pass the digit limit."""
    owner = sys.modules[module]  # __main__ under python -m, named by its spec
    cap, where = getattr(owner, name), f"{owner.__spec__.name}.{name}"
    if value > cap:
        raise ResourceLimitError(f"{what} is past {name} = {cap} ({where})")


def floor_lg(n: int) -> int:
    """Index of the leading binary digit: the m with 2**m <= n < 2**(m+1)."""
    if n <= 0:
        raise DomainError("floor_lg requires n >= 1")
    return n.bit_length() - 1


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reverse_digits(n: int) -> int:
    """The binary digits of n >= 1 read backwards: 6 = 0b110 gives 0b011 = 3.

    Linear in the digit count: the bytes of n reversed by a table, read from
    the other end, less the zero digits that padded n to whole bytes.
    """
    if n <= 0:
        raise DomainError("reverse_digits requires n >= 1")
    data = n.to_bytes((n.bit_length() + 7) >> 3, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(data, "big") >> (-n.bit_length() & 7)


def hat(n: int) -> int:
    """Complement every binary digit of n below the leading one.

    An involution of each block I_m; powers of two and all-ones integers
    swap with each other.
    """
    if n <= 0:
        raise DomainError("hat requires n >= 1")
    return n ^ ((1 << (n.bit_length() - 1)) - 1)


def tilde(n: int) -> int:
    """Reflect n to 3*2**m - 2 - n, with m the leading-digit index.

    Maps the interior of I_m onto itself and is its own inverse there;
    the top element 2**(m+1)-1 is the one exception, landing a block
    down at 2**m - 1.
    """
    if n <= 0:
        raise DomainError("tilde requires n >= 1")
    return (3 << (n.bit_length() - 1)) - 2 - n


def round_pow2_over_3(m: int) -> int:
    """Nearest integer to 2**m / 3.

    2**m is congruent to 1 or 2 mod 3, so adding 1 and flooring the
    third gives the nearest integer, and no tie is possible.
    """
    if m < 0:
        raise DomainError("round_pow2_over_3 requires m >= 0")
    return ((1 << m) + 1) // 3


# Fraction's constructor for coprime parts, which skips the gcd: Python 3.12
# and later have _from_coprime_ints, 3.10 and 3.11 take _normalize=False.
_FROM_COPRIME = getattr(Fraction, "_from_coprime_ints", None)
if _FROM_COPRIME is None and "_normalize" in (Fraction.__new__.__kwdefaults__ or {}):
    _FROM_COPRIME = functools.partial(Fraction, _normalize=False)


def dyadic_pairs(pairs) -> list[tuple[int, int]]:
    """Each (num, den), den 1 or 3 * 2**m, in lowest terms as (p, q), in linear time.

    A den of 1 passes through.  Otherwise num loses its trailing zero digits,
    at most m of them (the lowest one of num | den), and then one factor 3 if
    it has one, where math.gcd(num, den) would be quadratic in CPython 3.11.
    """
    reduced = []
    for pair in pairs:
        num, den = pair
        if den > 1:
            if num & 1 == 0:  # an odd num has no zero digit to drop
                low = num | den
                zeros = (low & -low).bit_length() - 1
                num >>= zeros
                den >>= zeros
            if num % 3 == 0:
                num //= 3
                den //= 3
            pair = num, den
        reduced.append(pair)
    return reduced


def dyadic_pair(num: int, den: int) -> tuple[int, int]:
    """num / den, den 1 or 3 * 2**m, in lowest terms as (p, q): see dyadic_pairs."""
    return dyadic_pairs([(num, den)])[0]


def dyadic_third(num: int, den: int) -> Fraction:
    """num / den, den = 3 * 2**m, as a Fraction in lowest terms from dyadic_pair."""
    return (_FROM_COPRIME or Fraction)(*dyadic_pair(num, den))


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``p/q`` in lowest terms, bare ``p`` if q == 1."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    p, q = f.as_integer_ratio()
    return str(p) if q == 1 else f"{p}/{q}"


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (decimal integers, q > 0) into a Fraction.

    Raises ResourceLimitError, not ValueError, when p or q is longer
    than the interpreter's int/str digit limit.
    """
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational: {text!r} (expected 'p' or 'p/q')")
    try:
        numerator = int(match.group(1))
        denominator = 1 if match.group(2) is None else int(match.group(2))
    except ValueError:  # well-formed digits: only the digit limit refuses them
        raise digit_limit_error(
            "a numerator or denominator",
            "python -X int_max_str_digits=N or PYTHONINTMAXSTRDIGITS=N raises it",
        ) from None
    if denominator == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(numerator, denominator)
