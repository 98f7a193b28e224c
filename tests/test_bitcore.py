import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from oddsum import bitcore, deviations, sums
from oddsum.bitcore import (
    DomainError,
    dyadic_pair,
    dyadic_third,
    floor_lg,
    format_rational,
    hat,
    parse_rational,
    reverse_digits,
    round_pow2_over_3,
    tilde,
)


def test_floor_lg_examples():
    assert floor_lg(1) == 0
    assert floor_lg(7) == 2
    assert floor_lg(2**100) == 100


def test_floor_lg_rejects_zero():
    with pytest.raises(DomainError):
        floor_lg(0)


@given(st.integers(min_value=1, max_value=1 << 256))
def test_floor_lg_brackets(n):
    m = floor_lg(n)
    assert 1 << m <= n < 2 << m


def test_reverse_digits_examples():
    assert reverse_digits(1) == 1
    assert reverse_digits(6) == 3
    assert reverse_digits(8) == 1
    assert reverse_digits(13) == 11
    with pytest.raises(DomainError):
        reverse_digits(0)


def digit_loop_reverse(n):
    # digit k of n lands at position floor_lg(n) - k
    m = floor_lg(n)
    return sum(((n >> k) & 1) << (m - k) for k in range(m + 1))


# widths on both sides of a whole number of bytes, and past 16384 digits
WIDTHS = [1, 7, 8, 9, 15, 16, 17, 8191, 8192, 8193, 16383, 16384, 16385, 20000]


widths = st.integers(1, 20000)


@given(widths.flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)))
@example(1)
def test_reverse_digits_against_the_digit_loop(n):
    assert reverse_digits(n) == digit_loop_reverse(n)
    if n % 2:
        assert reverse_digits(reverse_digits(n)) == n


@pytest.mark.parametrize("bits", WIDTHS)
def test_reverse_digits_at_byte_boundaries(bits):
    rng = random.Random(bits)
    ones = (1 << bits) - 1
    for n in (1 << (bits - 1), ones, (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1):
        assert reverse_digits(n) == digit_loop_reverse(n)
    # a power of two reverses to 1, and all ones to themselves
    assert reverse_digits(1 << (bits - 1)) == 1
    assert reverse_digits(ones) == ones


def test_hat_examples():
    assert hat(6) == 5
    assert hat(7) == 4
    assert hat(4) == 7
    with pytest.raises(DomainError):
        hat(0)


@given(st.integers(min_value=1, max_value=1 << 200))
def test_hat_is_a_block_involution(n):
    assert hat(hat(n)) == n
    assert floor_lg(hat(n)) == floor_lg(n)


def test_tilde_examples():
    assert tilde(4) == 6
    assert tilde(5) == 5
    assert tilde(9) == 13
    with pytest.raises(DomainError):
        tilde(0)


@given(st.integers(min_value=2, max_value=1 << 200))
def test_tilde_involution_except_block_top(n):
    # 2^(m+1)-1 reflects one block down, onto 2^m - 1; every other n stays
    # in its block and comes back
    if n & (n + 1) == 0:
        assert tilde(n) == n >> 1
    else:
        assert floor_lg(tilde(n)) == floor_lg(n)
        assert tilde(tilde(n)) == n


def test_round_pow2_over_3_examples():
    assert round_pow2_over_3(0) == 0
    assert round_pow2_over_3(2) == 1
    assert round_pow2_over_3(4) == 5
    with pytest.raises(DomainError):
        round_pow2_over_3(-1)


@given(st.integers(min_value=0, max_value=4096))
def test_round_pow2_over_3_is_nearest(m):
    assert abs(Fraction(1 << m, 3) - round_pow2_over_3(m)) < Fraction(1, 2)


def test_format_rational():
    assert format_rational(Fraction(11, 4)) == "11/4"
    assert format_rational(Fraction(21)) == "21"
    assert format_rational(0) == "0"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_accepts_unreduced():
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational(" 7 ") == 7


def test_parse_rational_rejects_garbage():
    for bad in ("", "abc", "1/0", "1.5", "1/-2", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


# m = floor_lg(n) for every width 1..600, so every width mod 8, both sides of
# 128 bits (against a size switch in the reduction coming back) and of h's
# product branch, then 4k and 16k bits
DYADIC_LEVELS = [*range(600), 4095, 16383]


def _over_3_pow2(m: int, rng: random.Random) -> list[int]:
    """Numerators over 3 * 2**m that exercise each step of the reduction.

    Zero and negative ones; ones with more than m trailing zeros, as
    dev_g's level padded to a multiple of 8 gives; multiples of 3 and 9;
    and random ones as wide as the numerators of v, V and G at this m.
    """
    nums = [0, -1, 1 << m, 3 << m, -(9 << m), 3 << (m + 7), 1 << (m + 8)]
    for width in (m + 1, 2 * m + 2, 3 * m + 3):
        x = rng.getrandbits(width) | 1
        nums += [x, -x, 3 * x, -9 * x, x << (m >> 1), 9 * x << (m + 5)]
    return nums


def _assert_lowest_terms_of(num: int, m: int, value: Fraction) -> None:
    expected = Fraction(num, 3 << m)
    assert type(value) is Fraction and value == expected, (num, m)
    assert (value.numerator, value.denominator) == (
        expected.numerator,
        expected.denominator,
    ), (num, m)
    assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1
    assert hash(value) == hash(expected), (num, m)


def test_dyadic_third_is_the_reduced_fraction():
    pairs = []
    for m in DYADIC_LEVELS:
        for num in _over_3_pow2(m, random.Random(m)):
            value = dyadic_third(num, 3 << m)
            _assert_lowest_terms_of(num, m, value)
            assert dyadic_pair(num, 3 << m) == (value.numerator, value.denominator)
            pairs.append((num, 3 << m))
    # a den of 1 passes through, among the others in one batch
    pairs += [(num, 1) for num in (0, 1, -1, 3, -9, 6, 1 << 70, -(9 << 40), 12345)]
    random.Random(0).shuffle(pairs)
    reduced = bitcore.dyadic_pairs(iter(pairs))
    assert type(reduced) is list and len(reduced) == len(pairs)
    for (num, den), pair in zip(pairs, reduced):
        assert pair == Fraction(num, den).as_integer_ratio() == dyadic_pair(num, den)


def test_dyadic_third_fallback_gives_the_same_values(monkeypatch):
    cases = [(num, m) for m in (0, 127, 128, 129, 255, 256, 600, 4095)
             for num in _over_3_pow2(m, random.Random(m))]  # fmt: skip
    fast = [dyadic_third(num, 3 << m) for num, m in cases]
    # as on an interpreter whose Fraction has no constructor that skips the gcd
    monkeypatch.setattr(bitcore, "_FROM_COPRIME", None)
    for (num, m), value in zip(cases, fast):
        slow = dyadic_third(num, 3 << m)
        _assert_lowest_terms_of(num, m, slow)
        assert (slow.numerator, slow.denominator) == (
            value.numerator,
            value.denominator,
        )


def test_fast_kernels_run_no_gcd_at_any_width(monkeypatch):
    calls = []
    gcd = math.gcd

    def watched(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", watched)
    assert Fraction(1 << 200, 3 << 200) == Fraction(1, 3) and calls  # it is seen
    calls.clear()
    rng = random.Random(7)
    for bits in (*range(1, 9), 16, 64, 127, 128, 129, 300, 4096):
        n = (1 << (bits - 1)) | rng.getrandbits(bits - 1)
        for kernel in (sums.v_fast, sums.g_fast, deviations.dev_v,
                       deviations.dev_g_closed, deviations.dev_g):  # fmt: skip
            kernel(n)
    assert calls == []
