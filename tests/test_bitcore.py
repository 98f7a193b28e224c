from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oddsum.bitcore import (
    DomainError,
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


@given(st.integers(min_value=1, max_value=1 << 300))
def test_reverse_digits_against_the_digit_loop(n):
    # digit k of n lands at position floor_lg(n) - k
    m = floor_lg(n)
    assert reverse_digits(n) == sum(((n >> k) & 1) << (m - k) for k in range(m + 1))
    if n % 2:
        assert reverse_digits(reverse_digits(n)) == n


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
