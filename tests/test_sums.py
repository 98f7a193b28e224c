import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oddsum import cli, sums
from oddsum.bitcore import DomainError, ResourceLimitError
from oddsum.deviations import dev_g, dev_u, dev_v_recur
from oddsum.extremal import (
    block_g_values,
    lambda_block,
    lambda_block_brute,
    scan_g_below,
)
from oddsum.sums import (
    CESARO_FUNCTIONS,
    alpha,
    cesaro_limit,
    cesaro_mean,
    g_brute,
    g_fast,
    scan_sums,
    u_brute,
    u_fast,
    v_brute,
    v_fast,
)

mid = st.integers(min_value=1, max_value=3000)


def test_alpha_examples():
    assert alpha(1) == 1
    assert alpha(12) == 3
    assert alpha(40) == 5
    with pytest.raises(DomainError):
        alpha(0)


@given(st.integers(min_value=1, max_value=1 << 64))
def test_alpha_recurrences(n):
    assert alpha(2 * n) == alpha(n)
    assert alpha(2 * n - 1) == 2 * n - 1


@given(st.integers(min_value=1, max_value=1 << 64))
def test_alpha_is_the_odd_part(k):
    a = alpha(k)
    assert a % 2 == 1 and k % a == 0
    cofactor = k // a
    assert cofactor & (cofactor - 1) == 0


def test_v_examples():
    assert v_brute(1) == 1
    assert v_brute(3) == Fraction(5, 2)
    assert v_brute(4) == Fraction(11, 4)
    assert v_fast(1024) == Fraction(699051, 1024)


def test_u_examples():
    assert u_brute(1) == 1
    assert u_brute(6) == 14
    assert u_brute(7) == 21
    assert u_fast(0) == u_brute(0) == 0  # the empty sum
    assert u_fast(1024) == 349526


def test_g_examples():
    assert g_brute(1) == 1
    assert g_brute(2) == Fraction(5, 2)
    assert g_brute(4) == Fraction(31, 4)
    assert g_fast(5) == Fraction(23, 2)
    assert g_fast(7) == 21


@given(mid)
def test_fast_matches_brute(n):
    assert v_fast(n) == v_brute(n)
    assert u_fast(n) == u_brute(n)
    assert g_fast(n) == g_brute(n)


def test_closed_forms_match_the_defining_sums_to_2_12():
    v, u, g = Fraction(0), 0, Fraction(0)
    for n in range(1, (1 << 12) + 1):
        v += Fraction(alpha(n), n)
        u += alpha(n)
        # G(n) = sum of V(j) over j <= n: the weight n+1-k counts j in [k, n]
        g += v
        assert (v_fast(n), u_fast(n), g_fast(n)) == (v, u, g), n


def test_closed_forms_match_the_recurrences_at_4096_bits():
    rng = random.Random("sums-4096")
    for _ in range(8):
        n = (1 << 4095) | rng.getrandbits(4095)
        assert v_fast(n) == Fraction(2 * n, 3) + dev_v_recur(n)
        assert u_fast(n) == Fraction(n * n + n, 3) - dev_u(n)
        assert g_fast(n) == Fraction(n * (n + 2), 3) - dev_g(n)


@given(mid)
def test_doubling_rules(n):
    assert v_fast(2 * n) == n + v_fast(n) / 2
    assert v_fast(2 * n + 1) == n + 1 + v_fast(n) / 2
    assert u_fast(2 * n) == n * n + u_fast(n)
    assert u_fast(2 * n + 1) == (n + 1) ** 2 + u_fast(n)
    assert g_fast(2 * n) == n * (n + 1) + g_fast(n) - v_fast(n) / 2
    assert g_fast(2 * n + 1) == (n + 1) ** 2 + g_fast(n)


@given(st.integers(min_value=1, max_value=1 << 256))
def test_weighted_sum_identity(n):
    assert g_fast(n) == (n + 1) * v_fast(n) - u_fast(n)


def test_scan_sums_agrees_pointwise():
    rows = list(scan_sums(512))
    assert len(rows) == 512
    assert rows[0] == (1, Fraction(1), 1, Fraction(1))
    assert list(scan_sums(1)) == rows[:1]
    for n, v, u, g in rows[37:80]:
        assert v == v_fast(n) and u == u_fast(n) and g == g_fast(n)
    n, v, u, g = rows[-1]
    assert (n, u) == (512, 87382)


def test_brute_caps(monkeypatch):
    monkeypatch.setattr(sums, "DEFAULT_BRUTE_CAP", 99)
    with pytest.raises(ResourceLimitError):
        v_brute(100)
    with pytest.raises(ResourceLimitError):
        u_brute(100)
    with pytest.raises(ResourceLimitError):
        g_brute(100)
    with pytest.raises(ResourceLimitError):
        list(scan_sums(100))


def _table_lines(stop):
    """`oddsum table g 1 stop` through its handler, so a refusal raises."""
    args = cli.build_parser().parse_args(["table", "g", "1", str(stop)])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        args.handler(args)
    return out.getvalue().count("\n")


# each capped computation: (work of exactly 512, the same work one past it)
AT_512 = {
    "v_brute": (lambda: v_brute(512) == v_fast(512), lambda: v_brute(513)),
    "u_brute": (lambda: u_brute(512) == u_fast(512), lambda: u_brute(513)),
    "g_brute": (lambda: g_brute(512) == g_fast(512), lambda: g_brute(513)),
    "scan_sums": (
        lambda: len(list(scan_sums(512))) == 512, lambda: list(scan_sums(513))
    ),
    "block_g_values": (
        lambda: len(block_g_values(3, 9)) == 512, lambda: block_g_values(3, 10)
    ),
    "lambda_block_brute": (
        lambda: lambda_block_brute(3, 9) == lambda_block(3, 9),
        lambda: lambda_block_brute(3, 10),
    ),
    "scan_g_below": (
        lambda: len(scan_g_below(Fraction(2), 512)) == 512,
        lambda: scan_g_below(Fraction(2), 513),
    ),
    # table's bound is DEFAULT_BRUTE_CAP + 1 rows: to - from at most the cap
    "table": (lambda: _table_lines(513) == 513, lambda: _table_lines(514)),
}


@pytest.mark.parametrize("name", AT_512)
def test_every_brute_bound_is_default_brute_cap_at_call_time(monkeypatch, name):
    at_cap, past_cap = AT_512[name]
    monkeypatch.setattr(sums, "DEFAULT_BRUTE_CAP", 512)
    assert at_cap()
    message = r"is past DEFAULT_BRUTE_CAP = 512 \(oddsum\.sums\.DEFAULT_BRUTE_CAP\)$"
    with pytest.raises(ResourceLimitError, match=message):
        past_cap()


def test_domains():
    for fn in (v_brute, g_brute, v_fast, g_fast):
        with pytest.raises(DomainError):
            fn(0)
    with pytest.raises(DomainError):
        u_brute(-1)
    with pytest.raises(DomainError):
        u_fast(-3)
    with pytest.raises(DomainError, match="u_fast"):
        u_fast(-1)
    with pytest.raises(DomainError):
        list(scan_sums(0))


def test_cesaro_examples():
    assert cesaro_mean("const1", 4) == Fraction(11, 16)
    assert cesaro_mean("x", 4) == Fraction(3, 8)
    assert cesaro_limit("const1") == Fraction(2, 3)
    assert cesaro_limit("x") == Fraction(1, 3)
    assert cesaro_limit("x2") == Fraction(2, 9)
    assert cesaro_limit("inv1px") is None


def test_cesaro_rejects_unknown_weight():
    with pytest.raises(ValueError):
        cesaro_mean("cos", 4)
    with pytest.raises(ValueError):
        cesaro_limit("cos")
    with pytest.raises(DomainError):
        cesaro_mean("x", 0)


def test_cesaro_x2_width_cap_is_checked_at_its_edge(monkeypatch):
    monkeypatch.setattr(sums, "CESARO_X2_WIDTH_CAP", 8)
    w = sum(k * alpha(k) for k in range(1, 256))
    assert cesaro_mean("x2", 255) == Fraction(w, 255**3)
    with pytest.raises(ResourceLimitError, match="CESARO_X2_WIDTH_CAP"):
        cesaro_mean("x2", 256)


def test_cesaro_inv1px_cap_is_checked_at_its_edge(monkeypatch):
    monkeypatch.setattr(sums, "CESARO_INV1PX_CAP", 99)
    harmonic = sum(Fraction(alpha(k), k * (99 + k)) for k in range(1, 100))
    assert cesaro_mean("inv1px", 99) == harmonic
    with pytest.raises(ResourceLimitError, match="CESARO_INV1PX_CAP"):
        cesaro_mean("inv1px", 100)


def test_cesaro_means_match_literal_sums():
    # every registered weight against a from-scratch sum
    for n in (1, 2, 3, 17, 100, 256):
        w = sum(k * alpha(k) for k in range(1, n + 1))
        assert cesaro_mean("const1", n) == v_brute(n) / n
        assert cesaro_mean("x", n) == Fraction(u_brute(n), n * n)
        assert cesaro_mean("x2", n) == Fraction(w, n**3)
        harmonic = sum(Fraction(alpha(k), k * (n + k)) for k in range(1, n + 1))
        assert cesaro_mean("inv1px", n) == harmonic
    assert set(CESARO_FUNCTIONS) == {"const1", "x", "x2", "inv1px"}


def odd_square_sums(n):
    """sum_{k<=n} k * alpha(k): the k = 2**t * j, j odd, add 2**t times the
    sum of the squares of the a odd j <= n >> t, a(4a^2 - 1)/3."""
    odd_counts = (((n >> t) + 1) >> 1 for t in range(n.bit_length()))
    return sum(a * (4 * a * a - 1) // 3 << t for t, a in enumerate(odd_counts))


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 9, 64, 1000, 4096])
def test_sum_k_alpha_against_the_odd_square_sums(bits):
    top = 1 << (bits - 1)
    for n in (top, 2 * top - 1, top | random.Random(bits).getrandbits(bits - 1)):
        assert sums._sum_k_alpha(n) == odd_square_sums(n)


@given(st.integers(min_value=1, max_value=1 << 14))
def test_cesaro_means_stay_near_their_limits(n):
    # |mean - limit| <= C/n for the three rational weights
    assert abs(cesaro_mean("const1", n) - Fraction(2, 3)) <= Fraction(1, n)
    assert abs(cesaro_mean("x", n) - Fraction(1, 3)) <= Fraction(1, n)
    assert abs(cesaro_mean("x2", n) - Fraction(2, 9)) <= Fraction(2, n)


# The integer cores the verify checkers read in place of v_fast and g_fast:
# (num, 3 * 2**m), whose Fraction is the kernel's.
CORES = [(sums._v_fast_core, v_fast), (sums._g_fast_core, g_fast)]
# every width up to 20,000 bits, across h's product branch past _H_BASE_BITS digits
exact_width = st.integers(min_value=1, max_value=20_000).flatmap(
    lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
)


def assert_core_is_its_kernel(core, kernel, n):
    num, den = core(n)
    assert den == 3 << (n.bit_length() - 1)
    value = kernel(n)
    assert num * value.denominator == value.numerator * den


def test_cores_are_their_kernels_exhaustively():
    for n in range(1, (1 << 16) + 1):
        for core, kernel in CORES:
            assert_core_is_its_kernel(core, kernel, n)


@given(exact_width)
def test_cores_are_their_kernels_at_every_width(n):
    for core, kernel in CORES:
        assert_core_is_its_kernel(core, kernel, n)


def test_cores_reject_arguments_below_one():
    for core, kernel in CORES:
        with pytest.raises(DomainError, match=kernel.__name__):
            core(0)
