from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oddsum import extremal, sums
from oddsum.bitcore import DomainError, ResourceLimitError, round_pow2_over_3
from oddsum.deviations import dev_g, dev_v
from oddsum.extremal import (
    EQUALITY_KINDS,
    argmax_g,
    block_g_values,
    equality_set,
    lambda_block,
    lambda_block_brute,
    lambda_m,
    perfect_mean_solutions,
    scan_g_below,
    skeleton,
    theta,
)
from oddsum.sums import u_fast, v_fast


def test_skeleton_examples():
    assert (skeleton(0).x, skeleton(0).y) == (0, 0)
    assert (skeleton(1).x, skeleton(1).y) == (2, 4)
    assert (skeleton(2).x, skeleton(2).y) == (10, 20)
    assert (skeleton(3).x, skeleton(3).y) == (42, 84)
    with pytest.raises(DomainError):
        skeleton(-1)


def test_skeleton_closed_form_to_depth_64():
    x, y = 0, 0
    for r in range(65):
        pair = skeleton(r)
        assert (pair.r, pair.x, pair.y) == (r, x, y)
        # v(x_r) = 2/9 - 2/(9 * 4**r) and v(y_r) = 1/9 - 1/(9 * 4**r)
        pow4 = 1 << 2 * r
        assert (dev_v(x), dev_v(y)) == (
            Fraction(2 * (pow4 - 1), 9 * pow4), Fraction(pow4 - 1, 9 * pow4)
        )
        x, y = 4 * x + 2, 4 * y + 4


def test_skeleton_block_positions():
    for r in range(1, 20):
        pair = skeleton(r)
        assert pair.x.bit_length() - 1 == 2 * r - 1
        assert pair.y.bit_length() - 1 == 2 * r


def test_skeleton_g_values():
    for r in range(12):
        pow4 = 1 << (2 * r)
        expected = Fraction(2 * r, 9) + Fraction(pow4 - 1, 27 * pow4)
        assert dev_g(skeleton(r).y) == expected


def test_lambda_block_examples():
    assert lambda_block(1, 1) == Fraction(1, 6)
    assert lambda_block(1, 2) == Fraction(1, 4)
    assert lambda_block(1, 3) == Fraction(3, 8)
    assert lambda_block(3, 2) == Fraction(3, 8)
    # its own refusal, not the one skeleton(-1) would give for m = 0
    with pytest.raises(DomainError, match="lambda_block requires m >= 1"):
        lambda_block(1, 0)
    with pytest.raises(DomainError):
        lambda_block(0, 3)


def test_lambda_block_brute_matches_examples(monkeypatch):
    assert lambda_block_brute(1, 1) == Fraction(1, 6)
    assert lambda_block_brute(1, 2) == Fraction(1, 4)
    assert lambda_block_brute(3, 2) == Fraction(3, 8)
    monkeypatch.setattr(sums, "DEFAULT_BRUTE_CAP", 512)
    with pytest.raises(ResourceLimitError):
        lambda_block_brute(1, 12)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=256),
    st.integers(min_value=1, max_value=8),
)
def test_lambda_block_closed_matches_brute(n, m):
    assert lambda_block(n, m) == lambda_block_brute(n, m)


def test_block_g_values_is_g_pointwise():
    for n in range(1, 17):
        for m in range(7):
            values = block_g_values(n, m)
            base = n << m
            assert values == [dev_g(base + t) for t in range(1 << m)]
    for n, m in ((1 << 40, 3), ((1 << 70) - 1, 4), (12345678901, 6)):
        assert block_g_values(n, m) == [dev_g((n << m) + t) for t in range(1 << m)]
    with pytest.raises(ResourceLimitError):
        block_g_values(1, 40)


def test_block_scan_maximum_is_the_closed_form():
    for n in range(1, 65):
        for m in range(1, 11):
            brute = lambda_block_brute(n, m)
            assert brute == max(block_g_values(n, m))
            assert brute == lambda_block(n, m)


def test_block_levels_are_the_blocks_of_each_m():
    for n in range(1, 65):
        blocks = [extremal._block_g_numerators(n, m) for m in range(11)]
        for m in range(11):
            assert list(extremal._block_levels(n, m)) == blocks[: m + 1]
            nums, den = blocks[m]
            assert Fraction(max(nums), den) == lambda_block_brute(n, m)


def test_block_scan_cap_and_domain(monkeypatch):
    # a block of exactly cap elements is scanned, one more level is refused
    monkeypatch.setattr(sums, "DEFAULT_BRUTE_CAP", 512)
    assert len(block_g_values(3, 9)) == 512
    assert lambda_block_brute(3, 9) == lambda_block(3, 9)
    for scan in (block_g_values, lambda_block_brute):
        with pytest.raises(ResourceLimitError):
            scan(3, 10)
        with pytest.raises(DomainError):
            scan(0, 2)
        with pytest.raises(DomainError):
            scan(3, -1)


def test_lambda_m_examples():
    assert lambda_m(0) == 0
    assert lambda_m(1) == Fraction(1, 6)
    assert lambda_m(2) == Fraction(1, 4)
    assert lambda_m(3) == Fraction(3, 8)
    assert lambda_m(4) == Fraction(23, 48)
    # the cap is 2**20: served at it, refused one past it
    assert lambda_m(1 << 20) > lambda_m((1 << 20) - 1)
    with pytest.raises(ResourceLimitError):
        lambda_m((1 << 20) + 1)


def test_lambda_m_is_the_block_maximum():
    for m in range(15):
        assert lambda_m(m) == max(dev_g(n) for n in range(1 << m, 2 << m))


def test_theta_examples():
    assert theta(1) == 0
    assert theta(2) == Fraction(1, 6)
    assert theta(5) == Fraction(1, 4)
    assert theta(8) == Fraction(3, 8)
    with pytest.raises(DomainError):
        theta(0)


@given(st.integers(min_value=1, max_value=1 << 64))
def test_theta_is_constant_on_blocks(n):
    assert theta(n) == lambda_m(n.bit_length() - 1)


def test_argmax_examples():
    report = argmax_g(2)
    assert report.max_points == (4, 6) and report.max_value == Fraction(1, 4)
    assert report.min_points == (7,) and report.min_value == 0
    assert not report.degenerate
    report = argmax_g(3)
    assert report.max_points == (10, 12) and report.max_value == Fraction(3, 8)
    report = argmax_g(4)
    assert report.max_points == (20, 26) and report.max_value == Fraction(23, 48)
    assert report.min_points == (31,)


def test_argmax_degenerate_blocks():
    assert [argmax_g(m).m for m in range(4)] == [0, 1, 2, 3]
    report = argmax_g(0)
    assert report.degenerate
    assert report.max_points == (1,) and report.max_value == 0
    assert report.min_points == (1,) and report.min_value == 0
    report = argmax_g(1)
    assert report.degenerate
    assert report.max_points == (2,) and report.max_value == Fraction(1, 6)
    assert report.min_points == (3,) and report.min_value == 0


def test_argmax_round_form():
    for m in range(2, 16):
        report = argmax_g(m)
        base = 1 << m
        assert set(report.max_points) == {
            base - 1 + round_pow2_over_3(m),
            base - 1 + round_pow2_over_3(m + 1),
        }
        assert report.min_points == (2 * base - 1,)
        assert report.max_value == lambda_m(m)


def test_equality_kinds_registry():
    assert len(EQUALITY_KINDS) == 8
    with pytest.raises(ValueError):
        equality_set("V_MIDDLE", 10)
    with pytest.raises(DomainError):
        equality_set("V_LOWER", 0)


def test_equality_set_examples():
    assert equality_set("V_LOWER", 100) == [1, 2, 4, 8, 16, 32, 64]
    assert equality_set("V_UPPER", 100) == [1, 3, 7, 15, 31, 63]
    assert equality_set("G_UPPER", 100) == [1, 3, 7, 15, 31, 63]
    assert equality_set("U_EVEN_LOWER", 100) == [2, 4, 8, 16, 32, 64]
    assert equality_set("U_EVEN_UPPER", 100) == [2, 6, 14, 30, 62]
    assert equality_set("U_ODD_LOWER", 100) == [3, 5, 9, 17, 33, 65]
    assert equality_set("U_ODD_UPPER", 100) == [1, 3, 7, 15, 31, 63]


def test_equality_sets_match_direct_scans():
    bound = 600
    v_low = [n for n in range(1, bound + 1) if 3 * n * v_fast(n) == 2 * n * n + 1]
    assert v_low == equality_set("V_LOWER", bound)
    v_high = [
        n for n in range(1, bound + 1) if 3 * (n + 1) * v_fast(n) == 2 * n * (n + 2)
    ]
    assert v_high == equality_set("V_UPPER", bound)
    g_high = [n for n in range(1, bound + 1) if dev_g(n) == 0]
    assert g_high == equality_set("G_UPPER", bound)
    evens = range(2, bound + 1, 2)
    odds = range(1, bound + 1, 2)
    assert [n for n in evens if 3 * u_fast(n) == n * n + 2] == equality_set(
        "U_EVEN_LOWER", bound
    )
    assert [n for n in evens if 3 * u_fast(n) == n * n + n] == equality_set(
        "U_EVEN_UPPER", bound
    )
    assert [n for n in odds if 3 * u_fast(n) == n * n + n + 3] == equality_set(
        "U_ODD_LOWER", bound
    )
    assert [n for n in odds if 3 * u_fast(n) == n * n + 2 * n] == equality_set(
        "U_ODD_UPPER", bound
    )


def test_equality_sets_reach_huge_bounds():
    huge = 1 << 200
    values = equality_set("V_LOWER", huge)
    assert len(values) == 201 and values[-1] == 1 << 200
    for n in equality_set("G_THETA", 1 << 40)[-4:]:
        assert dev_g(n) == theta(n)


def test_equality_sets_at_every_bound_to_1024():
    top = 1024
    evens, odds = range(2, top + 1, 2), range(1, top + 1, 2)
    scans = {
        "V_LOWER": [n for n in range(1, top + 1) if 3 * n * v_fast(n) == 2 * n * n + 1],
        "V_UPPER": [
            n for n in range(1, top + 1) if 3 * (n + 1) * v_fast(n) == 2 * n * (n + 2)
        ],
        "U_EVEN_LOWER": [n for n in evens if 3 * u_fast(n) == n * n + 2],
        "U_EVEN_UPPER": [n for n in evens if 3 * u_fast(n) == n * n + n],
        "U_ODD_LOWER": [n for n in odds if 3 * u_fast(n) == n * n + n + 3],
        "U_ODD_UPPER": [n for n in odds if 3 * u_fast(n) == n * n + 2 * n],
        "G_UPPER": [n for n in range(1, top + 1) if dev_g(n) == 0],
        "G_THETA": [n for n in range(1, top + 1) if dev_g(n) == theta(n)],
    }
    assert tuple(scans) == EQUALITY_KINDS
    for kind, scanned in scans.items():
        for bound in range(1, top + 1):
            assert equality_set(kind, bound) == [n for n in scanned if n <= bound]


def test_theta_attainment_set_is_the_block_argmax_points():
    points = {n for m in range(16) for n in argmax_g(m).max_points}
    assert equality_set("G_THETA", (1 << 16) - 1) == sorted(points)


def test_theta_attainment_set():
    members = equality_set("G_THETA", 1 << 14)
    scanned = [n for n in range(1, (1 << 14) + 1) if dev_g(n) == theta(n)]
    assert members == scanned


def test_perfect_mean_examples():
    assert perfect_mean_solutions(1) == []
    assert perfect_mean_solutions(10) == [2, 6]
    assert perfect_mean_solutions(100) == [2, 6, 14, 30, 62]
    assert perfect_mean_solutions(10**6)[-1] == (1 << 19) - 2


def test_scan_g_below_examples(monkeypatch):
    assert scan_g_below(Fraction(1, 4), 16) == [1, 2, 3, 5, 7, 11, 15]
    assert scan_g_below(Fraction(1, 10**6), 64) == [1, 3, 7, 15, 31, 63]
    assert scan_g_below(Fraction(1), 7) == [1, 2, 3, 4, 5, 6, 7]
    assert scan_g_below(Fraction(0), 100) == []
    monkeypatch.setattr(sums, "DEFAULT_BRUTE_CAP", 999)
    with pytest.raises(ResourceLimitError):
        scan_g_below(Fraction(1, 4), 1000)


def test_scan_g_below_is_the_per_n_filter_around_powers_of_two():
    values = [dev_g(n) for n in range(1, (1 << 14) + 2)]
    thresholds = (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1, 10**6), 2)
    for threshold in thresholds:
        for k in (0, 1, 2, 3, 12, 13, 14):
            for bound in ((1 << k) - 1, 1 << k, (1 << k) + 1):
                expected = [n for n, g in enumerate(values[:bound], 1) if g < threshold]
                assert scan_g_below(Fraction(threshold), bound) == expected


BELOW_THE_DOMAIN = {
    "lambda_m": lambda: lambda_m(-1),
    "argmax_g": lambda: argmax_g(-1),
    "perfect_mean_solutions": lambda: perfect_mean_solutions(0),
    "scan_g_below": lambda: scan_g_below(Fraction(1, 4), -1),
    "scan_sums": lambda: next(sums.scan_sums(0)),  # a generator raises when run
}


@pytest.mark.parametrize("name", BELOW_THE_DOMAIN)
def test_arguments_below_the_domain_raise_domain_error(name):
    with pytest.raises(DomainError, match=name):
        BELOW_THE_DOMAIN[name]()
