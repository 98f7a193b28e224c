import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oddsum
from oddsum import cli, deviations, sums, verify
from oddsum.bitcore import DomainError, hat, tilde
from oddsum.bitcore import reverse_digits
from oddsum.deviations import (
    _H_BASE_BITS,
    _Window,
    _dev_g_core,
    _dev_u_core,
    _h_product,
    _triple_u,
    _windows,
    dev_g,
    dev_g_closed,
    dev_g_digit,
    dev_u,
    dev_u_closed,
    dev_v,
    dev_v_recur,
    h_eval,
)
from oddsum.sums import g_fast, u_fast, v_fast

big = st.integers(min_value=0, max_value=1 << 300)
pos = st.integers(min_value=1, max_value=1 << 300)


def h_linear(n):
    """h by its definition, one term per zero digit below the leading one."""
    m = n.bit_length() - 1
    return sum(n >> (k + 1) for k in range(m) if not (n >> k) & 1)


def dev_g_linear(n):
    """g by the doubling rules, one digit at a time from the leading one."""
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


def dev_u_linear(n):
    """u by the doubling rule, one digit at a time, carrying the integer 3u."""
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


def random_width(rng, bits):
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def test_dev_v_examples():
    assert dev_v(0) == 0
    assert dev_v(1) == Fraction(1, 3)
    assert dev_v(6) == Fraction(1, 4)
    assert dev_v(8) == Fraction(1, 24)
    assert dev_v(13) == Fraction(11, 24)


@given(big)
def test_dev_v_evaluators_agree(n):
    assert dev_v(n) == dev_v_recur(n)


@given(pos)
def test_dev_v_measures_v(n):
    assert dev_v(n) == v_fast(n) - Fraction(2 * n, 3)


@given(pos)
def test_dev_v_range_and_denominator(n):
    value = dev_v(n)
    assert 0 <= value < Fraction(2, 3)
    assert (3 << n.bit_length()) % value.denominator == 0


@given(big)
def test_dev_v_recurrences(n):
    assert dev_v(2 * n) == dev_v(n) / 2
    assert dev_v(2 * n + 1) == Fraction(1, 3) + dev_v(n) / 2


def test_dev_u_examples():
    assert dev_u(0) == 0
    assert dev_u(1) == Fraction(-1, 3)
    assert dev_u(4) == Fraction(2, 3)
    assert dev_u(6) == 0


@given(big)
def test_dev_u_measures_u(n):
    assert dev_u(n) == Fraction(n * n + n, 3) - u_fast(n)


# n of the widths next to _H_BASE_BITS, where h(n), and so 3u(n), takes its
# product branch
near_base = st.integers(_H_BASE_BITS - 8, _H_BASE_BITS + 8).flatmap(
    lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
)


@given(big | near_base)
@example(0)
def test_dev_u_closed_form_agrees(n):
    assert dev_u_closed(n) == dev_u(n)


@given(big)
def test_dev_u_thirds(n):
    # 3u is always an integer
    assert (3 * dev_u(n)).denominator == 1


def test_h_examples():
    assert h_eval(4) == 3
    assert h_eval(5) == 1
    assert h_eval(7) == 0
    assert h_eval(10) == 6
    with pytest.raises(DomainError):
        h_eval(0)


def test_h_matches_the_definition_exhaustively():
    for n in range(1, 1 << 12):
        assert h_eval(n) == h_linear(n), n


def test_h_matches_the_definition_at_wide_arguments():
    # floor_lg(n) = bits - 1 runs from two below the base case to two above
    rng = random.Random("h-widths")
    around_base = range(_H_BASE_BITS - 1, _H_BASE_BITS + 4)
    for bits in [*around_base, 1000, 5000]:
        for _ in range(3):
            n = random_width(rng, bits)
            assert h_eval(n) == h_linear(n), bits


def test_h_endpoints_at_large_m():
    for m in (_H_BASE_BITS, _H_BASE_BITS + 1, 1000, 4097, 20000):
        assert h_eval(1 << m) == (1 << m) - 1
        assert h_eval((1 << m) - 1) == 0


def test_h_takes_the_product_branch_past_h_base_bits_digits(monkeypatch):
    widths, product = [], deviations._h_product

    def spy(n):
        widths.append(n.bit_length())
        return product(n)

    monkeypatch.setattr(deviations, "_h_product", spy)
    around_base = range(_H_BASE_BITS - 2, _H_BASE_BITS + 3)
    for n in [n for m in around_base for n in (1 << m, (2 << m) - 1)]:
        assert h_eval(n) == h_linear(n), n
    # the defining sum up to _H_BASE_BITS digits below the leading one, the
    # product from one more
    assert widths == [_H_BASE_BITS + 2] * 2 + [_H_BASE_BITS + 3] * 2


# The product branch, h from n * reverse(n), against the defining sum: called
# directly below _H_BASE_BITS too, where h_eval walks instead.
def test_h_product_matches_the_definition_exhaustively():
    for n in range(1, 1 << 16):
        assert _h_product(n) == h_linear(n), n


# every width up to 20,000 bits, and often those next to _H_BASE_BITS
h_widths = st.integers(min_value=1, max_value=20_000) | st.integers(
    min_value=_H_BASE_BITS - 8, max_value=_H_BASE_BITS + 8
)


@settings(max_examples=60, deadline=None)
@given(h_widths, st.randoms(use_true_random=False))
def test_h_matches_the_definition_across_the_product_branch(bits, rng):
    n = random_width(rng, bits)
    assert h_eval(n) == _h_product(n) == h_linear(n), bits


def digit_families(m):
    """n with floor_lg(n) = m whose digit pairs pile up at every distance or
    at none: all ones, 2**m, 1010..., 10...01 and all ones but one zero."""
    ones = (2 << m) - 1
    family = [ones, 1 << m, int("10" * (m // 2 + 1), 2) >> ((m + 1) & 1)]
    if m:
        family.append((1 << m) | 1)
        family += [ones ^ (1 << j) for j in {0, m // 2, m - 1}]
    return family


def test_h_product_on_digit_families():
    for m in [*range(300), 1023, 1024, 2047, 4096, 5000]:
        for n in digit_families(m):
            assert n.bit_length() == m + 1, (m, n)
            assert _h_product(n) == h_linear(n), (m, n)


@given(pos)
def test_h_bounds_with_exact_endpoint_sets(n):
    h = h_eval(n)
    assert 0 <= h <= n - 1
    assert (h == 0) == (n & (n + 1) == 0)
    assert (h == n - 1) == (n & (n - 1) == 0)


def test_dev_g_small_table():
    table = [dev_g(n) for n in range(8)]
    assert table == [
        0,
        0,
        Fraction(1, 6),
        0,
        Fraction(1, 4),
        Fraction(1, 6),
        Fraction(1, 4),
        0,
    ]
    assert dev_g(10) == Fraction(3, 8)
    assert dev_g(31) == 0


@given(big)
def test_dev_g_evaluators_agree(n):
    assert dev_g(n) == dev_g_digit(n)


@given(pos)
def test_dev_g_measures_g(n):
    assert dev_g(n) == Fraction(n * (n + 2), 3) - g_fast(n)


@given(pos)
def test_dev_g_range(n):
    m = n.bit_length() - 1
    assert 0 <= dev_g(n) <= Fraction(m, 3)


@given(big)
def test_dev_g_recurrences(n):
    assert dev_g(2 * n) == dev_g(n) + dev_v(n) / 2
    assert dev_g(2 * n + 1) == dev_g(n)


@given(big)
def test_two_step_rules(n):
    g, v = dev_g(n), dev_v(n)
    assert dev_g(4 * n) == g + Fraction(3, 4) * v
    assert dev_g(4 * n + 1) == g + v / 2
    assert dev_g(4 * n + 2) == g + Fraction(1, 6) + v / 4
    assert dev_g(4 * n + 3) == g


@given(big)
def test_dev_g_closed_agrees_with_both_walks(n):
    closed = dev_g_closed(n)
    assert closed == dev_g(n)
    assert closed == dev_g_digit(n)


def test_dev_g_closed_at_wide_arguments():
    rng = random.Random("g-closed")
    for bits in (4096, 4097):
        n = random_width(rng, bits)
        assert dev_g_closed(n) == dev_g(n) == dev_g_digit(n)


@given(pos)
def test_complement_symmetry(n):
    assert dev_v(n) + dev_v(hat(n)) == Fraction(2, 3)


@given(pos)
def test_reflection_preserves_g(n):
    assert dev_g(tilde(n)) == dev_g(n)


@given(pos)
def test_shift_telescoping(n):
    # summing v over n and all its right shifts counts each set digit 2/3,
    # with v(n) itself entering twice
    total = dev_v(n)
    shifted = n
    while shifted:
        total += dev_v(shifted)
        shifted >>= 1
    assert total == Fraction(2 * n.bit_count(), 3)


def test_negative_arguments_rejected():
    for fn in (
        dev_v, dev_v_recur, dev_u, dev_u_closed, dev_g, dev_g_closed, dev_g_digit
    ):
        with pytest.raises(DomainError):
            fn(-1)


def test_recurrences_match_the_one_digit_walks_exhaustively():
    for n in range(1 << 12):
        assert dev_g(n) == dev_g_linear(n), n
        assert dev_u(n) == dev_u_linear(n), n


def test_recurrences_match_the_one_digit_walks_at_every_width():
    # every residue of the width mod 8, on both sides of h's product branch
    rng = random.Random("walk-widths")
    for bits in [*range(1, 41), *range(250, 271)]:
        for n in (1 << (bits - 1), (1 << bits) - 1, random_width(rng, bits)):
            assert dev_g(n) == dev_g_linear(n), n
            assert dev_u(n) == dev_u_linear(n), n


def test_h_walk_matches_the_defining_sum_at_every_width():
    # every m = floor_lg(n) up to the product branch and past it, so the walk's
    # last chunk takes every width mod 8
    rng = random.Random("h-walk")
    for m in range(_H_BASE_BITS + 5):
        for n in {(2 << m) - 1, 1 << m, (3 << m) >> 1, random_width(rng, m + 1)}:
            assert h_eval(n) == h_linear(n), (n, m)


# The integer cores the verify checkers read in place of the shipped kernels,
# and g's closed form, which sums.g_fast reads: (num, den) with den = 3 * 2**m,
# or 3 for u, whose Fraction is the kernel's.
CORES = [
    (deviations._dev_v_core, dev_v),
    (deviations._dev_u_core, dev_u),
    (deviations._dev_g_core, dev_g),
    (deviations._dev_g_closed_core, dev_g_closed),
]
# every width up to 20,000 bits, across dev_g's padding to whole bytes and
# h's product branch past _H_BASE_BITS digits
exact_width = st.integers(min_value=0, max_value=20_000).flatmap(
    lambda bits: st.integers(min_value=(1 << bits) >> 1, max_value=(1 << bits) - 1)
)


def assert_core_is_its_kernel(core, kernel, n):
    num, den = core(n)
    m = max(n.bit_length() - 1, 0)
    assert den == (3 if core is deviations._dev_u_core else 3 << m)
    value = kernel(n)
    assert num * value.denominator == value.numerator * den


def test_cores_are_their_kernels_exhaustively():
    for n in range((1 << 16) + 1):
        for core, kernel in CORES:
            assert_core_is_its_kernel(core, kernel, n)


@given(exact_width)
def test_cores_are_their_kernels_at_every_width(n):
    for core, kernel in CORES:
        assert_core_is_its_kernel(core, kernel, n)


def test_cores_reject_negative_arguments():
    for kernel in sums.KERNELS.values():
        with pytest.raises(DomainError, match=kernel.name):
            kernel.core(-1)


# Windows inside one block I_m: starts from 1 to 2**max_m, widths from 1 to
# about 5,000, and windows pinned to either end of their block.
@st.composite
def block_windows(draw, max_m=300):
    m = draw(st.integers(min_value=0, max_value=max_m))
    first, last = 1 << m, (2 << m) - 1
    width = draw(st.integers(min_value=1, max_value=5000))
    where = draw(st.sampled_from(["start", "end", "inside"]))
    if where == "start":
        lo = first
    elif where == "end":
        lo = max(first, last - width + 1)
    else:
        lo = draw(st.integers(min_value=first, max_value=last))
    return lo, min(lo + width - 1, last)


@settings(max_examples=60, deadline=None)
@given(block_windows())
@example((1, 1))
@example((2, 3))
@example((2, 2))
@example((3, 3))
@example((4, 7))
@example((5, 7))
@example((1 << 12, (1 << 13) - 1))
@example(((1 << 14) - 4096, (1 << 14) - 1))
def test_window_kernel_is_the_scalar_kernels_at_each_n(window):
    lo, hi = window
    w = _Window(lo, hi)
    ns, m = w.ns, w.m
    assert ns == range(lo, hi + 1) and m == lo.bit_length() - 1
    assert w.reverse == [reverse_digits(n) for n in ns]
    assert w.h == [h_eval(n) for n in ns]
    # 3u(n) = 2h(n) - n, so this holds iff the window's h does
    assert w.triple_u == [_triple_u(n) for n in ns]
    # g against the doubling-rule walk, which reads neither reverse nor h
    assert [(num, 3 << m) for num in w.g] == [_dev_g_core(n) for n in ns]
    assert window_rows(lo, hi) == [core_row(n) for n in ns]


# The shipped kernels: the Evaluators defaults and the seven that eval and
# table print through a window
SHIPPED = {field.default for field in dataclasses.fields(verify.Evaluators)}
WINDOWED_EVAL = {cli.EVAL_FUNCTIONS[name] for name in "VUGvugh"}


@settings(max_examples=30, deadline=None)
@given(block_windows())
@example((1, 1))
@example((2, 3))
@example((5, 7))
@example(((1 << 14) - 4096, (1 << 14) - 1))
def test_every_column_is_its_core_or_its_kernel_at_each_n(window):
    assert set(sums.KERNELS.values()) == SHIPPED | WINDOWED_EVAL
    assert len(sums.KERNELS) == 9
    assert all(isinstance(k, deviations.Kernel) for k in SHIPPED | WINDOWED_EVAL)
    # each is the module-level record of its name, wherever it is read from
    ev = verify.Evaluators()
    defaults = (ev.sum_v, ev.sum_u, ev.sum_g, ev.dev_v, ev.dev_u, ev.dev_g, ev.h)
    records = (v_fast, u_fast, g_fast, dev_v, dev_u, dev_g, h_eval)
    for kernel, record in zip(defaults, records):
        assert kernel is record, record.name
    evaluated = (v_fast, u_fast, g_fast, dev_v, dev_u_closed, dev_g_closed, h_eval)
    for letter, record in zip("VUGvugh", evaluated):
        assert cli.EVAL_FUNCTIONS[letter] is record, letter
    for name, kernel in sums.KERNELS.items():
        assert kernel is getattr(oddsum, name) and kernel.name == name
    lo, hi = window
    w = _Window(lo, hi)
    for name, kernel in sums.KERNELS.items():
        pairs = list(kernel.column(w))
        assert pairs == list(map(kernel.core, w.ns)), name
        # den 1 for an integer, 3 for u and 3 * 2**m for the rest
        dens = {"u_fast": 1, "h_eval": 1, "dev_u": 3, "dev_u_closed": 3}
        den = dens.get(name, 3 << w.m)
        assert pairs == [(p, den) for p, _ in pairs], name
        values = [Fraction(p, q) for p, q in pairs]
        assert values == list(map(kernel, w.ns)), name
        # an int where the core's den is 1, else a reduced Fraction
        kind = int if den == 1 else Fraction
        assert all(type(value) is kind for value in map(kernel, w.ns)), name


def test_each_public_kernel_pickles_and_copies_as_itself():
    for name in sums.KERNELS:
        kernel = getattr(oddsum, name)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(kernel, protocol)) is kernel, name
        assert copy.deepcopy(kernel) is kernel and copy.copy(kernel) is kernel, name


def test_a_window_builds_each_kernel_on_first_read_and_keeps_it():
    w = _Window(5000, 6000)
    assert set(vars(w)) == {"ns", "m"}
    list(sums.KERNELS["u_fast"].column(w))
    assert set(vars(w)) == {"ns", "m", "h", "triple_u"}
    g = w.g
    assert w.g is g and set(vars(w)) == {"ns", "m", "h", "triple_u", "reverse", "g"}


def window_rows(lo, hi):
    """(reverse, h, 3u from h, dev_u's 3u, dev_g's pair) at each n of
    lo..hi, from the window kernels."""
    w = _Window(lo, hi)
    return list(zip(w.reverse, w.h, w.triple_u, w.dev_u, w.dev_g))


def core_row(n):
    """The same five values at n from the scalar cores."""
    return reverse_digits(n), h_eval(n), _triple_u(n), _dev_u_core(n)[0], _dev_g_core(n)


def test_window_columns_are_the_scalar_cores_below_2_13():
    top = 1 << 13
    cores = [None] + [core_row(n) for n in range(1, top)]
    # every n, in windows of widths 1, 2, 3, ... in turn inside each block
    windows, lo, width = [], 1, 1
    while lo < top:
        hi = min(lo + width - 1, (1 << lo.bit_length()) - 1)
        windows.append((lo, hi))
        lo, width = hi + 1, width % 300 + 1
    # each start and each end at every offset in an 8-digit chunk, and the
    # windows pinned to either end of the top block
    for a in range(256):
        windows += [(4096 + a, 4696 + a), (4096, 4096 + a), (7891 - a, 8191)]
    for lo, hi in windows:
        assert window_rows(lo, hi) == cores[lo : hi + 1], (lo, hi)


@settings(max_examples=40, deadline=None)
@given(block_windows(max_m=20))
def test_window_columns_are_the_scalar_cores_up_to_2_20(window):
    lo, hi = window
    assert window_rows(lo, hi) == [core_row(n) for n in range(lo, hi + 1)]


# The one-digit maps the chunk tables join: rule[e] = (alpha, beta, gamma) sends
# (f, s, L) to (f 2**kf + alpha s + (beta << L), s 2**ks + (gamma << L), L + kt),
# with shifts (kf, ks, kt) = (0, 1, 0) for h and 3u and (1, 0, 1) for g; and the
# three shipped rules, the doubling rules of h, 3u and (g, v) scaled by 3 * 2**L.
SHIFTS = [(0, 1, 0), (1, 0, 1)]
SHIPPED_RULES = [
    ("_H_STEP", ((1, 0, 0), (0, 0, 1)), (0, 1, 0)),
    ("_U_STEP", ((1, 0, 0), (-1, -1, 1)), (0, 1, 0)),
    ("_G_STEP", ((1, 0, 0), (0, 0, 2)), (1, 0, 1)),
]
coefficient = st.integers(min_value=-(1 << 40), max_value=1 << 40)
digit_maps = st.tuples(coefficient, coefficient, coefficient)
any_rules = st.tuples(digit_maps, digit_maps)
# the walk starts from (0, 0, 0), which a zero digit keeps only if
# beta_0 = gamma_0 = 0; the affine kernels also carry the prefix, gamma_e = e
walk_rules = st.tuples(coefficient, digit_maps).map(lambda r: ((r[0], 0, 0), r[1]))
affine_rules = st.tuples(coefficient, coefficient, coefficient).map(
    lambda abc: ((abc[0], 0, 0), (abc[1], abc[2], 1))
)


def digit_fold(rule, shifts, digits, state=(0, 0, 0)):
    """The state after the one-digit maps of digits, top first."""
    kf, ks, kt = shifts
    f, s, level = state
    for e in digits:
        alpha, beta, gamma = rule[e]
        f, s = (f << kf) + alpha * s + (beta << level), (s << ks) + (gamma << level)
        level += kt
    return f, s, level


@settings(max_examples=20, deadline=None)
@given(
    st.one_of(
        st.sampled_from(SHIPPED_RULES),
        st.tuples(st.none(), any_rules, st.sampled_from(SHIFTS)),
    )
)
@example(SHIPPED_RULES[0])
@example(SHIPPED_RULES[1])
@example(SHIPPED_RULES[2])
def test_chunk_table_entries_are_eight_one_digit_maps(case):
    # from states that pin every coefficient of the map a chunk stands for
    name, rule, (kf, ks, kt) = case
    if name:
        table = getattr(deviations, name)
    else:
        table = deviations._chunk_table(rule, kf, ks, kt)
    assert len(table) == 256
    for c, (a, b, x) in enumerate(table):
        digits = [(c >> k) & 1 for k in range(7, -1, -1)]
        for f0, s0, l0 in ((0, 0, 0), (0, 1, 0), (7, -3, 5), (1 << 40, 9, 33)):
            assert digit_fold(rule, (kf, ks, kt), digits, (f0, s0, l0)) == (
                (f0 << 8 * kf) + a * s0 + (b << l0),
                (s0 << 8 * ks) + (x << l0),
                l0 + 8 * kt,
            ), (c, f0, s0, l0)


@settings(max_examples=30, deadline=None)
@given(walk_rules, st.sampled_from(SHIFTS), st.randoms(use_true_random=False))
@example(*SHIPPED_RULES[0][1:], random.Random(0))  # h
@example(*SHIPPED_RULES[1][1:], random.Random(0))  # 3u
@example(*SHIPPED_RULES[2][1:], random.Random(0))  # g
def test_walk_is_the_one_digit_fold_at_every_width(rule, shifts, rng):
    # the walk reads whole bytes from (0, 0, 0), so the padding's leading
    # zeros only add to L, and the fold of n's own digits starts past them
    table, byte_shifts = deviations._chunk_table(rule, *shifts), [8 * k for k in shifts]
    assert deviations._walk(0, table, *byte_shifts) == (0, 0, 0)
    for bits in [*range(1, 41), *range(250, 271)]:
        for n in (1 << (bits - 1), (1 << bits) - 1, random_width(rng, bits)):
            start = (0, 0, -bits % 8 * shifts[2])
            expected = digit_fold(rule, shifts, map(int, bin(n)[2:]), start)
            assert deviations._walk(n, table, *byte_shifts) == expected, n


@settings(max_examples=30, deadline=None)
@given(affine_rules, block_windows())
def test_affine_steps_over_a_window_are_the_walk_at_each_n(rule, window):
    table = deviations._chunk_table(rule, 0, 1, 0)

    def f(n):
        return deviations._walk(n, table, 0, 8, 0)[0]

    ns = range(window[0], window[1] + 1)
    steps = deviations._affine_steps(table)
    assert deviations._stepped(ns, f, steps) == list(map(f, ns))


def test_a_window_reads_its_core_only_below_256_or_at_two_values():
    # each window steps from the one below, 8 digits shorter, down to at most
    # 2 values or to n < 256, which the scalar core gives
    calls = []

    def core(n):
        calls.append(n)
        return n

    def steps(xs, values, m):
        return [(x << 8) + c for x in values for c in range(256)]

    reads = [
        ((5, 200), list(range(5, 201))),
        ((200, 256), [0, 1]),
        ((1000, 1001), [1000, 1001]),
        ((1000, 1002), [3]),
        ((1000, 1099), [3, 4]),
    ]
    for (lo, hi), read in reads:
        calls.clear()
        ns = range(lo, hi + 1)
        assert deviations._stepped(ns, core, steps) == list(ns)
        assert calls == read, (lo, hi)


def test_window_columns_at_zero_are_the_cores():
    w = _Window(0, 0)
    assert w.reverse == [deviations._dev_v_core(0)[0]] == [0]
    assert w.dev_u == [_dev_u_core(0)[0]] == [0]
    assert w.dev_g == [_dev_g_core(0)] == [(0, 3)]
    assert w.triple_u == [_triple_u(0)] == [0]
    # dev_v, dev_u and dev_g are what EQL21 reads at n = 0
    for name in ("dev_v", "dev_u", "dev_g", "dev_u_closed", "dev_g_closed", "u_fast"):
        kernel = sums.KERNELS[name]
        assert list(kernel.column(w)) == [kernel.core(0)]


def test_windows_split_at_powers_of_two_and_at_4096_rows():
    assert list(_windows(0, 9)) == [(0, 0), (1, 1), (2, 3), (4, 7), (8, 9)]
    assert list(_windows(5, 5)) == [(5, 5)]
    assert list(_windows(6, 5)) == []
    pieces = list(_windows(3000, 20000))
    assert pieces == [
        (3000, 4095), (4096, 8191), (8192, 12287), (12288, 16383), (16384, 20000)
    ]  # fmt: skip
    start = (1 << 300) + 7
    pieces = list(_windows(start, start + 10000))
    assert [hi - lo + 1 for lo, hi in pieces] == [4096, 4096, 1809]
    assert pieces[0][0] == start and pieces[-1][1] == start + 10000
    # wide n: at most 2**22 digits in one window, and at least one n
    wide = 1 << 30000
    assert list(_windows(wide, wide + 300)) == [
        (wide, wide + 138), (wide + 139, wide + 277), (wide + 278, wide + 300)
    ]  # fmt: skip
    huge = 1 << (1 << 23)
    assert list(_windows(huge, huge + 1)) == [(huge, huge), (huge + 1, huge + 1)]
