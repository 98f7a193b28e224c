import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from decimal import Inexact, getcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oddsum
from oddsum import bitcore, cli, deviations, extremal, sums, verify
from oddsum.bitcore import parse_rational
from oddsum.cli import main, parse_nat
from oddsum.deviations import dev_g_digit, dev_v, dev_v_recur
from oddsum.extremal import LAMBDA_M_CAP, lambda_m


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_nat():
    assert parse_nat("10") == 10
    assert parse_nat("0b101") == 5
    for bad in ("-3", "-1", "abc", "0x10", "", "0b", "1.5"):
        with pytest.raises(ValueError):
            parse_nat(bad)


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: oddsum")


def test_eval_plain(capsys):
    code, out, _ = run(capsys, "eval", "V", "4")
    assert code == 0 and out == "11/4\n"


def test_eval_zero_deficit(capsys):
    code, out, _ = run(capsys, "eval", "g", "7")
    assert code == 0 and out == "0\n"


def test_eval_binary_literal(capsys):
    code, out, _ = run(capsys, "eval", "V", "0b100")
    assert code == 0 and out == "11/4\n"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "u", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"function": "u", "n": 4, "value": "2/3"}


def test_eval_decimal(capsys):
    code, out, _ = run(capsys, "eval", "v", "6", "--decimal", "3")
    assert code == 0 and out == "0.25\n"
    code, out, _ = run(capsys, "eval", "v", "13", "--decimal", "3")
    assert code == 0 and out == "0.458\n"
    code, out, _ = run(capsys, "eval", "v", "5", "--decimal", "1")
    assert code == 0 and out == "0.4\n"


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "h", "0")
    assert code == 2 and "h_eval" in err


def test_eval_unknown_function_exits_2(capsys):
    code, _, err = run(capsys, "eval", "W", "4")
    assert code == 2


def test_eval_round_trips_to_library_value(capsys):
    code, out, _ = run(capsys, "eval", "v", "1234567")
    assert code == 0
    assert parse_rational(out.strip()) == dev_v(1234567)


def test_verify_single_pass(capsys):
    code, out, _ = run(capsys, "verify", "COR5", "--max-n", "512")
    assert code == 0 and out == "COR5 pass checked=512\n"


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "verify", "BOGUS")
    assert code == 2 and "BOGUS" in err


def test_verify_all_small_range(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "all",
        "--max-n",
        "48",
        "--max-m",
        "4",
        "--max-r",
        "2",
        "--max-p",
        "8",
        "--trials",
        "2",
        "--bits",
        "48",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 22
    assert all(" pass checked=" in line for line in lines)


def test_verify_json_record(capsys):
    code, out, _ = run(
        capsys, "verify", "P1B", "--max-n", "32", "--trials", "1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["theorem"] == "P1B" and record["status"] == "pass"
    assert record["checked"] == 32 and record["range"]["max_n"] == 32


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "COR7", "--max-m", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "theorem,status,checked,counterexample\nCOR7,pass,5,\n"


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    import oddsum.cli as cli
    from oddsum.verify import Counterexample, RangeConfig, VerifyReport

    fake = VerifyReport(
        "P1B",
        RangeConfig(),
        "fail",
        Counterexample((("n", "6"),), "x", "y"),
        6,
        0.0,
    )
    monkeypatch.setattr(cli.verify, "check", lambda theorem, config: fake)
    code = cli.main(["verify", "P1B"])
    out = capsys.readouterr().out
    assert code == 1
    assert "fail" in out and "n=6" in out


def test_extremal_plain(capsys):
    code, out, _ = run(capsys, "extremal", "2")
    assert code == 0 and out == "min 0 at 7; max 1/4 at 4,6\n"


def test_extremal_degenerate_block(capsys):
    code, out, _ = run(capsys, "extremal", "0")
    assert code == 0 and out == "min 0 at 1; max 0 at 1\n"


def test_extremal_json(capsys):
    code, out, _ = run(capsys, "extremal", "3", "--format", "json")
    record = json.loads(out)
    assert record["m"] == 3
    assert record["max_points"] == [10, 12] and record["max_value"] == "3/8"
    assert record["min_points"] == [15] and record["min_value"] == "0"
    assert record["degenerate"] is False


def test_scan_examples(capsys):
    code, out, _ = run(capsys, "scan", "g-below", "1/4", "16")
    assert code == 0 and out == "1 2 3 5 7 11 15\n"
    code, out, _ = run(capsys, "scan", "g-below", "0", "100")
    assert code == 0 and out == "\n"
    code, out, _ = run(capsys, "scan", "g-below", "2/3", "7")
    assert code == 0 and out == "1 2 3 4 5 6 7\n"


def test_scan_rejects_decimal_threshold(capsys):
    code, _, err = run(capsys, "scan", "g-below", "0.25", "16")
    assert code == 2


def test_cesaro_plain(capsys):
    code, out, _ = run(capsys, "cesaro", "x", "4")
    assert code == 0 and out == "mean 3/8 limit 1/3\n"


def test_cesaro_decimal(capsys):
    code, out, _ = run(capsys, "cesaro", "const1", "4", "--decimal", "4")
    assert code == 0 and out == "mean 0.6875 limit 0.6667\n"


def test_cesaro_irrational_limit(capsys):
    code, out, _ = run(capsys, "cesaro", "inv1px", "256", "--decimal", "6")
    assert code == 0 and out == "mean 0.462091 limit 0.462098120373\n"


def test_table_csv_deficit_column(capsys):
    code, out, _ = run(capsys, "table", "g", "1", "7", "--format", "csv")
    assert code == 0
    assert out == "n,g\n1,0\n2,1/6\n3,0\n4,1/4\n5,1/6\n6,1/4\n7,0\n"


def test_table_multi_function_plain(capsys):
    code, out, _ = run(capsys, "table", "U,V,G", "1", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 1 1 1"
    assert lines[3] == "4 6 11/4 31/4"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "g", "1", "3", "--format", "json")
    rows = json.loads(out)
    assert rows == [
        {"n": 1, "g": "0"},
        {"n": 2, "g": "1/6"},
        {"n": 3, "g": "0"},
    ]


def test_table_inverted_range_exits_2(capsys):
    code, _, err = run(capsys, "table", "g", "7", "1")
    assert code == 2 and "7" in err


def test_table_unknown_function_exits_2(capsys):
    code, _, err = run(capsys, "table", "g,W", "1", "4")
    assert code == 2


def test_table_over_cap_exits_3(capsys):
    code, _, err = run(capsys, "table", "g", "1", str(5 << 22))
    assert code == 3


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "nonsense", "1")
    assert code == 2


# The interpreter's int/str digit limit (4300 by default since CPython 3.11,
# and in the 3.10 security releases) makes some exact output unprintable.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter has no int/str digit limit"
)


def test_an_interpreter_without_a_digit_limit_refuses_nothing(capsys, monkeypatch):
    # as on a Python 3.10 release that predates the limit
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert bitcore.str_digit_limit() == 0
    n = 10**29 + 12345
    code, out, err = run(capsys, "eval", "h", str(n))
    assert code == 0 and out == f"{deviations.h_eval(n)}\n" and err == ""


def significant(value, digits):
    """value to `digits` significant digits, rounded half to even."""
    context = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    return context.divide(Decimal(value.numerator), Decimal(value.denominator))


def assert_digit_limit_exit(code, out, err, remedy):
    assert code == 3 and out == ""
    assert "sys.get_int_max_str_digits()" in err and str(DIGIT_LIMIT) in err
    assert remedy in err
    assert "Traceback" not in err


@needs_digit_limit
def test_eval_exact_value_over_digit_limit_exits_3(capsys):
    n = (1 << 20000) - 1
    code, out, err = run(capsys, "eval", "U", bin(n))
    assert_digit_limit_exit(code, out, err, "--decimal N")
    # the remedy it names works: 3U = n^2 + 2n at n = 2^m - 1
    code, out, _ = run(capsys, "eval", "U", bin(n), "--decimal", "12")
    assert code == 0 and out == f"{significant(Fraction(n * (n + 2), 3), 12)}\n"


@needs_digit_limit
def test_eval_json_echo_over_digit_limit_exits_3(capsys):
    n = (1 << 16383) | 12345
    code, out, err = run(capsys, "eval", "v", bin(n), "--format", "json")
    assert_digit_limit_exit(code, out, err, "--decimal N")
    code, out, _ = run(capsys, "eval", "v", bin(n), "--decimal", "6")
    assert code == 0 and out == f"{significant(dev_v(n), 6)}\n"


@needs_digit_limit
def test_eval_alpha_json_over_digit_limit_exits_3(capsys):
    n = bin((1 << 20000) - 1)
    code, out, err = run(capsys, "eval", "alpha", n, "--format", "json")
    assert_digit_limit_exit(code, out, err, "--format plain")
    # the other commands that print their argument check it the same way
    code, out, err = run(capsys, "cesaro", "x", n, "--format", "csv")
    assert_digit_limit_exit(code, out, err, "--format plain")
    code, out, err = run(capsys, "table", "alpha", n, n)
    assert_digit_limit_exit(code, out, err, "every table row")


@needs_digit_limit
def test_cesaro_inv1px_too_wide_to_print_exits_3_before_summing(capsys, monkeypatch):
    summed = sums.cesaro_mean

    def refused(function_id, n):
        raise AssertionError(f"summed the {function_id} mean at {n}")

    monkeypatch.setattr(sums, "cesaro_mean", refused)
    for n in (10_000, 16_384, sums.CESARO_INV1PX_CAP):
        code, out, err = run(capsys, "cesaro", "inv1px", str(n))
        assert_digit_limit_exit(code, out, err, "--decimal N")
    # every prime in [n+1, 2n] divides the denominator, which is wider still
    for n in (10_000, 16_384):
        assert summed("inv1px", n).denominator >= 10**DIGIT_LIMIT
    # with no limit, nothing is refused before summing
    monkeypatch.setattr(sums, "cesaro_mean", lambda function_id, n: Fraction(1, 3))
    monkeypatch.setattr(cli, "str_digit_limit", lambda: 0)
    code, out, _ = run(capsys, "cesaro", "inv1px", str(sums.CESARO_INV1PX_CAP))
    assert code == 0 and out == "mean 1/3 limit 0.462098120373\n"
    # a mean that prints still does
    monkeypatch.undo()
    code, out, _ = run(capsys, "cesaro", "inv1px", "4000")
    mean = summed("inv1px", 4000)
    assert code == 0
    assert out == f"mean {mean.numerator}/{mean.denominator} limit 0.462098120373\n"


@needs_digit_limit
def test_cesaro_inv1px_refuses_from_the_lone_odd_primes(capsys, monkeypatch):
    # an odd prime with one multiple in [n+1, 2n] divides one term's
    # denominator alone, so the mean's: that refuses n = 7500 before summing
    def summed(pairs):
        raise AssertionError(f"summed {len(pairs)} terms")

    monkeypatch.setattr(sums, "_tree_sum", summed)
    code, out, err = run(capsys, "cesaro", "inv1px", "7500")
    assert_digit_limit_exit(code, out, err, "--decimal N")
    monkeypatch.undo()
    assert sums.cesaro_mean("inv1px", 7500).denominator >= 10**DIGIT_LIMIT
    # the product checked is that of those primes, found by trial division;
    # isqrt(2n) is the prime 11 at n = 61 and 3 at n = 5
    checked = []
    monkeypatch.setattr(cli, "_check_printable", lambda n, *_: checked.append(n))
    for n in (1, 2, 3, 5, 61, 100, 7500):
        checked.clear()
        cli._check_inv1px_printable(n)
        odd = range(3, 2 * n + 1, 2)
        primes = (p for p in odd if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
        lone = [p for p in primes if len(range(p * (n // p + 1), 2 * n + 1, p)) == 1]
        assert checked == [math.prod(lone)]
    monkeypatch.undo()
    # a mean that prints prints the same bytes, near the widest one that does
    for n in (4900, 4929):
        code, out, _ = run(capsys, "cesaro", "inv1px", str(n))
        mean = sums.cesaro_mean("inv1px", n)
        assert code == 0
        exact = f"{mean.numerator}/{mean.denominator}"
        assert out == f"mean {exact} limit 0.462098120373\n"


@needs_digit_limit
def test_decimal_argument_over_digit_limit_exits_3(capsys):
    numeral = "7" * (DIGIT_LIMIT + 1)
    code, out, err = run(capsys, "eval", "V", numeral)
    assert_digit_limit_exit(code, out, err, "0b prefix")
    assert "not a natural number" not in err
    # at the limit itself the numeral is an ordinary argument
    code, out, _ = run(capsys, "eval", "alpha", "7" * DIGIT_LIMIT)
    assert code == 0 and out == "7" * DIGIT_LIMIT + "\n"


@needs_digit_limit
def test_scan_threshold_over_digit_limit_exits_3(capsys):
    for threshold in ("7" * (DIGIT_LIMIT + 1), "1/" + "7" * (DIGIT_LIMIT + 1)):
        code, out, err = run(capsys, "scan", "g-below", threshold, "16")
        assert_digit_limit_exit(code, out, err, "PYTHONINTMAXSTRDIGITS")
        assert "invalid parse_rational value" not in err
    # at the limit itself the threshold is an ordinary one
    code, out, _ = run(capsys, "scan", "g-below", "1/" + "7" * DIGIT_LIMIT, "16")
    assert code == 0 and out == "1 3 7 15\n"


def test_eval_lambda_m_over_cap_exits_3(capsys):
    code, out, err = run(capsys, "eval", "lambda_m", "0b" + "1" * 40)
    assert code == 3 and out == ""
    assert str(LAMBDA_M_CAP) in err and "LAMBDA_M_CAP" in err
    assert "Traceback" not in err and "MemoryError" not in err
    # the cap is checked before any work: the m just past it fails as fast
    past_cap = str(LAMBDA_M_CAP + 1)
    code, _, err = run(capsys, "eval", "lambda_m", past_cap, "--decimal", "10")
    assert code == 3 and "LAMBDA_M_CAP" in err
    assert lambda_m(LAMBDA_M_CAP).denominator.bit_length() > LAMBDA_M_CAP


def test_extremal_over_lambda_m_cap_exits_3_at_once(capsys):
    for m in ("0b" + "1" * 24, str(LAMBDA_M_CAP + 1)):
        start = time.perf_counter()
        code, out, err = run(capsys, "extremal", m)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert str(LAMBDA_M_CAP) in err and "LAMBDA_M_CAP" in err


@needs_digit_limit
def test_extremal_points_over_digit_limit_exit_3(capsys):
    # 2**(m+1) - 1, the widest point, has one digit too many (m = 14284 at
    # the default limit); --decimal cannot help, the points are integers
    m = (10**DIGIT_LIMIT).bit_length() - 1
    for extra in ((), ("--decimal", "5"), ("--format", "json", "--decimal", "5"),
                  ("--format", "csv", "--decimal", "5")):  # fmt: skip
        for block in (m, 2 * m):
            code, out, err = run(capsys, "extremal", str(block), *extra)
            assert_digit_limit_exit(code, out, err, "PYTHONINTMAXSTRDIGITS")
            assert "extremal point" in err and "-X int_max_str_digits" in err
    # one block down every point fits
    code, out, _ = run(capsys, "extremal", str(m - 1), "--decimal", "5")
    top = significant(lambda_m(m - 1), 5)
    assert code == 0 and out.startswith(f"min 0 at {(1 << m) - 1}; max {top} at ")


def test_decimal_digits_over_cap_exit_3_before_any_work(capsys, monkeypatch):
    cap = cli.DECIMAL_DIGITS_CAP
    code, out, _ = run(capsys, "eval", "v", "13", "--decimal", str(cap))
    assert code == 0 and out == "0." + "4583" + "3" * (cap - 4) + "\n"  # 11/24
    monkeypatch.setitem(
        cli.EVAL_FUNCTIONS, "v", lambda n: pytest.fail("evaluated past the cap")
    )
    for argv in (
        ("eval", "v", "13", "--decimal", str(cap + 1)),
        ("eval", "v", "13", "--decimal", "1000000000000"),
        ("table", "v", "1", "4", "--format", "csv", "--decimal", str(cap + 1)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert str(cap) in err and "DECIMAL_DIGITS_CAP" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "V", "5", "--decimal", "0"),
        ("table", "V", "1", "3", "--decimal", "0", "--format", "csv"),
        ("verify", "P1B", "--max-n", "3", "--decimal", "0"),
        ("scan", "g-below", "1/4", "16", "--decimal", "0"),
        ("eval", "V", "5", "--decimal", "-1"),
    ],
)
def test_decimal_digits_below_1_exit_2_before_any_work(capsys, monkeypatch, argv):
    monkeypatch.setitem(cli.EVAL_FUNCTIONS, "V", lambda n: pytest.fail("evaluated"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--decimal" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, cap, flag",
    [
        (("P1B", "--max-n", "1000000000"), "MAX_N_CAP", "--max-n"),
        (("P2D", "--bits", "100000000", "--trials", "1"), "TRIAL_WORK_CAP", "--bits"),
        (("P2D", "--trials", "1000000000", "--max-n", "1"), "TRIAL_WORK_CAP", "--trials"),
        (("P10", "--max-m", "30"), "MAX_M_CAP", "--max-m"),
        (("L2", "--max-r", "100000", "--max-p", "1"), "MAX_R_CAP", "--max-r"),
        (("COR6", "--max-r", "64", "--max-p", "1000", "--format", "csv"),
         "GRID_CELLS_CAP", "--max-p"),
        # wider in decimal than the int/str digit limit: not echoed
        (("P1B", "--max-n", "0b1" + "0" * 15000), "MAX_N_CAP", "--max-n"),
    ],
)  # fmt: skip
def test_verify_range_over_cap_exits_3_at_once(capsys, argv, cap, flag):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""  # no csv header either
    assert f"oddsum.verify.{cap}" in err and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("theorem", ["all", "ORACLE_UVG", "P1B"])
def test_verify_max_n_below_one_exits_2_before_any_checker(capsys, theorem):
    # every n range and the scan of the sums start at n = 1
    code, out, err = run(capsys, "verify", theorem, "--max-n", "0")
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be at least 1\n"


# --decimal N: integer rendering against the Decimal division it replaces

# up to 40000 bits: at 30 digits operands past 216 bits are cut, at 5000
# digits only operands past 16667 bits take the integer division
signed_ints = st.integers(0, 40000).flatmap(
    lambda bits: st.integers(-(1 << bits), 1 << bits)
)
exact_denominators = st.builds(
    lambda a, b: 2**a * 5**b, st.integers(0, 300), st.integers(0, 300)
)
with_trailing_zeros = st.builds(
    lambda c, z: Fraction(c * 10**z), st.integers(-999, 999), st.integers(0, 5000)
)
rationals = st.one_of(
    st.builds(Fraction, signed_ints, st.integers(1, 40000).flatmap(
        lambda bits: st.integers(1, 1 << bits)
    )),
    st.builds(Fraction, signed_ints, exact_denominators),
    with_trailing_zeros,
)
signs = st.sampled_from([1, -1])


def near_ties(digits):
    """(value, digits): a tie at `digits` digits, (10c+5) * 10**z, exact or
    moved by 1/(3 * 2**k), far below what cutting the operands can see."""
    ties = st.builds(
        lambda c, z, sign: sign * Fraction((10 * c + 5) * 10**z),
        st.integers(10 ** (digits - 1), 10**digits - 1), st.integers(0, 5000), signs,
    )  # fmt: skip
    moved = st.builds(
        lambda tie, k, sign: tie + sign * Fraction(1, 3 << k),
        ties, st.integers(4000, 17000), signs,
    )  # fmt: skip
    return st.tuples(st.one_of(ties, moved), st.just(digits))


decimal_cases = st.one_of(
    st.tuples(rationals, st.sampled_from([1, 2, 3, 5, 6, 30, 5000])),
    st.sampled_from([1, 5, 30]).flatmap(near_ties),
)

# wide operands whose quotient the cut operands settle, and exact wide
# quotients, ties and near ties that they cannot
DECIMAL_EXAMPLES = [
    (Fraction(3**20000, 7**9000), 30),
    (Fraction(-(5**20000), 3 << 16000), 5),
    (Fraction(1, 3 << 17000), 1),
    (Fraction(123 * 10**5000), 1),
    (Fraction(-(10 * 12345 + 5) * 10**4000), 5),
    (Fraction(15 * 10**4000) + Fraction(1, 3 << 17000), 1),
    (Fraction(-15 * 10**4000) + Fraction(1, 3 << 4000), 1),
    (Fraction(25, 10**5) - Fraction(1, 3 << 4000), 1),
    (Fraction(25 * 10**40), 1),  # cut without loss: the lower bound is the tie
    # 10**-1 scales the cut quotient (shift -1), settled and near a tie
    (Fraction(12345 * (3 << 17000) + 1, 3 << 17000), 1),
    (Fraction(15 * 10**3) + Fraction(1, 3 << 17000), 1),
    (Fraction(3**20000, 7**11400), 30),  # 10**123 cut as well: b_hi shifted up
]


@given(decimal_cases)
@example((Fraction(0), 1))
@example((Fraction(200), 1))
@example((Fraction(200), 30))
@example((Fraction(12300), 2))
@example((Fraction(12300), 3))
@example((Fraction(-12300), 30))
@example((Fraction(10**40), 30))
@example((Fraction(10**40), 5000))
@example((Fraction(25, 10**5), 1))
@example((Fraction(35, 10**5), 1))
@example((Fraction(-25, 10**5), 1))
@example((Fraction(1, 4) + Fraction(1, 3 * 10**40), 1))
@example((Fraction(1, 3), 5000))
@example((Fraction(-1, 3 << 300), 1))  # the sign of a cut quotient of -1
@example((Fraction((1 << 8001) + 1, 3 << 4000), 1))  # V(2**4000), cut
@example((Fraction((1 << 8001) + 1, 3 << 4000), 1000))  # V(2**4000), divided
@example((Fraction(12300 * 10**3000), 3))  # an exact cut quotient
@example((Fraction(-12300 * 10**3000), 3000))  # a narrow integer, rounded
def test_decimal_str_is_the_decimal_division(case):
    value, digits = case
    assert cli._decimal_str(value, digits) == str(significant(value, digits))


def test_decimal_str_settles_quotients_both_ways(monkeypatch):
    # _quotient gives an inexact quotient's remainder as 1 when the cut
    # operands settle it, and the true one when it divides at full width
    ways = []
    quotient = cli._quotient

    def spy(a, b, shift, bits):
        got = quotient(a, b, shift, bits)
        exact = divmod(a * 10**shift, b) if shift >= 0 else divmod(a, b * 10**-shift)
        assert got[0] == exact[0] and (got[1] == 0) == (exact[1] == 0)
        ways.append("cut" if got[1] != exact[1] else "full width")
        return got

    monkeypatch.setattr(cli, "_quotient", spy)
    for value, digits in DECIMAL_EXAMPLES:
        assert cli._decimal_str(value, digits) == str(significant(value, digits))
    # the last example, 138 bits at 1 digit, is divided as Decimals (its cut
    # width, 100 bits, passes half its width), so its quotient is asked directly
    assert spy(25 * 10**40, 1, -38, 100) == (2500, 0)
    assert ways.count("cut") == 5 and ways.count("full width") == 7


def test_decimal_str_sheds_the_trailing_zeros_of_an_exact_cut_quotient(monkeypatch):
    # both operands pass twice the cut width, so the quotient comes from
    # _quotient, exact, with zeros to shed toward exponent 0
    ways = []
    quotient = cli._quotient

    def spy(a, b, shift, bits):
        ways.append(quotient(a, b, shift, bits))
        return ways[-1]

    monkeypatch.setattr(cli, "_quotient", spy)
    for value, digits, text in (
        (Fraction(1234, 10**600), 10, "1.234E-597"),
        (Fraction(3, 10**700), 30, "3E-700"),
    ):
        ways.clear()
        assert cli._decimal_str(value, digits) == text
        assert text == str(significant(value, digits))
        assert len(ways) == 1 and ways[0][1] == 0


def test_decimal_str_divides_as_decimals_from_half_the_operands_width(monkeypatch):
    # 4001 bits over 3170: the cut width 4N + 96 passes 4001 / 2 from N = 477
    cuts = []
    quotient = cli._quotient

    def spy(a, b, shift, bits):
        cuts.append(bits)
        return quotient(a, b, shift, bits)

    monkeypatch.setattr(cli, "_quotient", spy)
    value = Fraction((1 << 4000) + 12345, 3**2000)
    for digits, asked in ((30, [216]), (476, [2000]), (477, []), (2000, [])):
        cuts.clear()
        assert cli._decimal_str(value, digits) == str(significant(value, digits))
        assert cuts == asked
    # below the cut, an integer is converted once and rounded, never divided;
    # any other value is divided, over a power of two at no more digits than
    # bits(p) + bits(q), enough for the ending decimal it has
    converted, divided = [], []
    to_decimal = cli._to_decimal

    class Divisions(Decimal):
        def __truediv__(self, other):
            divided.append((int(self), int(other), getcontext().prec))
            return Decimal(self) / other

    def convert(n, power=None):
        converted.append(n)
        return Divisions(to_decimal(n, power))

    monkeypatch.setattr(cli, "_to_decimal", convert)
    p, q = ((1 << 8001) + 1) // 3, 1 << 4000  # V(2**4000): 8000 bits over 4001
    for value, digits, calls, precision in (
        (Fraction(-12300 * 10**3000), 3000, [-12300 * 10**3000], None),
        (Fraction(p, q), 1000, [p, q], 1000),
        (Fraction(p, q), 20000, [p, q], 12001),
        (Fraction(1, 3), 20000, [1, 3], 20000),
    ):
        converted.clear(), divided.clear()
        assert cli._decimal_str(value, digits) == str(significant(value, digits))
        assert cuts == [] and converted == calls
        assert divided == ([] if precision is None else [(*calls, precision)])


@pytest.mark.parametrize(
    "bits", [1, 100, 1 << 14, (1 << 14) + 1, (1 << 14) + 2, (1 << 15) + 3, 10**5]
)
def test_to_decimal_is_decimal_of_the_int(bits, monkeypatch):
    # an int of 16386 bits or more is converted by halves, and each power of
    # two they are joined by is converted once: one Decimal a part not halved
    # and one a distinct half
    calls, made = [], []
    to_decimal = cli._to_decimal

    def spy(n, power=None):
        calls.append(n)
        return to_decimal(n, power)

    def decimal(value):
        made.append(value)
        return Decimal(value)

    monkeypatch.setattr(cli, "_to_decimal", spy)
    monkeypatch.setattr(cli, "Decimal", decimal)
    for n in ((1 << bits) - 1, 1 << bits, random.Random(bits).getrandbits(bits)):
        for signed in (n, -n):
            calls.clear(), made.clear()
            assert str(cli._to_decimal(signed)) == str(Decimal(signed))
            halved = [k.bit_length() >> 1 for k in calls if k.bit_length() >= 16386]
            assert (len(calls) > 1) == (n.bit_length() >= 16386)
            assert len(calls) == 1 + 2 * len(halved)
            assert len(made) == len(calls) - len(halved) + len(set(halved))


def test_decimal_prints_values_past_the_default_exponent_range(capsys):
    # U(2**k) = (4**k + 2)/3 passes 10**999999, the default Emax, and
    # v(2**k) = 1/(3 * 2**k) passes 10**-999999, the default Emin
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    wide = Context(prec=5, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    two = Decimal(2)
    cases = (
        ("U", 1700000, lambda k: (exact.add(exact.power(two, 2 * k), 2), Decimal(3))),
        ("v", 3400000, lambda k: (Decimal(1), exact.multiply(3, exact.power(two, k)))),
    )
    for function, k, operands in cases:
        argv = ("eval", function, "0b1" + "0" * k, "--decimal", "5")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == f"{wide.divide(*operands(k))}\n"
    assert out == "3.4484E-1023503\n"


def test_eval_decimal_beyond_digit_limit(capsys):
    # 6000 significant digits of a 12042-digit value: more than str(int) may give
    n = (1 << 20000) - 1
    code, out, _ = run(capsys, "eval", "U", bin(n), "--decimal", "6000")
    assert code == 0 and out == f"{significant(Fraction(n * (n + 2), 3), 6000)}\n"


def test_decimal_digits_below_one_exit_2(capsys):
    for digits in ("0", "-3"):
        code, out, err = run(capsys, "eval", "V", "5", "--decimal", digits)
        assert code == 2 and out == "" and "Traceback" not in err


def test_eval_lambda_m_decimal(capsys):
    code, out, _ = run(capsys, "eval", "lambda_m", "65536", "--decimal", "10")
    assert code == 0 and out == f"{significant(lambda_m(65536), 10)}\n"


# main() keeps one parser for the life of the process

FRESH = "import sys\nfrom oddsum.cli import main\nsys.exit(main(sys.argv[1:]))"
SEQUENCE = (
    ("eval", "v", "13", "--decimal", "3"),
    ("eval", "v", "13"),
    ("eval", "G", "0b1011", "--format", "json"),
    ("verify", "COR5", "--max-n", "64", "--format", "json"),
    ("table", "g,V", "1", "9", "--format", "csv"),
    ("eval", "u", "12", "--decimal", "5", "--format", "csv"),
)


def fresh_stdout(argv):
    """stdout of `argv` in a new interpreter, which builds its own parser."""
    src = os.path.dirname(os.path.dirname(oddsum.__file__))
    done = subprocess.run(
        [sys.executable, "-c", FRESH, *argv],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )  # fmt: skip
    return done.stdout


def test_shared_parser_matches_a_fresh_process(capsys):
    expected = {argv: fresh_stdout(argv) for argv in SEQUENCE}
    for argv in SEQUENCE + SEQUENCE[::-1]:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected[argv], argv


def test_main_builds_the_parser_once(capsys, monkeypatch):
    assert cli.build_parser() is not cli.build_parser()  # public: always fresh
    run(capsys, "eval", "V", "4")
    monkeypatch.setattr(
        cli, "build_parser", lambda: pytest.fail("main() built a second parser")
    )
    assert run(capsys, "eval", "V", "4")[:2] == (0, "11/4\n")


def test_parse_nat_replacement_reaches_the_shared_parser(capsys, monkeypatch):
    assert run(capsys, "eval", "V", "4")[:2] == (0, "11/4\n")
    seen = []

    def spy(text):
        seen.append(text)
        return parse_nat(text)

    monkeypatch.setattr(cli, "parse_nat", spy)
    assert run(capsys, "eval", "V", "0b100")[:2] == (0, "11/4\n")
    assert run(capsys, "verify", "COR5", "--max-n", "8")[:2] == (
        0, "COR5 pass checked=8\n",
    )  # fmt: skip
    assert seen == ["0b100", "8"]


def test_bad_argument_names_its_type(capsys):
    for _ in range(2):  # the second call goes through the shared parser
        code, _, err = run(capsys, "eval", "V", "abc")
        assert code == 2 and "invalid parse_nat value: 'abc'" in err
        code, _, err = run(capsys, "scan", "g-below", "0.25", "16")
        assert code == 2 and "invalid parse_rational value: '0.25'" in err


# Every command in every format, byte for byte: argv, exit code, and the
# stdout of --format plain, json and csv.  Exit code 1 is a failing
# verify report, from a stand-in for verify.check.
FORMATS = ("plain", "json", "csv")
VERIFY_RANGE = (
    '"range": {"max_n": 65536, "max_m": 4, "max_r": 8, "max_p": 256,'
    ' "random_big_trials": 1000, "random_bits": 256, "seed": 0}'
)
GOLDEN = [
    (("eval", "V", "4"), 0, "11/4\n",
     '{"function": "V", "n": 4, "value": "11/4"}\n',
     "function,n,value\nV,4,11/4\n"),
    (("eval", "h", "0"), 2, "", "", ""),
    (("verify", "COR7", "--max-m", "4"), 0, "COR7 pass checked=5\n",
     '{"theorem": "COR7", "status": "pass", "checked": 5, '
     + VERIFY_RANGE + ', "counterexample": null}\n',
     "theorem,status,checked,counterexample\nCOR7,pass,5,\n"),
    (("verify", "P1B", "--max-m", "4"), 1,
     "P1B fail checked=6 n=6 expected=x actual=y\n",
     '{"theorem": "P1B", "status": "fail", "checked": 6, ' + VERIFY_RANGE
     + ', "counterexample": {"inputs": {"n": "6"}, "expected": "x",'
     ' "actual": "y"}}\n',
     "theorem,status,checked,counterexample\nP1B,fail,6,n=6 expected=x actual=y\n"),
    (("verify", "COR5", "--max-n", "1000000000"), 3, "", "", ""),
    (("extremal", "3"), 0, "min 0 at 15; max 3/8 at 10,12\n",
     '{"m": 3, "min_value": "0", "min_points": [15], "max_value": "3/8",'
     ' "max_points": [10, 12], "degenerate": false}\n',
     "m,min_value,min_points,max_value,max_points,degenerate\n"
     "3,0,15,3/8,10;12,False\n"),
    (("extremal", "0"), 0, "min 0 at 1; max 0 at 1\n",
     '{"m": 0, "min_value": "0", "min_points": [1], "max_value": "0",'
     ' "max_points": [1], "degenerate": true}\n',
     "m,min_value,min_points,max_value,max_points,degenerate\n0,0,1,0,1,True\n"),
    (("scan", "g-below", "1/4", "16"), 0, "1 2 3 5 7 11 15\n",
     "[1, 2, 3, 5, 7, 11, 15]\n", "n\n1\n2\n3\n5\n7\n11\n15\n"),
    (("scan", "g-below", "0", "100"), 0, "\n", "[]\n", "n\n"),
    (("cesaro", "x", "4"), 0, "mean 3/8 limit 1/3\n",
     '{"function": "x", "n": 4, "mean": "3/8", "limit": "1/3"}\n',
     "function,n,mean,limit\nx,4,3/8,1/3\n"),
    (("cesaro", "inv1px", "256", "--decimal", "6"), 0,
     "mean 0.462091 limit 0.462098120373\n",
     '{"function": "inv1px", "n": 256, "mean": "0.462091",'
     ' "limit": "0.462098120373"}\n',
     "function,n,mean,limit\ninv1px,256,0.462091,0.462098120373\n"),
    (("cesaro", "inv1px", "65537"), 3, "", "", ""),
    (("table", "V", "5", "5"), 0, "5 15/4\n", '[{"n": 5, "V": "15/4"}]\n',
     "n,V\n5,15/4\n"),
    (("table", "g,g", "1", "3"), 0, "1 0 0\n2 1/6 1/6\n3 0 0\n",
     '[{"n": 1, "g": "0"}, {"n": 2, "g": "1/6"}, {"n": 3, "g": "0"}]\n',
     "n,g,g\n1,0,0\n2,1/6,1/6\n3,0,0\n"),
    (("table", "h", "0", "3"), 2, "", "", ""),
    (("table", "g", "7", "1"), 2, "", "", ""),
]  # fmt: skip


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv, code, outputs",
    [pytest.param(argv, code, outs, id=" ".join(argv)) for argv, code, *outs in GOLDEN],
)
def test_every_command_and_format_byte_for_byte(
    capsys, monkeypatch, argv, code, outputs, fmt
):
    if code == 1:
        from oddsum.verify import Counterexample, RangeConfig, VerifyReport

        ce = Counterexample((("n", "6"),), "x", "y")
        report = VerifyReport("P1B", RangeConfig(max_m=4), "fail", ce, 6, 0.0)
        monkeypatch.setattr(cli.verify, "check", lambda theorem, config: report)
    got, out, err = run(capsys, *argv, "--format", fmt)
    assert (got, out) == (code, outputs[FORMATS.index(fmt)])
    assert (err == "") == (code < 2)


# past DEFAULT_BRUTE_CAP, and past the int/str digit limit in decimal
WIDE = "0b1" + "0" * 20000


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", ("scan g-below 1/4", "table g 1"))
def test_brute_bound_past_the_digit_limit_exits_3(capsys, command, fmt):
    code, out, err = run(capsys, *command.split(), WIDE, "--format", fmt)
    assert code == 3 and out == ""
    assert "DEFAULT_BRUTE_CAP = 4194304 (oddsum.sums.DEFAULT_BRUTE_CAP)" in err


def test_json_array_spans_chunks(capsys):
    rows = 9000  # a table's json array goes out 4096 rows at a time
    code, out, _ = run(capsys, "table", "g", "1", str(rows), "--format", "json")
    expected = [{"n": n, "g": cli.format_rational(deviations.dev_g_closed(n))}
                for n in range(1, rows + 1)]  # fmt: skip
    assert code == 0 and out == json.dumps(expected) + "\n"


# VmHWM, not ru_maxrss, which keeps the peak of the process that forked it
PEAK_RSS = """
import sys
from oddsum.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak, file=sys.stderr)
"""


def test_table_json_cells_longer_than_a_piece_go_one_a_piece(capsys):
    # 70,000 digits a cell pass the 2**13 characters of a piece
    argv = ("table", "v", "1", "3", "--decimal", "70000", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and [row["n"] for row in json.loads(out)] == [1, 2, 3]


def peak_rss_run(path, *argv):
    """(exit code, peak RSS in KiB) of `oddsum argv` in a fresh process, its
    stdout written to path."""
    src = os.path.dirname(os.path.dirname(oddsum.__file__))
    with open(path, "w") as out:
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, *argv],
            stdout=out, stderr=subprocess.PIPE, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )  # fmt: skip
    code, peak_kib = map(int, done.stderr.split())
    return code, peak_kib


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_table_json_streams_in_bounded_memory(tmp_path):
    # 262144 rows peak at 110 MB when the whole array is built before it
    # prints, and at 20 MB streamed (17 MB for the same table in csv)
    rows = 1 << 18
    path = tmp_path / "table.json"
    argv = ("table", "g", "1", str(rows), "--format", "json")
    code, peak_kib = peak_rss_run(path, *argv)
    assert code == 0 and peak_kib < 40 * 1024
    last = cli.format_rational(deviations.dev_g_closed(rows))
    text = path.read_text()
    assert text.startswith('[{"n": 1, "g": "0"}, {"n": 2, "g": "1/6"}, ')
    assert text.endswith(f'}}, {{"n": {rows}, "g": "{last}"}}]\n')
    assert text.count('{"n": ') == rows


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("fmt", ("plain", "csv"))
def test_table_of_wide_decimal_cells_streams_in_bounded_memory(tmp_path, fmt):
    # rows of four 300,000-digit cells peak at 72 MB when 64 of them make a
    # piece, and at 21 MB when a piece holds about 8 KB, one row here
    path = tmp_path / "table.txt"
    argv = ("table", "v,g,V,G", "1", "64", "--decimal", "300000", "--format", fmt)
    code, peak_kib = peak_rss_run(path, *argv)
    assert code == 0 and peak_kib < 40 * 1024
    lines = path.read_text().splitlines()
    assert len(lines) == 64 + (fmt == "csv")
    last = lines[-1].split("," if fmt == "csv" else " ")
    assert last[0] == "64" and last[3] == str(significant(sums.v_fast(64), 300000))


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (("table", "g", "1", "100000"), "1 0\n"),
        (("table", "g", "1", "100000", "--format", "csv"), "n,g\n"),
        (("verify", "all", "--max-n", "4096", "--trials", "20", "--format", "csv"),
         "theorem,status,checked,counterexample\n"),
    ],
    ids=("table", "table-csv", "verify"),
)  # fmt: skip
def test_closed_stdout_exits_141_quietly(argv, first_line):
    # the reader takes one line and goes, as `| head -1` does
    src = os.path.dirname(os.path.dirname(oddsum.__file__))
    with subprocess.Popen(
        [sys.executable, "-c", FRESH, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    ) as done:  # fmt: skip
        assert done.stdout.readline() == first_line
        done.stdout.close()
        _, err = done.communicate(timeout=120)
    assert (done.returncode, err) == (141, "")


def test_table_over_cells_cap_exits_3_at_once(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.EVAL_FUNCTIONS, "g", lambda n: pytest.fail("evaluated past the cap")
    )
    most_rows = sums.DEFAULT_BRUTE_CAP + 1
    # every function once, at the most rows a table takes, is the cells cap
    cells = len(cli.EVAL_FUNCTIONS) * most_rows
    for names, rows in ((len(cli.EVAL_FUNCTIONS) + 1, most_rows), (1000, 60000)):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "table", ",".join(["g"] * names), "1", str(rows), "--format", "csv"
        )
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert str(cells) in err and "oddsum.sums.DEFAULT_BRUTE_CAP" in err


def test_table_cells_cap_follows_the_brute_cap(capsys, monkeypatch):
    # 12 columns of 5,000,000 rows are past the cells cap of the default row
    # cap, 12 * (2**22 + 1), but within that of a row cap raised to 2**23:
    # the table starts, and its first row fails before any cell is printed
    def fails(n):
        raise ValueError(f"no value at {n}")

    monkeypatch.setattr(sums, "DEFAULT_BRUTE_CAP", 1 << 23)
    monkeypatch.setitem(cli.EVAL_FUNCTIONS, "g", fails)
    names = ",".join(["g"] * len(cli.EVAL_FUNCTIONS))
    code, out, err = run(capsys, "table", names, "1", "5000000")
    assert code == 2 and out == ""
    assert "no value at 1" in err


def test_table_cells_cap_admits_its_last_cell(capsys, monkeypatch):
    # a row cap of 9 admits 10 rows of every function once, and no cell more
    monkeypatch.setattr(sums, "DEFAULT_BRUTE_CAP", 9)
    columns = len(cli.EVAL_FUNCTIONS)
    code, out, _ = run(capsys, "table", ",".join(["g"] * columns), "1", "10")
    assert code == 0 and len(out.splitlines()) == 10
    code, out, err = run(capsys, "table", ",".join(["g"] * (columns + 1)), "1", "10")
    assert (code, out) == (3, "")
    assert f"10 rows of {columns + 1} columns exceed {10 * columns} cells" in err


def test_table_lambda_m_past_its_cap_exits_3_at_once(capsys):
    _, _, eval_err = run(capsys, "eval", "lambda_m", str(4 * LAMBDA_M_CAP))
    for argv in (
        ("table", "lambda_m", "1", str(4 * LAMBDA_M_CAP), "--decimal", "10"),
        ("table", "v,lambda_m", str(LAMBDA_M_CAP + 1), str(LAMBDA_M_CAP + 1)),
        ("table", "lambda_m", "1", str(4 * LAMBDA_M_CAP), "--format", "csv"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 3 and out == "" and err == eval_err
    # a table that ends at the cap itself is not refused
    code, out, _ = run(
        capsys, "table", "lambda_m", str(LAMBDA_M_CAP), str(LAMBDA_M_CAP),
        "--decimal", "10",
    )  # fmt: skip
    assert code == 0 and out == f"{LAMBDA_M_CAP} 116508.4815\n"


def test_cesaro_x2_past_its_width_cap_exits_3_at_once(capsys):
    wide = "0b1" + "0" * sums.CESARO_X2_WIDTH_CAP  # one bit past the cap
    start = time.perf_counter()
    code, out, err = run(capsys, "cesaro", "x2", wide, "--decimal", "10")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert str(sums.CESARO_X2_WIDTH_CAP) in err and "CESARO_X2_WIDTH_CAP" in err
    # the other weights have no width cap: x is a closed form
    code, _, _ = run(capsys, "cesaro", "x", wide, "--decimal", "10")
    assert code == 0


def test_cesaro_inv1px_past_its_cap_exits_3_at_once(capsys):
    past_cap = str(sums.CESARO_INV1PX_CAP + 1)
    start = time.perf_counter()
    code, out, err = run(capsys, "cesaro", "inv1px", past_cap, "--decimal", "10")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert str(sums.CESARO_INV1PX_CAP) in err and "CESARO_INV1PX_CAP" in err


# one refusal of each named cap through main(): (argv, what, owner, cap name)
CAP_REFUSALS = [
    (("verify", "P1B", "--max-n", str(verify.MAX_N_CAP + 1)),
     "--max-n", verify, "MAX_N_CAP"),
    (("verify", "P10", "--max-m", str(verify.MAX_M_CAP + 1)),
     "--max-m", verify, "MAX_M_CAP"),
    (("verify", "L2", "--max-r", str(verify.MAX_R_CAP + 1), "--max-p", "1"),
     "--max-r", verify, "MAX_R_CAP"),
    (("verify", "COR6", "--max-r", "64", "--max-p", "1000", "--format", "csv"),
     "(--max-r + 1) * (--max-p + 1)", verify, "GRID_CELLS_CAP"),
    (("verify", "P2D", "--trials", "1", "--bits", "16385"),
     f"--trials * max(--bits, {verify._H_SPLIT_BITS})**2", verify, "TRIAL_WORK_CAP"),
    (("scan", "g-below", "1/4", str(sums.DEFAULT_BRUTE_CAP + 1)),
     "the scan bound", sums, "DEFAULT_BRUTE_CAP"),
    (("table", "g", "0", str(sums.DEFAULT_BRUTE_CAP + 1), "--format", "json"),
     "the range to - from", sums, "DEFAULT_BRUTE_CAP"),
    (("cesaro", "x2", "0b1" + "0" * sums.CESARO_X2_WIDTH_CAP),
     "the width of n in bits", sums, "CESARO_X2_WIDTH_CAP"),
    (("cesaro", "inv1px", str(sums.CESARO_INV1PX_CAP + 1)),
     "n", sums, "CESARO_INV1PX_CAP"),
    (("eval", "lambda_m", str(LAMBDA_M_CAP + 1)), "m", extremal, "LAMBDA_M_CAP"),
    (("extremal", str(LAMBDA_M_CAP + 1), "--format", "csv"),
     "m", extremal, "LAMBDA_M_CAP"),
    (("table", "lambda_m", "1", str(LAMBDA_M_CAP + 1), "--decimal", "5"),
     "m", extremal, "LAMBDA_M_CAP"),
    (("eval", "v", "13", "--decimal", str(cli.DECIMAL_DIGITS_CAP + 1)),
     "--decimal N", cli, "DECIMAL_DIGITS_CAP"),
]  # fmt: skip


@pytest.mark.parametrize(
    "argv, what, owner, name",
    CAP_REFUSALS,
    ids=[f"{case[3]}-{case[0][0]}" for case in CAP_REFUSALS],
)
def test_every_cap_refuses_in_one_shape(capsys, argv, what, owner, name):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    cap = getattr(owner, name)
    assert err == f"error: {what} is past {name} = {cap} ({owner.__name__}.{name})\n"


def test_lowered_lambda_m_cap_refuses_eval_extremal_and_table_alike(
    capsys, monkeypatch
):
    # the cap is read from extremal at each call, so a table refuses before
    # its first row and every command accepts the cap itself
    monkeypatch.setattr(extremal, "LAMBDA_M_CAP", 100)
    refusal = "error: m is past LAMBDA_M_CAP = 100 (oddsum.extremal.LAMBDA_M_CAP)\n"
    for argv in (("eval", "lambda_m", "101"), ("extremal", "101"),
                 ("table", "lambda_m", "99", "102")):  # fmt: skip
        assert run(capsys, *argv) == (3, "", refusal)
    assert run(capsys, "eval", "lambda_m", "100")[:2] == (0, f"{lambda_m(100)}\n")
    assert run(capsys, "extremal", "100")[0] == 0
    code, out, _ = run(capsys, "table", "lambda_m", "99", "100")
    assert code == 0 and out == f"99 {lambda_m(99)}\n100 {lambda_m(100)}\n"


@needs_digit_limit
def test_raised_lambda_m_cap_admits_eval_extremal_and_table_alike(
    capsys, monkeypatch
):
    # past the default cap, eval and table print lambda_m, and extremal goes
    # on to its own refusal of points past the digit limit
    monkeypatch.setattr(extremal, "LAMBDA_M_CAP", 1 << 22)
    m = str((1 << 20) + 1)
    # lambda_m(m) is (3m + 1)/27 less 2**-m / 27, far below 5 digits
    value = significant(Fraction(3 * int(m) + 1, 27), 5)
    assert run(capsys, "eval", "lambda_m", m, "--decimal", "5") == (0, f"{value}\n", "")
    code, out, _ = run(capsys, "table", "lambda_m", m, m, "--decimal", "5")
    assert code == 0 and out == f"{m} {value}\n"
    code, out, err = run(capsys, "extremal", m, "--decimal", "5")
    assert_digit_limit_exit(code, out, err, "PYTHONINTMAXSTRDIGITS")
    assert "extremal point" in err


def test_eval_and_table_print_lowest_terms_across_widths(capsys):
    # the printed V, G, v and g must be reduced: verify reads values through
    # _over, which accepts an unreduced one, so only the output can show it
    reference = {
        "V": lambda n: Fraction(2 * n, 3) + dev_v_recur(n),
        "G": lambda n: Fraction(n * (n + 2), 3) - dev_g_digit(n),
        "v": dev_v_recur,
        "g": dev_g_digit,
    }
    threshold = 128  # both sides, against a size switch in the reduction coming back
    for bits in (threshold - 1, threshold, threshold + 1, threshold + 2, 300, 601):
        low = (1 << (bits - 1)) | random.Random(bits).getrandbits(bits - 1)
        args = [str(n) for n in range(low, low + 12)]
        code, out, _ = run(capsys, "table", ",".join(reference), args[0], args[-1])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in out.splitlines())
        for arg in args:
            for (fn, evaluate), text in zip(reference.items(), rows[arg].split(" ")):
                assert run(capsys, "eval", fn, arg)[1] == text + "\n"
                p, _, q = text.partition("/")
                assert math.gcd(int(p), int(q or 1)) == 1, (fn, arg)
                assert Fraction(int(p), int(q or 1)) == evaluate(int(arg)), (fn, arg)


# table reads the shipped kernels a window at a time; wrapped, each one is
# called once per n, as any other function is
START_300 = (1 << 299) + 987654321
TABLE_ARGVS = [
    ("V,U,G,v,u,g,h", "1", "70"),
    ("V,U,G,v,u,g,h", "4090", "4100"),
    ("V,U,G,v,u,g,h", "1", "300"),  # the 64-row pieces and the blocks up to 256
    ("g,V,h,u", "8000", "16500"),  # two powers of two and a 4096-row split
    ("V,u", "0", "5"),  # V has no value at 0: the header, then exit 2
    ("u,U,v,g", "0", "9"),
    ("v,theta,hat", "1", "40"),
    ("h,alpha,tilde,U,lambda_m", "5", "20"),
    ("V,U,G,v,u,g,h", str(START_300), str(START_300 + 40)),
    ("V,G,u,h,U,g", "1", "300", "--decimal", "12"),
    ("g,g", "1", "9"),
]


def spy_windows(monkeypatch):
    """The (lo, hi) of each deviations._Window built from now on."""
    read, window = [], deviations._Window

    def spy(lo, hi):
        read.append((lo, hi))
        return window(lo, hi)

    monkeypatch.setattr(deviations, "_Window", spy)
    return read


def table_both_ways(capsys, monkeypatch, *argv):
    """(code, stdout, stderr) of a table, windowed and per n, and the windows read."""
    read = spy_windows(monkeypatch)
    windowed = run(capsys, "table", *argv)
    with monkeypatch.context() as patch:
        for name, function in list(cli.EVAL_FUNCTIONS.items()):
            patch.setitem(cli.EVAL_FUNCTIONS, name, lambda n, f=function: f(n))
        count = len(read)
        per_n = run(capsys, "table", *argv)
        assert len(read) == count  # the wrappers are called once per n
    return windowed, per_n, read


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", TABLE_ARGVS, ids=" ".join)
def test_table_windows_print_what_the_per_n_calls_print(
    capsys, monkeypatch, argv, fmt
):
    windowed, per_n, read = table_both_ways(capsys, monkeypatch, *argv, "--format", fmt)
    assert windowed == per_n
    start, stop = int(argv[1]), int(argv[2])
    if windowed[0] == 0:
        assert read == [piece for piece in deviations._windows(start, stop) if piece[0]]
        if fmt != "json":
            assert len(windowed[1].splitlines()) == stop - start + 1 + (fmt == "csv")
    if argv[:2] == ("V,u", "0"):
        assert windowed[0] == 2 and "v_fast requires n >= 1" in windowed[2]
        assert windowed[1] == ""


def reference_table(fmt, functions, start, stop, *options):
    """(exit code, stdout) of a table in plain or csv, from one call per cell
    of cli.EVAL_FUNCTIONS, written row by row by csv.writer or str.join."""
    names, rows, code = functions.split(","), [], 0
    digits = int(options[1]) if options else None  # ("--decimal", N)
    context = Context(digits, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)

    def cell(value):
        if digits is None:
            return bitcore.format_rational(value)
        value = Fraction(value)
        return str(context.divide(Decimal(value.numerator), Decimal(value.denominator)))

    try:
        for n in range(int(start), int(stop) + 1):
            rows.append((n, *(cell(cli.EVAL_FUNCTIONS[name](n)) for name in names)))
    except ValueError:  # a value outside a function's domain: a usage error
        code = 2
    if fmt == "plain":
        return code, "".join(" ".join(map(str, row)) + "\n" for row in rows)
    out = io.StringIO()
    if rows:  # the header waits for the first row
        csv.writer(out, lineterminator="\n").writerows([("n", *names), *rows])
    return code, out.getvalue()


# no shipped kernel: per n only, past two 64-row pieces, and no window read
PER_N_ARGV = ("alpha,theta,hat,tilde,lambda_m", "1", "130")


@pytest.mark.parametrize("fmt", ("plain", "csv"))
@pytest.mark.parametrize("argv", [*TABLE_ARGVS, PER_N_ARGV], ids=" ".join)
def test_table_prints_what_csv_writer_and_join_print(capsys, argv, fmt):
    code, out, _ = run(capsys, "table", *argv, "--format", fmt)
    assert (code, out) == reference_table(fmt, *argv)


@needs_digit_limit
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("row", (None, 1, 64, 65), ids=lambda row: f"row{row}")
def test_table_exact_value_past_the_digit_limit_exits_3_after_the_same_rows(
    capsys, monkeypatch, fmt, row
):
    # U(n) is about n**2 / 3: its digits pass the limit a few rows in
    first = math.isqrt(3 * 10**DIGIT_LIMIT) - 3
    stop = first + 6
    if row is not None:  # U first passes the limit at this row of the window
        wide = next(n for n in range(first, stop + 1) if sums.u_fast(n) >= 10**DIGIT_LIMIT)
        first, stop = wide - row + 1, wide + 70  # cells render 64 at a time
    argv = ("v,U", str(first), str(stop), "--format", fmt)
    windowed, per_n, read = table_both_ways(capsys, monkeypatch, *argv)
    assert windowed == per_n and read
    code, out, err = windowed
    assert code == 3 and "the exact value has more than" in err
    if fmt == "json":  # the array's items so far, without its closing bracket
        printed = out.count('{"n": ')
        assert not printed or out.startswith("[") and not out.endswith("]\n")
    else:
        printed = len(out.splitlines()) - (fmt == "csv" and out != "")
    if row is None:
        assert 1 <= printed < 7
    else:  # one window, from the first row: every row before U's prints
        assert read[0] == (first, stop)
        assert printed == row - 1


@needs_digit_limit
@pytest.mark.parametrize("fmt", FORMATS)
def test_table_first_row_past_the_digit_limit_prints_nothing(capsys, fmt):
    # the csv header waits for the first row, as plain and json output do
    wide = str(math.isqrt(3 * 10**DIGIT_LIMIT) + 10)  # U(wide) > 10**DIGIT_LIMIT
    code, out, err = run(capsys, "table", "U", wide, wide, "--format", fmt)
    assert (code, out) == (3, "") and "the exact value has more than" in err
