import dataclasses
import functools
import json
from fractions import Fraction

import pytest

from oddsum import deviations, extremal, sums, verify
from oddsum.bitcore import DomainError, reverse_digits
from oddsum.cli import main
from oddsum.deviations import dev_g, dev_u, dev_v
from oddsum.sums import u_fast, v_fast
from oddsum.verify import (
    CLAIMS,
    THEOREM_IDS,
    Evaluators,
    RangeConfig,
    check,
    run_all,
)

SMOKE = RangeConfig(
    max_n=64, max_m=5, max_r=3, max_p=16, random_big_trials=5, random_bits=64, seed=7
)


def test_registry_shape():
    assert len(THEOREM_IDS) == 22
    assert len(set(THEOREM_IDS)) == 22
    assert set(CLAIMS) == set(THEOREM_IDS)
    for claim in CLAIMS.values():
        assert claim and "\n" not in claim


def test_run_all_smoke_passes():
    reports = run_all(SMOKE)
    assert [r.theorem for r in reports] == list(THEOREM_IDS)
    assert all(r.status == "pass" for r in reports)
    assert all(r.counterexample is None for r in reports)
    by_id = {r.theorem: r.checked_count for r in reports}
    assert by_id["P1B"] == 64
    assert by_id["L2"] == (SMOKE.max_r + 1) * (SMOKE.max_p + 1)
    assert by_id["COR6"] == SMOKE.max_r * SMOKE.max_p
    assert by_id["P2D"] == SMOKE.max_n + SMOKE.random_big_trials


def test_reports_are_deterministic():
    first = run_all(SMOKE)
    second = run_all(SMOKE)
    assert [r.line() for r in first] == [r.line() for r in second]
    assert [json.dumps(r.record(), sort_keys=True) for r in first] == [
        json.dumps(r.record(), sort_keys=True) for r in second
    ]


def test_pass_line_format():
    report = check("P1B", SMOKE)
    assert report.line() == "P1B pass checked=64"


def test_record_shape():
    report = check("P1B", SMOKE)
    record = report.record()
    assert record["theorem"] == "P1B"
    assert record["status"] == "pass"
    assert record["checked"] == 64
    assert record["range"]["max_n"] == 64 and record["range"]["seed"] == 7
    assert record["counterexample"] is None
    assert "elapsed" not in record


def test_unknown_theorem_raises():
    with pytest.raises(ValueError):
        check("T9")


def test_default_config_is_the_documented_range():
    config = RangeConfig()
    assert (config.max_n, config.max_m, config.max_r, config.max_p) == (
        1 << 16,
        14,
        8,
        256,
    )
    assert (config.random_big_trials, config.random_bits, config.seed) == (1000, 256, 0)


@pytest.mark.parametrize("max_n", [0, -1])
def test_max_n_below_one_is_refused_when_the_range_is_built(max_n):
    with pytest.raises(DomainError, match="--max-n must be at least 1"):
        RangeConfig(max_n=max_n)


def test_pass_report_counts_the_full_range():
    config = RangeConfig(max_n=4096, random_big_trials=2, random_bits=64)
    report = check("ORACLE_UVG", config)
    assert report.status == "pass"
    assert report.checked_count == 4096


def test_corrupted_v_fails_at_smallest_corrupted_n():
    def bad_v(n):
        value = v_fast(n)
        return value + 1 if n in (37, 100) else value

    ev = dataclasses.replace(Evaluators(), sum_v=bad_v)
    report = check("T5", SMOKE, ev)
    assert report.status == "fail"
    assert report.checked_count == 37
    assert dict(report.counterexample.inputs)["n"] == "37"
    assert "fail" in report.line() and "n=37" in report.line()


def test_corrupted_u_fails_oracle_and_sharp_bounds():
    def bad_u(n):
        return u_fast(n) + (1 if n == 6 else 0)

    ev = dataclasses.replace(Evaluators(), sum_u=bad_u)
    for theorem in ("ORACLE_UVG", "T2"):
        report = check(theorem, SMOKE, ev)
        assert report.status == "fail"
        assert report.checked_count == 6
        assert dict(report.counterexample.inputs)["n"] == "6"


def test_corrupted_u_fail_record_round_trips_through_json():
    def bad_u(n):
        return u_fast(n) + (1 if n == 6 else 0)

    ev = dataclasses.replace(Evaluators(), sum_u=bad_u)
    record = check("ORACLE_UVG", SMOKE, ev).record()
    parsed = json.loads(json.dumps(record))
    assert parsed["status"] == "fail"
    assert parsed["counterexample"]["inputs"] == {"n": "6", "function": "U"}
    assert parsed["counterexample"]["expected"] == "14"
    assert parsed["counterexample"]["actual"] == "15"


def test_corrupted_h_is_noticed():
    ev = dataclasses.replace(Evaluators(), h=lambda n: 0)
    report = check("L1", SMOKE, ev)
    assert report.status == "fail"
    # h = 0 wrongly claims the all-ones signature at n = 2
    assert dict(report.counterexample.inputs)["n"] == "2"


def test_corrupted_dev_g_breaks_reflection():
    def bad_g(n):
        return dev_g(n) + (1 if n == 9 else 0)

    ev = dataclasses.replace(Evaluators(), dev_g=bad_g)
    report = check("P6B", SMOKE, ev)
    assert report.status == "fail"
    assert dict(report.counterexample.inputs)["n"] == "9"


def test_corrupted_dev_u_fails_eq4_at_smallest_corrupted_n():
    def bad_u(n):
        return dev_u(n) + (1 if n in (11, 40) else 0)

    ev = dataclasses.replace(Evaluators(), dev_u=bad_u)
    report = check("EQ4_IDENTITY", SMOKE, ev)
    assert report.status == "fail"
    assert report.checked_count == 11
    assert dict(report.counterexample.inputs) == {"n": "11", "function": "U"}
    assert report.counterexample.actual == str(u_fast(11))


def test_corrupted_dev_g_fails_eq4_at_smallest_corrupted_n():
    def bad_g(n):
        return dev_g(n) + (1 if n in (13, 50) else 0)

    ev = dataclasses.replace(Evaluators(), dev_g=bad_g)
    report = check("EQ4_IDENTITY", SMOKE, ev)
    assert report.status == "fail"
    assert report.checked_count == 13
    assert dict(report.counterexample.inputs) == {"n": "13", "function": "G"}


def test_corrupted_deviations_fail_eq4_in_the_random_trials():
    # past the scan range only the big-argument trials can notice
    beyond = SMOKE.max_n
    for field, fn in (("dev_u", dev_u), ("dev_g", dev_g)):
        bad = dataclasses.replace(
            Evaluators(), **{field: lambda n, fn=fn: fn(n) + (n > beyond)}
        )
        report = check("EQ4_IDENTITY", SMOKE, bad)
        assert report.status == "fail"
        assert report.checked_count == SMOKE.max_n + 1


def test_seed_changes_random_arguments_but_not_verdicts():
    for seed in (0, 1, 12345):
        config = dataclasses.replace(SMOKE, seed=seed)
        assert check("P2C", config).status == "pass"
        assert check("EQ4_IDENTITY", config).status == "pass"


# +1 keeps a deviation over its usual power-of-two-times-3 denominator,
# +1/7 takes it outside; the reports must not depend on which.
@pytest.mark.parametrize("delta, actual", [(1, "4"), (Fraction(1, 7), "16/7")])
def test_corrupted_dev_v_fails_p2c_at_smallest_corrupted_n(delta, actual):
    def bad_v(n):
        return dev_v(n) + (delta if n in (21, 50) else 0)

    ev = dataclasses.replace(Evaluators(), dev_v=bad_v)
    report = check("P2C", SMOKE, ev)
    assert report.status == "fail"
    assert report.checked_count == 21
    assert dict(report.counterexample.inputs) == {"n": "21"}
    # v(21) enters the telescoped sum twice
    assert report.counterexample.expected == "2"
    assert report.counterexample.actual == actual


@pytest.mark.parametrize("delta, actual", [(1, "23/16"), (Fraction(1, 7), "65/112")])
def test_corrupted_dev_g_fails_eql21_at_smallest_corrupted_n(delta, actual):
    def bad_g(n):
        return dev_g(n) + (delta if n in (45, 90) else 0)

    ev = dataclasses.replace(Evaluators(), dev_g=bad_g)
    report = check("EQL21", SMOKE, ev)
    assert report.status == "fail"
    # 45 = 4 * 11 + 1, and the scan starts at n = 0
    assert report.checked_count == 12
    assert dict(report.counterexample.inputs) == {"n": "11", "residue": "1"}
    assert (report.counterexample.expected, report.counterexample.actual) == (
        "7/16",
        actual,
    )


@pytest.mark.parametrize("delta", [1, Fraction(1, 7)])
def test_corrupted_deviations_fail_p2c_and_eql21_in_the_random_trials(delta):
    # every random argument has 64 bits: only the trials reach these values
    ev = dataclasses.replace(
        Evaluators(), dev_v=lambda n: dev_v(n) + (delta if n > SMOKE.max_n else 0)
    )
    assert check("P2C", SMOKE, ev).checked_count == SMOKE.max_n + 1
    ev = dataclasses.replace(
        Evaluators(), dev_g=lambda n: dev_g(n) + (delta if n >> 64 else 0)
    )
    report = check("EQL21", SMOKE, ev)
    assert report.status == "fail"
    assert report.checked_count == SMOKE.max_n + 2
    assert dict(report.counterexample.inputs)["residue"] == "0"


def test_values_just_off_the_common_denominator_are_not_rounded_onto_it():
    # v(21) = 7/16 = 21/48; 21/47 would round back onto 21/48, and a tiny
    # offset on g(15) = 0 would round back onto 0
    ev = dataclasses.replace(
        Evaluators(), dev_v=lambda n: Fraction(21, 47) if n == 21 else dev_v(n)
    )
    report = check("P2C", SMOKE, ev)
    assert report.line() == "P2C fail checked=21 n=21 expected=2 actual=759/376"
    tiny = Fraction(1, 1 << 40)
    ev = dataclasses.replace(
        Evaluators(), dev_g=lambda n: dev_g(n) + (tiny if n == 15 else 0)
    )
    report = check("EQL21", SMOKE, ev)
    assert report.line() == (
        "EQL21 fail checked=4 n=3 residue=3 expected=0 actual=1/1099511627776"
    )


# Fault injection for the checkers that decide on cross-multiplied integers.
# Each corruption hits one argument, or a smallest one and a later one, and
# the expected line is the report of the exact Fraction predicates these
# checkers used before: +1 keeps a value over its dyadic denominator, +1/7
# takes it off, other offsets land it on a bound, and float- and int-valued
# corruptions change its type.


def shifted(at, delta):
    return lambda fn: lambda n: fn(n) + delta if n in at else fn(n)


def as_float(fn):
    return lambda n: float(fn(n))


SEVENTH = Fraction(1, 7)
FAULTS = [
    ("P1B", "sum_v", shifted((5, 15), 1),
     "P1B fail checked=5 n=5 expected=strictly between 10/3 and 4 actual=19/4"),
    ("P1B", "sum_v", shifted((31, 93), SEVENTH),
     "P1B fail checked=31 n=31 expected=strictly between 62/3 and 64/3"
     " actual=2403/112"),
    # an int value reports as the exact ratio it was read as
    ("P1B", "sum_v", lambda fn: lambda n: int(fn(n)) if n in (5, 15) else fn(n),
     "P1B fail checked=5 n=5 expected=strictly between 10/3 and 4 actual=3"),
    # V(5) = 15/4 moved onto either bound
    ("P1B", "sum_v", shifted((5, 15), Fraction(1, 4)),
     "P1B fail checked=5 n=5 expected=strictly between 10/3 and 4 actual=4"),
    ("P1B", "sum_v", shifted((5, 15), -Fraction(5, 12)),
     "P1B fail checked=5 n=5 expected=strictly between 10/3 and 4 actual=10/3"),
    ("COR3", "dev_v", shifted((21, 63), 1),
     "COR3 fail checked=10 n=21 expected=in (1/3, 2/3) actual=23/16"),
    ("COR3", "dev_v", shifted((54, 70), SEVENTH),
     "COR3 fail checked=27 n=54 expected=in (0, 1/3) actual=95/224"),
    ("COR3", "dev_v", shifted((5, 15), -SEVENTH),
     "COR3 fail checked=2 n=5 expected=in (1/3, 2/3) actual=23/84"),
    # v(5) = 5/12 and v(10) = 5/24 moved onto the open ends
    ("COR3", "dev_v", shifted((5, 15), Fraction(1, 4)),
     "COR3 fail checked=2 n=5 expected=in (1/3, 2/3) actual=2/3"),
    ("COR3", "dev_v", shifted((10, 30), Fraction(1, 8)),
     "COR3 fail checked=5 n=10 expected=in (0, 1/3) actual=1/3"),
    ("COR4", "dev_v", shifted((21, 63), 1),
     "COR4 fail checked=21 n=21 expected=in [1/48, 641/1008] actual=23/16"),
    ("COR4", "dev_v", shifted((5, 15), SEVENTH),
     "COR4 fail checked=5 n=5 expected=in [1/12, 11/20] actual=47/84"),
    ("COR4", "dev_v", shifted((16, 48), SEVENTH),
     "COR4 fail checked=16 n=16 expected=1/48 exactly iff n = 2^m actual=55/336"),
    ("COR4", "dev_v", shifted((31, 93), -SEVENTH),
     "COR4 fail checked=31 n=31 expected=31/48 exactly iff n = 2^(m+1)-1"
     " actual=169/336"),
    # v(5) = 5/12 moved onto the lower bound, which only powers of two reach
    ("COR4", "dev_v", shifted((5, 15), -Fraction(1, 3)),
     "COR4 fail checked=5 n=5 expected=1/12 exactly iff n = 2^m actual=1/12"),
    # a float value reports as the exact binary fraction it holds
    ("COR4", "dev_v", as_float,
     "COR4 fail checked=1 n=1 expected=in [1/3, 1/3]"
     " actual=6004799503160661/18014398509481984"),
    ("P4B", "sum_g", shifted((5, 15), 1),
     "P4B fail checked=5 n=5 expected=<= 35/3 actual=25/2"),
    ("P4B", "sum_g", shifted((5, 15), -1),
     "P4B fail checked=5 n=5 expected=>= 45/4 actual=21/2"),
    ("P4B", "sum_g", shifted((31, 93), SEVENTH),
     "P4B fail checked=31 n=31 expected=<= 341 actual=2388/7"),
    ("P5C", "dev_g", shifted((5, 15), 1),
     "P5C fail checked=5 n=5 expected=in [0, 2/3] actual=7/6"),
    ("P5C", "dev_g", shifted((31, 93), -SEVENTH),
     "P5C fail checked=31 n=31 expected=in [0, 4/3] actual=-1/7"),
    ("COR5", "dev_g", shifted((31, 63), 1),
     "COR5 fail checked=31 n=31 expected=0 exactly iff n = 2^r - 1 actual=1"),
    ("COR5", "dev_g", shifted((31, 93), SEVENTH),
     "COR5 fail checked=31 n=31 expected=0 exactly iff n = 2^r - 1 actual=1/7"),
    ("COR5", "dev_g", lambda fn: lambda n: 0 if n in (6, 9) else fn(n),
     "COR5 fail checked=6 n=6 expected=0 exactly iff n = 2^r - 1 actual=0"),
    ("P2D", "dev_v", shifted((5, 15), 1),
     "P2D fail checked=5 n=5 expected=2/3 actual=5/3"),
    ("P2D", "dev_v", shifted((21, 63), SEVENTH),
     "P2D fail checked=21 n=21 expected=2/3 actual=17/21"),
    ("P2D", "dev_v", as_float,
     "P2D fail checked=1 n=1 expected=2/3 actual=6004799503160661/9007199254740992"),
    ("COR6", "dev_g", shifted((54,), 1),
     "COR6 fail checked=6 p=6 r=1 expected=g(54) < g(52) actual=49/32 vs 19/32"),
    ("COR6", "dev_g", shifted((54,), SEVENTH),
     "COR6 fail checked=6 p=6 r=1 expected=g(54) < g(52) actual=151/224 vs 19/32"),
    ("COR6", "dev_g", shifted((54,), Fraction(1, 16)),
     "COR6 fail checked=6 p=6 r=1 expected=g(54) < g(52) actual=19/32 vs 19/32"),
    ("L2", "dev_g", shifted((54,), 1),
     "L2 fail checked=14 p=13 r=0 identity=even-shift expected=-1/16 actual=15/16"),
    ("L2", "dev_g", shifted((54,), SEVENTH),
     "L2 fail checked=14 p=13 r=0 identity=even-shift expected=-1/16 actual=9/112"),
    # 76 = 8 * 9 + y_1 enters no earlier identity
    ("L2", "dev_g", shifted((76,), 1),
     "L2 fail checked=27 p=9 r=1 identity=odd-shift expected=1/96 actual=-95/96"),
    ("L2", "dev_v", shifted((5,), 1),
     "L2 fail checked=6 p=5 r=0 identity=even-shift expected=-13/24 actual=-1/24"),
    ("L2", "dev_v", shifted((5,), SEVENTH),
     "L2 fail checked=6 p=5 r=0 identity=even-shift expected=-19/168 actual=-1/24"),
    ("COR8", "dev_g", shifted((21, 63), 1),
     "COR8 fail checked=21 n=21 expected=0 <= g <= 23/48 <= 1/2 actual=11/8"),
    ("COR8", "dev_g", shifted((5, 15), SEVENTH),
     "COR8 fail checked=5 n=5 expected=0 <= g <= 1/4 <= 5/18 actual=13/42"),
    # 20 is in the equality set, 5 is not: g(5) + 1/12 = theta_5 = 1/4
    ("COR10", "dev_g", shifted((20, 60), 1),
     "COR10 fail checked=20 n=20 expected=g = theta_n exactly on the rounded"
     " families actual=71/48"),
    ("COR10", "dev_g", shifted((20, 60), SEVENTH),
     "COR10 fail checked=20 n=20 expected=g = theta_n exactly on the rounded"
     " families actual=209/336"),
    ("COR10", "dev_g", shifted((5, 15), Fraction(1, 12)),
     "COR10 fail checked=5 n=5 expected=g = theta_n exactly on the rounded"
     " families actual=1/4"),
    # 12..15 are g(4n + r) at n = 3, which starts the fourth EQL21 step
    ("EQL21", "dev_g", shifted((12,), 1),
     "EQL21 fail checked=4 n=3 residue=0 expected=3/8 actual=11/8"),
    ("EQL21", "dev_g", shifted((14,), 1),
     "EQL21 fail checked=4 n=3 residue=2 expected=7/24 actual=31/24"),
    ("EQL21", "dev_g", shifted((15,), 1),
     "EQL21 fail checked=4 n=3 residue=3 expected=0 actual=1"),
    ("EQL21", "dev_v", shifted((3,), 1),
     "EQL21 fail checked=4 n=3 residue=0 expected=9/8 actual=3/8"),
    ("EQL21", "dev_v", shifted((3,), SEVENTH),
     "EQL21 fail checked=4 n=3 residue=0 expected=27/56 actual=3/8"),
    # one row per EQ4_IDENTITY equality: G = (n+1)V - U, then G and U
    # against their envelopes minus the deviations
    ("EQ4_IDENTITY", "sum_g", shifted((5, 15), 1),
     "EQ4_IDENTITY fail checked=5 n=5 expected=23/2 actual=25/2"),
    ("EQ4_IDENTITY", "sum_g", shifted((5, 15), SEVENTH),
     "EQ4_IDENTITY fail checked=5 n=5 expected=23/2 actual=163/14"),
    ("EQ4_IDENTITY", "dev_g", shifted((5, 15), 1),
     "EQ4_IDENTITY fail checked=5 n=5 function=G expected=21/2 actual=23/2"),
    ("EQ4_IDENTITY", "dev_g", shifted((5, 15), SEVENTH),
     "EQ4_IDENTITY fail checked=5 n=5 function=G expected=159/14 actual=23/2"),
    ("EQ4_IDENTITY", "dev_u", shifted((5, 15), 1),
     "EQ4_IDENTITY fail checked=5 n=5 function=U expected=10 actual=11"),
    ("EQ4_IDENTITY", "dev_u", shifted((5, 15), SEVENTH),
     "EQ4_IDENTITY fail checked=5 n=5 function=U expected=76/7 actual=11"),
    # past max_n = 64 only the 64-bit random trials reach the corruption
    ("P2C", "dev_v", lambda fn: lambda n: fn(n) + (1 if n > 64 else 0),
     "P2C fail checked=65 n=11539916604017964272 expected=46/3 actual=223/3"),
    ("P2C", "dev_v", lambda fn: lambda n: fn(n) + (SEVENTH if n > 64 else 0),
     "P2C fail checked=65 n=11539916604017964272 expected=46/3 actual=499/21"),
    ("T5", "sum_v", shifted((5, 15), 1),
     "T5 fail checked=5 n=5 expected=<= 35/9 actual=19/4"),
    ("T5", "sum_v", shifted((5, 15), -1),
     "T5 fail checked=5 n=5 expected=>= 17/5 actual=11/4"),
    # V(8) is the lower bound, V(7) the upper one: both moved off
    ("T5", "sum_v", shifted((8, 24), SEVENTH),
     "T5 fail checked=8 n=8 expected=lower equality iff n = 2^m actual=309/56"),
    ("T5", "sum_v", shifted((7,), -Fraction(1, 8)),
     "T5 fail checked=7 n=7 expected=upper equality iff n = 2^m - 1 actual=41/8"),
    # one row per T2 branch but the even range, which U(6) + 1 reaches in
    # test_corrupted_u_fails_oracle_and_sharp_bounds; each offset moves 3U(n)
    # by whole steps from 3U(1) = 3, 3U(3) = 15, 3U(4) = 18, 3U(6) = 42 and
    # 3U(7) = 63
    ("T2", "sum_u", shifted((4,), Fraction(1, 3)),
     "T2 fail checked=4 n=4 expected=3*U(n) = 18 iff n = 2^m actual=19"),
    ("T2", "sum_u", shifted((6,), -Fraction(1, 3)),
     "T2 fail checked=6 n=6 expected=3*U(n) = 42 iff n = 2^m - 2 actual=41"),
    ("T2", "sum_u", shifted((1,), -Fraction(1, 3)),
     "T2 fail checked=1 n=1 expected=3*U(n) >= 3 actual=2"),
    ("T2", "sum_u", shifted((3,), -Fraction(1, 3)),
     "T2 fail checked=3 n=3 expected=3*U(n) >= 15 actual=14"),
    ("T2", "sum_u", shifted((7,), -Fraction(4, 3)),
     "T2 fail checked=7 n=7 expected=3*U(n) = 59 iff n = 2^m + 1 actual=59"),
    ("T2", "sum_u", shifted((1,), Fraction(1, 3)),
     "T2 fail checked=1 n=1 expected=3*U(n) <= 3 actual=4"),
    ("T2", "sum_u", shifted((7,), -Fraction(2, 3)),
     "T2 fail checked=7 n=7 expected=3*U(n) = 63 iff n = 2^m - 1 actual=61"),
    ("L1", "h", shifted((6, 12), 3),
     "L1 fail checked=6 n=6 expected=in [0, 5] actual=6"),
    ("L1", "h", shifted((7,), 1),
     "L1 fail checked=7 n=7 expected=0 exactly iff n = 2^(m+1)-1 actual=1"),
    ("L1", "h", shifted((8,), -1),
     "L1 fail checked=8 n=8 expected=7 exactly iff n = 2^m actual=6"),
    ("P6B", "dev_g", shifted((9,), 1),
     "P6B fail checked=9 n=9 expected=1/4 actual=5/4"),
    # 12 = tilde(10): the scan meets the pair at n = 10
    ("P6B", "dev_g", shifted((12,), SEVENTH),
     "P6B fail checked=10 n=10 expected=29/56 actual=3/8"),
    ("ORACLE_UVG", "sum_v", shifted((5,), 1),
     "ORACLE_UVG fail checked=5 n=5 function=V expected=15/4 actual=19/4"),
    ("ORACLE_UVG", "sum_u", shifted((6,), 1),
     "ORACLE_UVG fail checked=6 n=6 function=U expected=14 actual=15"),
    ("ORACLE_UVG", "sum_g", shifted((9,), SEVENTH),
     "ORACLE_UVG fail checked=9 n=9 function=G expected=131/4 actual=921/28"),
]  # fmt: skip


@pytest.mark.parametrize("theorem, field, corrupt, line", FAULTS)
def test_corrupted_evaluator_fails_at_smallest_corrupted_argument(
    theorem, field, corrupt, line
):
    default = Evaluators()
    ev = dataclasses.replace(default, **{field: corrupt(getattr(default, field))})
    assert check(theorem, SMOKE, ev).line() == line


# A float value is read exactly, by its as_integer_ratio, so a float-valued
# dev_g fails at the first g(n) a float cannot hold: g(2) = 1/6, which EQL21
# reads at n = 0 as g(4n + 2).
@pytest.mark.parametrize(
    "theorem, n, checked", [("EQ4_IDENTITY", 2, 2), ("EQL21", 0, 1)]
)
def test_float_valued_dev_g_fails_at_its_first_inexact_value(theorem, n, checked):
    ev = dataclasses.replace(Evaluators(), dev_g=as_float(dev_g))
    report = check(theorem, SMOKE, ev)
    assert report.status == "fail"
    assert dict(report.counterexample.inputs)["n"] == str(n)
    assert report.checked_count == checked


# The extremal functions that T3, COR7 and P10 hold against an oracle,
# corrupted where the checker calls them: T3 in its block scan and in its
# closed-form phase, COR7 and P10 in their m range.
def misplaced_maximum(fn):
    """argmax_g with the maximum of I_2, at 4 and 6, reported at 5."""
    return lambda m: dataclasses.replace(fn(m), max_points=(5,)) if m == 2 else fn(m)


EXTREMAL_FAULTS = [
    ("T3", "lambda_block",
     lambda fn: lambda n, m: fn(n, m) + ((n, m) == (1, 3)),
     "T3 fail checked=3 n=1 m=3 expected=3/8 actual=11/8"),
    # SMOKE's max_m of 5 keeps m = 7 out of the block scan: 64 * 5 + 7
    ("T3", "lambda_block",
     lambda fn: lambda n, m: fn(n, m) + ((n, m) == (1, 7)),
     "T3 fail checked=327 m=7 expected=313/384 actual=697/384"),
    # g(5) as the seed of every block grown from n = 5: one more g(5) is
    # one more g over each such block, so T3 stops at its first level
    ("T3", "_dev_g_core",
     lambda fn: lambda n: (lambda p, q: (p + q * (n == 5), q))(*fn(n)),
     "T3 fail checked=21 n=5 m=1 expected=11/8 actual=3/8"),
    ("COR7", "lambda_m",
     lambda fn: lambda m: fn(m) + (SEVENTH if m == 3 else 0),
     "COR7 fail checked=4 m=3 expected=29/56 actual=3/8"),
    ("P10", "argmax_g", misplaced_maximum,
     "P10 fail checked=3 m=2 expected=max 1/4 at 5, min 0 at 7"
     " actual=max 1/4 at 4,6, min 0 at 7"),
]  # fmt: skip


@pytest.mark.parametrize("theorem, name, corrupt, line", EXTREMAL_FAULTS)
def test_corrupted_extremal_function_fails_at_its_argument(
    monkeypatch, theorem, name, corrupt, line
):
    monkeypatch.setattr(extremal, name, corrupt(getattr(extremal, name)))
    assert check(theorem, SMOKE).line() == line


@pytest.mark.parametrize(
    "at, delta, line",
    [
        # v(5) is a prefix of 10, 11, 20, ...: the scan must still stop at 5
        (5, 1, "P2C fail checked=5 n=5 expected=4/3 actual=10/3"),
        (10, SEVENTH, "P2C fail checked=10 n=10 expected=4/3 actual=34/21"),
    ],
)
def test_corrupted_dev_v_fails_p2c_at_its_argument(at, delta, line):
    ev = dataclasses.replace(Evaluators(), dev_v=shifted((at,), delta)(dev_v))
    assert check("P2C", SMOKE, ev).line() == line


def test_p2c_on_grid_and_widened_reads_agree():
    # a plain wrapper reads reduced Fractions, so each step takes the lcm
    wrapped = dataclasses.replace(Evaluators(), dev_v=lambda n: dev_v(n))
    wide = dataclasses.replace(SMOKE, random_big_trials=1, random_bits=2048)
    for config in (SMOKE, wide):
        on_grid, widened = check("P2C", config), check("P2C", config, wrapped)
        checked = config.max_n + config.random_big_trials
        assert on_grid.line() == widened.line() == f"P2C pass checked={checked}"
        assert on_grid.checked_count == widened.checked_count == checked


def test_p2c_scan_evaluates_v_once_per_n():
    calls = []

    def counted(n):
        calls.append(n)
        return dev_v(n)

    report = check("P2C", SMOKE, dataclasses.replace(Evaluators(), dev_v=counted))
    assert report.status == "pass"
    assert calls[: SMOKE.max_n] == list(range(1, SMOKE.max_n + 1))
    # a trial starts from its 6-bit prefix, which the scan of n <= 64 holds,
    # and reads v of each longer prefix once, shortest first, n itself last
    trials, widths = verify._random_args(SMOKE, "P2C"), range(7, SMOKE.random_bits + 1)
    bits = SMOKE.random_bits
    assert calls[SMOKE.max_n :] == [n >> (bits - w) for n in trials for w in widths]


def test_eq4_trials_reach_the_product_branch_of_h(monkeypatch):
    # u(n) reads h(n), which takes its product branch only past
    # _H_BASE_BITS digits: at --bits 64 only the _H_SPLIT_BITS-bit trials reach
    # it, and a mutant that drops the carry of the low half into the top must
    # fail there
    widths = []

    def without_carry(n):
        widths.append(n.bit_length())
        # P >> m in place of (P - T) >> m
        total = n * reverse_digits(n) >> (n.bit_length() - 1)
        return n - ((n.bit_count() + total) >> 1)

    monkeypatch.setattr(deviations, "_h_product", without_carry)
    assert SMOKE.random_bits == 64
    report = check("EQ4_IDENTITY", SMOKE)
    assert report.status == "fail"
    assert report.checked_count > SMOKE.max_n
    assert min(widths) == verify._H_SPLIT_BITS == deviations._H_BASE_BITS + 2


# One entry of each 8-digit table, off by one where the smoke range reads
# it: the chunk 10 is all of g(10) and u(10), and h(13), which U(13) reads
# through 3u(13) = 2h(13) - 13, is the one whole byte 13.
TABLE_FAULTS = [
    ("_G_STEP", 10, 1, "EQL21",
     "EQL21 fail checked=3 n=2 residue=2 expected=3/8 actual=289/768"),
    ("_G_STEP", 10, 1, "P6B", "P6B fail checked=10 n=10 expected=3/8 actual=289/768"),
    ("_U_STEP", 10, 1, "EQ4_IDENTITY",
     "EQ4_IDENTITY fail checked=10 n=10 function=U expected=107/3 actual=36"),
    ("_H_STEP", 13, 1, "ORACLE_UVG",
     "ORACLE_UVG fail checked=13 n=13 function=U expected=63 actual=62"),
]  # fmt: skip


@pytest.mark.parametrize("table, chunk, field, theorem, line", TABLE_FAULTS)
def test_corrupted_digit_table_fails_verify(
    monkeypatch, table, chunk, field, theorem, line
):
    entries = list(getattr(deviations, table))
    entry = list(entries[chunk])
    entry[field] += 1
    entries[chunk] = tuple(entry)
    monkeypatch.setattr(deviations, table, entries)
    assert check(theorem, SMOKE).line() == line


@pytest.mark.parametrize("table, chunk, field, theorem, line", TABLE_FAULTS)
def test_window_columns_follow_a_corrupted_table_entry_for_entry(
    monkeypatch, table, chunk, field, theorem, line
):
    # each window value is its scalar core's own arithmetic, so a corrupted
    # entry reaches both alike; h is the walk up to _H_BASE_BITS digits
    entries = list(getattr(deviations, table))
    entries[chunk] = tuple(v + (i == field) for i, v in enumerate(entries[chunk]))
    monkeypatch.setattr(deviations, table, entries)
    wide = (1 << 80) + 1000
    for lo, hi in [*deviations._windows(1, 9000), (wide, wide + 600)]:
        w = deviations._Window(lo, hi)
        ns = w.ns
        assert w.reverse == [reverse_digits(n) for n in ns]
        assert w.h == list(map(deviations.h_eval, ns))
        assert w.triple_u == list(map(deviations._triple_u, ns))  # from h
        triples = [deviations._dev_u_core(n)[0] for n in ns]
        assert w.dev_u == triples
        assert w.dev_g == list(map(deviations._dev_g_core, ns))


def test_eval_g_runs_the_kernel_that_verify_reads_through_g(monkeypatch, capsys):
    # g's closed-form core, off by 1/12 at n = 5 where sums.g_fast looks it up:
    # ORACLE_UVG reads it through G, and `oddsum eval g` prints it
    core = deviations._dev_g_closed_core

    def corrupted(n):
        num, den = core(n)
        return num + (n == 5), den

    monkeypatch.setattr(deviations, "_dev_g_closed_core", corrupted)
    assert check("ORACLE_UVG", SMOKE).line() == (
        "ORACLE_UVG fail checked=5 n=5 function=G expected=23/2 actual=137/12"
    )
    assert main(["eval", "g", "5"]) == 0
    assert capsys.readouterr().out == "1/4\n"


# The checkers read a shipped kernel through its integer core and any other
# field as it returns.  A pass-through wrapper around every field forces the
# second path; both must give every report byte for byte.
def pass_through(ev):
    fields = {f.name: getattr(ev, f.name) for f in dataclasses.fields(ev)}
    wrapped = {name: lambda n, f=f: f(n) for name, f in fields.items()}
    return dataclasses.replace(ev, **wrapped)


WIDE = dataclasses.replace(SMOKE, random_big_trials=4, random_bits=260)
# max_n splits blocks into several windows, and the partner reads (hat, tilde)
# and EQL21's 4n + r cross their edges
SPLIT = dataclasses.replace(SMOKE, max_n=9000, random_big_trials=4)


@pytest.mark.parametrize("config", [SMOKE, WIDE, SPLIT])
def test_cores_and_fallback_give_the_same_reports(config):
    default = Evaluators()
    wrapped = pass_through(default)
    for theorem in THEOREM_IDS:
        fast, slow = check(theorem, config, default), check(theorem, config, wrapped)
        assert (fast.line(), fast.record()) == (slow.line(), slow.record())


@pytest.mark.parametrize("table, chunk, field, theorem, line", TABLE_FAULTS)
def test_cores_and_fallback_agree_on_corrupted_tables(
    monkeypatch, table, chunk, field, theorem, line
):
    # a corrupted table reaches the cores and the Fraction kernels alike; a
    # dev_g core then keeps its numerator off the 3 * 2**m grid
    entries = list(getattr(deviations, table))
    entries[chunk] = tuple(v + (i == field) for i, v in enumerate(entries[chunk]))
    monkeypatch.setattr(deviations, table, entries)

    def outcome(name, ev):
        try:
            report = check(name, SMOKE, ev)
        except RuntimeError as exc:  # COR10's equality set validates itself
            return repr(exc)
        return report.line(), report.record()

    default = Evaluators()
    wrapped = pass_through(default)
    outcomes = {name: outcome(name, default) for name in THEOREM_IDS}
    assert outcomes[theorem][0] == line
    for name in THEOREM_IDS:
        assert outcomes[name] == outcome(name, wrapped), name


def test_a_wrapper_dressed_as_the_kernel_is_called_as_given():
    # functools.wraps copies the kernel's attributes, not its identity
    calls = []

    @functools.wraps(dev_g)
    def corrupted(n):
        calls.append(n)
        return dev_g(n) + (n == 5)

    ev = dataclasses.replace(Evaluators(), dev_g=corrupted)
    assert check("P5C", SMOKE, ev).line() == (
        "P5C fail checked=5 n=5 expected=in [0, 2/3] actual=7/6"
    )
    assert calls == [1, 2, 3, 4, 5]  # once per n, lazily, up to the failure
    assert verify._reader(corrupted)(5) == (7, 6)
    # a plain function carrying a record's core and column, as wraps leaves
    # them when it copies an instance __dict__, is still read per n
    record = Evaluators().dev_g
    corrupted.core, corrupted.column = record.core, record.column
    calls.clear()
    ev = dataclasses.replace(Evaluators(), dev_g=corrupted)
    assert check("P5C", SMOKE, ev).line() == (
        "P5C fail checked=5 n=5 expected=in [0, 2/3] actual=7/6"
    )
    assert calls == [1, 2, 3, 4, 5]
    # the shipped kernels are read through their integer cores, whose pairs
    # are unreduced, and a wrapper by the ratio of what it returns
    default = Evaluators()
    for name in ("sum_v", "sum_u", "sum_g", "dev_v", "dev_u", "dev_g", "h"):
        assert isinstance(getattr(default, name), sums.Kernel)
    assert dev_v(6) == Fraction(1, 4)
    assert verify._reader(default.dev_v)(6) == (3, 12)
    assert verify._reader(lambda n: dev_v(n))(6) == (1, 4)
