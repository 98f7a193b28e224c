import dataclasses
import json
from fractions import Fraction

import pytest

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
