"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload, and the traced run, emits exactly the
metrics BENCHMARK.json names, with their units, and fails no operation
on the package as it is.  Then feeds each workload a deliberately
corrupted evaluator and checks that the error rate becomes nonzero.
Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from fractions import Fraction
from unittest import mock

import run


def main() -> int:
    run.load_package()
    import workloads
    from oddsum import cli, deviations, verify

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tiny = workloads.Sizes(
        verify=verify.RangeConfig(
            max_n=64, max_m=4, max_r=2, max_p=8, random_big_trials=3, random_bits=32
        ),
        widths=(("1k", 64), ("4k", 128), ("16k", 256)),
        exact_max_bits=128,
        table_rows=64,
        trace_repeats=(2, 1, 1),
        setup_children=1,
        min_passes=1,
    )
    names = workloads.workload_names(tiny)
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    def emitted(result: run.Result) -> dict[str, str]:
        summary = result.summary()
        expect(set(summary) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        return {name: metric["unit"] for name, metric in summary["metrics"].items()}

    def declared(kind: str) -> dict[str, str]:
        return {metric["name"]: metric["unit"] for metric in spec[kind]}

    expect([w["name"] for w in spec["workloads"]] == names, "workload names differ")
    for name in names:
        result = run.run_workload(name, 1, 0, False, tiny)
        expect(result.attempted > 0 and result.failed == 0, f"{name}: clean run failed")
        expect(emitted(result) == declared("end_to_end"), f"{name}: end-to-end metrics")
    result = run.run_workload(names[0], 1, 0, True, tiny)
    expect(result.attempted > 0 and result.failed == 0, "traced run failed")
    expect(emitted(result) == declared("per_layer"), "per-layer metrics")

    # the verify-all check itself rejects a failing checker line
    [call] = workloads.calls_for("verify-all", tiny, 1)
    _, out, _ = workloads.run_call(call.argv)
    expect(call.check(out), "verify-all output rejected")
    tampered = out.replace('"status": "pass"', '"status": "fail"', 1)
    expect(not call.check(tampered), "verify-all check accepts a failing line")

    # corrupted evaluators: through the Evaluators seam for verify, and
    # through cli.EVAL_FUNCTIONS for eval and table
    bad = dataclasses.replace(
        verify.Evaluators(), dev_v=lambda n: deviations.dev_v(n) + (n == 5)
    )
    with mock.patch.object(verify, "check", functools.partial(verify.check, evaluators=bad)):
        result = run.run_workload("verify-all", 1, 0, False, tiny)
    expect(result.failed > 0, "verify-all missed a corrupted dev_v")
    with mock.patch.dict(
        cli.EVAL_FUNCTIONS, {"v": lambda n: deviations.dev_v(n) + Fraction(1, 3)}
    ):
        for name in names[1:]:
            result = run.run_workload(name, 1, 0, False, tiny)
            expect(result.failed > 0, f"{name} missed a corrupted v")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
