"""Benchmark for the oddsum package.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports oddsum from src/ there
and exits 2 without a result when that package is missing.

--trace 0 times passes of the workload's CLI calls for --seconds
seconds and reports the end-to-end metrics.  --trace 1 runs the traced
profile of every workload once (layers.py) and reports the per-layer
metrics.  Either way the run prints its environment, one
`name = value unit` line per metric, and last one JSON line:

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

Results, and the spans of a traced run, are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def load_package() -> None:
    """Import oddsum from the checkout's src/, never from anywhere else."""
    package = SRC / "oddsum"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no oddsum package in {SRC}")
    sys.path.insert(0, str(SRC))
    import oddsum

    if Path(oddsum.__file__).resolve().parent != package:
        raise ImportError(f"oddsum was imported from {oddsum.__file__}, not {package}")


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    attempted: int
    failed: int
    notes: list[str]  # lines for the reader, printed before the metrics
    tracer: object = None  # spans.Tracer of a traced run

    def summary(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> Result:
    """One run; oddsum must already be importable (load_package)."""
    # imported here because they import oddsum; layers only when tracing,
    # so that its imports stay out of an untraced run's peak_rss_mb
    import workloads

    sizes = sizes or workloads.Sizes()
    tally = workloads.Tally()
    if trace:
        import layers

        metrics, notes, tracer = layers.traced_profile(sizes, seed, str(SRC), tally)
        return Result(metrics, tally.attempted, tally.failed, notes, tracer)

    setups = workloads.setup_times(str(SRC), sizes.setup_children)
    calls = workloads.calls_for(workload, sizes, seed)
    passes, measured = workloads.measure(calls, seconds, sizes.min_passes, tally)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = statistics.median(passes)
    metrics = {
        "pass_s": (pass_s, "s"),
        "setup_s": (statistics.median((i + p) * k for i, p, k in setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    q1, q2, q3 = statistics.quantiles(passes, n=4) if len(passes) > 1 else passes * 3
    notes = [
        f"passes: {len(passes)} of {len(calls)} calls; q1 {q1!r} median {q2!r} q3 {q3!r} s",
        # what the clock read, before scaling to the reference speed
        f"measured: pass_s {statistics.median(measured)!r} s,"
        f" setup_s {statistics.median(i + p for i, p, _ in setups)!r} s",
    ]
    # the same figures under the names the project's roadmap uses
    if workload == "verify-all":
        notes.append(f"verify_all_s = {pass_s!r} s")
    elif workload == "table-sweep":
        notes.append(f"table_rows_per_s = {sizes.table_rows / pass_s!r} rows/s")
    else:
        label = workload.removeprefix("eval-")
        notes.append(f"eval_{label}_calls_per_s = {len(calls) / pass_s!r} calls/s")
    return Result(metrics, tally.attempted, tally.failed, notes)


def environment(args, sizes, load: tuple[float, float, float]) -> dict:
    from workloads import verify_config

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "loadavg_at_start": load,
        "range_config": asdict(verify_config(sizes, args.seed)),
        "sizes": {k: v for k, v in asdict(sizes).items() if k != "verify"},
    }


def main(argv: list[str] | None = None) -> int:
    load = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.Sizes()
    if args.workload not in workloads.workload_names(sizes):
        parser.error(f"unknown workload {args.workload!r}")

    env = environment(args, sizes, load)
    print("env " + json.dumps(env))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"error_rate = {result.failed}/{result.attempted} failed/attempted")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"env": env, "notes": result.notes, "result": result.summary()}, indent=1) + "\n"
    )
    if result.tracer is not None:
        result.tracer.write(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
