"""The traced run: one pass of every workload, with spans around the calls
into each oddsum module, reduced to the per-layer metrics.

Wrappers are installed with unittest.mock.patch for the length of one
part of the run and removed afterwards:

  * verify.check, with every Evaluators field wrapped through
    dataclasses.replace, the fault-injection seam of the verify module;
  * the extremal functions and sums.scan_sums, where verify calls them;
  * the kernels in cli.EVAL_FUNCTIONS, cli.parse_nat and
    cli.format_rational, where eval and table call them.

The same `verify all` call also runs untraced before and after; the
difference is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import statistics
from contextlib import ExitStack, contextmanager
from unittest import mock

from oddsum import cli, extremal, sums, verify
from spans import Span, Tracer
from workloads import (
    FUNCTIONS,
    Sizes,
    Tally,
    eval_calls,
    run_call,
    setup_times,
    table_calls,
    verify_calls,
)

Metrics = dict[str, tuple[float, str]]

# The kernel behind each CLI function name, as the per-layer metrics name
# it.  Fixed, so the metric names stay the same whatever function
# cli.EVAL_FUNCTIONS maps the name to.
KERNELS = {
    "V": "sums.v_fast",
    "U": "sums.u_fast",
    "G": "sums.g_fast",
    "v": "deviations.dev_v",
    "u": "deviations.dev_u",
    "g": "deviations.dev_g",
    "h": "deviations.h_eval",
}
EXTREMAL = ("skeleton", "lambda_block", "block_g_values", "theta", "equality_set", "argmax_g")
# No checker reads Evaluators.dev_u yet, so its figures would read 0 on
# every run; its call count is printed as a note, not as a metric.
NOTED_EVALUATORS = ("dev_u",)


def traced_profile(
    sizes: Sizes, seed: int, src: str, tally: Tally
) -> tuple[Metrics, list[str], Tracer]:
    """(per-layer metrics, note lines, spans) of one traced run."""
    tracer = Tracer()
    notes: list[str] = []
    setups = setup_times(src, sizes.setup_children)
    metrics: Metrics = {
        "setup.import_s": (statistics.median(i * k for i, _, k in setups), "s"),
        "setup.parser_s": (statistics.median(p * k for _, p, k in setups), "s"),
    }
    metrics |= profile_verify(tracer, sizes, seed, tally, notes)
    metrics |= profile_eval(tracer, sizes, seed, tally)
    metrics |= profile_table(tracer, sizes, seed, tally)
    return metrics, notes, tracer


def _total(spans: list[Span]) -> tuple[int, int]:
    """(calls, busy ns) over spans."""
    return sum(s.calls for s in spans), sum(s.busy_ns for s in spans)


def _ms_per_call(spans: list[Span]) -> float:
    calls, busy = _total(spans)
    return busy / calls / 1e6


# ---------------------------------------------------------------- verify


@contextmanager
def traced_verify(tracer: Tracer, seen: dict[str, set]):
    base = verify.Evaluators()
    counted = {}
    for field in dataclasses.fields(base):
        traced = tracer.wrap(f"verify.ev.{field.name}", getattr(base, field.name))
        counted[field.name] = _counting(traced, seen.setdefault(field.name, set()))
    evaluators = dataclasses.replace(base, **counted)
    check = verify.check

    def traced_check(theorem, config=None, _evaluators=None):
        with tracer.span(f"verify.{theorem}"):
            return check(theorem, config, evaluators)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(verify, "check", traced_check))
        scan = tracer.wrap_iter("sums.scan_sums", sums.scan_sums)
        stack.enter_context(mock.patch.object(sums, "scan_sums", scan))
        for name in EXTREMAL:
            items = (lambda args, values: len(values)) if name == "block_g_values" else None
            traced = tracer.wrap(f"extremal.{name}", getattr(extremal, name), items)
            stack.enter_context(mock.patch.object(extremal, name, traced))
        yield


def _counting(fn, seen: set):
    def call(n):
        seen.add(n)
        return fn(n)

    return call


def profile_verify(
    tracer: Tracer, sizes: Sizes, seed: int, tally: Tally, notes: list[str]
) -> Metrics:
    [call] = verify_calls(sizes, seed)
    code, out, before_s = run_call(call.argv)
    tally.judge(call, code, out)
    seen: dict[str, set] = {}
    with traced_verify(tracer, seen), tracer.span("cli.verify"):
        code, out, traced_s = run_call(call.argv)
    # the traced output must match the untraced one byte for byte
    tally.judge(call, code, out)
    code, out, after_s = run_call(call.argv)
    tally.judge(call, code, out)

    # untraced passes on both sides, so that a drift in machine speed
    # during the run does not land in the overhead
    overhead = traced_s - (before_s + after_s) / 2
    metrics: Metrics = {"trace.overhead_s": (overhead, "s")}
    for theorem in verify.THEOREM_IDS:
        metrics[f"verify.{theorem}.s"] = (_total(tracer.named(f"verify.{theorem}"))[1] / 1e9, "s")
    for name, args in seen.items():
        calls, busy = _total(tracer.named(f"verify.ev.{name}"))
        if name in NOTED_EVALUATORS:
            notes.append(f"verify.ev.{name}.calls = {calls} count")
            continue
        metrics[f"verify.ev.{name}.calls"] = (calls, "count")
        metrics[f"verify.ev.{name}.s"] = (busy / 1e9, "s")
        metrics[f"verify.ev.{name}.distinct_ratio"] = (len(args) / calls, "ratio")
    for name in EXTREMAL:
        calls, busy = _total(tracer.named(f"extremal.{name}"))
        metrics[f"extremal.{name}.calls"] = (calls, "count")
        metrics[f"extremal.{name}.s"] = (busy / 1e9, "s")
    for name, unit_name in (("extremal.block_g_values", "us_per_elem"), ("sums.scan_sums", "us_per_n")):
        spans = tracer.named(name)
        metrics[f"{name}.{unit_name}"] = (_total(spans)[1] / sum(s.items for s in spans) / 1e3, "us")
    return metrics


# ------------------------------------------------------------ eval, table


@contextmanager
def traced_cli(tracer: Tracer):
    kernels = {name: tracer.wrap(KERNELS[name], cli.EVAL_FUNCTIONS[name]) for name in FUNCTIONS}
    parse = tracer.wrap("cli.parse_nat", cli.parse_nat)
    render = tracer.wrap("bitcore.format_rational", cli.format_rational)
    with (
        mock.patch.dict(cli.EVAL_FUNCTIONS, kernels),
        mock.patch.object(cli, "parse_nat", parse),
        mock.patch.object(cli, "format_rational", render),
    ):
        yield


def profile_eval(tracer: Tracer, sizes: Sizes, seed: int, tally: Tally) -> Metrics:
    metrics: Metrics = {}
    with traced_cli(tracer):
        for (label, bits), repeats in zip(sizes.widths, sizes.trace_repeats):
            outer: list[tuple[Span, Span]] = []
            for function, call in zip(FUNCTIONS, eval_calls(sizes, label, seed)):
                for _ in range(repeats):
                    with tracer.span(f"cli.eval.{label}.{function}") as span:
                        code, out, _ = run_call(call.argv)
                    tally.judge(call, code, out)
                kernel = tracer.child(span, KERNELS[function])
                metrics[f"{KERNELS[function]}.{label}.ms"] = (_ms_per_call([kernel]), "ms")
                outer.append((span, kernel))
            spans = [span for span, _ in outer]
            parse = [tracer.child(span, "cli.parse_nat") for span in spans]
            metrics[f"cli.parse_nat.{label}.ms"] = (_ms_per_call(parse), "ms")
            if bits <= sizes.exact_max_bits:
                render = [tracer.child(span, "bitcore.format_rational") for span in spans]
                metrics[f"bitcore.format_rational.{label}.ms"] = (_ms_per_call(render), "ms")
            else:
                # everything in the CLI call but the kernel: parsing, decimal
                # rendering, printing
                calls, busy = _total(spans)
                kernel_busy = sum(kernel.busy_ns for _, kernel in outer)
                metrics[f"cli.render.{label}.ms"] = ((busy - kernel_busy) / calls / 1e6, "ms")
    return metrics


def profile_table(tracer: Tracer, sizes: Sizes, seed: int, tally: Tally) -> Metrics:
    [call] = table_calls(sizes, seed)
    with traced_cli(tracer), tracer.span("cli.table") as table:
        code, out, _ = run_call(call.argv)
    tally.judge(call, code, out)
    metrics: Metrics = {}
    for function in FUNCTIONS:
        kernel = tracer.child(table, KERNELS[function])
        metrics[f"table.{KERNELS[function].split('.')[1]}.us"] = (_ms_per_call([kernel]) * 1e3, "us")
    render = tracer.child(table, "bitcore.format_rational")
    metrics["bitcore.format_rational.us"] = (_ms_per_call([render]) * 1e3, "us")
    # self time: the table call less its kernels, format_rational and parse_nat
    overhead = tracer.self_ns()[table.id] / sizes.table_rows / 1e3
    metrics["cli.table.overhead_us_per_row"] = (overhead, "us")
    return metrics
