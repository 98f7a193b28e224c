"""Fuzz the commands that print through cli._render, and scan: every input
ends in a documented exit code, with no traceback, within a fixed time budget.

Each argv runs through main() in this process under a SIGALRM budget.
stdout is a sink that fails with BrokenPipeError past _SINK_BYTES, as a
reader that stops early would (`oddsum table ... | head -c 65536`), so a
long table or scan is cut short with exit 141 and the budget bounds the
time spent per byte written, not the length of the output asked for.
"""

import contextlib
import io
import os
import signal
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddsum import sums
from oddsum.cli import DECIMAL_DIGITS_CAP, EVAL_FUNCTIONS, main
from oddsum.extremal import LAMBDA_M_CAP
from test_cli import spy_windows

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="the budget needs signal.alarm"
)

BUDGET_S = 5
_SINK_BYTES = 1 << 16
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


class Overrun(Exception):
    pass


class Sink(io.TextIOBase):
    """A stdout whose reader leaves after _SINK_BYTES characters."""

    def __init__(self, fd):
        self.written, self.fd = 0, fd

    def write(self, text):
        self.written += len(text)
        if self.written > _SINK_BYTES:
            raise BrokenPipeError
        return len(text)

    def fileno(self):  # main() points it at os.devnull on a broken pipe
        return self.fd


def numeral(n):
    """n in decimal, or 0b binary past the digit limit, where str() fails."""
    return str(n) if n.bit_length() < 3 * DIGIT_LIMIT else bin(n)


# around every cap on an argument, its width and the int/str digit limit;
# strategies hold indices, as hypothesis cannot repr an int past the limit
_EDGES = [
    LAMBDA_M_CAP, sums.CESARO_INV1PX_CAP, sums.DEFAULT_BRUTE_CAP,
    1 << sums.CESARO_X2_WIDTH_CAP, 1 << (10 * DIGIT_LIMIT // 3), 10**DIGIT_LIMIT,
    1 << 20000,
]  # fmt: skip
naturals = st.one_of(
    st.integers(0, 300),
    st.tuples(st.integers(0, len(_EDGES) - 1), st.integers(-2, 2)).map(
        lambda edge: _EDGES[edge[0]] + edge[1]
    ),
    st.integers(0, 20000).map(lambda bits: (1 << bits) - 1),
    st.binary(max_size=2500).map(lambda data: int.from_bytes(data, "big")),
)
# about one argument and one argv in four is malformed or out of range
malformed = st.sampled_from(
    ["", "-3", "abc", "0x10", "0b", "1.5", "9" * (DIGIT_LIMIT + 1)]
)
arguments = st.one_of(
    naturals.map(numeral), naturals.map(bin), naturals.map(numeral), malformed
)
decimals = st.one_of(
    st.integers(1, 40), st.sampled_from([5000, 10**5, DECIMAL_DIGITS_CAP])
).map(str)
valid_flags = st.lists(
    st.one_of(
        st.tuples(st.just("--format"), st.sampled_from(["plain", "json", "csv"])),
        st.tuples(st.just("--decimal"), decimals),
    ),
    max_size=3,
)
bad_flags = st.sampled_from([
    ("--format", "xml"), ("--decimal", "0"), ("--decimal", "-1"), ("--decimal", "x"),
    ("--decimal", ""), ("--decimal", str(DECIMAL_DIGITS_CAP + 1)),
    ("--decimal", str(10**12)), ("--decimal",), ("--format",), ("--decimal=3",),
    ("--bogus",),
])  # fmt: skip
flags = st.tuples(
    valid_flags, st.one_of(st.just(()), st.just(()), st.just(()), bad_flags)
).map(lambda f: [flag for group in f[0] for flag in group] + list(f[1]))

# scan thresholds p and p/q: zero and negative ones, digits past the limit,
# a zero denominator and malformed text
thresholds = st.one_of(
    st.integers(-3, 40).map(str),
    st.tuples(st.integers(-40, 40), st.integers(0, 12)).map("{0[0]}/{0[1]}".format),
    st.sampled_from([
        "9" * (DIGIT_LIMIT + 1), "1/" + "9" * (DIGIT_LIMIT + 1), "9" * DIGIT_LIMIT,
        "1/" + "9" * DIGIT_LIMIT, "1/0", "0/0", "", "abc", "1/", "/2", "1.5", "0b11",
    ]),
)  # fmt: skip
# a scan of g up to the cap takes about 2.6 s (2 cores, Python 3.11), so the
# bounds from 2**21 up to the cap come only from the cap's edge, drawn for
# about one scan in 40
scan_bounds = st.one_of(
    *[naturals.filter(lambda n: not 1 << 21 < n <= sums.DEFAULT_BRUTE_CAP)] * 39,
    st.integers(-2, 2).map(lambda offset: sums.DEFAULT_BRUTE_CAP + offset),
)

function_names = st.sampled_from([*EVAL_FUNCTIONS, "nope"])
commands = st.one_of(
    st.tuples(st.just("eval"), function_names, arguments),
    st.tuples(st.just("extremal"), arguments),
    st.tuples(
        st.just("cesaro"),
        st.sampled_from([*sums.CESARO_FUNCTIONS, "nope"]),
        arguments,
    ),
    # from any start, a few rows, or as many as the row cap allows and one more
    st.tuples(
        st.just("table"),
        st.lists(function_names, min_size=1, max_size=4).map(",".join),
        st.tuples(naturals, st.one_of(st.integers(-1, 40), st.sampled_from(
            [sums.DEFAULT_BRUTE_CAP, sums.DEFAULT_BRUTE_CAP + 1]
        ))).map(lambda r: (numeral(r[0]), numeral(r[0] + r[1]))),
    ).map(lambda t: (t[0], t[1], *t[2])),
    st.tuples(
        st.just("scan"),
        st.sampled_from(["g-below", "g-below", "g-above"]),
        thresholds,
        st.one_of(scan_bounds.map(numeral), scan_bounds.map(numeral), malformed),
    ),
)
argvs = st.tuples(commands, flags).map(lambda c: [*c[0], *c[1]])


def _overrun(signum, frame):
    raise Overrun


def run_in_budget(argv):
    """(exit code, stderr, characters written) of main(argv) into a Sink,
    failing past BUDGET_S."""
    err = io.StringIO()
    fd = os.open(os.devnull, os.O_WRONLY)
    sink = Sink(fd)
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(BUDGET_S)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = main(argv)
    except Overrun:
        pytest.fail(f"{argv!r} ran past {BUDGET_S} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(fd)
    return code, err.getvalue(), sink.written


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(argvs)
def test_render_commands_end_in_a_documented_exit(argv):
    code, err, written = run_in_budget(argv)
    assert code in (0, 1, 2, 3, 141), argv
    assert "Traceback" not in err, argv
    # a usage error stops a command before its first line; exit 3 may not, as a
    # table cell past the digit limit can end a table part-way through
    assert code != 2 or written == 0, argv


@pytest.mark.parametrize("fmt", ("plain", "json", "csv"))
def test_scan_streams_a_window_at_a_time_to_a_reader_that_leaves(monkeypatch, fmt):
    # g(n) < 100 for every n: 64 KB hold about 11,000 n, from the first
    # 14 of the 1,036 windows up to the cap
    built = spy_windows(monkeypatch)
    argv = ["scan", "g-below", "100", str(sums.DEFAULT_BRUTE_CAP), "--format", fmt]
    assert run_in_budget(argv)[:2] == (141, "")
    assert built[0] == (1, 1) and len(built) < 20
