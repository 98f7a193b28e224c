"""Fuzz every command: each input ends in a documented exit code, with no
traceback, within a fixed time budget, and each exit 3 is one line that
names its cap or the int/str digit limit.

Each argv runs through main() in this process under a SIGALRM budget.
stdout is a sink that fails with BrokenPipeError past _SINK_BYTES, as a
reader that stops early would (`oddsum table ... | head -c 65536`), so a
long table or scan is cut short with exit 141 and the budget bounds the
time spent per byte written, not the length of the output asked for.
"""

import contextlib
import io
import math
import os
import re
import signal
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddsum import cli, sums, verify
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

# verify's range flags: (flag, the largest value drawn for `all`, the largest
# for one checker, the first value past the cap).  Accepted values stay small,
# as one checker at a cap takes up to 4 s (P2C at MAX_N_CAP); values past it
# are refused at once.
_TRIALS_PAST = verify.TRIAL_WORK_CAP // verify._H_SPLIT_BITS**2 + 1
VERIFY_RANGES = [
    ("--max-n", 64, 4096, verify.MAX_N_CAP + 1),
    ("--max-m", 8, 12, verify.MAX_M_CAP + 1),
    ("--max-r", 6, 16, verify.MAX_R_CAP + 1),
    ("--max-p", 40, 256, verify.GRID_CELLS_CAP),  # past it at any --max-r
    ("--trials", 8, 64, _TRIALS_PAST),  # past it at any --bits but 0 trials
    ("--bits", 128, 512, math.isqrt(verify.TRIAL_WORK_CAP) + 1),
]
_FAR = [1 << 64, 1 << 20000, 10**DIGIT_LIMIT]
bad_verify_flags = st.sampled_from([
    ("--max-n", "abc"), ("--max-n",), ("--trials", "-1"), ("--bits", "0x10"),
    ("--seed", "x"), ("--seed", "1.5"), ("--seed", "9" * (DIGIT_LIMIT + 1)),
    ("--max-p", "9" * (DIGIT_LIMIT + 1)), ("--max-n=",), ("--max-q", "3"),
])  # fmt: skip


@st.composite
def verify_argvs(draw):
    """verify with every range flag, at most one past its cap, some repeated."""
    ids = ["all"] * 4 + [*verify.THEOREM_IDS, "nope", "ALL"]
    theorem = draw(st.sampled_from(ids))
    past = draw(st.sampled_from([None] * 3 + VERIFY_RANGES))
    repeats = draw(st.lists(st.sampled_from(VERIFY_RANGES), max_size=2))
    argv = ["verify", theorem]
    for spec in VERIFY_RANGES + repeats:  # a repeated flag's last value wins
        flag, small_all, small_one, first_past = spec
        if spec is past and len(argv) < 2 + 2 * len(VERIFY_RANGES):
            value = draw(st.sampled_from([first_past, first_past + 1, *_FAR]))
        else:
            value = draw(st.integers(0, small_all if theorem == "all" else small_one))
        argv += [flag, numeral(value)]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-(10**30), 10**30)))]
    argv += draw(valid_flags.map(lambda f: [flag for group in f for flag in group]))
    if draw(st.integers(0, 4)) == 3:  # about one argv in five is malformed
        argv += draw(st.one_of(bad_flags, bad_verify_flags))
    return argv


# the three shapes of every exit-3 message: a named cap, the int/str digit
# limit, and the table's cells, derived from the row cap
REFUSAL = re.compile(
    r"error: (.+ is past (\w+) = \d+ \(oddsum\.\w+\.\2\)"
    r"|.+ has more than \d+ decimal digits, the limit"
    r" sys\.get_int_max_str_digits\(\) sets on int/str conversion; .+"
    r"|\d+ rows of \d+ columns exceed \d+ cells"
    r" \(\d+ x \(oddsum\.sums\.DEFAULT_BRUTE_CAP \+ 1\)\))\n"
)


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
    assert code != 3 or REFUSAL.fullmatch(err), (argv, err)


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(verify_argvs())
def test_verify_ends_in_a_documented_exit(argv):
    code, err, written = run_in_budget(argv)
    assert code in (0, 1, 2, 3, 141), argv
    assert "Traceback" not in err, argv
    # every refusal, as every usage error, comes before the first report
    assert code not in (2, 3) or written == 0, argv
    assert code != 3 or REFUSAL.fullmatch(err), (argv, err)


@pytest.mark.parametrize("fmt", ("plain", "json", "csv"))
def test_scan_streams_a_window_at_a_time_to_a_reader_that_leaves(monkeypatch, fmt):
    # g(n) < 100 for every n: 64 KB hold about 11,000 n, from the first
    # 14 of the 1,036 windows up to the cap
    built = spy_windows(monkeypatch)
    argv = ["scan", "g-below", "100", str(sums.DEFAULT_BRUTE_CAP), "--format", fmt]
    assert run_in_budget(argv)[:2] == (141, "")
    assert built[0] == (1, 1) and len(built) < 20


def test_wide_json_items_go_out_a_few_at_a_time():
    # found by the fuzzer: `table v 0 4194304 --format json --decimal 1000000`
    # rendered 4096 cells of a million digits, about 9 GB, before its first
    # byte.  Pieces now stay near _PIECE_CHARS, and the bytes are unchanged.
    pulled, wide = [], "7" * 20000

    def items():
        for i in range(300):
            pulled.append(i)
            yield wide if i else "0"

    pieces = list(cli._pieces(items(), ", ".join, "[", ", ", "]"))
    assert "".join(pieces) == "[" + ", ".join(["0"] + [wide] * 299) + "]"
    assert max(map(len, pieces)) < 4 * len(wide)
    pulled.clear()
    next(cli._pieces(items(), ", ".join, "[", ", ", "]"))
    assert pulled == [0]


def test_pieces_write_the_items_pulled_before_an_error():
    # pieces of 1, 2 and 4 items: the third stops at its second item
    def items():
        yield from "abcde"
        raise ValueError("past the limit")

    written = []
    with pytest.raises(ValueError, match="past the limit"):
        written.extend(cli._pieces(items(), "".join, "<", "|", ">"))
    assert written == ["<a", "|bc", "|de"]
    assert list(cli._pieces("", "".join, "<", "|", ">")) == ["<>"]
