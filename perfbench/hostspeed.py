"""How fast the host is running this process at the moment.

On a shared host the speed of a core drifts with the load its neighbours
put on it.  Where this benchmark was defined (2 vCPUs, Python 3.11.7),
the calibration unit below took 45 us in quiet moments and a mean of 68
to 78 us over two-second windows, and a 20 s run's median pass of a
workload moved by 10 to 40 % over a few minutes.  That drift swamps the
differences the benchmark exists to show.

So calibration units run while a workload is timed, and each timing is
scaled by REFERENCE_UNIT_S over the median unit time around it: the
seconds it would have taken at the reference speed.  The unscaled
seconds are reported alongside.  The unit imports nothing, so that it
can run inside a fresh interpreter before the imports that interpreter
times, and allocates no container, so that it never sets off the
cyclic garbage collector.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds per calibration unit on an uncontended core of the host the
# benchmark was defined on: the first percentile of many units.
REFERENCE_UNIT_S = 45e-6
# How often Sampler calibrates: two units every 20 ms cost under 1 %.
SAMPLE_PERIOD_S = 0.02

_BIG = (1 << 4095) | 12345


def _unit() -> int:
    """A fixed mix of interpreter loop and bigint work."""
    total = 0
    for i in range(600):
        total += i * i
    return total + (_BIG * _BIG >> 8000)


def unit_seconds(seconds: float) -> float:
    """Mean seconds per calibration unit, over units run for `seconds`."""
    units = 0
    start = time.perf_counter()
    while True:
        _unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / units


def factor(unit_times: list[float]) -> float:
    """Multiplier to reference-speed seconds for an interval with these
    seconds per unit measured around it."""
    return REFERENCE_UNIT_S / statistics.median(unit_times)


class Sampler:
    """Calibration units run from an interval timer while passes run.

    Every SAMPLE_PERIOD_S a SIGALRM handler runs two units between two
    bytecodes of whatever is running, so the samples spread over the
    timed calls themselves.  Only the second unit is timed: the first
    brings the unit's code back into the caches the workload used.
    `spent` is the handler's total time, for the caller to take out of
    its timings.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.units: list[float] = []  # seconds per unit, one entry per sample

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _unit()
        warm = time.perf_counter()
        _unit()
        end = time.perf_counter()
        self.spent += end - start
        self.units.append(end - warm)

    def __enter__(self) -> Sampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
