"""Timing that holds still on a host whose CPU speed drifts.

On shared hosts the speed of one core can swing by 2x within a second
(frequency changes, a busy sibling hyperthread) while CPU time and wall
time agree, so no clock can tell.  ``SpeedProbe`` measures the speed while
the benchmark runs: a timer signal interrupts the main thread every
``EVERY_S`` and times a fixed piece of stdlib ``Fraction`` work (the kind
of arithmetic ergolab does, but none of its code).  An interval is then
reported in *reference seconds*:

    (wall time - probe time inside it) * NOMINAL_S / mean probe time

where the mean is over the probes taken inside the interval, or over the
probe before and the probe after it when the interval is shorter than the
period.  A reference second is a wall second on a host where one probe
takes ``NOMINAL_S``.  A faster program takes fewer reference seconds; a
slower host does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

EVERY_S = 0.01
# one probe on this repository's reference host (x86-64 VM, CPython 3.11,
# fast phase)
NOMINAL_S = 0.00033


def probe_work() -> Fraction:
    acc, prev = Fraction(0), Fraction(1, 3)
    for k in range(1, 40):
        x = Fraction(k, 3 + k % 11)
        acc += x * prev - Fraction(1, k)
        if x < prev:
            acc -= x
        prev = x
    return acc


class SpeedProbe:
    """Context manager sampling the CPU speed while the body runs.

    ``on_sample(seconds)`` is called after each probe from the signal
    handler; the tracer uses it to keep probe time out of self times.
    """

    def __init__(self, on_sample: Optional[Callable[[float], None]] = None):
        self.on_sample = on_sample
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        probe_work()
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(dt)
        if self.on_sample is not None:
            self.on_sample(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1) in reference seconds (see module doc)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        if inside:
            speed = statistics.fmean(inside)
        else:
            around = self.durations[max(lo - 1, 0):hi + 1]
            speed = statistics.fmean(around)
        return (t1 - t0 - sum(inside)) * NOMINAL_S / speed
