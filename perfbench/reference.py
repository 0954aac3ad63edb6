"""Measures the machine's speed while an operation runs.

On a shared host the same operation runs up to twice as slow for minutes at
a time, with calm spells of a second or less, and the slowdown is in the
process's own CPU time, not in steal time. Neither the fastest repeat nor a
longer run removes it. ``SpeedProbe`` interrupts the operation every
``PERIOD_S`` with a short fixed loop of the work the package's exact code
spends its time on (``Fraction`` arithmetic) and times that loop. The loop
slows down with the operation around it, and their ratio does not. The
loop never imports the package, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
# Seconds one ``reference()`` call takes on the 2-vCPU VM of README.md in a
# calm spell (0.64 to 0.67 ms; 1.1 ms is typical under its usual load). It
# only sets the scale of the normalised times, so that they read as seconds
# on that machine at calm speed.
NOMINAL_S = 0.00065
EDGE_SAMPLES = 3


def reference() -> Fraction:
    x = Fraction(1, 3)
    for i in range(1, 80):
        y = Fraction(i % 7 + 1, i % 11 + 2)
        x = (x * y + Fraction(1, i % 29 + 1)) / (1 + y)
    return x


def time_reference() -> float:
    started = time.perf_counter()
    reference()
    return time.perf_counter() - started


class SpeedProbe:
    """Context manager sampling ``reference()`` right before, every
    ``PERIOD_S`` during, and right after the block it wraps.

    ``spent`` is the wall time the samples inside the block took, to be
    subtracted from the block's time; ``normalise(seconds)`` rescales a
    time measured in the block to the nominal speed.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum=None, _frame=None) -> None:
        started = time.perf_counter()
        reference()
        ended = time.perf_counter()
        self.samples.append(ended - started)
        self.spent += time.perf_counter() - started

    def __enter__(self):
        self.samples, self.spent = [time_reference() for _ in range(EDGE_SAMPLES)], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(time_reference() for _ in range(EDGE_SAMPLES))

    def normalise(self, seconds: float) -> float:
        return seconds / statistics.median(self.samples) * NOMINAL_S
