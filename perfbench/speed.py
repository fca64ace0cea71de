"""Machine-speed calibration sampled while the benchmark runs.

The CPU speed a process gets on a shared virtual machine can swing by a
fifth or more over a few seconds, and that swing would swamp any change a
commit makes. So while the timed calls run, a SIGALRM timer interrupts the
process every ``INTERVAL_S`` and runs a fixed calibration loop: pure-Python
float additions, then lookups of scattered keys in a dict larger than the
L2 cache, so the loop feels both a slower core and a contended cache. Its
duration ``d`` tracks the speed the process is getting at that moment.

A timed interval is then reported at reference speed: its elapsed time
minus the time spent inside the calibration loop, times the mean of
``REFERENCE_S / d`` over the samples taken around it. At reference speed
(the loop taking ``REFERENCE_S``) the reported time equals the elapsed time.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

ADDS = 10_000
TABLE_KEYS = 1 << 16
LOOKUPS = 2_000
REFERENCE_S = 4e-4  # the loop's duration on an uncontended core
INTERVAL_S = 0.025
WINDOW_S = 0.25


class SpeedProbe:
    """Context manager that samples the calibration loop on a timer."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        keys = list(range(TABLE_KEYS))
        random.Random(0).shuffle(keys)
        self._table = {k: float(k) for k in keys}
        self._lookups = keys[:LOOKUPS]

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        acc = 0.0
        for _ in range(ADDS):
            acc += 1.0
        table = self._table
        for k in self._lookups:
            acc += table[k]
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, durations) -> float:
        return sum(REFERENCE_S / d for d in durations) / len(durations)

    def normalize(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at reference speed.

        The scale comes from the samples within ``WINDOW_S`` of the
        interval (the nearest sample if there are none), which smooths the
        jitter of single samples on short intervals.
        """
        if not self.durations:
            return t1 - t0
        inside = self.durations[bisect_left(self.ends, t0):
                                bisect_right(self.ends, t1)]
        near = self.durations[bisect_left(self.ends, t0 - WINDOW_S):
                              bisect_right(self.ends, t1 + WINDOW_S)]
        if not near:
            k = min(bisect_left(self.ends, t0), len(self.durations) - 1)
            near = [self.durations[k]]
        return (t1 - t0 - sum(inside)) * self.scale(near)
