"""Host-speed correction for job times.

Shared hosts change speed by 20% or more within seconds to minutes, and a
fixed numpy and math.fsum loop, independent of sonine_kit, slows with them.
The loop is timed before and after every job and, from a SIGALRM handler,
every SAMPLE_INTERVAL_S while the job runs. A job's time is reported at
reference speed: its wall time, minus the handler's own time, scaled by the
mean of REFERENCE_S / sample over those samples. A host that runs at half
speed for half of a job thus scales that job by 2/3.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: seconds per calibration iteration that reported times are scaled to
REFERENCE_S = 26e-6

#: iterations per sample taken while a job runs (about 1 ms) and around it
TICK_ITERATIONS = 30
BRACKET_ITERATIONS = 100

SAMPLE_INTERVAL_S = 0.1

_X = np.linspace(0.01, 1.0, 256)


def calibration(iterations: int = BRACKET_ITERATIONS) -> float:
    """Seconds per iteration of the calibration loop."""
    start = time.perf_counter()
    for _ in range(iterations):
        math.fsum(np.exp(-3.0 * _X) * _X**0.5)
    return (time.perf_counter() - start) / iterations


class SpeedProbe:
    """Times calls and scales them to reference speed."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(calibration(TICK_ITERATIONS))
        self._spent += time.perf_counter() - start

    def measure(self, fn, *args):
        """Call fn(*args); return (result, wall seconds, seconds at reference
        speed). Only the latter excludes the sampling handler's own time."""
        self._samples = [calibration()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(calibration())
        scale = statistics.fmean(REFERENCE_S / s for s in self._samples)
        return result, elapsed, (elapsed - self._spent) * scale
