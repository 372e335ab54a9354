"""Machine-speed reference for the benchmark's in-process timings.

The benchmark shares its machine with other tenants. Over seconds to minutes
the same code runs up to half again as slow as at a quiet moment, in CPU
time as much as in wall time, and between processes the speed differs by a
quarter. While a ``Calibrator`` is active, a wall-clock timer interrupts the
benchmark every ``INTERVAL_S`` (inside the program's calls too, between two
bytecodes) and times a fixed reference kernel that does the kind of work
the program does: attribute-heavy distance loops with sorting, great-circle
maths and small NumPy operations. ``clock()`` excludes the time spent in
the kernel, so the program's timings do not include it. A timing is then
scaled by ``REFERENCE_S`` over the median kernel time of the same
iteration, raised to ``ELASTICITY``: a scaled time reads in seconds at the
speed where the kernel takes ``REFERENCE_S``. A slower program reads
slower; a slower machine reads much less so. Raw seconds are reported next
to the scaled ones. A set-up probe, a fresh interpreter of its own, takes
one sample after its timed work and is scaled by it alone.

The kernel is sampled inside the program's calls, not only between them:
sampled only at invocation boundaries, its time doubled from one run to
the next while the program's barely moved, and the scaled times spread
wider than the raw ones.
"""

from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Kernel time, in seconds, at the reference speed: about its median on a
# 2-core shared virtual machine, so scaled and raw seconds are alike there.
REFERENCE_S = 0.005
# How far the program's times follow the kernel's when the machine's speed
# changes. The kernel is pure computation and gains more from a fast phase
# of the machine than the program, part of whose time waits on memory. Over
# ten runs per workload spanning fast and slow phases on that machine,
# the run-to-run spread of the scaled times was least near 0.7 for
# screen-large, 0.8 for model-compare and 1.0 for gradient-map.
ELASTICITY = 0.8
# Time between two kernel samples.
INTERVAL_S = 0.25
# Timed kernel runs per sample, after one untimed run that refills the
# caches the program just used; a sample is their median.
RUNS_PER_SAMPLE = 3


@dataclass(frozen=True)
class _Point:
    lon: float
    lat: float
    depth: float


# As many records as the program screens, so the kernel's working set and
# its share of memory stalls resemble the program's.
_POINTS = [_Point(100.0 + 6.0 * math.sin(i), 29.0 + 5.0 * math.cos(1.7 * i), 1000.0 + (i * 37) % 900)
           for i in range(1500)]
_WEIGHTS = (("lon", 1.3), ("lat", 0.7), ("depth", 0.01))
_VECTORS = [np.linspace(0.0, 1.0, 8) + i for i in range(60)]


def kernel() -> float:
    """A fixed amount of program-like work; returns a value so none is skipped."""
    query = _POINTS[0]
    ranked = sorted(
        (math.sqrt(sum((w * (getattr(query, name) - getattr(p, name))) ** 2
                       for name, w in _WEIGHTS)), j)
        for j, p in enumerate(_POINTS))
    total = ranked[5][0]
    lat0 = math.radians(_POINTS[1].lat)
    for p in _POINTS:
        lat1 = math.radians(p.lat)
        a = (math.sin((lat1 - lat0) / 2.0) ** 2 + math.cos(lat0) * math.cos(lat1)
             * math.sin(math.radians(p.lon - _POINTS[1].lon) / 2.0) ** 2)
        total += 2.0 * math.asin(math.sqrt(a))
    for vec in _VECTORS:
        total += float(np.abs(vec - vec.mean()) @ vec)
    return total


class Calibrator:
    """Samples the kernel every ``INTERVAL_S`` while active (a context manager)."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:  # a sample outlasted the interval
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            runs = []
            for _ in range(RUNS_PER_SAMPLE):
                began = perf_counter()
                kernel()
                runs.append(perf_counter() - began)
            self.samples.append(statistics.median(runs))
            self.spent += perf_counter() - start
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling the kernel."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    @staticmethod
    def scale(samples: list[float]) -> float:
        """Factor that turns raw seconds into seconds at the reference speed."""
        return (REFERENCE_S / statistics.median(samples)) ** ELASTICITY
