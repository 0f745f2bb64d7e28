"""The machine's speed during a run, from a fixed chunk of reference work.

On a shared VM the same pass can take twice as long from one minute to
the next, and 30-second stretches of a run differ by 15% or more. The
reference chunk is timed every INTERVAL_S seconds through the run,
between the workload's operations, so it sees the same stretches of the
machine that the workload does. Reported times are scaled by
``REFERENCE_CHUNK_S / mean chunk time``: the seconds the run would have
taken on a machine where the chunk takes REFERENCE_CHUNK_S. The mean,
not the median, because a pass time is a sum over the run's stretches,
slow ones included; over 6 closure runs it spread 4% where the median
spread 13%. The chunk is the benchmark's own code; no change to the
program can move it.
"""

from __future__ import annotations

import time
from statistics import fmean

import numpy as np

CHUNK_STEPS = 1500
INTERVAL_S = 0.05
# About the mean chunk time on the 2-vCPU VM (Python 3.11, numpy) the
# benchmark was defined on; it only sets the scale of the reported numbers.
REFERENCE_CHUNK_S = 0.005

_M = np.linspace(0.5, 1.5, 36).reshape(6, 6) / 6.0


def reference_chunk() -> float:
    """Seconds for CHUNK_STEPS small matrix-vector steps in an interpreted loop.

    Like the program's inner loops, it mixes interpreter work with numpy
    calls on tiny arrays.
    """
    v = np.ones(6)
    count = 0
    started = time.perf_counter()
    for i in range(CHUNK_STEPS):
        v = _M @ v
        v /= v[0]
        count += i % 7
    return time.perf_counter() - started


class Calibrator:
    """Times one reference chunk for every INTERVAL_S seconds of the run."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = time.perf_counter()

    def between(self) -> None:
        """Call between operations: runs every chunk that has come due."""
        while time.perf_counter() >= self._due:
            self.samples.append(reference_chunk())
            self._due += INTERVAL_S

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        return REFERENCE_CHUNK_S / fmean(self.samples)
