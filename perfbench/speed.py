"""Reference speed: rescale wall times to a machine speed that does not
drift.

The baseline machine is a shared VM whose speed drifts by 20-50% in
phases of seconds to minutes (see README.md). A fixed reference kernel
of the same kind of work as the pipeline (interpreted Python, dict
updates, small dense eigen- and exponential problems) is timed in the
same process right before and right after each stretch of timed work.
The stretch's wall time times ``REF_S / kernel time`` is what it would
have taken at the speed where the kernel takes ``REF_S``: a slow phase
slows both, and the ratio stays.

``REF_S`` is a round figure for the kernel's time on the baseline
machine (Intel Xeon vCPU, 2.1 GHz), where its samples read about 0.7 to
1.1 ms, so rescaled times read close to that machine's wall times. The
program under test never runs the kernel, so a change to the program
moves a rescaled time as it moves the wall time.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: seconds the reference kernel takes at the reference speed
REF_S = 1.0e-3
#: timed kernel runs per sample, after one untimed run that brings the
#: kernel back into the caches the timed work left; a sample is their median
SAMPLE_RUNS = 3

_MATRIX = 0.3 * np.random.default_rng(0).standard_normal((6, 6))


def reference_kernel() -> float:
    total = 0
    for i in range(6000):
        total += i * i
    bins = {}
    for i in range(1500):
        bins[i % 97] = bins.get(i % 97, 0) + i
    for _ in range(10):
        total += int(np.linalg.eigvals(_MATRIX).real.sum() > 0)
    for _ in range(3):
        total += int(scipy.linalg.expm(_MATRIX)[0, 0] > 0)
    return total


def sample() -> float:
    """Seconds of one reference kernel run right now (median of a few)."""
    reference_kernel()
    times = []
    for _ in range(SAMPLE_RUNS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[SAMPLE_RUNS // 2]


def scale(before: float, after: float) -> float:
    """Factor that rescales wall time spent between two samples to the
    reference speed."""
    return 2.0 * REF_S / (before + after)
