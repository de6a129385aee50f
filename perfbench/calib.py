"""Machine-speed reference for the benchmark's timings.

The machine this benchmark was written on is shared, and its speed drifts
by up to 1.8x over tens of seconds (all workloads slow down together, and
CPU time tracks wall time, so the drift is not time stolen from the
process).  A fixed computation of the benchmark's own -- a loop of small
complex matrix products, the kind of work the program does, but no code
of the program -- is timed every quarter second while a workload runs,
and every measured time is scaled to a machine on which that computation
takes NOMINAL_S:

    normalized = measured * NOMINAL_S / reference time at that moment

A change to the program moves the measured time and not the reference, so
the normalized time keeps every gain or loss of the program and drops
the machine's drift.  Over 20-second windows of `simulate_csv` this cut
the spread between windows from 31% to 3% of the median.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 1.5e-3     # reference time the normalized figures are scaled to
_REPEATS = 3

_rng = np.random.default_rng(0)
_MATS = [_rng.normal(size=(3, 3)) + 1j * _rng.normal(size=(3, 3))
         for _ in range(8)]


def _work() -> np.ndarray:
    acc = np.zeros((3, 3), complex)
    for k in range(40):
        for m in _MATS:
            acc = acc + m @ m * (1.0 / (k + 1))
        acc = acc / (1.0 + np.max(np.abs(acc)))
    return acc


def reference_time() -> float:
    """Median of a few timed runs of the reference computation."""
    times = []
    for _ in range(_REPEATS):
        t = perf_counter()
        _work()
        times.append(perf_counter() - t)
    return sorted(times)[_REPEATS // 2]


def scale(measured: float, reference: float) -> float:
    """`measured` seconds at nominal speed, given the reference time
    measured over the same interval."""
    return measured * NOMINAL_S / reference
