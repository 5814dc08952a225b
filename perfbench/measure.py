"""Timing helpers: host-speed calibration, nearest-rank percentiles and the
tail-percentile rule."""

from __future__ import annotations

import math
import time

import numpy as np

# A shared host's speed for CPU-bound code drifts by tens of percent within
# minutes: on a 2-core cloud VM, a fixed pure-Python loop varied by 15%
# between 15-second windows, and the median op latency of one workload by
# 60% between consecutive runs. Op timings are therefore reported at a
# reference speed: a fixed kernel of interpreter and small-numpy work, like
# the engine's own, is timed next to the ops, and their times are scaled by
# REF_KERNEL_S / kernel time.
REF_KERNEL_S = 0.005

# Percentiles a workload may report as its tail, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0)
MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def _rank(q: float, n: int) -> int:
    """Nearest rank of percentile q among n samples (rounded against float error)."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it.

    Returns None when no ladder entry above the median qualifies, in which
    case the median is the only percentile worth reporting.
    """
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(q, len(ordered)) - 1]


def _kernel() -> float:
    v = np.linspace(-1.0, 1.0, 32)
    acc = 0.0
    for k in range(1000):
        acc += float(np.clip(np.dot(v, v), -1.0, 1.0))
        acc += sum(divmod(k * 7919, 13)) + len(str(k))
    return acc


def speed_factor() -> float:
    """REF_KERNEL_S over the time the calibration kernel takes now.

    Multiplying a wall time measured next to this call by the factor gives
    the time at the reference speed.
    """
    t0 = time.perf_counter()
    _kernel()
    return REF_KERNEL_S / (time.perf_counter() - t0)
