"""Scaling interpreter-bound timings to a reference machine speed.

The 2-vCPU virtual machine the benchmark was tuned on runs the Python
interpreter up to twice as slow for tens of seconds at a time: a fixed
pure-Python loop took 1.5 ms in its fast phases and 2 to 3 ms in its slow
ones, and exact-sweep ops slowed with it (slope 0.8 of op time on loop time
over 544 ops).  A slow phase can span a whole run, so no statistic over one
run's samples removes it.  An interpreter-bound timing is therefore reported
in *reference seconds*: the measured time times ``REF_LOOP_S`` over recent
times of :func:`reference_loop_s` (the harness takes the median of the last
five, one before each op).  On that machine in a fast phase, reference
seconds equal seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REF_LOOP_N = 20_000
#: time of the reference loop on the tuning machine in a fast phase
REF_LOOP_S = 1.5e-3


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop that touches no library code."""
    start = perf_counter()
    x = 0
    for i in range(REF_LOOP_N):
        x += i * i % 7
    return perf_counter() - start


def speed_factor() -> float:
    """Reference seconds per second now: REF_LOOP_S over the median of three loop times."""
    return REF_LOOP_S / statistics.median(reference_loop_s() for _ in range(3))
