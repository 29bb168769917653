"""Kernel probes: library code called directly on fixed inputs.

The inputs do not depend on the workload seed, so the rows compare across
workloads and commits.  The MC block probe calls ``mc._block_rng`` and
``mc._draw_summands``, the only way to time one block's draw apart from its
reduction.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

from sumtails import discrete, mc

PROBE_METRICS = (
    ("probe.convolve.ns_per_pair", "ns"),
    ("probe.clopper_pearson.us_per_call", "us"),
    ("probe.mc.exponential.draw_ms", "ms"),
    ("probe.mc.exponential.reduce_sort_ms", "ms"),
    ("probe.mc.two_point.draw_ms", "ms"),
    ("probe.mc.two_point.reduce_sort_ms", "ms"),
    ("probe.mc.pareto.draw_ms", "ms"),
    ("probe.mc.pareto.reduce_sort_ms", "ms"),
)

PROBE_SEED = 2011
CONVOLVE_REPEATS = 40
CP_ROUNDS = 20
CP_INPUTS = tuple((k, 1 << 15) for k in (0, 1, 7, 100, 2048, 16384, 32767, 32768))
BLOCK_REPEATS = 3
MC_FAMILIES = (
    ("exponential", mc.SamplerSpec("standardized-exponential", n=32)),
    ("two_point", mc.SamplerSpec("standardized-two-point", n=256)),
    ("pareto", mc.SamplerSpec("standardized-pareto", n=32, alpha=4.0)),
)


def _chain() -> list[discrete.DiscreteRV]:
    """Four summands of four atoms whose sums never coincide: 4, 16, 64, 256 atoms."""
    quarter = Fraction(1, 4)
    return [
        discrete.DiscreteRV.from_atoms([(Fraction(j, p), quarter) for j in (-2, -1, 1, 2)])
        for p in (5, 7, 11, 13)
    ]


def _timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def run_probes() -> dict[str, float]:
    out: dict[str, float] = {}

    chain = _chain()
    pairs = sum(
        len(discrete.convolve(chain[:k]).values) * len(chain[k].values)
        for k in range(1, len(chain))
    )
    times = [_timed(lambda: discrete.convolve(chain)) for _ in range(CONVOLVE_REPEATS)]
    out["probe.convolve.ns_per_pair"] = statistics.median(times) / pairs * 1e9

    def cp_round() -> None:
        for k, n in CP_INPUTS:
            mc.clopper_pearson(k, n)

    times = [_timed(cp_round) for _ in range(CP_ROUNDS)]
    out["probe.clopper_pearson.us_per_call"] = statistics.median(times) / len(CP_INPUTS) * 1e6

    z = np.asarray([i / 2 for i in range(9)])
    for label, spec in MC_FAMILIES:
        draw_s, reduce_s = [], []
        for rep in range(BLOCK_REPEATS):
            rng = mc._block_rng(PROBE_SEED, rep)
            start = perf_counter()
            draws = mc._draw_summands(spec, rng, mc.BLOCK_SIZE)
            mid = perf_counter()
            np.searchsorted(np.sort(draws.sum(axis=1)), z, side="right")
            reduce_s.append(perf_counter() - mid)
            draw_s.append(mid - start)
            del draws
        out[f"probe.mc.{label}.draw_ms"] = statistics.median(draw_s) * 1e3
        out[f"probe.mc.{label}.reduce_sort_ms"] = statistics.median(reduce_s) * 1e3
    return out
