"""Seeded Monte Carlo tail estimation for systems beyond the exact oracle.

Sampling uses the counter-based Philox generator with one substream per
fixed-size block of sample indices (key = (seed, block index)), so the
estimate for a given (spec, seed, n_samples, grid) is bit-identical no
matter how many workers execute the blocks.  Per-z tail counts are integers
counted against one shared sorted sample set, which makes the estimated
tails mutually consistent and monotone in z by construction.

Memory per worker grows neither with the sample count nor, past one row,
with n.  Every family draws a block in row slabs of at most ``SLAB_CELLS``
summands (one row when n is larger), so a worker holds one slab buffer of at
most max(``SLAB_CELLS``, n) draws, for ``discrete-system`` a slab of
uniforms and a temporary besides, and the block's two vectors of raw and
capped sums.  These are the values and sums of one full-block draw, because
every family draws row-major from the block's one stream and each row is
summed on its own.

Each block call allocates one slab buffer and reuses it for every slab: the
generator draws into it (a short last slab uses its first rows), the
two-point and discrete values are selected into it, and the cap overwrites
it once the raw sums are taken.  Allocating per slab would free and
page-fault back the same memory on every slab (reusing a uniform buffer for
``discrete-system`` measured no faster, so it allocates its uniforms per
slab).  The buffer belongs to its block call, never to the module, because
``workers > 1`` runs blocks on threads.

Confidence intervals are exact binomial (Clopper-Pearson) at 99%, since the
deep-tail counts these sweeps care about are tiny and normal-approximation
intervals would be optimistic there.  Their beta quantile comes from
``scipy.special``, imported on the first interval, so importing this module
loads no scipy module.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bounds import BoundParams, SystemOracle, _finite_floats, _p1_to_p3
# the exact bounds are P1-P3 of one _p1_to_p3 call; the name p_bounds stays
# here because benchmarks/sumbench/tracing.py wraps mc.p_bounds
from .bounds import p_bounds  # noqa: F401
from .discrete import WINSOR_MODES, System, check_mode

__all__ = [
    "FAMILIES",
    "SamplerSpec",
    "TailEstimate",
    "BoundCheckRow",
    "BoundCheckReport",
    "clopper_pearson",
    "mc_tails",
    "mc_check_bounds",
    "summand_cdf",
]

FAMILIES = (
    "discrete-system",
    "standardized-exponential",
    "standardized-two-point",
    "standardized-pareto",
)

MODES = ("raw", *WINSOR_MODES)

#: samples per Philox substream; fixed so worker count cannot change results
BLOCK_SIZE = 1 << 16
#: most summand draws a block holds at once: it draws slabs of
#: max(1, SLAB_CELLS // n) rows, which keeps the Philox stream and the sums
SLAB_CELLS = 1 << 16


@dataclass(frozen=True)
class SamplerSpec:
    """A family of n independent zero-mean summands with unit total variance.

    * ``discrete-system``: the summands of ``system`` (n is implied);
    * ``standardized-exponential``: (E - 1)/sqrt(n) with E ~ Exp(1);
    * ``standardized-two-point``: the centered unit-variance two-point law
      with P(positive value) = q, scaled by 1/sqrt(n);
    * ``standardized-pareto``: standardized Pareto with a finite shape
      ``alpha`` > 2 (finite variance), scaled by 1/sqrt(n).
    """

    family: str
    n: int = 1
    system: System | None = None
    q: float = 0.5
    alpha: float = 4.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "discrete-system" and self.system is None:
            raise ValueError("family 'discrete-system' needs a system")
        if self.family != "discrete-system" and self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.family == "standardized-two-point" and not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q}")
        if self.family == "standardized-pareto" and not 2.0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be finite and exceed 2 for finite variance, got {self.alpha}"
            )

    @property
    def n_summands(self) -> int:
        return self.system.n if self.family == "discrete-system" else self.n

    @cached_property
    def _inverse_cdf(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A ``discrete-system``'s inverse CDF on float bits, built once per spec.

        The first atoms, shape (n,); each atom XOR the one before it, shape
        (k - 1, n); and the cumulative masses at which a uniform passes to it,
        normalized so that the left-out last one is 1.0, and +inf past a
        summand's own atoms.  One column is built per distinct summand
        object (:meth:`System.distinct_rvs`) and spread to every summand
        that shares it.
        """
        laws, index = self.system.distinct_rvs()
        k = max(len(rv.values) for rv in laws)
        values, thresholds = np.zeros((k, len(laws))), np.full((k - 1, len(laws)), np.inf)
        for j, rv in enumerate(laws):
            values[: len(rv.values), j] = [float(x) for x in rv.values]
            cdf = np.cumsum([float(p) for p in rv.masses])
            thresholds[: len(cdf) - 1, j] = cdf[:-1] / cdf[-1]
        bits = values.take(index, axis=1).view(np.uint64)
        return bits[0], bits[1:] ^ bits[:-1], thresholds.take(index, axis=1)


@dataclass(frozen=True)
class TailEstimate:
    """Estimated P(sum > z) with a 99% Clopper-Pearson interval."""

    z: float
    p_hat: float
    ci_lo: float
    ci_hi: float
    n_samples: int
    seed: int


def clopper_pearson(k: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact binomial confidence interval for k successes out of n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    # the floats of scipy.stats.beta.ppf, without importing scipy.stats (most
    # of a cold start); imported here so that exact runs never load scipy
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - alpha / 2.0))
    return lo, hi


def summand_cdf(spec: SamplerSpec, t: float) -> float:
    """P(one summand <= t) in closed form, for the i.i.d. families."""
    n = spec.n
    root_n = math.sqrt(n)
    if spec.family == "standardized-exponential":
        # summand (E - 1)/sqrt(n) <= t  iff  E <= 1 + t sqrt(n)
        arg = 1.0 + t * root_n
        return 0.0 if arg <= 0.0 else 1.0 - math.exp(-arg)
    if spec.family == "standardized-two-point":
        a = math.sqrt((1.0 - spec.q) / spec.q) / root_n
        b = math.sqrt(spec.q / (1.0 - spec.q)) / root_n
        if t < -b:
            return 0.0
        return 1.0 if t >= a else 1.0 - spec.q
    if spec.family == "standardized-pareto":
        alpha = spec.alpha
        mean = alpha / (alpha - 1.0)
        sd = math.sqrt(alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0)))
        x = mean + sd * t * root_n
        return 0.0 if x < 1.0 else 1.0 - x ** (-alpha)
    raise ValueError(
        "closed-form summand CDF only exists for the i.i.d. families; "
        "discrete systems have exact oracles"
    )


def _check_run(z_grid: Sequence[float], n_samples: int, seed: int, workers: int) -> np.ndarray:
    """The z grid as floats, after rejecting what no run can use, before any draw.

    That is a sample count, seed or worker count out of range, or a z that
    is not a finite float.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if n_samples < 1_000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    message = "z = {} has no float report: z must be a finite float"
    return np.asarray(_finite_floats(z_grid, message), dtype=float)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_summands(
    spec: SamplerSpec, rng: np.random.Generator, size: int, buf: np.ndarray | None = None
) -> np.ndarray:
    """Matrix of raw summand draws, shape (size, n_summands).

    Given ``buf``, a float matrix of n columns and at least ``size`` rows,
    it draws into the first ``size`` rows and returns that view.
    """
    n = spec.n_summands
    out = np.empty((size, n)) if buf is None else buf[:size]
    if spec.family == "discrete-system":
        # inverse CDF on the bit patterns, as for the two-point family: the
        # first atom XOR every change whose threshold the uniform reaches
        first, changes, thresholds = spec._inverse_cdf
        u = rng.random((size, n))
        bits = out.view(np.uint64)
        np.copyto(bits, first)
        for change, threshold in zip(changes, thresholds):
            bits ^= (u >= threshold) * change
        return out
    # the IEEE operations of the plain expressions, such as (e - 1.0) * scale,
    # done in place or on the two-point constants: same values, fewer copies
    scale = 1.0 / math.sqrt(n)
    if spec.family == "standardized-exponential":
        rng.standard_exponential(out=out)
        out -= 1.0
        out *= scale
        return out
    rng.random(out=out)
    if spec.family == "standardized-two-point":
        a = math.sqrt((1.0 - spec.q) / spec.q)
        b = math.sqrt(spec.q / (1.0 - spec.q))
        # np.where(u < q, a * scale, -b * scale) on the bit patterns, in place
        # and several times faster: lo ^ (is_hi * (hi ^ lo)) is hi or lo
        hi, lo = np.array([a * scale, -b * scale]).view(np.uint64)
        is_hi = out < spec.q
        bits = out.view(np.uint64)
        np.multiply(is_hi, hi ^ lo, out=bits)
        bits ^= lo
        return out
    # standardized-pareto: support [1, inf), cdf 1 - x^-alpha
    alpha = spec.alpha
    mean = alpha / (alpha - 1.0)
    sd = math.sqrt(alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0)))
    np.subtract(1.0, out, out=out)
    out **= -1.0 / alpha
    out -= mean
    out /= sd
    out *= scale
    return out


def _apply_cap(samples: np.ndarray, w: float, mode: str) -> np.ndarray:
    """Cap the summand matrix in place and return it."""
    if mode == "winsorize":
        return np.minimum(samples, w, out=samples)
    np.copyto(samples, 0.0, where=~(samples <= w))
    return samples


def _tail_counts(
    spec: SamplerSpec,
    z_grid: np.ndarray,
    n_samples: int,
    seed: int,
    w: float | None,
    mode: str,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Counts of {S > z} and {S_bar > z} per z, summed over Philox blocks."""

    def one_block(block: int) -> tuple[np.ndarray, np.ndarray]:
        start = block * BLOCK_SIZE
        size = min(BLOCK_SIZE, n_samples - start)
        rng = _block_rng(seed, block)
        # row slabs give the sums of one full-block draw, and one buffer
        # serves every slab (see the module docstring)
        rows = min(size, max(1, SLAB_CELLS // spec.n_summands))
        buf = np.empty((rows, spec.n_summands))
        s_raw = np.empty(size)
        s_bar = None if w is None else np.empty(size)
        for lo in range(0, size, rows):
            hi = min(lo + rows, size)
            draws = _draw_summands(spec, rng, hi - lo, buf)
            draws.sum(axis=1, out=s_raw[lo:hi])
            if w is not None:
                _apply_cap(draws, w, mode).sum(axis=1, out=s_bar[lo:hi])
        s_raw.sort()
        raw = size - np.searchsorted(s_raw, z_grid, side="right")
        if w is None:
            return raw, raw
        s_bar.sort()
        bar = size - np.searchsorted(s_bar, z_grid, side="right")
        return raw, bar

    n_blocks = (n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    if workers <= 1:
        results = [one_block(b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_block, range(n_blocks)))
    return tuple(np.sum(results, axis=0, dtype=np.int64))


def mc_tails(
    spec: SamplerSpec,
    z_grid: Sequence[float],
    n_samples: int,
    seed: int,
    mode: str = "raw",
    w: float | None = None,
    workers: int = 1,
) -> list[TailEstimate]:
    """Estimate P(S > z) (or P(S_bar > z) for capped modes) over the z grid.

    One shared sample pass serves the whole grid.  Deterministic given
    (spec, seed, n_samples, z_grid); ``workers`` only changes wall time.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode != "raw" and (w is None or not w > 0):
        raise ValueError(f"mode {mode!r} needs a positive cap w, got {w}")
    zs = _check_run(z_grid, n_samples, seed, workers)
    raw, bar = _tail_counts(
        spec, zs, n_samples, seed, None if mode == "raw" else float(w), mode, workers
    )
    counts = raw if mode == "raw" else bar
    estimates = []
    for z, k in zip(zs, counts):
        lo, hi = clopper_pearson(int(k), n_samples)
        estimates.append(
            TailEstimate(
                z=float(z),
                p_hat=int(k) / n_samples,
                ci_lo=lo,
                ci_hi=hi,
                n_samples=n_samples,
                seed=seed,
            )
        )
    return estimates


@dataclass(frozen=True)
class BoundCheckRow:
    """Per-z comparison of the estimated tail cost against its bound."""

    z: float
    p_hat_raw: float
    p_hat_bar: float
    delta_hat: float
    ci_lo: float
    ci_hi: float
    p1: float
    p2: float | None
    p3: float | None
    bound: float
    flag: bool


@dataclass(frozen=True)
class BoundCheckReport:
    rows: tuple[BoundCheckRow, ...]
    n_samples: int
    seed: int

    @property
    def n_flags(self) -> int:
        return sum(r.flag for r in self.rows)

    @property
    def ok(self) -> bool:
        return self.n_flags == 0


def mc_check_bounds(
    spec: SamplerSpec,
    params: BoundParams,
    z_grid: Sequence[float],
    n_samples: int,
    seed: int,
    mode: str = "winsorize",
    workers: int = 1,
    bound_scale: float = 1.0,
) -> BoundCheckReport:
    """Statistical check of Delta_w(z) <= bound over the z grid.

    A cell is flagged only when the 99% lower confidence bound of the
    estimated Delta_w(z) = P(S > z) - P(S_bar > z) exceeds the bound, i.e.
    a statistically significant violation.  For discrete systems the bound
    is the exact min of P1, P2, P3 (those the convolution cap allows, from
    :func:`~sumtails.bounds._p1_to_p3`, which reads no P4 or P5 input); for
    the continuous families it is P1 from the closed-form summand CDF.
    ``bound_scale``, finite and positive, shrinks the bound and exists for
    negative-control self-tests (a scale like 0.01 must raise flags).
    """
    check_mode(mode)
    zs = _check_run(z_grid, n_samples, seed, workers)
    params.check_float_range()
    if not 0 < bound_scale < math.inf:
        raise ValueError(f"bound_scale must be finite and positive, got {bound_scale!r}")
    w = float(params.w)
    exact = None
    if spec.family == "discrete-system":
        p1, exact = _p1_to_p3(SystemOracle(spec.system), zs.tolist(), params)
        p1 = float(p1)
    raw, bar = _tail_counts(spec, zs, n_samples, seed, w, mode, workers)

    rows = []
    for k, (z, k_raw, k_bar) in enumerate(zip(zs, raw, bar)):
        # {S > z >= S_bar} is a genuine event per sample (caps only lower the
        # sum), so the count difference is binomial and CP applies to it
        k_delta = int(k_raw - k_bar)
        lo, hi = clopper_pearson(k_delta, n_samples)
        if exact is not None:
            p2, p3 = (None if p is None else float(p) for p in exact[k][:2])
        else:
            p1, p2, p3 = 1.0 - summand_cdf(spec, w) ** spec.n, None, None
        bound = min(p for p in (p1, p2, p3) if p is not None) * bound_scale
        rows.append(
            BoundCheckRow(
                z=float(z),
                p_hat_raw=int(k_raw) / n_samples,
                p_hat_bar=int(k_bar) / n_samples,
                delta_hat=k_delta / n_samples,
                ci_lo=lo,
                ci_hi=hi,
                p1=p1,
                p2=p2,
                p3=p3,
                bound=bound,
                flag=lo > bound,
            )
        )
    return BoundCheckReport(rows=tuple(rows), n_samples=n_samples, seed=seed)
