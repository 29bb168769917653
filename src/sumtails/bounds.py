"""Bound evaluators for the tail cost of capping a sum of independent summands.

Let S be the raw sum of a unit-variance system and S_bar the sum after each
summand is capped at level w (winsorized: x -> min(x, w); or truncated:
x -> x 1{x <= w}).  The tail difference

    Delta_w(z) = P(S > z) - P(S_bar > z)

is nonnegative and admits five upper bounds P1..P5 built from the exceedance
structure of the summands:

    P1 = P(max_i X_i > w)
    P2 = P(max_i X_i > y) + Q(z, y) * sum_i P(X_i > w)
    P3 = P(max_i X_i > y) + 2 Q*(z, y) * P(max_i X_i > w)
    P4 = P(max_i X_i > z / (1 + p/2)) + A_p4 / (c + z)^p * P(max_i X_i > w)
    P5 = A_p5 * mu_p / (c + z)^p

with the concentration quantities

    Q(z, y)  = max_i P(S - X_i > z - y, max_{j != i} X_j <= y)
    Q*(z, y) = max(Q(z, y), P(S > z, max_j X_j <= y)).

P1..P3 are fully explicit and verified exactly against convolution oracles;
P4 and P5 carry constants that are only known to exist, so they are exposed
as caller-supplied values (default 1, flagged) and calibrated empirically in
:mod:`sumtails.verify`.  The same policy applies to the exponential
normal-approximation bound A * beta_v * exp(-lambda z) and therefore to the
composite bound (their sum).
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence, Union

from .discrete import (
    CONVOLUTION_CAP,
    ConvolutionCapError,
    DiscreteRV,
    LatticeMeasure,
    Number,
    SubMeasure,
    System,
    _convolve_two,
    capped_sum_rv,
    degenerate,
    max_tail,
    restrict_at_most,
    to_lattice,
)
from .gauss import norm_cdf
from .scalars import beta_v, mu_p

#: names of the caller-supplied constants (each defaults to 1)
CONSTANT_NAMES = ("theorem", "p4", "p5", "bikelis")

WINSOR_MODES = ("winsorize", "truncate")

#: a law the oracle caches: integer-lattice for exact systems, float otherwise
Law = Union[LatticeMeasure, SubMeasure, DiscreteRV]


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the bound family plus caller-supplied constants.

    ``y`` may be a positive number or ``"auto"``, in which case P2/P3 are
    minimized over the candidate grid {z / (1 + p/2)} union {z 2^-j : j <=
    12}; the structural constants for the inexplicit bounds live in
    ``constants`` under the keys in :data:`CONSTANT_NAMES`.
    """

    v: Number = 1
    w: Number = 1
    lam: float = 0.5
    p: float = 2.0
    c: float = 1.0
    y: Number | str = "auto"
    constants: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("v", "w", "lam", "p", "c"):
            if not getattr(self, name) > 0:
                raise ValueError(f"parameter {name} must be positive, got {getattr(self, name)}")
        if self.y != "auto" and not self.y > 0:
            raise ValueError(f"parameter y must be positive or 'auto', got {self.y}")
        for name, value in self.constants.items():
            if name not in CONSTANT_NAMES:
                raise ValueError(f"unknown constant {name!r}; expected one of {CONSTANT_NAMES}")
            if not value > 0:
                raise ValueError(f"constant {name!r} must be positive, got {value}")

    def constant(self, name: str) -> tuple[float, bool]:
        """Return (value, defaulted) for a named constant."""
        if name in self.constants:
            return float(self.constants[name]), False
        return 1.0, True


@dataclass(frozen=True)
class BoundReport:
    """Per-z evaluation of every bound; None marks a not-applicable entry."""

    z: float
    delta_w: Number | None
    p1: Number
    p2: Number | None
    p3: Number
    p4: float | None
    p5: float | None
    best: Number
    theorem_bound: float
    corollary_bound: float
    bikelis_sum: Number
    winsor_mode: str
    warnings: tuple[str, ...] = ()


class SystemOracle:
    """Caches the exact convolution laws needed by the bound evaluators.

    One oracle serves every (z, w, y, mode) query against a fixed system, so
    sweeps reuse laws instead of re-convolving.

    Exact systems are convolved on an integer lattice
    (:class:`~sumtails.discrete.LatticeMeasure`): the values of one chain
    are integers over the lcm of the value denominators of its inputs, the
    masses of each law are integers over that law's own denominator, and a
    tail query compares integers and builds its ``Fraction`` only at the
    end.  Float systems are convolved as float sub-measures.

    The laws restricted to {X_i <= y} depend on y only through its
    *signature*, the number of atoms each summand keeps
    (``bisect_right(rv.values, y)`` per summand), so they are cached by
    signature, and the signature of every y seen is remembered.  The
    z-independent moment sums ``beta_v`` and ``mu_p`` are cached per
    argument.  Cached laws are immutable apart from memoized query values;
    the cache dictionaries are only grown, never mutated in place, which
    keeps concurrent readers safe.
    """

    def __init__(self, system: System, cap: int = CONVOLUTION_CAP):
        self.system = system
        self.cap = cap
        self._law_sum: Law | None = None
        self._law_capped: dict[tuple[Number, str], Law] = {}
        self._signatures: dict[Number, tuple[int, ...]] = {}
        self._restricted: dict[tuple[int, ...], tuple[list[Law], Law]] = {}
        self._loo_capped: dict[tuple[Number, str], list[Law]] = {}
        self._max_tail: dict[Number, Number] = {}
        self._sum_exceedance: dict[Number, Number] = {}
        self._beta_v: dict[Number, Number] = {}
        self._mu_p: dict[Number, Number] = {}

    # -- laws ---------------------------------------------------------------

    def _laws(self, measures: Sequence[DiscreteRV | SubMeasure]) -> list[Law]:
        """The inputs in the form the convolution kernel takes."""
        return to_lattice(measures) if self.system.exact else list(measures)

    def _chain(self, laws: Sequence[Law]) -> Law:
        current = laws[0]
        for nxt in laws[1:]:
            values, masses = _convolve_two(current, nxt, self.system.exact, self.cap)
            current = current.product(nxt, values, masses)
        return current

    def _leave_one_out(self, laws: Sequence[Law]) -> list[Law]:
        """Convolutions of all inputs but one, from prefix and suffix products."""
        n = len(laws)
        if n == 1:  # the empty sum: unit mass at 0
            exact = self.system.exact
            return [LatticeMeasure((0,), (1,), 1, 1) if exact else degenerate(0, exact)]
        prefix = [laws[0]]  # prefix[k] = laws[0] * ... * laws[k]
        for m in laws[1:-1]:
            prefix.append(self._chain([prefix[-1], m]))
        suffix = [laws[-1]]
        for m in reversed(laws[1:-1]):
            suffix.append(self._chain([m, suffix[-1]]))
        suffix.reverse()  # suffix[k] = laws[k + 1] * ... * laws[-1]
        middle = [self._chain([prefix[i - 1], suffix[i]]) for i in range(1, n - 1)]
        return [suffix[0], *middle, prefix[-1]]

    def law_sum(self) -> Law:
        """Exact law of the raw sum S."""
        if self._law_sum is None:
            self._law_sum = self._chain(self._laws(self.system.rvs))
        return self._law_sum

    def law_capped(self, w: Number, mode: str) -> Law:
        """Exact law of the capped sum S_bar at level w."""
        key = (w, mode)
        if key not in self._law_capped:
            capped = [capped_sum_rv(rv, w, mode) for rv in self.system.rvs]
            self._law_capped[key] = self._chain(self._laws(capped))
        return self._law_capped[key]

    def signature(self, y: Number) -> tuple[int, ...]:
        """Atoms each summand keeps under the restriction to {X_i <= y}."""
        sig = self._signatures.get(y)
        if sig is None:
            sig = tuple(bisect_right(rv.values, y) for rv in self.system.rvs)
            self._signatures[y] = sig
        return sig

    def restricted(self, y: Number) -> tuple[list[Law], Law]:
        """Leave-one-out and full convolutions of the summands restricted to {X <= y}."""
        sig = self.signature(y)
        entry = self._restricted.get(sig)
        if entry is None:
            parts = self._laws([restrict_at_most(rv, y) for rv in self.system.rvs])
            loo = self._leave_one_out(parts)
            full = self._chain([loo[-1], parts[-1]]) if len(parts) > 1 else parts[0]
            entry = self._restricted[sig] = (loo, full)
        return entry

    def loo_capped(self, w: Number, mode: str) -> list[Law]:
        """Laws of S_bar - X_bar_i (leave-one-out capped sums)."""
        key = (w, mode)
        if key not in self._loo_capped:
            capped = [capped_sum_rv(rv, w, mode) for rv in self.system.rvs]
            self._loo_capped[key] = self._leave_one_out(self._laws(capped))
        return self._loo_capped[key]

    # -- scalar queries -----------------------------------------------------

    def max_tail_at(self, t: Number) -> Number:
        if t not in self._max_tail:
            self._max_tail[t] = max_tail(self.system, t)
        return self._max_tail[t]

    def sum_exceedance(self, w: Number) -> Number:
        """sum_i P(X_i > w)."""
        if w not in self._sum_exceedance:
            zero = Fraction(0) if self.system.exact else 0.0
            self._sum_exceedance[w] = sum((rv.tail(w) for rv in self.system.rvs), zero)
        return self._sum_exceedance[w]

    def beta_v_at(self, v: Number) -> Number:
        """beta_v of the system at scale v (independent of z, so computed once per v)."""
        if v not in self._beta_v:
            self._beta_v[v] = beta_v(self.system, v)
        return self._beta_v[v]

    def mu_p_at(self, p: Number) -> Number:
        """mu_p = sum_i E |X_i|^p (independent of z, so computed once per p)."""
        if p not in self._mu_p:
            self._mu_p[p] = mu_p(self.system, p)
        return self._mu_p[p]

    def delta(self, z: Number, w: Number, mode: str) -> Number:
        """Delta_w(z) = P(S > z) - P(S_bar > z), exact in exact mode."""
        return self.law_sum().tail(z) - self.law_capped(w, mode).tail(z)

    def q(self, z: Number, y: Number) -> Number:
        """Q(z, y) = max_i P(S - X_i > z - y, max_{j != i} X_j <= y)."""
        loo, _ = self.restricted(y)
        t = z - y
        return max(m.tail(t) for m in loo)

    def qstar(self, z: Number, y: Number) -> Number:
        """Q*(z, y) = max(Q(z, y), P(S > z, max_j X_j <= y))."""
        loo, full = self.restricted(y)
        t = z - y
        q = max(m.tail(t) for m in loo)
        return max(q, full.tail(z))


def bh_bound(z: Number, y: Number) -> float:
    """Bennett-Hoeffding exponential bound (e / ((z - y) y))^((z - y) / y).

    Dominates Q*(z, y) for systems of total variance at most one whenever
    z > y > 0;
    returns 1 when z <= y or when the raw value exceeds 1.
    """
    if not y > 0:
        raise ValueError(f"y must be positive, got {y}")
    z = float(z)
    y = float(y)
    if z <= y:
        return 1.0
    t = z - y
    log_val = (t / y) * (1.0 - math.log(t * y))
    return 1.0 if log_val >= 0.0 else math.exp(log_val)


def q_exact(system: System, z: Number, y: Number, *, oracle: SystemOracle | None = None) -> Number:
    """Exact Q(z, y) by convolving the {X_j <= y}-restricted summands.

    For a single-summand system the leave-one-out sum is the empty sum, a
    unit mass at 0, so Q = 1{0 > z - y}.
    """
    oracle = oracle if oracle is not None else SystemOracle(system)
    return oracle.q(z, y)


def qstar_exact(
    system: System, z: Number, y: Number, *, oracle: SystemOracle | None = None
) -> Number:
    """Exact Q*(z, y) = max(Q(z, y), P(S > z, max_j X_j <= y))."""
    oracle = oracle if oracle is not None else SystemOracle(system)
    return oracle.qstar(z, y)


def _auto_y_candidates(z: Number, p: float, w: Number) -> list[Number]:
    """Candidate y grid: the scaled choice z / (1 + p/2) plus halvings of z.

    Falls back to {w} when z <= 0 leaves the grid empty (any positive y
    yields a valid bound).
    """
    if not z > 0:
        return [w]
    exact = isinstance(z, (Fraction, int))
    if exact and float(p).is_integer():
        denom = 1 + Fraction(int(p), 2)
        half = Fraction(1, 2)
    else:
        z = float(z)
        denom = 1.0 + p / 2.0
        half = 0.5
    candidates = [z / denom] + [z * half**j for j in range(1, 13)]
    seen: set = set()
    out = []
    for y in candidates:
        if y in seen:
            continue
        seen.add(y)
        out.append(y)
    return out


def p_bounds(
    system: System,
    z: Number,
    params: BoundParams = BoundParams(),
    mode: str = "winsorize",
    *,
    oracle: SystemOracle | None = None,
) -> BoundReport:
    """Evaluate Delta_w(z) and all five bounds at one z.

    P2/P3 are minimized over the y candidates when ``params.y`` is "auto".
    P4/P5 are reported as not-applicable (None) for z <= 0, where their
    derivation does not apply; with defaulted constants they are reported
    and flagged but excluded from ``best``.  The exact tail difference is
    included whenever the convolution oracle fits the atom budget.  A y
    whose restricted convolutions exceed it offers no P2 candidate, and its
    P3 candidate uses the Bennett-Hoeffding bound in place of Q* when the
    total variance is at most one (none otherwise), with a warning; P2/P3
    are None when no y yields a candidate, so ``best`` stays a proven bound.
    """
    if mode not in WINSOR_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {WINSOR_MODES}")
    oracle = oracle if oracle is not None else SystemOracle(system)
    warnings: list[str] = []

    w = params.w
    p1 = oracle.max_tail_at(w)
    sum_exc = oracle.sum_exceedance(w)

    try:
        delta_w = oracle.delta(z, w, mode)
    except ConvolutionCapError:
        delta_w = None
        warnings.append("tail-difference oracle skipped: convolution cap exceeded")

    y_candidates = _auto_y_candidates(z, params.p, w) if params.y == "auto" else [params.y]
    p2_cands: list[Number] = []
    p3_cands: list[Number] = []
    capped_ys = []
    for y in y_candidates:
        mt_y = oracle.max_tail_at(y)
        try:
            q, qstar = oracle.q(z, y), oracle.qstar(z, y)
        except ConvolutionCapError:
            capped_ys.append(y)
            continue
        p2_cands.append(mt_y + q * sum_exc)
        p3_cands.append(mt_y + 2 * qstar * p1)
    if capped_ys:
        # P2 has no convolution-free surrogate; Bennett-Hoeffding dominates
        # Q* only for total variance at most one
        if system.unit_variance or system.total_variance() <= 1:
            p3_cands += [oracle.max_tail_at(y) + 2 * bh_bound(z, y) * p1 for y in capped_ys]
            fallback = "Q* in P3 replaced by the Bennett-Hoeffding bound"
        else:
            fallback = "P2/P3 skipped (total variance above one, no Bennett-Hoeffding bound)"
        warnings.append(
            f"{fallback} at {len(capped_ys)} of {len(y_candidates)} y values: "
            "convolution cap exceeded"
        )
    p2 = min(p2_cands, default=None)
    p3 = min(p3_cands, default=None)

    # P4/P5 with defaulted constants are reported (flagged) but kept out of
    # `best`: an unsupplied constant must never silently tighten the bound
    in_best: list[Number] = [p for p in (p1, p2, p3) if p is not None]
    if z > 0:
        a4, a4_defaulted = params.constant("p4")
        a5, a5_defaulted = params.constant("p5")
        if a4_defaulted:
            warnings.append("constant 'p4' defaulted to 1")
        if a5_defaulted:
            warnings.append("constant 'p5' defaulted to 1")
        zf = float(z)
        denom = (params.c + zf) ** params.p
        p4 = float(oracle.max_tail_at(zf / (1.0 + params.p / 2.0))) + a4 / denom * float(p1)
        p5 = a5 * float(oracle.mu_p_at(params.p)) / denom
        if not a4_defaulted:
            in_best.append(p4)
        if not a5_defaulted:
            in_best.append(p5)
    else:
        p4 = None
        p5 = None

    best = min(in_best)
    theorem = theorem_bound(system, z, params, oracle=oracle)
    corollary = theorem + float(best)
    bik = bikelis_sum(system, z, params.v)
    return BoundReport(
        z=float(z),
        delta_w=delta_w,
        p1=p1,
        p2=p2,
        p3=p3,
        p4=p4,
        p5=p5,
        best=best,
        theorem_bound=theorem,
        corollary_bound=corollary,
        bikelis_sum=bik,
        winsor_mode=mode,
        warnings=tuple(warnings),
    )


def bikelis_sum(system: System, z: Number, v: Number = 1) -> Number:
    """sum_i E min(X_i^2 / (v(|z|+1))^2, |X_i|^3 / (v(|z|+1))^3).

    With v = 1 this is the classic z-damped moment sum; it equals beta_v of
    the system at scale v (1 + |z|), so z = 0, v = 1 recovers beta_1 exactly.
    """
    scale = v * (1 + abs(z))
    return beta_v(system, scale)


def theorem_bound(
    system: System,
    z: Number,
    params: BoundParams = BoundParams(),
    *,
    oracle: SystemOracle | None = None,
) -> float:
    """Structural normal-approximation bound A * beta_v * exp(-lambda z).

    The constant A is caller-supplied (``constants["theorem"]``, default 1);
    it is a claimed bound only up to that constant, which
    :func:`sumtails.verify.calibrate` estimates empirically.  Pass the
    system's ``oracle`` to reuse its cached beta_v across z.
    """
    a, _ = params.constant("theorem")
    beta = float(oracle.beta_v_at(params.v) if oracle is not None else beta_v(system, params.v))
    return a * beta * math.exp(-params.lam * float(z))


def corollary_bound(
    system: System,
    z: Number,
    params: BoundParams = BoundParams(),
    mode: str = "winsorize",
    *,
    oracle: SystemOracle | None = None,
) -> float:
    """Composite bound on |P(S > z) - P(Z > z)|: theorem term plus min(P1..P5)."""
    report = p_bounds(system, z, params, mode, oracle=oracle)
    return report.theorem_bound + float(report.best)


def normal_tail(z: Number) -> float:
    """P(Z > z) for a standard normal Z."""
    return norm_cdf(-float(z))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "z",
    "delta_w",
    "p1",
    "p2",
    "p3",
    "p4",
    "p5",
    "best",
    "theorem",
    "corollary",
    "bikelis",
)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_values(report: BoundReport) -> tuple:
    return (
        report.z,
        report.delta_w,
        report.p1,
        report.p2,
        report.p3,
        report.p4,
        report.p5,
        report.best,
        report.theorem_bound,
        report.corollary_bound,
        report.bikelis_sum,
    )


def bound_reports_to_csv(reports: Iterable[BoundReport], fh: IO[str]) -> None:
    """Write one CSV row per z; exact values are printed as num/den."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for report in reports:
        writer.writerow([_fmt(v) for v in _report_values(report)])


def bound_reports_to_json(reports: Iterable[BoundReport]) -> str:
    rows = []
    for report in reports:
        row = dict(zip(_CSV_COLUMNS, [_fmt(v) for v in _report_values(report)]))
        row["winsor_mode"] = report.winsor_mode
        if report.warnings:
            row["warnings"] = list(report.warnings)
        rows.append(row)
    return json.dumps(rows, indent=2, sort_keys=True)
