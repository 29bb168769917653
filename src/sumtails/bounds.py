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
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import IO, Iterable, Mapping, Sequence, Union

from .discrete import (
    CONVOLUTION_CAP,
    ConvolutionCapError,
    DiscreteRV,
    LatticeMeasure,
    Number,
    SubMeasure,
    System,
    _as_ratio,
    _convolve_two,
    capped_sum_rv,
    check_mode,
    degenerate,
    max_tail,
    restrict_at_most,
    to_lattice,
)
from .gauss import norm_cdf
from .scalars import beta_v, mu_p

#: names of the caller-supplied constants (each defaults to 1)
CONSTANT_NAMES = ("theorem", "p4", "p5", "bikelis")

#: a law the oracle caches: integer-lattice for exact systems, float otherwise
Law = Union[LatticeMeasure, SubMeasure, DiscreteRV]


#: argument types read as integer pairs, matched by exact type (see :func:`_key`)
_EXACT_TYPES = (Fraction, int)


def _key(x: object) -> object:
    """The memo key of a query argument, which hashes no ``Fraction``.

    It keys the y of the signature memo, the w of the capped-law memo and
    the grids and z of the sweep memo.  An exact value (``Fraction`` or
    ``int``) becomes its (numerator, denominator) pair and a float is its
    own key, so 3 and 3.0 never share an entry: a sweep at an exact z has
    exact scaled y candidates, one at a float z float ones.  The exact type
    test is used because ``isinstance`` against ``Fraction``, an
    abstract-base-class subclass, is slow for the floats that queries pass.
    """
    return (x.numerator, x.denominator) if type(x) in _EXACT_TYPES else x


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

    def check_float_range(self) -> None:
        """Raise ``ValueError`` if v or w is too large to be read as a float."""
        for name in ("v", "w"):
            if getattr(self, name) > sys.float_info.max:
                raise ValueError(f"parameter {name} must be at most {sys.float_info.max!r}")

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
    p3: Number | None
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
    tail query compares integers.  Delta, Q and Q* combine the laws' tails
    as integer pairs (:meth:`LatticeMeasure.tail_pair`) and build one
    ``Fraction`` per returned value.  Float systems are convolved as float
    sub-measures.

    The laws restricted to {X_i <= y} depend on y only through its
    *signature*, the number of atoms each summand keeps
    (``bisect_right(rv.values, y)`` per summand, taken on the integer
    lattice for an exact system), so they are cached by signature, and the
    signature of every y seen is remembered, keyed through :func:`_key` (an
    exact y as a pair of integers).  The max tail
    P(max_i X_i > y) = 1 - prod_i P(X_i <= y) depends on y through the same
    signature and is cached by it too.  The z-independent moment sums
    ``beta_v`` and ``mu_p`` are cached per argument.  A law past the atom
    budget is cached as its error (see :meth:`_memo`).  Q(z, y) and
    Q*(z, y) are computed together, uncached, by :meth:`concentration`,
    which :meth:`q` and :meth:`qstar` read and a subclass overrides to
    change both.  On an exact system the z-damped moment sum of
    :meth:`bikelis_at` and ``beta_v`` (its z = 0 case) come from one moment
    profile of the system's atoms, built on first use.  Cached laws are
    immutable apart from their suffix sums, built on the first query; the
    cache dictionaries are only grown, never mutated in place, and the
    profile and the lattice summands are assigned only once they are built,
    which keeps concurrent readers safe.

    ``_sweeps`` is the memo of :func:`sumtails.verify.verify_osipov`, which
    holds everything a sweep reads that does not depend on the capping
    mode, so the second mode of a sweep on one oracle asks no max tail, Q
    or Q* again.  It is keyed by the ``_key`` tuples of the sweep's y grid,
    p and w grid; an entry holds the per-w P1 and sum_i P(X_i > w) and a
    dictionary keyed by ``_key(z)`` whose values are the :func:`_y_terms`
    y values past the atom budget and, per w, the :func:`_p23_pairs` of
    each term next to the term.  :func:`p_bounds` does not use it.
    """

    def __init__(self, system: System, cap: int = CONVOLUTION_CAP):
        self.system = system
        self.cap = cap
        self._law_sum: dict[None, Law] = {}
        self._law_capped: dict[tuple[object, str], Law] = {}
        self._signatures: dict[object, tuple[int, ...]] = {}
        self._restricted: dict[tuple[int, ...], tuple[list[Law], Law]] = {}
        self._loo_capped: dict[tuple[Number, str], list[Law]] = {}
        self._max_tail: dict[tuple[int, ...], Number] = {}
        self._sum_exceedance: dict[Number, Number] = {}
        self._beta_v: dict[Number, Number] = {}
        self._mu_p: dict[Number, Number] = {}
        self._sweeps: dict[tuple, tuple[list, dict]] = {}
        self._profile: tuple | None = None
        self._lattice: list[LatticeMeasure] | None = None

    # -- laws ---------------------------------------------------------------

    @staticmethod
    def _memo(cache: dict, key: object, build, *args):
        """``cache[key]``, built as ``build(*args)`` on the first call.

        A build that exceeds the atom budget stores its error, and every
        later call raises a fresh :class:`ConvolutionCapError` with the
        same message.
        """
        entry = cache.get(key)
        if entry is None:
            try:
                entry = build(*args)
            except ConvolutionCapError as exc:
                entry = exc
            cache[key] = entry
        if isinstance(entry, ConvolutionCapError):
            raise ConvolutionCapError(*entry.args)
        return entry

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

    def _capped(self, combine, w: Number, mode: str):
        """``combine`` applied to the summands capped at level w."""
        return combine(self._laws([capped_sum_rv(rv, w, mode) for rv in self.system.rvs]))

    def _raw_sum(self) -> Law:
        return self._chain(self._laws(self.system.rvs))

    def law_sum(self) -> Law:
        """Exact law of the raw sum S."""
        return self._memo(self._law_sum, None, self._raw_sum)

    def law_capped(self, w: Number, mode: str) -> Law:
        """Exact law of the capped sum S_bar at level w, cached by ``(_key(w), mode)``."""
        return self._memo(self._law_capped, (_key(w), mode), self._capped, self._chain, w, mode)

    def _lattice_rvs(self) -> list[LatticeMeasure]:
        """The exact system's summands on their common integer lattice, built once."""
        lattice = self._lattice
        if lattice is None:
            lattice = self._lattice = to_lattice(self.system.rvs)
        return lattice

    def signature(self, y: Number) -> tuple[int, ...]:
        """Atoms each summand keeps under the restriction to {X_i <= y}.

        On an exact system a finite y is read exactly as ``floor(y * scale)``
        and bisects the integer lattice values, which compares no
        ``Fraction`` with y; x = a / scale <= y holds exactly when a <= that
        floor.  A NaN y is a ``ValueError``: the restriction to {X_i <= NaN}
        keeps no atom, while the max tail reads P(X_i <= NaN) as
        1 - P(X_i > NaN) = 1, so no signature could key both caches.
        """
        key = _key(y)
        sig = self._signatures.get(key)
        if sig is None:
            if y != y:
                raise ValueError("y must not be NaN")
            ratio = _as_ratio(y) if self.system.exact else None
            if ratio is None:
                sig = tuple(bisect_right(rv.values, y) for rv in self.system.rvs)
            else:
                lattice = self._lattice_rvs()
                cut = ratio[0] * lattice[0].scale // ratio[1]
                sig = tuple(bisect_right(m.values, cut) for m in lattice)
            self._signatures[key] = sig
        return sig

    def _restrict(self, y: Number) -> tuple[list[Law], Law]:
        parts = self._laws([restrict_at_most(rv, y) for rv in self.system.rvs])
        loo = self._leave_one_out(parts)
        full = self._chain([loo[-1], parts[-1]]) if len(parts) > 1 else parts[0]
        return loo, full

    def restricted(self, y: Number) -> tuple[list[Law], Law]:
        """Leave-one-out and full convolutions of the summands restricted to {X <= y}."""
        return self._memo(self._restricted, self.signature(y), self._restrict, y)

    def loo_capped(self, w: Number, mode: str) -> list[Law]:
        """Laws of S_bar - X_bar_i (leave-one-out capped sums)."""
        return self._memo(self._loo_capped, (w, mode), self._capped, self._leave_one_out, w, mode)

    # -- scalar queries -----------------------------------------------------

    def max_tail_at(self, t: Number) -> Number:
        """P(max_i X_i > t), cached by the signature of t."""
        sig = self.signature(t)
        value = self._max_tail.get(sig)
        if value is None:
            value = self._max_tail[sig] = max_tail(self.system, t)
        return value

    def sum_exceedance(self, w: Number) -> Number:
        """sum_i P(X_i > w)."""
        value = self._sum_exceedance.get(w)
        if value is None:
            zero = Fraction(0) if self.system.exact else 0.0
            value = sum((rv.tail(w) for rv in self.system.rvs), zero)
            self._sum_exceedance[w] = value
        return value

    def beta_v_at(self, v: Number) -> Number:
        """beta_v of the system at scale v (independent of z, so computed once per v).

        An exact system reads it from the moment profile as
        ``bikelis_at(0, v)``; a float system sums :func:`beta_v`.
        """
        value = self._beta_v.get(v)
        if value is None:
            exact = self.system.exact
            value = self._beta_v[v] = self.bikelis_at(0, v) if exact else beta_v(self.system, v)
        return value

    def mu_p_at(self, p: Number) -> Number:
        """mu_p = sum_i E |X_i|^p (independent of z, so computed once per p)."""
        value = self._mu_p.get(p)
        if value is None:
            value = self._mu_p[p] = mu_p(self.system, p)
        return value

    def _moment_profile(self) -> tuple:
        """The exact system's atoms as integers, sorted by |x|, with moment sums.

        Every |x| is ``a / xden`` and every mass ``m / pden`` over common
        denominators.  Returns ``(a values, cubes, squares, xden, pden)``
        where ``cubes[k]`` sums m a^3 over the first k atoms and
        ``squares[k]`` sums m a^2 over the rest.
        """
        profile = self._profile
        if profile is None:
            atoms = [(abs(x), p) for rv in self.system.rvs for x, p in zip(rv.values, rv.masses)]
            xden = math.lcm(*(x.denominator for x, _ in atoms))
            pden = math.lcm(*(p.denominator for _, p in atoms))
            ints = sorted(
                (x.numerator * (xden // x.denominator), p.numerator * (pden // p.denominator))
                for x, p in atoms
            )
            cubes = list(accumulate((m * a**3 for a, m in ints), initial=0))
            squares = list(accumulate((m * a * a for a, m in reversed(ints)), initial=0))[::-1]
            profile = ([a for a, _ in ints], cubes, squares, xden, pden)
            self._profile = profile  # assigned whole, so a reader never sees a partial one
        return profile

    def bikelis_at(self, z: Number, v: Number) -> Number:
        """:func:`bikelis_sum` of the system, from the moment profile when exact.

        At the scale s = v (1 + |z|) an atom contributes p |x|^3 / s^3 when
        |x| <= s and p x^2 / s^2 otherwise, so the sum is (A s + B) / s^3
        with A the p x^2 sum above s and B the p |x|^3 sum up to s: one
        bisection and a few integer products.  ``Fraction`` values are
        canonical, so the result equals :func:`bikelis_sum`'s.  Float
        systems and scales that are not finite and positive call
        :func:`bikelis_sum`.
        """
        scale = v * (1 + abs(z))
        ratio = _as_ratio(scale) if self.system.exact else None
        if ratio is None or ratio[0] <= 0:
            return bikelis_sum(self.system, z, v)
        sn, sd = ratio
        values, cubes, squares, xden, pden = self._moment_profile()
        # |x| = a / xden <= sn / sd  <=>  a <= floor(sn * xden / sd)
        k = bisect_right(values, sn * xden // sd)
        # A = squares[k] / (pden xden^2), B = cubes[k] / (pden xden^3), s = sn / sd
        return Fraction(
            squares[k] * xden * sn * sd * sd + cubes[k] * sd**3, pden * xden**3 * sn**3
        )

    def delta(self, z: Number, w: Number, mode: str) -> Number:
        """Delta_w(z) = P(S > z) - P(S_bar > z), exact in exact mode.

        On an exact system a finite z is read exactly as an integer pair,
        and the two tails are subtracted as integer pairs into one
        ``Fraction``.
        """
        raw, capped = self.law_sum(), self.law_capped(w, mode)
        ratio = _as_ratio(z) if self.system.exact else None
        if ratio is None:
            return raw.tail(z) - capped.tail(z)
        a, da = raw.tail_pair(*ratio)
        b, db = capped.tail_pair(*ratio)
        return Fraction(a * db - b * da, da * db)

    def concentration(self, z: Number, y: Number) -> tuple[Number, Number]:
        """(Q(z, y), Q*(z, y)) from one pass over the leave-one-out tails.

        On an exact system the threshold z - y is an unreduced integer pair:
        computed from the pairs of z and y when both are exact (``Fraction``
        or ``int``), and read exactly from the float z - y otherwise, whose
        rounding decides which atoms lie above it.  Each law answers with an
        integer pair, the largest is picked by cross-multiplication, and
        only Q and Q* become ``Fraction``s.
        """
        loo, full = self.restricted(y)
        if self.system.exact:
            if type(z) in _EXACT_TYPES and type(y) in _EXACT_TYPES:
                zn, zd, yn, yd = z.numerator, z.denominator, y.numerator, y.denominator
                threshold, at_z = (zn * yd - yn * zd, zd * yd), (zn, zd)
            else:
                threshold, at_z = _as_ratio(z - y), _as_ratio(z)
            if threshold is not None and at_z is not None:
                # the first largest tail wins, as in max(); masses are >= 0
                top, qn, qd = None, -1, 1
                for m in loo:
                    n, d = m.tail_pair(*threshold)
                    if n * qd > qn * d:
                        top, qn, qd = m, n, d
                q = top.fraction(qn)
                fn, fd = full.tail_pair(*at_z)
                return q, (full.fraction(fn) if fn * qd > qn * fd else q)
        t = z - y
        q = max(m.tail(t) for m in loo)
        return q, max(q, full.tail(z))

    def q(self, z: Number, y: Number) -> Number:
        """Q(z, y) = max_i P(S - X_i > z - y, max_{j != i} X_j <= y).

        For a single-summand system the leave-one-out sum is the empty sum, a
        unit mass at 0, so Q = 1{0 > z - y}.
        """
        return self.concentration(z, y)[0]

    def qstar(self, z: Number, y: Number) -> Number:
        """Q*(z, y) = max(Q(z, y), P(S > z, max_j X_j <= y))."""
        return self.concentration(z, y)[1]


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


def scaled_y(z: Number, p: Number) -> Number:
    """The scaled choice y = z / (1 + p/2) of P2..P4.

    Exact for an exact ``z`` and an integer ``p``, float otherwise.
    """
    if isinstance(z, (Fraction, int)) and float(p).is_integer():
        return Fraction(2 * z.numerator, z.denominator * (2 + int(p)))  # z / (1 + p/2)
    return float(z) / (1.0 + float(p) / 2.0)


def _auto_y_candidates(z: Number, p: float, w: Number) -> list[Number]:
    """Candidate y grid: the scaled choice z / (1 + p/2) plus halvings of z.

    The halvings are exact when the scaled choice is.  Falls back to {w}
    when z <= 0 leaves the grid empty (any positive y yields a valid bound).
    """
    if not z > 0:
        return [w]
    first = scaled_y(z, p)
    if isinstance(first, float):
        z = float(z)
        halvings = [z * 0.5**j for j in range(1, 13)]
    else:
        halvings = [Fraction(z.numerator, z.denominator << j) for j in range(1, 13)]
    return list(dict.fromkeys([first, *halvings]))


def _parts(x: Number) -> tuple[Number, Number]:
    """``x`` as (numerator, denominator): integers when exact, (x, 1.0) for a float."""
    if isinstance(x, float):
        return x, 1.0
    return x.numerator, x.denominator


def _y_terms(oracle: SystemOracle, z: Number, ys: Iterable[Number]) -> tuple[list, list]:
    """The y terms of P2 and P3 at z, and the y values past the atom budget.

    A term is (y, max tail, Q, Q*) followed by the :func:`_parts` numerator
    and denominator of the max tail, of Q and of 2 Q*, flat.  Each y asks
    the oracle for its max tail, then for its concentration pair.
    """
    terms: list[tuple] = []
    capped: list[Number] = []
    for y in ys:
        mt_y = oracle.max_tail_at(y)
        try:
            q, qstar = oracle.concentration(z, y)
        except ConvolutionCapError:
            capped.append(y)
            continue
        qstar_n, qstar_d = _parts(qstar)
        terms.append((y, mt_y, q, qstar, *_parts(mt_y), *_parts(q), 2 * qstar_n, qstar_d))
    return terms, capped


def _p23_pairs(term: tuple, exc: tuple, p1: tuple) -> tuple[Number, Number, Number, Number]:
    """P2 and P3 of a :func:`_y_terms` term as unreduced fractions: (n2, d2, n3, d3).

    ``exc`` and ``p1`` are the :func:`_parts` pairs of sum_i P(X_i > w) and
    of P1.  Exact values give integers, with no gcd; a float numerator is
    the float expression of :func:`_p23_values`, over 1.0.  Denominators are
    positive, so cross-multiplying two fractions keeps their order.
    """
    _, _, _, _, mn, md, qn, qd, sn, sd = term
    (en, ed), (pn, pd) = exc, p1
    return (
        mn * qd * ed + qn * en * md, md * qd * ed,  # P2
        mn * sd * pd + sn * pn * md, md * sd * pd,  # P3
    )


def _p23_values(t2: tuple, t3: tuple, sum_exc: Number, p1: Number) -> tuple[Number, Number]:
    """P2 at the y of term ``t2`` and P3 at the y of term ``t3``, as numbers."""
    return t2[1] + t2[2] * sum_exc, t3[1] + 2 * t3[3] * p1


def _least(least: tuple | None, n: Number, d: Number, term: tuple) -> tuple:
    """``(n, d, term)`` if n / d is below ``least``'s fraction; a tie keeps ``least``."""
    if least is None or n * least[1] < least[0] * d:
        return n, d, term
    return least


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
    check_mode(mode)
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
    terms, capped_ys = _y_terms(oracle, z, y_candidates)
    exc_parts, p1_parts = _parts(sum_exc), _parts(p1)
    # the least P2 and P3 candidates so far: (numerator, denominator, term)
    least2 = least3 = None
    for term in terms:
        n2, d2, n3, d3 = _p23_pairs(term, exc_parts, p1_parts)
        least2 = _least(least2, n2, d2, term)
        least3 = _least(least3, n3, d3, term)
    # each bound is built once, from the term it was ranked by
    p2, p3 = _p23_values(least2[2], least3[2], sum_exc, p1) if terms else (None, None)
    p3_cands: list[Number] = [] if p3 is None else [p3]
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
        p4 = float(oracle.max_tail_at(scaled_y(zf, params.p))) + a4 / denom * float(p1)
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
    bik = oracle.bikelis_at(z, params.v)
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


def write_csv(fh: IO[str], header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a header line and one line per row, each cell formatted by ``_fmt``.

    None is an empty cell, a ``Fraction`` is num/den and a float is its
    ``repr``; lines end in a bare newline.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def bound_reports_to_csv(reports: Iterable[BoundReport], fh: IO[str]) -> None:
    """Write one CSV row per z; exact values are printed as num/den."""
    write_csv(fh, _CSV_COLUMNS, map(_report_values, reports))


def bound_reports_to_json(reports: Iterable[BoundReport]) -> str:
    rows = []
    for report in reports:
        row = dict(zip(_CSV_COLUMNS, [_fmt(v) for v in _report_values(report)]))
        row["winsor_mode"] = report.winsor_mode
        if report.warnings:
            row["warnings"] = list(report.warnings)
        rows.append(row)
    return json.dumps(rows, indent=2, sort_keys=True)
