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
from functools import cached_property
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
CONSTANT_NAMES = ("theorem", "p4", "p5")

#: a law the oracle caches: integer-lattice for exact systems, float otherwise
Law = Union[LatticeMeasure, SubMeasure, DiscreteRV]


#: argument types read as integer pairs, matched by exact type (see :func:`_key`)
_EXACT_TYPES = (Fraction, int)


def _key(x: object) -> object:
    """The memo key of a query argument, which hashes no ``Fraction``.

    It keys the w of the capped-law memos, the sweep grids and the y of a
    :func:`_pairs_by_y` row.  An exact value (``Fraction`` or ``int``)
    becomes its (numerator, denominator) pair and a float is its own key,
    so 3 and 3.0 never share an entry: a sweep at an exact z has exact
    scaled y candidates, one at a float z float ones.  The exact type test
    is used because ``isinstance`` against ``Fraction``, an
    abstract-base-class subclass, is slow for the floats that queries pass.
    """
    return (x.numerator, x.denominator) if type(x) in _EXACT_TYPES else x


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the bound family plus caller-supplied constants.

    ``y`` may be a positive number or ``"auto"``, in which case P2/P3 are
    minimized over the candidate grid {z / (1 + p/2)} union {z 2^-j : j <=
    12}.  The minimum is taken exactly over the least y of each restriction
    class of the grid (see :func:`p_bounds`).  The structural constants of
    the inexplicit bounds (theorem, P4 and P5) live in ``constants`` under
    the keys in :data:`CONSTANT_NAMES`.  Every number must be finite and
    positive.
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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"parameter {name} must be finite and positive, got {getattr(self, name)}"
                )
        if self.y != "auto" and not 0 < self.y < math.inf:
            raise ValueError(f"parameter y must be finite and positive or 'auto', got {self.y}")
        for name, value in self.constants.items():
            if name not in CONSTANT_NAMES:
                raise ValueError(f"unknown constant {name!r}; expected one of {CONSTANT_NAMES}")
            if not 0 < value < math.inf:
                raise ValueError(f"constant {name!r} must be finite and positive, got {value}")

    def check_float_range(self) -> None:
        """Raise ``ValueError`` if v or w is too large or too small to be read as a float.

        Too small is positive but read as 0.0, below half the least
        subnormal float.
        """
        for name in ("v", "w"):
            value = getattr(self, name)
            if value > sys.float_info.max:
                raise ValueError(f"parameter {name} must be at most {sys.float_info.max!r}")
            if float(value) == 0.0:
                raise ValueError(f"parameter {name} is positive but rounds to 0.0 as a float")

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
    tail query compares integers.  Delta, Q and Q* are answered a row of z
    values at a time (:meth:`delta_row`, :meth:`concentration_row`): a row
    looks its laws up once, reads each tail as a mass numerator
    (:meth:`LatticeMeasure.tail_numerator`), combines them as integers, and
    builds at most one ``Fraction`` per returned value.  :meth:`delta`,
    :meth:`concentration`, :meth:`q` and :meth:`qstar` are rows of one, so
    a subclass overrides :meth:`delta_row` to change Delta and
    :meth:`concentration_row` to change Q and Q*, which must be
    nonnegative: the sweep decides a cell with Delta at most
    P(max_i X_i > y) without asking Q or Q*, as P2 and P3 are at least
    that max tail (:func:`_pairs_by_y`).  The restricted and
    capped summands are built from the lattice summands in integers, once
    per summand per build through
    :func:`~sumtails.discrete.restrict_at_most` and
    :func:`~sumtails.discrete.capped_sum_rv`.  Float systems are convolved
    as float sub-measures.

    The laws restricted to {X_i <= y}, and the max tail P(max_i X_i > y) =
    1 - prod_i P(X_i <= y), depend on y only through which atoms each
    summand keeps: the *restriction class* of y, which :meth:`signature`
    names by one integer.  Six caches, grown and never mutated in place,
    hold what a workload asks again:

    - ``_law_sum`` (S): every Delta row and every cap that moves no atom;
    - ``_law_capped`` (S_bar) and ``_loo_capped``, by ``(_key(w), mode)``:
      a caller that reads one (w, mode) in several rows or cells;
    - ``_restricted`` and ``_max_tail``, by the signature: the many y
      values per class of a table or a sweep, P1 and the P4 scaled y;
    - ``_sweeps``: per grid, what :func:`sumtails.verify.verify_osipov`
      asks (P1 per w, the Delta rows of every mode, which the first sweep
      asks whatever its own mode, and the per-z ``(y, pairs)`` rows of
      :func:`_pairs_by_y`), so a sweep of the other mode asks nothing.

    A build past the atom budget is cached as its error (:meth:`_memo`).
    The lattice summands, the atom values and the moment profile are cached
    properties; laws are immutable apart from their suffix sums.  sum_i
    P(X_i > w), beta_v and mu_p are computed on each call: a table, a
    sweep or a calibrated system asks each at most once (per w).
    """

    def __init__(self, system: System, cap: int = CONVOLUTION_CAP):
        self.system = system
        self.cap = cap
        self._law_sum: dict[None, Law] = {}
        self._law_capped: dict[tuple[object, str], Law] = {}
        self._restricted: dict[int, tuple[list[Law], Law]] = {}
        self._loo_capped: dict[tuple[object, str], list[Law]] = {}
        self._max_tail: dict[int, Number] = {}
        self._sweeps: dict[tuple, tuple[list, dict, list]] = {}

    # -- laws ---------------------------------------------------------------

    @staticmethod
    def _memo(cache: dict, key: object, build, *args):
        """``cache[key]``, built as ``build(*args)`` on the first call.

        It holds the laws; the max tail, asked at every y, stays inline.  A
        build that exceeds the atom budget stores its error, and every
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

    def _summands(self) -> Sequence[Law]:
        """The summands in the form the convolution kernel takes."""
        return self._lattice_rvs if self.system.exact else self.system.rvs

    def _capped_parts(self, w: Number, mode: str) -> list[Law]:
        """The summands capped at level w, on one lattice for an exact system."""
        parts = [capped_sum_rv(m, w, mode) for m in self._summands()]
        if self.system.exact:
            # a winsorized summand whose atoms moved to a w off the lattice
            # is on a finer scale than one whose atoms all lie at or below w
            scale = max(m.scale for m in parts)
            parts = [m.at_scale(scale) for m in parts]
        return parts

    def _capped_sum(self, w: Number, mode: str) -> Law:
        parts = self._capped_parts(w, mode)
        if all(m is rv for m, rv in zip(parts, self._summands())):
            return self.law_sum()  # the cap moves no atom
        return self._chain(parts)

    def _raw_sum(self) -> Law:
        return self._chain(self._summands())

    def law_sum(self) -> Law:
        """Exact law of the raw sum S."""
        return self._memo(self._law_sum, None, self._raw_sum)

    def law_capped(self, w: Number, mode: str) -> Law:
        """Exact law of the capped sum S_bar at level w, cached by ``(_key(w), mode)``.

        A cap that moves no atom of any summand gives :meth:`law_sum` itself.
        """
        return self._memo(self._law_capped, (_key(w), mode), self._capped_sum, w, mode)

    @cached_property
    def _lattice_rvs(self) -> list[LatticeMeasure]:
        """The exact system's summands on their common integer lattice.

        Each distinct summand (see :meth:`System.distinct_rvs`) is converted
        once, and equal summands share its ``LatticeMeasure``.
        """
        laws, index = self.system.distinct_rvs()
        converted = to_lattice(laws)
        return [converted[j] for j in index]

    @cached_property
    def _atom_values(self) -> list:
        """The distinct atom values of the system, sorted: lattice integers when exact."""
        return sorted({x for rv in self._summands() for x in rv.values})

    def signature(self, y: Number) -> int:
        """The restriction class of y: how many distinct atom values are at most y.

        Two y values keep the same atoms of every summand under {X_i <= y}
        exactly when their counts are equal.  On an exact system a finite y
        is read as ``cut = floor(y * scale)`` and bisects the lattice
        integers, as x = a / scale <= y exactly when a <= cut; otherwise y
        itself bisects the values, compared exactly.  A NaN y is a
        ``ValueError``: {X_i <= NaN} keeps no atom, while the max tail reads
        P(X_i <= NaN) as 1 - P(X_i > NaN) = 1, so no class fits both caches.
        """
        ratio = _as_ratio(y) if self.system.exact else None
        if ratio is not None:
            y = ratio[0] * self._lattice_rvs[0].scale // ratio[1]
        elif y != y:
            raise ValueError("y must not be NaN")
        return bisect_right(self._atom_values, y)

    def _restrict(self, y: Number) -> tuple[list[Law], Law]:
        parts = [restrict_at_most(m, y) for m in self._summands()]
        loo = self._leave_one_out(parts)
        full = self._chain([loo[-1], parts[-1]]) if len(parts) > 1 else parts[0]
        return loo, full

    def restricted(self, y: Number) -> tuple[list[Law], Law]:
        """Leave-one-out and full convolutions of the summands restricted to {X <= y}."""
        return self._memo(self._restricted, self.signature(y), self._restrict, y)

    def loo_capped(self, w: Number, mode: str) -> list[Law]:
        """Laws of S_bar - X_bar_i (leave-one-out capped sums)."""
        return self._memo(self._loo_capped, (_key(w), mode), self._capped_loo, w, mode)

    def _capped_loo(self, w: Number, mode: str) -> list[Law]:
        return self._leave_one_out(self._capped_parts(w, mode))

    # -- scalar queries -----------------------------------------------------

    def max_tail_at(self, t: Number) -> Number:
        """P(max_i X_i > t), cached by the signature of t.

        On an exact system a finite t is read from the lattice summands:
        P(max_i X_i <= t) is the product of (den_i - a_i) over the product
        of den_i, with a_i the numerator of P(X_i > t), so a new signature
        builds one ``Fraction``.  A float system, or an infinite t, multiplies
        the summands' own reads through :func:`~sumtails.discrete.max_tail`.
        """
        sig = self.signature(t)
        value = self._max_tail.get(sig)
        if value is None:
            ratio = _as_ratio(t) if self.system.exact else None
            if ratio is None:
                value = max_tail(self.system, t)
            else:
                kept = total = 1
                for m in self._lattice_rvs:
                    kept *= m.den - m.tail_numerator(*ratio)
                    total *= m.den
                value = Fraction(total - kept, total)
            self._max_tail[sig] = value
        return value

    def sum_exceedance(self, w: Number) -> Number:
        """sum_i P(X_i > w), computed on each call (a table or a sweep asks it once per w)."""
        zero = Fraction(0) if self.system.exact else 0.0
        return sum((rv.tail(w) for rv in self.system.rvs), zero)

    def beta_v_at(self, v: Number) -> Number:
        """beta_v of the system at scale v, ``bikelis_at(0, v)``.

        It does not depend on z, so a table or a calibrated system asks it
        once; on an exact system it is read from the moment profile.
        """
        return self.bikelis_at(0, v)

    def mu_p_at(self, p: Number) -> Number:
        """mu_p = sum_i E |X_i|^p; it does not depend on z, so a table asks it once."""
        return mu_p(self.system, p)

    @cached_property
    def _moment_profile(self) -> tuple:
        """The exact system's atoms as integers, sorted by |x|, with moment sums.

        Every |x| is ``a / xden`` and every mass ``m / pden`` over common
        denominators.  Returns ``(a values, cubes, squares, xden, pden)``
        where ``cubes[k]`` sums m a^3 over the first k atoms and
        ``squares[k]`` sums m a^2 over the rest.
        """
        atoms = [(abs(x), p) for rv in self.system.rvs for x, p in zip(rv.values, rv.masses)]
        xden = math.lcm(*(x.denominator for x, _ in atoms))
        pden = math.lcm(*(p.denominator for _, p in atoms))
        ints = sorted(
            (x.numerator * (xden // x.denominator), p.numerator * (pden // p.denominator))
            for x, p in atoms
        )
        cubes = list(accumulate((m * a**3 for a, m in ints), initial=0))
        squares = list(accumulate((m * a * a for a, m in reversed(ints)), initial=0))[::-1]
        return [a for a, _ in ints], cubes, squares, xden, pden

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
        if not self.system.exact:
            return bikelis_sum(self.system, z, v)
        if type(z) in _EXACT_TYPES and type(v) in _EXACT_TYPES:
            # s = v (1 + |z|) as an unreduced integer pair
            zn, zd = z.numerator, z.denominator
            sn, sd = v.numerator * (zd + abs(zn)), v.denominator * zd
        else:
            ratio = _as_ratio(v * (1 + abs(z)))
            if ratio is None:
                return bikelis_sum(self.system, z, v)
            sn, sd = ratio
        if sn <= 0:
            return bikelis_sum(self.system, z, v)
        values, cubes, squares, xden, pden = self._moment_profile
        # |x| = a / xden <= sn / sd  <=>  a <= floor(sn * xden / sd)
        k = bisect_right(values, sn * xden // sd)
        # A = squares[k] / (pden xden^2), B = cubes[k] / (pden xden^3), s = sn / sd
        return Fraction(
            squares[k] * xden * sn * sd * sd + cubes[k] * sd**3, pden * xden**3 * sn**3
        )

    def delta_row(self, zs: Sequence[Number], w: Number, mode: str) -> list[Number]:
        """Delta_w(z) = P(S > z) - P(S_bar > z) at each z of ``zs``, exact in exact mode.

        The raw and the capped law are looked up once per call.  On an
        exact system a finite z is read exactly as an integer pair, and the
        two tails are subtracted as mass numerators: capping keeps each
        summand's mass denominator, so the capped law has the raw law's
        ``den``, and the difference becomes a ``Fraction`` through
        :meth:`LatticeMeasure.fraction`, once per numerator.  An infinite or
        NaN z asks the laws' own tail queries, as every z of a float system
        does.

        This is the one method a subclass overrides to change Delta:
        :meth:`delta` is its row of one.  An override may raise
        ``ConvolutionCapError`` only as a function of (w, mode), as
        :meth:`law_capped` does, so a sweep that asks one row per (w, mode)
        skips the same cells as one that asks cell by cell.  The first
        :func:`sumtails.verify.verify_osipov` call on an oracle asks the
        rows of every mode, whatever its own.
        """
        raw, capped = self.law_sum(), self.law_capped(w, mode)
        if not self.system.exact:
            return [raw.tail(z) - capped.tail(z) for z in zs]
        out = []
        for z in zs:
            ratio = _as_ratio(z)
            if ratio is None:
                out.append(raw.tail(z) - capped.tail(z))
            else:
                diff = raw.tail_numerator(*ratio) - capped.tail_numerator(*ratio)
                out.append(raw.fraction(diff))
        return out

    def delta(self, z: Number, w: Number, mode: str) -> Number:
        """Delta_w(z) = P(S > z) - P(S_bar > z), the row of one of :meth:`delta_row`."""
        return self.delta_row((z,), w, mode)[0]

    def concentration_row(self, zs: Sequence[Number], y: Number) -> list[tuple[Number, Number]]:
        """(Q(z, y), Q*(z, y)) at each z of ``zs``, from one pass over the leave-one-out tails.

        The restricted laws of y are looked up once per call.  On an exact
        system the threshold z - y is an unreduced integer pair: computed
        from the pairs of z and y when both are exact (``Fraction`` or
        ``int``), and read exactly from the float z - y otherwise, whose
        rounding decides which atoms lie above it.  Each law answers with a
        mass numerator, the largest tail is picked by cross-multiplication,
        and only Q and Q* become ``Fraction``s.  A threshold no integer pair
        reads (an infinite or NaN float) asks the laws' own tail queries, as
        every z of a float system does.

        This is the one method a subclass overrides to change Q and Q*:
        :meth:`concentration`, :meth:`q` and :meth:`qstar` read its row of
        one.  An override must return Q, Q* >= 0, as
        :func:`sumtails.verify.verify_osipov` relies on P2, P3 >=
        P(max_i X_i > y) and asks this row only at the z where some Delta,
        of any w and mode, exceeds that max tail, possibly at none (its
        first call on an oracle asks the Delta rows of every mode).  It
        must keep both nonincreasing as y falls within one restriction
        class, as the true ones are (the restricted laws are fixed and the
        threshold z - y rises), and may raise ``ConvolutionCapError`` only
        as a function of ``signature(y)``, as :meth:`restricted` does, even
        for an empty ``zs``: an auto-y :func:`p_bounds` asks only the least
        y of each restriction class, and a cap there sends the whole class
        to the fallback; a sweep that asks one row per y skips the same
        cells as one that asks cell by cell.
        """
        loo, full = self.restricted(y)
        if not self.system.exact:
            return [_tail_concentration(loo, full, z, y) for z in zs]
        exact_y = type(y) in _EXACT_TYPES
        if exact_y:
            yn, yd = y.numerator, y.denominator
        f_den = full.den
        out = []
        for z in zs:
            if exact_y and type(z) in _EXACT_TYPES:
                zn, zd = z.numerator, z.denominator
                tn, td = zn * yd - yn * zd, zd * yd
            else:
                threshold, at_z = _as_ratio(z - y), _as_ratio(z)
                if threshold is None or at_z is None:
                    out.append(_tail_concentration(loo, full, z, y))
                    continue
                (tn, td), (zn, zd) = threshold, at_z
            # the first largest tail wins, as in max(); masses are >= 0
            top, qn, qd = None, -1, 1
            for m in loo:
                n = m.tail_numerator(tn, td)
                if n * qd > qn * m.den:
                    top, qn, qd = m, n, m.den
            q = top.fraction(qn)
            fn = full.tail_numerator(zn, zd)
            out.append((q, full.fraction(fn) if fn * qd > qn * f_den else q))
        return out

    def concentration(self, z: Number, y: Number) -> tuple[Number, Number]:
        """(Q(z, y), Q*(z, y)), the row of one of :meth:`concentration_row`."""
        return self.concentration_row((z,), y)[0]

    def q(self, z: Number, y: Number) -> Number:
        """Q(z, y) = max_i P(S - X_i > z - y, max_{j != i} X_j <= y).

        For a single-summand system the leave-one-out sum is the empty sum, a
        unit mass at 0, so Q = 1{0 > z - y}.
        """
        return self.concentration(z, y)[0]

    def qstar(self, z: Number, y: Number) -> Number:
        """Q*(z, y) = max(Q(z, y), P(S > z, max_j X_j <= y))."""
        return self.concentration(z, y)[1]


def _tail_concentration(loo: Sequence[Law], full: Law, z: Number, y: Number) -> tuple:
    """(Q(z, y), Q*(z, y)) from the laws' own tail queries."""
    q = max(m.tail(z - y) for m in loo)
    return q, max(q, full.tail(z))


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


def _scaled_pair(z: Number, p: Number) -> tuple[int, int] | None:
    """z / (1 + p/2) as an integer pair (num, den) for an exact z and an integer p, else None."""
    if isinstance(z, (Fraction, int)) and float(p).is_integer():
        return 2 * z.numerator, z.denominator * (2 + int(p))
    return None


def scaled_y(z: Number, p: Number) -> Number:
    """The scaled choice y = z / (1 + p/2) of P2..P4.

    Exact for an exact ``z`` and an integer ``p``, float otherwise.
    """
    pair = _scaled_pair(z, p)
    if pair is None:
        return float(z) / (1.0 + float(p) / 2.0)
    return Fraction(*pair)


def _exact_y_grid(z: Number, p: Number) -> tuple | None:
    """The y grid of an exact z > 0 and an integer p as integers; else None.

    Returns ``(first, zn, zd, js)``: the scaled choice as an integer pair
    (num, den), then the halvings z 2^-j = zn / (zd 2^j) for each j of
    ``js``, which runs over 1..12 but the one whose halving equals the
    scaled choice, where 2^(j+1) = 2 + p.
    """
    first = _scaled_pair(z, p)
    if first is None or first[0] <= 0:  # first[0] has the sign of z
        return None
    two_p = 2 + int(p)
    return first, z.numerator, z.denominator, [j for j in range(1, 13) if 2 << j != two_p]


def _auto_y_candidates(z: Number, p: float, w: Number) -> list[Number]:
    """Candidate y grid: the scaled choice z / (1 + p/2) plus halvings of z.

    The halvings are exact when the scaled choice is.  Falls back to {w}
    when z <= 0 leaves the grid empty (any positive y yields a valid bound).
    """
    if not z > 0:
        return [w]
    grid = _exact_y_grid(z, p)
    if grid is not None:
        first, zn, zd, js = grid
        return [Fraction(*first), *(Fraction(zn, zd << j) for j in js)]
    first, z = scaled_y(z, p), float(z)
    return list(dict.fromkeys([first, *(z * 0.5**j for j in range(1, 13))]))


def _y_classes(oracle: SystemOracle, z: Number, p: float, w: Number) -> dict[int, Number]:
    """The least y of each restriction class of the candidates of :func:`_auto_y_candidates`.

    Keyed by :meth:`SystemOracle.signature`, in order of first appearance.
    On an exact system, where :func:`_exact_y_grid` gives the grid, a
    candidate stays an integer pair (num, den) that bisects the atom values
    with its cut ``floor(y * scale)``, and only the least y of a class
    becomes a ``Fraction``.  The cut of the halving z 2^-j is that of z
    shifted right by j, as floor(floor(x) / 2^j) = floor(x / 2^j).
    """
    grid = _exact_y_grid(z, p) if oracle.system.exact else None
    if grid is None:
        least: dict[int, Number] = {}
        for y in _auto_y_candidates(z, p, w):
            sig = oracle.signature(y)
            if sig not in least or y < least[sig]:
                least[sig] = y
        return least
    (fn, fd), zn, zd, js = grid
    atoms, scale = oracle._atom_values, oracle._lattice_rvs[0].scale
    at = zn * scale // zd
    candidates = [(bisect_right(atoms, fn * scale // fd), (fn, fd))]
    candidates += [(bisect_right(atoms, at >> j), (zn, zd << j)) for j in js]
    low: dict[int, tuple[int, int]] = {}
    for sig, (n, d) in candidates:
        other = low.get(sig)
        if other is None or n * other[1] < other[0] * d:
            low[sig] = n, d
    return {sig: Fraction(n, d) for sig, (n, d) in low.items()}


def _parts(x: Number) -> tuple[Number, Number]:
    """``x`` as (numerator, denominator): integers when exact, (x, 1.0) for a float."""
    if isinstance(x, float):
        return x, 1.0
    return x.numerator, x.denominator


def _pair_value(n: Number, d: Number) -> Number:
    """n / d of a :func:`_pairs_by_y` pair: a ``Fraction`` for integers, else a float."""
    return Fraction(n, d) if type(d) is int else n / d


def _least(least: tuple | None, n: Number, d: Number) -> tuple:
    """``(n, d)`` if n / d is below ``least``'s fraction; a tie keeps ``least``."""
    if least is None or n * least[1] < least[0] * d:
        return n, d
    return least


def _least_value(values: Iterable[Number]) -> Number:
    """``min(values)`` of nonnegative ``Fraction``, int and float values, compared as integer pairs.

    The first least value wins, as in :func:`min`, and no values give None.
    Python compares a ``Fraction`` with a float exactly, so the pairs of
    ``as_integer_ratio`` order them the same way, without building a
    ``Fraction`` per float.  An infinite or NaN float is never below a
    finite value, so it is passed over; the first value must be finite.
    """
    best, bn, bd = None, 0, 1
    for value in values:
        if type(value) is float and not math.isfinite(value):
            continue
        n, d = value.as_integer_ratio()
        if best is None or n * bd < bn * d:
            best, bn, bd = value, n, d
    return best


def _finite_floats(values: Sequence[Number], message: str) -> list[float]:
    """float(x) of each x, else ``ValueError(message.format(x))`` for the first x that is not.

    That x is infinite, NaN, or past the float range, and is named by its
    exact value.
    """
    floats = []
    for x in values:
        try:
            xf = float(x)
        except OverflowError:
            xf = math.inf
        if not math.isfinite(xf):
            raise ValueError(message.format(x))
        floats.append(xf)
    return floats


def _float_z(z: Number, params: BoundParams) -> float:
    """float(z) after checking that a report at z has float values, else ``ValueError`` naming z.

    The check asks that z be finite and fit a float, that the float factor
    e^(-lam z) of :func:`theorem_bound` not overflow, and that (c + z)^p,
    the divisor of P4 and P5 (read only for z > 0), be a positive finite
    float: neither overflow nor underflow to 0.0.  The error names z by
    its float where that is finite, and by z itself otherwise.
    """
    message = (
        "z = {} has no float report: z must be finite, e^(-lam z) must not overflow a float, "
        "and for z > 0 (c + z)^p must be a positive finite float"
    )
    (zf,) = _finite_floats((z,), message)
    try:
        math.exp(-params.lam * zf)
        # a positive z may round to 0.0
        fits = not (zf > 0 or z > 0) or 0.0 < (params.c + zf) ** params.p < math.inf
    except OverflowError:
        fits = False
    if not fits:
        raise ValueError(message.format(zf))
    return zf


def _pairs_by_y(
    oracle: SystemOracle,
    zs: Sequence[Number],
    ys_at: Sequence[Sequence[Number]],
    at_w,
    floors: Sequence[tuple | None] | None = None,
) -> list[list[tuple]]:
    """P2 and P3 at each y asked at each z of ``zs``, for each w of ``at_w``.

    This is the one P2/P3 evaluator, of :func:`p_bounds_row` and of
    :func:`sumtails.verify.verify_osipov`.  ``ys_at[i]`` lists the y values
    asked at ``zs[i]``, and ``at_w`` holds per w the :func:`_parts` pairs of
    sum_i P(X_i > w) and of P1.  Each distinct y of the row (by
    :func:`_key`) is evaluated once, at its first value, over every z that
    asks it: one max tail and one (Q, Q*) row.  Returns per z its
    ``(y, pairs)`` in the order of ``ys_at[i]``.  ``pairs`` is None where
    the (Q, Q*) row is past the atom budget, else per w (n2, d2, n3, d3),
    P2 and P3 as unreduced fractions: integers with no gcd when exact, the
    float P(max_i X_i > y) + Q sum_i P(X_i > w) and
    P(max_i X_i > y) + (2 Q*) P1 over 1.0 when not.  Denominators are
    positive, so cross-multiplying two fractions keeps their order, and
    :func:`_pair_value` reads the reported number from a pair.

    ``floors``, when given, holds per z the largest value a caller will
    compare with P2 and P3, as a :func:`_parts` pair, or None for none.
    The (Q, Q*) row of y then covers only the z whose floor exceeds
    P(max_i X_i > y), and every other (z, y) gets ``pairs == ()``: as Q,
    Q*, sum_i P(X_i > w) and P1 are nonnegative, P2 and P3 are at least
    P(max_i X_i > y) there, so no P2 or P3 is below the floor.  The row is
    asked even when it is empty, so a y past the atom budget is None at
    every z that asks it.
    """
    rows: list[list] = [[None] * len(ys) for ys in ys_at]
    asked: dict[object, tuple[Number, list[tuple[int, int]]]] = {}
    for i, ys in enumerate(ys_at):
        for j, y in enumerate(ys):
            asked.setdefault(_key(y), (y, []))[1].append((i, j))
    for y, at in asked.values():
        mn, md = _parts(oracle.max_tail_at(y))
        undecided = at
        if floors is not None:
            undecided = []  # the (i, j) whose floor exceeds the max tail
            for i, j in at:
                floor = floors[i]
                if floor is not None and floor[0] * md > mn * floor[1]:
                    undecided.append((i, j))
                else:
                    rows[i][j] = ys_at[i][j], ()
        try:
            row = oracle.concentration_row([zs[i] for i, _ in undecided], y)
        except ConvolutionCapError:
            for i, j in at:
                rows[i][j] = ys_at[i][j], None
            continue
        for (i, j), (q, qstar) in zip(undecided, row):
            (qn, qd), (sn, sd) = _parts(q), _parts(qstar)
            sn *= 2
            rows[i][j] = ys_at[i][j], [
                (
                    mn * qd * ed + qn * en * md, md * qd * ed,  # P2
                    mn * sd * pd + sn * pn * md, md * sd * pd,  # P3
                )
                for (en, ed), (pn, pd) in at_w
            ]
    return rows


def _float_mu(oracle: SystemOracle, p: Number) -> float:
    """float(mu_p) of the oracle's system, else ``ValueError`` naming p where it overflows a float."""
    try:
        mu = float(oracle.mu_p_at(p))
    except OverflowError:
        mu = math.inf
    if mu == math.inf:
        raise ValueError(f"mu_p at p = {p} overflows a float")
    return mu


def _p1_to_p3(oracle: SystemOracle, zs: Sequence[Number], params: BoundParams) -> tuple:
    """``(P1, [(P2, P3, warnings) per z of zs])``: the least P2/P3 and their fallback warnings.

    The P1-P3 part of :func:`p_bounds_row`, which
    :func:`sumtails.mc.mc_check_bounds` reads without asking mu_p or
    (c + z)^p.  An auto y is minimized exactly over the least y of each
    restriction class: within a class P(max_i X_i > y) is fixed and Q, Q*
    are nondecreasing in y (see :meth:`SystemOracle.concentration_row`).
    A y past the atom budget offers no P2, and Bennett-Hoeffding replaces
    Q* in its P3 when the total variance is at most one, with a warning.
    """
    system, w = oracle.system, params.w
    p1 = oracle.max_tail_at(w)
    sum_exc = oracle.sum_exceedance(w)
    auto = params.y == "auto"
    if auto:
        classes = [_y_classes(oracle, z, params.p, w) for z in zs]
    else:  # one class of one y
        classes = [{None: params.y}] * len(zs)
    ys_at = [list(least.values()) for least in classes]
    rows = _pairs_by_y(oracle, zs, ys_at, [(_parts(sum_exc), _parts(p1))])

    out = []
    for z, least, row in zip(zs, classes, rows):
        warnings = []
        # the least P2 and P3 candidates so far, as (numerator, denominator)
        least2 = least3 = None
        capped = set()  # the classes past the atom budget
        for sig, (_, pairs) in zip(least, row):
            if pairs is None:
                capped.add(sig)
                continue
            n2, d2, n3, d3 = pairs[0]
            least2 = _least(least2, n2, d2)
            least3 = _least(least3, n3, d3)
        p2 = None if least2 is None else _pair_value(*least2)
        p3_cands: list[Number] = [] if least3 is None else [_pair_value(*least3)]
        if capped:
            # every member of a class past the budget, in candidate order
            if auto:
                candidates = _auto_y_candidates(z, params.p, w)
                capped_ys = [y for y in candidates if oracle.signature(y) in capped]
            else:  # an explicit y is its own one member
                candidates = capped_ys = [params.y]
            # P2 has no convolution-free surrogate; Bennett-Hoeffding dominates
            # Q* only for total variance at most one
            if system.unit_variance or system.total_variance() <= 1:
                p3_cands += [oracle.max_tail_at(y) + 2 * bh_bound(z, y) * p1 for y in capped_ys]
                fallback = "Q* in P3 replaced by the Bennett-Hoeffding bound"
            else:
                fallback = "P2/P3 skipped (total variance above one, no Bennett-Hoeffding bound)"
            warnings.append(
                f"{fallback} at {len(capped_ys)} of {len(candidates)} y values: "
                "convolution cap exceeded"
            )
        out.append((p2, _least_value(p3_cands), warnings))
    return p1, out


def p_bounds_row(
    system: System,
    zs: Sequence[Number],
    params: BoundParams = BoundParams(),
    mode: str = "winsorize",
    *,
    oracle: SystemOracle | None = None,
) -> list[BoundReport]:
    """Evaluate Delta_w(z) and all five bounds at each z of ``zs``, one report per z.

    This is the definition of the bounds table; :func:`p_bounds` is its
    row of one.  Every z is checked before the oracle is asked anything: a
    z that is not finite, at which e^(-lam z) overflows a float, or, for
    z > 0, at which (c + z)^p is not a positive finite float, is a
    ``ValueError``; so is a mu_p past the float range when some z > 0.
    What does not depend on z is asked once per row: mu_p, one Delta row
    (:meth:`SystemOracle.delta_row`), P1 and sum_i P(X_i > w), beta_v and
    the constants.  P1-P3 come from :func:`_p1_to_p3`, so ``best`` stays a
    proven bound past the atom budget.  P4/P5 are reported as
    not-applicable (None) for z <= 0, where their derivation does not
    apply; with defaulted constants they are reported and flagged but
    excluded from ``best``.  The exact tail difference is included
    whenever the convolution oracle fits the atom budget.
    """
    check_mode(mode)
    zfs = [_float_z(z, params) for z in zs]
    if not zfs:
        return []
    oracle = oracle if oracle is not None else SystemOracle(system)
    positive = [z > 0 for z in zs]  # P4 and P5 apply
    mu = _float_mu(oracle, params.p) if any(positive) else None
    shared: list[str] = []  # the warnings of every z

    try:
        deltas: Sequence[Number | None] = oracle.delta_row(zs, params.w, mode)
    except ConvolutionCapError:
        deltas = [None] * len(zfs)
        shared.append("tail-difference oracle skipped: convolution cap exceeded")
    p1, p23 = _p1_to_p3(oracle, zs, params)

    # P4/P5 with defaulted constants are reported (flagged) but kept out of
    # `best`: an unsupplied constant must never silently tighten the bound
    a_theorem, _ = params.constant("theorem")
    a4, a4_defaulted = params.constant("p4")
    a5, a5_defaulted = params.constant("p5")
    defaulted = [
        f"constant {name!r} defaulted to 1"
        for name, flag in (("p4", a4_defaulted), ("p5", a5_defaulted))
        if flag
    ]
    beta = float(oracle.beta_v_at(params.v))
    p1f = float(p1)

    reports = []
    for z, zf, z_positive, delta_w, (p2, p3, fallback) in zip(zs, zfs, positive, deltas, p23):
        warnings = shared + fallback
        in_best: list[Number] = [p for p in (p1, p2, p3) if p is not None]
        if z_positive:
            warnings += defaulted
            denom = (params.c + zf) ** params.p
            p4 = float(oracle.max_tail_at(scaled_y(zf, params.p))) + a4 / denom * p1f
            p5 = a5 * mu / denom
            if not a4_defaulted:
                in_best.append(p4)
            if not a5_defaulted:
                in_best.append(p5)
        else:
            p4 = p5 = None

        best = _least_value(in_best)
        theorem = a_theorem * beta * math.exp(-params.lam * zf)
        reports.append(
            BoundReport(
                z=zf,
                delta_w=delta_w,
                p1=p1,
                p2=p2,
                p3=p3,
                p4=p4,
                p5=p5,
                best=best,
                theorem_bound=theorem,
                corollary_bound=theorem + float(best),
                bikelis_sum=oracle.bikelis_at(z, params.v),
                winsor_mode=mode,
                warnings=tuple(warnings),
            )
        )
    return reports


def p_bounds(
    system: System,
    z: Number,
    params: BoundParams = BoundParams(),
    mode: str = "winsorize",
    *,
    oracle: SystemOracle | None = None,
) -> BoundReport:
    """Evaluate Delta_w(z) and all five bounds at one z: the row of one of :func:`p_bounds_row`."""
    return p_bounds_row(system, (z,), params, mode, oracle=oracle)[0]


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
    system's ``oracle`` to read beta_v from its moment profile, built once
    per oracle, across z.
    """
    a, _ = params.constant("theorem")
    oracle = oracle if oracle is not None else SystemOracle(system)
    beta = float(oracle.beta_v_at(params.v))
    return a * beta * math.exp(-params.lam * float(z))


def normal_tail(z: Number) -> float:
    """P(Z > z) for a standard normal Z."""
    return norm_cdf(-float(z))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

#: the report columns, in CSV order, each with the ``BoundReport`` field it prints
_COLUMN_FIELDS = (
    ("z", "z"),
    ("delta_w", "delta_w"),
    ("p1", "p1"),
    ("p2", "p2"),
    ("p3", "p3"),
    ("p4", "p4"),
    ("p5", "p5"),
    ("best", "best"),
    ("theorem", "theorem_bound"),
    ("corollary", "corollary_bound"),
    ("bikelis", "bikelis_sum"),
)
_CSV_COLUMNS = tuple(column for column, _ in _COLUMN_FIELDS)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_values(report: BoundReport) -> tuple:
    return tuple(getattr(report, name) for _, name in _COLUMN_FIELDS)


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
