"""Finite discrete random variables with exact-rational or float arithmetic.

The building blocks here are atomic (sub-)probability measures on the real
line.  A :class:`DiscreteRV` is a probability measure (total mass one); a
:class:`SubMeasure` is allowed total mass <= 1 and represents a variable
restricted to an event, which is what convolutions of restricted summands
produce.  A :class:`System` is an ordered family of independent, zero-mean
summands whose variances add up to one.

Two arithmetic modes are supported and never mixed inside one computation:

* exact mode -- values and masses are :class:`fractions.Fraction`; every
  probability computed downstream is exact, so inequality checks can
  distinguish a genuine violation from rounding noise.  Convolutions run on
  a :class:`LatticeMeasure`, the same measure as integers over a common
  value denominator and a per-measure mass denominator;
* float mode -- IEEE doubles, for large grids and calibration sweeps; any
  two evaluations of the same query are bit-for-bit identical.

All objects are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import isfinite, isqrt, lcm, sqrt
from typing import Iterable, NamedTuple, Sequence, TypeVar, Union

Number = Union[Fraction, float, int]

#: float-mode tolerance for mass/mean/variance normalization checks
MASS_TOL = 1e-12
#: float-mode relative distance below which neighbouring atoms are merged
MERGE_REL_TOL = 1e-15
#: default budget of intermediate atoms for exact convolutions
CONVOLUTION_CAP = 10_000_000


class ConvolutionCapError(ValueError):
    """An exact convolution would exceed the intermediate-atom budget.

    Raised instead of silently grinding: callers should fall back to the
    Monte Carlo estimator in :mod:`sumtails.mc` for systems of this size.
    """


class Atom(NamedTuple):
    """One support point of an atomic measure: value ``x`` with mass ``p``."""

    x: Number
    p: Number


def _coerce(value: Number, exact: bool) -> Number:
    if exact:
        if isinstance(value, Fraction):
            return value
        # Fraction(float) is the exact binary value of the float; callers
        # that care about decimal semantics pass Fraction or str upstream.
        return Fraction(value)
    return float(value)


def _merge_pairs(
    pairs: Iterable[tuple[Number, Number]], exact: bool
) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """Sort atoms by value, drop zero masses, merge coinciding values.

    Exact mode merges on equality.  Float mode also merges neighbours within
    ``MERGE_REL_TOL`` relative distance, keeping the smaller value, so that
    repeated convolutions cannot blow up the support with near-duplicates.
    """
    cleaned: list[tuple[Number, Number]] = []
    for x, p in pairs:
        x = _coerce(x, exact)
        p = _coerce(p, exact)
        if not exact and not (isfinite(x) and isfinite(p)):
            raise ValueError(f"atom ({x}, {p}) is not finite")
        if p < 0:
            raise ValueError(f"negative mass {p} at value {x}")
        if p == 0:
            continue
        cleaned.append((x, p))
    cleaned.sort(key=lambda a: a[0])

    values: list[Number] = []
    masses: list[Number] = []
    for x, p in cleaned:
        if values:
            last = values[-1]
            if x == last:
                masses[-1] += p
                continue
            if not exact:
                scale = max(abs(last), abs(x))
                if x - last <= MERGE_REL_TOL * scale:
                    masses[-1] += p
                    continue
        values.append(x)
        masses.append(p)
    return tuple(values), tuple(masses)


_M = TypeVar("_M", bound="_AtomicMeasure")


@dataclass(frozen=True)
class _AtomicMeasure:
    """Shared storage and queries for sorted atomic measures.

    At a NaN threshold every query counts no atom, as no comparison with
    NaN holds (bisection alone would count all of them for
    :meth:`mass_at_least` and :meth:`mass_at_most`).
    """

    values: tuple[Number, ...]
    masses: tuple[Number, ...]
    exact: bool
    # suffix[i] = masses[i] + ... + masses[-1]; suffix[len] = 0
    _suffix: tuple[Number, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        zero = Fraction(0) if self.exact else 0.0
        suffix = [zero] * (len(self.masses) + 1)
        for i in range(len(self.masses) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + self.masses[i]
        object.__setattr__(self, "_suffix", tuple(suffix))

    @classmethod
    def from_atoms(cls: type[_M], pairs: Iterable[tuple[Number, Number]], exact: bool = True) -> _M:
        values, masses = _merge_pairs(pairs, exact)
        return cls(values=values, masses=masses, exact=exact)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(Atom(x, p) for x, p in zip(self.values, self.masses))

    @property
    def mass(self) -> Number:
        """Total mass of the measure."""
        return self._suffix[0]

    def tail(self, z: Number) -> Number:
        """Mass strictly above ``z``."""
        return self._suffix[bisect_right(self.values, z)]

    def mass_at_least(self, t: Number) -> Number:
        """Mass of the event {value >= t}."""
        if t != t:
            return self._suffix[-1]
        return self._suffix[bisect_left(self.values, t)]

    def mass_at_most(self, t: Number) -> Number:
        """Mass of the event {value <= t}."""
        if t != t:
            return self._suffix[-1]
        return self.mass - self.tail(t)

    def interval_mass(self, a: Number, b: Number) -> Number:
        """Mass of the closed interval [a, b]."""
        if not a <= b:  # empty, or a NaN endpoint
            return self._suffix[-1]
        return self.mass_at_least(a) - self.tail(b)

    def mean(self) -> Number:
        zero = Fraction(0) if self.exact else 0.0
        return sum((x * p for x, p in zip(self.values, self.masses)), zero)

    def second_moment(self) -> Number:
        zero = Fraction(0) if self.exact else 0.0
        return sum((x * x * p for x, p in zip(self.values, self.masses)), zero)

    def product(
        self, other: "_AtomicMeasure", values: tuple[Number, ...], masses: tuple[Number, ...]
    ) -> "SubMeasure":
        """The law of the independent sum, from the atoms `_convolve_two` returned."""
        return SubMeasure(values=values, masses=masses, exact=self.exact)

    def restrict_at_most(self, y: Number) -> "SubMeasure":
        """Sub-measure of the atoms with value <= y (mass may drop below 1)."""
        return SubMeasure.from_atoms(
            ((x, p) for x, p in zip(self.values, self.masses) if x <= y),
            exact=self.exact,
        )

    def capped(self, w: Number, mode: str) -> "DiscreteRV":
        """The variable under the capping transform ``mode`` at level ``w``."""
        check_mode(mode)
        return TRANSFORMS[mode](self, w)

    def abs_moment(self, p: Number) -> Number:
        """E |X|^p restricted to this measure (no normalization by mass).

        Exact for integer exponents in exact mode; float otherwise.
        """
        if self.exact and float(p).is_integer():
            k = int(p)
            return sum(
                (abs(x) ** k * m for x, m in zip(self.values, self.masses)),
                Fraction(0),
            )
        return sum(abs(float(x)) ** float(p) * float(m) for x, m in zip(self.values, self.masses))


@dataclass(frozen=True)
class SubMeasure(_AtomicMeasure):
    """Atomic measure with total mass <= 1 (a variable restricted to an event)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        total = self.mass
        limit = 1 if self.exact else 1.0 + MASS_TOL
        if total > limit:
            raise ValueError(f"sub-measure mass {total} exceeds 1")


@dataclass(frozen=True)
class DiscreteRV(_AtomicMeasure):
    """Finite discrete random variable: sorted atoms with total mass one."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.values:
            raise ValueError("a random variable needs at least one atom")
        total = self.mass
        if self.exact:
            if total != 1:
                raise ValueError(f"masses must sum to 1 exactly, got {total}")
        elif abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses must sum to 1 within {MASS_TOL}, got {total}")

    def variance(self) -> Number:
        m = self.mean()
        return self.second_moment() - m * m


@dataclass(frozen=True)
class System:
    """Ordered family of independent zero-mean summands with unit total variance.

    ``unit_variance=False`` skips the total-variance check (zero means are
    still enforced); the structural bounds remain valid for total variance
    at most one, and several small worked examples live there.
    """

    rvs: tuple[DiscreteRV, ...]
    unit_variance: bool = True

    def __post_init__(self) -> None:
        if not self.rvs:
            raise ValueError("a system needs at least one summand")
        exact = self.rvs[0].exact
        if any(rv.exact != exact for rv in self.rvs):
            raise ValueError("all summands must share one arithmetic mode")
        laws, index = self.distinct_rvs()
        counts = Counter(index)
        total_var = Fraction(0) if exact else 0.0
        for j, rv in enumerate(laws):
            mean = rv.mean()
            if exact:
                if mean != 0:
                    raise ValueError(f"summand {index.index(j)} has mean {mean}, expected 0")
                var = rv.second_moment()  # the variance, as the mean is 0
            else:
                var = rv.variance()
                if abs(mean) > MASS_TOL * sqrt(max(float(var), 0.0)):
                    raise ValueError(f"summand {index.index(j)} has mean {mean}, expected ~0")
            total_var += counts[j] * var
        if self.unit_variance:
            if exact:
                if total_var != 1:
                    raise ValueError(f"variances must sum to 1 exactly, got {total_var}")
            elif abs(total_var - 1.0) > MASS_TOL:
                raise ValueError(f"variances must sum to 1 within {MASS_TOL}, got {total_var}")

    def distinct_rvs(self) -> tuple[list[DiscreteRV], list[int]]:
        """The distinct summand objects in first-seen order, and each summand's position among them.

        Summands are told apart by identity: :func:`system_from_dict` gives
        equal summands one shared object, so work done per law, such as the
        moment checks here, runs once for all of them.
        """
        position: dict[int, int] = {}
        laws: list[DiscreteRV] = []
        index = []
        for rv in self.rvs:
            j = position.setdefault(id(rv), len(laws))
            if j == len(laws):
                laws.append(rv)
            index.append(j)
        return laws, index

    def total_variance(self) -> Number:
        zero = Fraction(0) if self.exact else 0.0
        return sum((rv.variance() for rv in self.rvs), zero)

    @property
    def n(self) -> int:
        return len(self.rvs)

    @property
    def exact(self) -> bool:
        return self.rvs[0].exact


def _exact_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def make_system(
    raw: Sequence[Iterable[tuple[Number, Number]]],
    standardize: bool = False,
    exact: bool = True,
    unit_variance: bool = True,
) -> System:
    """Build a :class:`System` from per-summand atom lists.

    With ``standardize`` on, each summand is shifted to mean zero and all
    values are then multiplied by one common factor so the variances sum to
    one.  In exact mode that factor must itself be rational (the total
    variance a perfect square in Q), otherwise a ``ValueError`` asks for
    float mode.  With ``standardize`` off the inputs must already satisfy
    the invariants.
    """
    if not raw:
        raise ValueError("need at least one summand")
    rvs = [DiscreteRV.from_atoms(pairs, exact=exact) for pairs in raw]
    if not standardize:
        return System(rvs=tuple(rvs), unit_variance=unit_variance)

    centered = []
    for rv in rvs:
        m = rv.mean()
        centered.append([(x - m, p) for x, p in zip(rv.values, rv.masses)])
    # variance is shift-invariant, so the uncentered rvs give the same total
    total_var = sum((rv.variance() for rv in rvs), Fraction(0) if exact else 0.0)
    if total_var == 0:
        raise ValueError("total variance is zero; cannot standardize a degenerate system")
    if exact:
        scale = _exact_sqrt(Fraction(1, 1) / total_var)
        if scale is None:
            raise ValueError(
                f"1/total variance {Fraction(1, 1) / total_var} has no rational square root; "
                "use exact=False or rescale the inputs"
            )
    else:
        scale = 1.0 / sqrt(total_var)
    scaled = [[(x * scale, p) for x, p in pairs] for pairs in centered]
    return System(rvs=tuple(DiscreteRV.from_atoms(pairs, exact=exact) for pairs in scaled))


def winsorize(rv: DiscreteRV, w: Number) -> DiscreteRV:
    """Cap the variable at ``w``: every value x becomes min(x, w)."""
    if not w > 0:
        raise ValueError(f"threshold w must be positive, got {w}")
    w = _coerce(w, rv.exact)
    return DiscreteRV.from_atoms(
        ((x if x <= w else w, p) for x, p in zip(rv.values, rv.masses)),
        exact=rv.exact,
    )


def truncate(rv: DiscreteRV, w: Number) -> DiscreteRV:
    """Zero the variable above ``w``: x becomes x * 1{x <= w}."""
    if not w > 0:
        raise ValueError(f"threshold w must be positive, got {w}")
    w = _coerce(w, rv.exact)
    zero = Fraction(0) if rv.exact else 0.0
    return DiscreteRV.from_atoms(
        ((x if x <= w else zero, p) for x, p in zip(rv.values, rv.masses)),
        exact=rv.exact,
    )


TRANSFORMS = {"winsorize": winsorize, "truncate": truncate}
#: names of the capping modes, in sweep and command-line order
WINSOR_MODES = tuple(TRANSFORMS)


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` names a capping transform."""
    if mode not in TRANSFORMS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {WINSOR_MODES}")


def capped_sum_rv(
    rv: DiscreteRV | LatticeMeasure, w: Number, mode: str
) -> DiscreteRV | LatticeMeasure:
    """Apply the named capping transform (one of :data:`WINSOR_MODES`).

    A :class:`LatticeMeasure` is capped on its integer lattice (see
    :meth:`LatticeMeasure.capped`).
    """
    return rv.capped(w, mode)


def degenerate(x: Number = 0, exact: bool = True) -> SubMeasure:
    """Unit mass at ``x`` (the empty convolution / empty sum)."""
    one = Fraction(1) if exact else 1.0
    return SubMeasure.from_atoms([(x, one)], exact=exact)


def restrict_at_most(
    rv: DiscreteRV | SubMeasure | LatticeMeasure, y: Number
) -> SubMeasure | LatticeMeasure:
    """Sub-measure of the atoms with value <= y (mass may drop below 1).

    A :class:`LatticeMeasure` is restricted on its integer lattice (see
    :meth:`LatticeMeasure.restrict_at_most`).
    """
    return rv.restrict_at_most(y)


def _as_ratio(t: Number) -> tuple[int, int] | None:
    """``t`` as an exact (numerator, denominator) pair; None for an infinite or NaN float."""
    if isinstance(t, float):
        return t.as_integer_ratio() if isfinite(t) else None
    return t.numerator, t.denominator


class LatticeMeasure:
    """Exact atomic sub-measure held as integers on the grid (1/scale) Z.

    Atom ``i`` sits at ``values[i] / scale`` and carries mass
    ``masses[i] / den``.  ``scale`` is shared by every measure of one
    convolution chain (see :func:`to_lattice`); ``den`` belongs to the
    measure, and a convolution multiplies the two operands' ``den``.  So
    sums of values and products of masses are integer operations, and a
    tail query compares integers: the threshold ``t`` becomes
    ``floor(t * scale)``, computed exactly for int, Fraction and float ``t``;
    at a NaN threshold :meth:`tail`, :meth:`mass_at_least` and
    :meth:`interval_mass` count no atom, as no comparison with NaN holds.
    :meth:`restrict_at_most` and :meth:`capped` build the restricted and
    capped laws from these integers too, keeping ``den``.
    The suffix sums behind the queries are built on the first query.
    :meth:`tail_numerator` and :meth:`at_least_numerator` answer an
    integer-pair threshold with a mass numerator over ``den``, so callers
    that combine several answers compare integers and build a ``Fraction``
    only for the answer they return, through :meth:`fraction` (or a float,
    as ``numerator / den``); the ``Fraction`` queries build theirs from the
    same two reads.  Instances are never mutated apart from the suffix sums,
    which are assigned whole once built, and the memo of :meth:`fraction`,
    whose entries are deterministic, so sharing them between threads is
    safe.
    """

    __slots__ = ("values", "masses", "den", "scale", "_suffix", "_fractions")
    exact = True

    def __init__(self, values: tuple[int, ...], masses: tuple[int, ...], den: int, scale: int):
        self.values = values
        self.masses = masses
        self.den = den
        self.scale = scale
        # built on the first query: intermediate products of a chain get none
        self._suffix: list[int] | None = None
        self._fractions: dict[int, Fraction] = {}

    def fraction(self, mass: int) -> Fraction:
        """``mass / den`` as a ``Fraction``, built once per numerator."""
        frac = self._fractions.get(mass)
        if frac is None:
            frac = self._fractions[mass] = Fraction(mass, self.den)
        return frac

    def _suffix_sums(self) -> list[int]:
        """``s[i] = masses[i] + ... + masses[-1]``, with ``s[len] = 0``."""
        suffix = self._suffix
        if suffix is None:
            suffix = self._suffix = list(accumulate(reversed(self.masses), initial=0))[::-1]
        return suffix

    def _read(self, t: Number, read) -> int:
        """``read(num, den)`` at the integer pair of ``t``, a mass numerator over ``den``.

        A threshold no integer pair reads counts every atom at -inf and
        none at +inf or NaN.
        """
        ratio = _as_ratio(t)
        if ratio is None:
            return self._suffix_sums()[0 if t < 0 else len(self.values)]
        return read(*ratio)

    @property
    def mass(self) -> Fraction:
        """Total mass of the measure."""
        return self.fraction(self._suffix_sums()[0])

    def tail_numerator(self, num: int, den: int) -> int:
        """Mass strictly above ``num / den``, as its numerator over ``self.den``.

        ``num`` and ``den > 0`` are integers and need not be reduced: the
        threshold is ``floor(num * scale / den)`` on this measure's own grid,
        so no ``Fraction`` is built, neither for the threshold nor for the mass.
        """
        return self._suffix_sums()[bisect_right(self.values, num * self.scale // den)]

    def at_least_numerator(self, num: int, den: int) -> int:
        """Mass at or above ``num / den``, as its numerator over ``self.den``.

        Read as :meth:`tail_numerator` reads, at ``ceil(num * scale / den)``.
        """
        return self._suffix_sums()[bisect_left(self.values, -(-num * self.scale // den))]

    def tail(self, z: Number) -> Fraction:
        """Mass strictly above ``z``."""
        return self.fraction(self._read(z, self.tail_numerator))

    def mass_at_least(self, t: Number) -> Fraction:
        """Mass of the event {value >= t}."""
        return self.fraction(self._read(t, self.at_least_numerator))

    def interval_mass(self, a: Number, b: Number) -> Fraction:
        """Mass of the closed interval [a, b], from one difference of the two reads."""
        if not a <= b:  # empty, or a NaN endpoint
            return Fraction(0)
        return self.fraction(
            self._read(a, self.at_least_numerator) - self._read(b, self.tail_numerator)
        )

    def product(
        self, other: "LatticeMeasure", values: tuple[int, ...], masses: tuple[int, ...]
    ) -> "LatticeMeasure":
        """The law of the independent sum, from the atoms `_convolve_two` returned."""
        return LatticeMeasure(values, masses, self.den * other.den, self.scale)

    def at_scale(self, scale: int) -> "LatticeMeasure":
        """The same measure on the grid (1/scale) Z, a multiple of this one's scale."""
        if scale == self.scale:
            return self
        factor = scale // self.scale
        return LatticeMeasure(tuple(v * factor for v in self.values), self.masses, self.den, scale)

    def restrict_at_most(self, y: Number) -> "LatticeMeasure":
        """The atoms with value <= y, on the same grid with the same ``den``.

        A restriction that keeps every atom is this measure itself.  At a
        NaN y no atom is kept, as no comparison with NaN holds.
        """
        ratio = _as_ratio(y)
        if ratio is None:  # every atom is at most +inf; none is at most -inf or NaN
            k = len(self.values) if y > 0 else 0
        else:
            k = bisect_right(self.values, ratio[0] * self.scale // ratio[1])
        if k == len(self.values):
            return self
        return LatticeMeasure(self.values[:k], self.masses[:k], self.den, self.scale)

    def capped(self, w: Number, mode: str) -> "LatticeMeasure":
        """The law under the capping transform ``mode`` at level w, in integers.

        The atoms up to w are kept and the mass above w moves to 0
        (truncate) or to w (winsorize), merged into an atom already there.
        A w off this grid moves the winsorized measure to the finer scale
        ``lcm(scale, w.denominator)``, so a chain of summands capped at one
        w holds two scales at most, and :meth:`at_scale` brings them to one.
        A cap that moves no atom returns this measure itself; ``den`` never
        changes.
        """
        check_mode(mode)
        if not w > 0:
            raise ValueError(f"threshold w must be positive, got {w}")
        w = _coerce(w, True)
        k = bisect_right(self.values, w.numerator * self.scale // w.denominator)
        if k == len(self.values):
            return self
        if mode == "truncate":
            kept, target = self, 0
        else:
            kept = self.at_scale(lcm(self.scale, w.denominator))
            target = w.numerator * (kept.scale // w.denominator)
        values, masses = list(kept.values[:k]), list(kept.masses[:k])
        moved = sum(self.masses[k:])
        at = bisect_left(values, target)
        if at < k and values[at] == target:
            masses[at] += moved
        else:
            values.insert(at, target)
            masses.insert(at, moved)
        return LatticeMeasure(tuple(values), tuple(masses), self.den, kept.scale)

    def to_submeasure(self) -> SubMeasure:
        """The same measure with :class:`~fractions.Fraction` values and masses."""
        return SubMeasure(
            values=tuple(Fraction(v, self.scale) for v in self.values),
            masses=tuple(Fraction(m, self.den) for m in self.masses),
            exact=True,
        )


def to_lattice(measures: Sequence[_AtomicMeasure]) -> list[LatticeMeasure]:
    """Exact measures on one common grid: scale is the lcm of their value denominators."""
    scale = lcm(*(x.denominator for m in measures for x in m.values))
    out = []
    for m in measures:
        den = lcm(*(p.denominator for p in m.masses))
        out.append(
            LatticeMeasure(
                tuple(x.numerator * (scale // x.denominator) for x in m.values),
                tuple(p.numerator * (den // p.denominator) for p in m.masses),
                den,
                scale,
            )
        )
    return out


def _convolve_two(
    a: LatticeMeasure | _AtomicMeasure, b: LatticeMeasure | _AtomicMeasure, exact: bool, cap: int
) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """Atoms of the independent sum of ``a`` and ``b``, sorted by value.

    Exact operands are :class:`LatticeMeasure` on one grid, so the keys and
    masses are integers and need no merging; build the law with
    ``a.product(b, values, masses)``.  Float operands are sub-measures, and
    the result goes through :func:`_merge_pairs`.
    """
    n_pairs = len(a.values) * len(b.values)
    if n_pairs > cap:
        raise ConvolutionCapError(
            f"convolution needs {n_pairs} intermediate atoms (cap {cap}); "
            "use Monte Carlo estimation (sumtails.mc) for systems of this size"
        )
    acc: dict[Number, Number] = {}
    b_atoms = list(zip(b.values, b.masses))
    for x1, p1 in zip(a.values, a.masses):
        for x2, p2 in b_atoms:
            key = x1 + x2
            m = p1 * p2
            if key in acc:
                acc[key] += m
            else:
                acc[key] = m
    if not exact:
        return _merge_pairs(acc.items(), exact)
    keys = sorted(acc)
    return tuple(keys), tuple(acc[k] for k in keys)


def convolve(
    items: Sequence[DiscreteRV | SubMeasure], cap: int = CONVOLUTION_CAP
) -> SubMeasure:
    """Exact law of the sum of independent inputs, as a :class:`SubMeasure`.

    Total mass is the product of the input masses, so restricted summands
    (sub-measures) yield the joint probability of the restriction events.
    Exact inputs are convolved on their common integer lattice.  Raises
    :class:`ConvolutionCapError` when the naive pair count at any step
    exceeds ``cap``.
    """
    if not items:
        raise ValueError("need at least one measure to convolve")
    exact = items[0].exact
    if any(m.exact != exact for m in items):
        raise ValueError("cannot convolve measures with mixed arithmetic modes")
    if exact:
        current, *rest = to_lattice(items)
    else:
        current = SubMeasure(values=items[0].values, masses=items[0].masses, exact=False)
        rest = items[1:]
    for nxt in rest:
        values, masses = _convolve_two(current, nxt, exact, cap)
        current = current.product(nxt, values, masses)
    return current.to_submeasure() if exact else current


def max_tail(system: System, y: Number) -> Number:
    """P(max_i X_i > y) = 1 - prod_i P(X_i <= y), exact under independence.

    At a NaN y it is 0, as :meth:`~_AtomicMeasure.tail` is: no comparison
    with NaN holds.
    """
    one = Fraction(1) if system.exact else 1.0
    if y != y:
        return one - one
    prod = one
    for rv in system.rvs:
        prod *= rv.mass_at_most(y)
    return one - prod


# ---------------------------------------------------------------------------
# JSON interchange
#
# Schema: {"rvs": [{"atoms": [{"x": -0.5, "p": "1/2"}, ...]}, ...],
#          "mode": "rational" | "float",
#          "unit_variance": true}          <- optional, default true
# Numbers may be JSON numbers, decimal strings, or "num/den" strings; in
# rational mode decimal notation is taken at face value ("0.1" means 1/10).
# ---------------------------------------------------------------------------


def _parse_number(value: object, exact: bool, where: str) -> Number:
    """``value`` in the system's arithmetic; an error names the entry ``where``."""
    if not isinstance(value, bool):  # JSON true/false are not numbers
        try:
            num = Fraction(value)
            return num if exact else float(num)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"{where}: cannot parse number from {value!r}")


def _atoms_key(atoms: list) -> tuple | None:
    """A key under which equal JSON atoms lists parse alike; None if there is none.

    Each x and p enters with its type, so ``true`` never shares an entry
    with ``1`` (``True == 1``); an atom that is not a dict with x and p, or
    an unhashable number, gives None and is parsed, and rejected, on its own.
    """
    try:
        key = tuple((type(a["x"]), a["x"], type(a["p"]), a["p"]) for a in atoms)
        hash(key)
    except (TypeError, KeyError):
        return None
    return key


def system_from_dict(data: object) -> System:
    """The system a parsed JSON document describes; a malformed entry is a ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"a system must be a JSON object, got {type(data).__name__}")
    mode = data.get("mode", "rational")
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    exact = mode == "rational"
    rvs_spec = data.get("rvs")
    if not isinstance(rvs_spec, list) or not rvs_spec:
        raise ValueError("'rvs' must be a nonempty list")
    # equal atoms lists, the usual large-n input, are parsed once and share
    # one summand object: distinct[index[k]] holds the pairs of rvs[k]
    slots: dict[tuple, int] = {}
    distinct: list[list] = []
    index = []
    for k, entry in enumerate(rvs_spec):
        atoms = entry.get("atoms") if isinstance(entry, dict) else None
        if not isinstance(atoms, list) or not atoms:
            raise ValueError(f"rvs[{k}] needs a nonempty 'atoms' list")
        atoms_key = _atoms_key(atoms)
        slot = slots.get(atoms_key) if atoms_key is not None else None
        if slot is None:
            pairs = []
            for j, atom in enumerate(atoms):
                where = f"rvs[{k}].atoms[{j}]"
                if not isinstance(atom, dict) or not {"x", "p"} <= atom.keys():
                    raise ValueError(f"{where} must be an object with 'x' and 'p'")
                pairs.append([_parse_number(atom[key], exact, f"{where}.{key}") for key in "xp"])
            slot = len(distinct)
            distinct.append(pairs)
            if atoms_key is not None:
                slots[atoms_key] = slot
        index.append(slot)
    unit_variance = data.get("unit_variance", True)
    if not isinstance(unit_variance, bool):
        raise ValueError(f"'unit_variance' must be true or false, got {unit_variance!r}")
    # summands are built after every entry parses, in first-seen order, so
    # the first malformed entry is the one reported
    laws = [DiscreteRV.from_atoms(pairs, exact=exact) for pairs in distinct]
    return System(rvs=tuple(laws[j] for j in index), unit_variance=unit_variance)


def system_to_dict(system: System) -> dict:
    def fmt(x: Number) -> object:
        if isinstance(x, Fraction):
            return str(x) if x.denominator != 1 else x.numerator
        return x

    out = {
        "mode": "rational" if system.exact else "float",
        "rvs": [
            {"atoms": [{"x": fmt(x), "p": fmt(p)} for x, p in zip(rv.values, rv.masses)]}
            for rv in system.rvs
        ],
    }
    if not system.unit_variance:
        out["unit_variance"] = False
    return out


def load_system(path: str) -> System:
    with open(path, "r", encoding="utf-8") as fh:
        # parse_float=Fraction keeps decimal literals exact in rational mode
        data = json.load(fh, parse_float=Fraction)
    return system_from_dict(data)


def save_system(system: System, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")
