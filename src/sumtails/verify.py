"""End-to-end verification: corpora, exact sweeps, calibration, sharpness.

The exact side generates seeded corpora of small rational systems and checks
the fully explicit inequalities (the tail-difference bounds P1..P3, the
Bennett-Hoeffding domination of Q*, the mean-absolute-value bound) in
exact rational arithmetic, so a reported violation is a real counterexample
and not rounding noise.

The empirical side calibrates the constants the structural bounds leave
unspecified: for each bound it reports the supremum over a parameter grid of
(exactly computed left side) / (structural right side with the constant
stripped), together with the witness cell attaining it.  Calibration never
asserts against a target value; it produces evidence.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import (
    BoundParams,
    SystemOracle,
    _float_mu,
    _key,
    _pair_value,
    _pairs_by_y,
    _parts,
    normal_tail,
    scaled_y,
)
from .discrete import WINSOR_MODES, ConvolutionCapError, DiscreteRV, Number, System, check_mode
# mu_p is read through SystemOracle.mu_p_at; the name stays here because
# benchmarks/sumbench/tracing.py wraps verify.mu_p
from .scalars import _BETA_CUBE_LIMIT, beta_v, g, mean_abs_bound, mu_p  # noqa: F401

#: default z sweep: 0, 0.25, ..., 8 (33 points, exactly representable)
DEFAULT_Z_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 4) for i in range(33))
DEFAULT_W_GRID: tuple[Fraction, ...] = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
DEFAULT_Y_GRID: tuple[Fraction, ...] = DEFAULT_W_GRID
#: interval left endpoints for concentration calibration: -2, -1.5, ..., 4
DEFAULT_A_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 2) for i in range(-4, 9))
#: interval widths b - a for concentration calibration
DEFAULT_GAPS: tuple[Fraction, ...] = (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2))
#: most summands :func:`extremal_system` builds; larger n needs :func:`extremal_report`
MAX_MATERIALIZE = 100_000
#: largest denominator of the random rationals :func:`gen_corpus` draws
MAX_DENOMINATOR = 8

# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """Seeded recipe for a corpus of exact rational systems.

    Summand variances are chosen as rationals that sum to one exactly, and
    each summand is realized as a mixture of centered two-point blocks
    (variance of a block with values a and -b and mean zero is exactly a*b),
    so every generated system satisfies the invariants in exact arithmetic
    with no square-root scaling involved.
    """

    seed: int
    count: int = 200
    n_max: int = 4
    atoms_max: int = 4

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.atoms_max < 2:
            raise ValueError(f"atoms_max must be >= 2, got {self.atoms_max}")


def _rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    den = rng.randint(1, MAX_DENOMINATOR)
    lo_n = math.ceil(lo * den)
    hi_n = math.floor(hi * den)
    if lo_n > hi_n:
        den = MAX_DENOMINATOR
        lo_n = math.ceil(lo * den)
        hi_n = math.floor(hi * den)
    return Fraction(rng.randint(lo_n, hi_n), den)


def _centered_block(rng: random.Random, variance: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Two-point zero-mean block {(-b, a/(a+b)), (a, b/(a+b))} with a*b = variance."""
    b = _rand_fraction(rng, Fraction(1, 4), Fraction(2))
    a = variance / b
    s = a + b
    return [(-b, a / s), (a, b / s)]


def _random_rv(rng: random.Random, variance: Fraction, atoms: int) -> DiscreteRV:
    if atoms <= 2:
        pairs = _centered_block(rng, variance)
    elif atoms == 3:
        w0 = _rand_fraction(rng, Fraction(1, 8), Fraction(3, 4))
        block = _centered_block(rng, variance / (1 - w0))
        pairs = [(x, p * (1 - w0)) for x, p in block] + [(Fraction(0), w0)]
    else:
        # mixture of two centered blocks; retry a few times for distinct values
        for _ in range(8):
            w1 = _rand_fraction(rng, Fraction(1, 8), Fraction(7, 8))
            theta = _rand_fraction(rng, Fraction(1, 8), Fraction(7, 8))
            block1 = _centered_block(rng, variance * theta / w1)
            block2 = _centered_block(rng, variance * (1 - theta) / (1 - w1))
            if len({x for x, _ in block1} | {x for x, _ in block2}) == 4:
                break
        pairs = [(x, p * w1) for x, p in block1] + [(x, p * (1 - w1)) for x, p in block2]
    return DiscreteRV.from_atoms(pairs, exact=True)


def gen_corpus(spec: CorpusSpec) -> list[System]:
    """Deterministic list of exact systems; a pure function of the seed."""
    rng = random.Random(spec.seed)
    systems = []
    for _ in range(spec.count):
        n = rng.randint(1, spec.n_max)
        weights = [_rand_fraction(rng, Fraction(1), Fraction(8)) for _ in range(n)]
        total = sum(weights)
        rvs = []
        for c in weights:
            atoms = rng.randint(2, spec.atoms_max)
            rvs.append(_random_rv(rng, c / total, atoms))
        systems.append(System(rvs=tuple(rvs)))
    return systems


# ---------------------------------------------------------------------------
# Exact verification sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OsipovViolation:
    """One grid cell where an exact tail-difference inequality failed."""

    z: float
    w: float
    y: float | None
    bound: str  # "nonneg", "p1", "p2" or "p3"
    delta: Number
    bound_value: Number


def _sweep_ys(z: Number, y_grid: Sequence[Number], p: Number) -> list[Number]:
    """The distinct y values the sweep evaluates at z: the grid plus z / (1 + p/2)."""
    return list(dict.fromkeys([*y_grid, scaled_y(z, p)]))


def _delta_parts(
    oracle: SystemOracle, zs: Sequence[Number], w: Number, mode: str
) -> list[tuple] | None:
    """Delta_w(z) at each z of ``zs`` with its :func:`_parts`; None past the atom budget."""
    try:
        return [(delta, *_parts(delta)) for delta in oracle.delta_row(zs, w, mode)]
    except ConvolutionCapError:
        return None


def verify_osipov(
    system: System,
    z_grid: Sequence[Number] = DEFAULT_Z_GRID,
    w_grid: Sequence[Number] = DEFAULT_W_GRID,
    y_grid: Sequence[Number] = DEFAULT_Y_GRID,
    mode: str = "winsorize",
    *,
    p: Number = 2,
    oracle: SystemOracle | None = None,
    skip_log: list | None = None,
) -> list[OsipovViolation]:
    """Exact check of 0 <= Delta_w(z) <= min(P1, P2(y), P3(y)) over the grids.

    The y values at each z are :func:`_sweep_ys`: the grid plus the scaled
    choice z / (1 + p/2).  Every verdict cross-multiplies (numerator,
    denominator) pairs: integers for exact values, ``(x, 1.0)`` for floats.
    P2 and P3 are the pairs of :func:`~sumtails.bounds._pairs_by_y`, the
    evaluator :func:`~sumtails.bounds.p_bounds_row` uses too, and are built
    as numbers only for a violation.  The oracle is asked by rows: one
    Delta row per (w, mode) over the whole z grid, and one max tail and one
    (Q, Q*) row per distinct y of the whole grid, so a y past the atom
    budget is skipped at every z it is swept at.  The (Q, Q*) row of y
    covers only the z whose largest Delta, over every w and mode, exceeds
    P(max_i X_i > y): at any other (z, y), Delta <= P(max_i X_i > y) <= P2,
    P3 for every w and mode, as Q and Q* are nonnegative, and that one
    integer comparison decides the cell.  The first call on an oracle asks
    the Delta rows of every mode and keeps them, with P1 per w and the per-z
    ``(y, pairs)`` rows, in the oracle's ``_sweeps`` memo, keyed by the
    grids, so a sweep of another mode on the same oracle reads them instead
    of asking the oracle again.  Cells whose convolutions exceed the atom
    budget are appended to ``skip_log`` instead of failing the sweep, in
    the order z, then w, then y.  The expected result is an empty list:
    these inequalities are theorems.
    """
    check_mode(mode)
    oracle = oracle if oracle is not None else SystemOracle(system)
    skip_log = skip_log if skip_log is not None else []
    violations: list[OsipovViolation] = []
    grid = tuple(tuple(map(_key, values)) for values in (z_grid, y_grid, (p,), w_grid))
    sweep = oracle._sweeps.get(grid)
    if sweep is None:
        per_w, at_w = [], []  # per w: its float and P1; the _parts of sum_i P(X_i > w) and P1
        for w in w_grid:
            p1, sum_exc = oracle.max_tail_at(w), oracle.sum_exceedance(w)
            per_w.append((float(w), p1, _parts(p1)))
            at_w.append((_parts(sum_exc), _parts(p1)))
        deltas = {m: [_delta_parts(oracle, z_grid, w, m) for w in w_grid] for m in WINSOR_MODES}
        # per z, the largest Delta of any w and mode as a _parts pair; a NaN
        # Delta exceeds no bound, so it is passed over
        floors: list[tuple | None] = [None] * len(z_grid)
        for row_deltas in (r for rows in deltas.values() for r in rows if r is not None):
            for i, (_, dn, dd) in enumerate(row_deltas):
                floor = floors[i]
                if dn == dn and (floor is None or dn * floor[1] > floor[0] * dd):
                    floors[i] = dn, dd
        ys_at = [_sweep_ys(z, y_grid, p) for z in z_grid]
        rows = _pairs_by_y(oracle, z_grid, ys_at, at_w, floors)
        sweep = oracle._sweeps[grid] = per_w, deltas, rows
    per_w, deltas, rows = sweep

    for i, (z, row) in enumerate(zip(z_grid, rows)):
        zf = float(z)
        kept = []  # the (y, pairs) within the atom budget that Delta may exceed
        for y, pairs in row:
            if pairs is None:
                skip_log.append({"z": zf, "y": float(y), "stage": "restricted"})
            elif pairs:
                kept.append((y, pairs))
        for k, ((wf, p1, (p1n, p1d)), row_deltas) in enumerate(zip(per_w, deltas[mode])):
            if row_deltas is None:
                skip_log.append({"z": zf, "w": wf, "stage": "capped-sum"})
                continue
            delta, dn, dd = row_deltas[i]
            if dn < 0:
                violations.append(OsipovViolation(zf, wf, None, "nonneg", delta, 0))
            if dn * p1d > p1n * dd:
                violations.append(OsipovViolation(zf, wf, None, "p1", delta, p1))
            for y, pairs in kept:
                n2, d2, n3, d3 = pairs[k]
                over2, over3 = dn * d2 > dd * n2, dn * d3 > dd * n3
                if over2 or over3:
                    values = _pair_value(n2, d2), _pair_value(n3, d3)
                    violations += [
                        OsipovViolation(zf, wf, float(y), name, delta, value)
                        for name, value, bad in zip(("p2", "p3"), values, (over2, over3))
                        if bad
                    ]
    return violations


@dataclass
class CorpusVerification:
    """Aggregate result of the exact sweep over a corpus.

    A cell is one (system, mode, z, w, y); ``cells`` counts the evaluated
    ones and ``skipped`` those past the atom budget, so together they make
    the whole grid.
    """

    violations: list[tuple[int, str, OsipovViolation]]
    systems: int
    cells: int
    skipped: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_corpus(
    corpus: Sequence[System],
    z_grid: Sequence[Number] = DEFAULT_Z_GRID,
    w_grid: Sequence[Number] = DEFAULT_W_GRID,
    y_grid: Sequence[Number] = DEFAULT_Y_GRID,
    modes: Sequence[str] = WINSOR_MODES,
    *,
    p: Number = 2,
) -> CorpusVerification:
    """Run :func:`verify_osipov` for every system and mode, sharing oracles.

    A cell (z, w, y) is skipped when the capped sum at (z, w) or the
    restriction at (z, y) was past the atom budget: a skip-log entry of
    either stage stands for a whole row of cells.
    """
    violations: list[tuple[int, str, OsipovViolation]] = []
    skipped = 0
    for idx, system in enumerate(corpus):
        oracle = SystemOracle(system)
        for mode in modes:
            skip_log: list = []
            found = verify_osipov(
                system, z_grid, w_grid, y_grid, mode, p=p, oracle=oracle, skip_log=skip_log
            )
            violations.extend((idx, mode, v) for v in found)
            if skip_log:
                capped = {(e["z"], e["w"]) for e in skip_log if e["stage"] == "capped-sum"}
                restricted = {(e["z"], e["y"]) for e in skip_log if e["stage"] == "restricted"}
                skipped += sum(
                    (float(z), float(w)) in capped or (float(z), float(y)) in restricted
                    for z in z_grid
                    for y in _sweep_ys(z, y_grid, p)
                    for w in w_grid
                )
    ys_per_mode = sum(len(_sweep_ys(z, y_grid, p)) for z in z_grid)
    grid = len(corpus) * len(modes) * len(w_grid) * ys_per_mode
    return CorpusVerification(
        violations=violations, systems=len(corpus), cells=grid - skipped, skipped=skipped
    )


# ---------------------------------------------------------------------------
# Calibration of the unspecified constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Minimal empirical constant for one structural bound over one grid.

    ``a_min`` is the supremum over evaluated cells of exact-LHS over
    structural-RHS, and ``n_cells`` counts those cells; ``witness`` pins the
    cell attaining it and reproduces ``a_min`` when re-evaluated.
    """

    bound_name: str
    a_min: float
    witness: dict
    grid: dict
    n_cells: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _ratio_theorem(oracle: SystemOracle, params: BoundParams, mode: str, zs: Sequence[Number]):
    beta = float(oracle.beta_v_at(params.v))
    law = oracle.law_capped(params.w, mode)
    if oracle.system.exact:
        # the numerator over den rounds correctly, as float(law.tail(z)) does
        tails = [law.tail_numerator(*z.as_integer_ratio()) / law.den for z in zs]
    else:
        tails = [float(law.tail(z)) for z in zs]
    out = []
    for z, tail in zip(zs, tails):
        lhs = abs(tail - normal_tail(z))
        if beta == 0.0:
            out.append(math.inf if lhs > 0.0 else 0.0)
        else:
            out.append(lhs * math.exp(params.lam * z) / beta)
    return out


def _ratio_concentration(
    oracle: SystemOracle, params: BoundParams, mode: str, intervals: Sequence[tuple]
):
    beta = float(oracle.beta_v_at(params.v))
    rhs = [(b - a + beta) * math.exp(-params.lam * a) for a, b in intervals]
    # each distinct endpoint as an integer pair, read once per lattice law
    a_pairs = {a: a.as_integer_ratio() for a, _ in intervals}
    b_pairs = {b: b.as_integer_ratio() for _, b in intervals}
    out = []
    for law in oracle.loo_capped(params.w, mode):
        if oracle.system.exact:
            at_least = {a: law.at_least_numerator(n, d) for a, (n, d) in a_pairs.items()}
            above = {b: law.tail_numerator(n, d) for b, (n, d) in b_pairs.items()}
            # rounds as the float of the Fraction law.interval_mass(a, b)
            masses = [(at_least[a] - above[b]) / law.den if a <= b else 0.0 for a, b in intervals]
        else:
            masses = [float(law.interval_mass(a, b)) for a, b in intervals]
        # a right side that underflows to 0.0 reads as in _ratio_theorem
        out += [
            lhs / r if r else (math.inf if lhs > 0.0 else 0.0) for lhs, r in zip(masses, rhs)
        ]
    return out


def _ratio_p4(oracle: SystemOracle, params: BoundParams, mode: str, zs: Sequence[Number]):
    deltas = oracle.delta_row(zs, params.w, mode)
    p1 = float(oracle.max_tail_at(params.w))
    out = []
    for z, delta in zip(zs, deltas):
        lhs = float(delta) - float(oracle.max_tail_at(scaled_y(z, params.p)))
        if lhs <= 0.0:
            out.append(0.0)
            continue
        structure = p1 / (params.c + z) ** params.p
        out.append(math.inf if structure == 0.0 else lhs / structure)
    return out


def _ratio_p5(oracle: SystemOracle, params: BoundParams, mode: str, zs: Sequence[Number]):
    mu = _float_mu(oracle, params.p)
    out = []
    for z, delta in zip(zs, oracle.delta_row(zs, params.w, mode)):
        delta = float(delta)
        structure = mu / (params.c + z) ** params.p
        if structure == 0.0:
            out.append(math.inf if delta > 0.0 else 0.0)
        else:
            out.append(delta / structure)
    return out


#: the ratios of each calibrated bound along one system's row of cells:
#: ``_RATIOS[name](oracle, params, mode, row)`` reads the system's laws once
#: and returns one float per cell.  A ``concentration`` row is a list of
#: intervals (a, b) and its cells {"system", "i", "a", "b"} come summand by
#: summand, each over the whole list; any other row is a list of z values
#: with one cell {"system", "z"} each
_RATIOS = dict(
    theorem=_ratio_theorem, concentration=_ratio_concentration, p4=_ratio_p4, p5=_ratio_p5
)
CALIBRATION_BOUNDS = tuple(_RATIOS)


def _ratio(bound_name: str):
    """The row function of ``bound_name``; an unknown name is a ``ValueError``."""
    if bound_name not in _RATIOS:
        raise ValueError(f"unknown bound {bound_name!r}; expected one of {CALIBRATION_BOUNDS}")
    return _RATIOS[bound_name]


def _check_finite(name: str, values: Sequence[Number]) -> None:
    """Raise ``ValueError`` naming the first value of ``values`` that is not finite."""
    for x in values:
        if not math.isfinite(x):
            raise ValueError(f"calibration {name} values must be finite, got {x}")


#: per calibrated bound, the grid whose large values overflow its structural
#: right side, that float factor, and the factor as a function of (params, value)
_FACTORS = dict(
    theorem=("z", "e^(lam z)", lambda params, z: math.exp(params.lam * z)),
    concentration=("a", "e^(-lam a)", lambda params, a: math.exp(-params.lam * a)),
    p4=("z", "(c + z)^p", lambda params, z: (params.c + z) ** params.p),
    p5=("z", "(c + z)^p", lambda params, z: (params.c + z) ** params.p),
)


def _check_range(bound_name: str, params: BoundParams, x: float) -> None:
    """Raise ``ValueError`` naming ``x`` if its factor of :data:`_FACTORS` overflows a float.

    So it does if (c + z)^p, the divisor of P4 and P5, underflows to 0.0.
    """
    name, factor, f = _FACTORS[bound_name]
    try:
        value = f(params, x)
    except OverflowError:
        raise ValueError(f"calibration {name} value {x} overflows {factor} as a float") from None
    if value == 0.0 and bound_name in ("p4", "p5"):
        raise ValueError(f"calibration {name} value {x} underflows {factor} to 0.0 as a float")


def calibration_ratio(
    corpus: Sequence[System],
    bound_name: str,
    cell: dict,
    params: BoundParams = BoundParams(),
    mode: str = "winsorize",
) -> float:
    """Re-evaluate one calibration cell (used to confirm a witness): the row of one."""
    ratio = _ratio(bound_name)
    oracle = SystemOracle(corpus[cell["system"]])
    if bound_name == "concentration":
        _check_finite("a and b", (cell["a"], cell["b"]))
        _check_range(bound_name, params, cell["a"])
        return ratio(oracle, params, mode, [(cell["a"], cell["b"])])[cell["i"]]
    _check_finite("z", (cell["z"],))
    _check_range(bound_name, params, cell["z"])
    return ratio(oracle, params, mode, [cell["z"]])[0]


def calibrate(
    corpus: Sequence[System],
    bound_name: str,
    *,
    params: BoundParams = BoundParams(),
    z_grid: Sequence[Number] = DEFAULT_Z_GRID,
    a_grid: Sequence[Number] = DEFAULT_A_GRID,
    gaps: Sequence[Number] = DEFAULT_GAPS,
    mode: str = "winsorize",
) -> CalibrationResult:
    """Empirical minimal constant over (corpus x grid) for one bound family.

    Deterministic given (corpus, grids, params): one pass walks the systems
    in a fixed order and asks each for its row of ratios (see
    :data:`_RATIOS`), each a pure float computation of its cell.  Ties keep
    the earliest cell as witness.  The z and a values must be finite and
    the gaps finite and nonnegative, no z or a may overflow its bound's
    float factor of :data:`_FACTORS`, and no z may underflow (c + z)^p to
    0.0, else ``ValueError``.  A system whose
    laws exceed the atom budget skips its whole row; ``grid["skipped"]``
    counts the skipped cells when there are any, and a grid with no
    evaluated cell is a ``ValueError``.
    """
    ratio = _ratio(bound_name)
    if not corpus:
        raise ValueError("calibration needs a nonempty corpus")
    check_mode(mode)
    params.check_float_range()
    zs = [float(z) for z in z_grid]
    _check_finite("z", zs)
    if bound_name in ("p4", "p5"):
        zs = [z for z in zs if z > 0.0]
    concentration = bound_name == "concentration"
    intervals = []
    if concentration:  # only this bound reads them
        a_values = [float(a) for a in a_grid]
        _check_finite("a", a_values)
        for gap in gaps:
            if not 0 <= gap < math.inf:
                raise ValueError(f"calibration gaps must be finite and nonnegative, got {gap}")
        intervals = [(float(a), float(a + gap)) for a in a_grid for gap in gaps]
        _check_finite("b = a + gap", [b for _, b in intervals])
    if bound_name in ("theorem", "p4", "p5") and not zs:
        raise ValueError("calibration needs a nonempty z grid")
    if concentration and not intervals:
        raise ValueError("calibration needs nonempty interval grids")
    # each factor grows with z and falls with a, so the largest z or least a decides
    # an overflow, and the least z an underflow of (c + z)^p
    _check_range(bound_name, params, min(a_values) if concentration else max(zs))
    if bound_name in ("p4", "p5"):
        _check_range(bound_name, params, min(zs))

    row = intervals if concentration else zs
    a_min = -math.inf
    witness: dict = {}
    n_cells = skipped = 0
    for idx, system in enumerate(corpus):
        try:
            values = ratio(SystemOracle(system), params, mode, row)
        except ConvolutionCapError:
            skipped += system.n * len(row) if concentration else len(row)
            continue
        n_cells += len(values)
        for k, value in enumerate(values):
            if value > a_min:
                a_min = value
                if concentration:
                    i, j = divmod(k, len(row))
                    witness = {"system": idx, "i": i, "a": row[j][0], "b": row[j][1]}
                else:
                    witness = {"system": idx, "z": row[k]}
    if not n_cells:
        raise ValueError(f"no calibration cell fits the atom budget ({skipped} skipped)")
    grid_desc = {
        "mode": mode,
        "v": float(params.v),
        "w": float(params.w),
        "lam": params.lam,
        "p": params.p,
        "c": params.c,
        "z": {"min": min(zs), "max": max(zs), "count": len(zs)} if zs else None,
        "intervals": len(intervals) if concentration else None,
        "systems": len(corpus),
    }
    if skipped:
        grid_desc["skipped"] = skipped
    return CalibrationResult(
        bound_name=bound_name, a_min=a_min, witness=witness, grid=grid_desc, n_cells=n_cells
    )


# ---------------------------------------------------------------------------
# Sharpness of the mean-absolute-value bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessReport:
    """Extremal two-scale family: one heavy summand, n-1 light ones.

    The family has |X_1| = x, |X_i| = y (i >= 2) with x chosen so that the
    variances sum to one exactly; as n grows, E|X_1| / (v beta_v^(1/3))
    approaches 1, showing the bound's constant cannot be improved.  The
    closed-form ratio (1 + (n-1)^(-1/4))^(-1/3) applies while x, y <= v.
    """

    n: int
    v: float
    x: float
    y: float
    sum_var: float
    beta: float
    mean_abs_first: float
    bound: float
    ratio: float
    ratio_closed_form: float
    in_regime: bool


def extremal_report(n: int, v: float = 1.0) -> SharpnessReport:
    """Sharpness numbers for the two-scale family, without materializing it.

    Uses multiplicity arithmetic (the n-1 light summands are identical), so
    it is exact-in-structure up to float rounding even at n - 1 = 10^8.
    """
    if n < 2:
        raise ValueError(f"extremal family needs n >= 2, got {n}")
    if not v > 0:
        raise ValueError(f"scale v must be positive, got {v}")
    m = n - 1
    x = 1.0 / math.sqrt(1.0 + m ** (1.0 / 6.0))
    y = x / m ** (5.0 / 12.0)
    sum_var = x * x + m * (y * y)
    beta = float(g(x / v)) + m * float(g(y / v))
    mean_abs_first = x
    bound = v * beta ** (1.0 / 3.0)
    ratio = mean_abs_first / bound
    closed = (1.0 + m ** (-0.25)) ** (-1.0 / 3.0)
    return SharpnessReport(
        n=n,
        v=v,
        x=x,
        y=y,
        sum_var=sum_var,
        beta=beta,
        mean_abs_first=mean_abs_first,
        bound=bound,
        ratio=ratio,
        ratio_closed_form=closed,
        in_regime=(x <= v and y <= v),
    )


def extremal_system(n: int, v: float = 1.0) -> tuple[System, SharpnessReport]:
    """Materialize the extremal family as a float-mode :class:`System`.

    Summands are fair two-point variables (+-x and +-y), the unique
    zero-mean realization of the prescribed absolute values.  For very large
    n use :func:`extremal_report`, which needs no materialization.
    """
    report = extremal_report(n, v)
    if n > MAX_MATERIALIZE:
        raise ValueError(
            f"n={n} exceeds the materialization limit {MAX_MATERIALIZE}; "
            "use extremal_report for the numbers alone"
        )
    heavy = DiscreteRV.from_atoms([(-report.x, 0.5), (report.x, 0.5)], exact=False)
    light = DiscreteRV.from_atoms([(-report.y, 0.5), (report.y, 0.5)], exact=False)
    system = System(rvs=(heavy,) + (light,) * (n - 1))
    return system, report


@dataclass(frozen=True)
class MeanAbsReport:
    """Corpus scan of E|X_i| <= v beta_v^(1/3)."""

    max_ratio: float
    witness: dict | None
    n_checked: int
    n_skipped: int
    violations: tuple[dict, ...]


def mean_abs_sharpness(corpus: Sequence[System], v: float = 1.0) -> MeanAbsReport:
    """Check the mean-absolute-value bound on every summand of every system.

    Systems with beta_v above (8/9)^3 are outside the bound's regime and
    counted as skipped.  Expected: zero violations, max ratio <= 1.
    """
    max_ratio = 0.0
    witness: dict | None = None
    n_checked = 0
    n_skipped = 0
    violations: list[dict] = []
    for idx, system in enumerate(corpus):
        beta = beta_v(system, v)
        if beta > _BETA_CUBE_LIMIT:
            n_skipped += 1
            continue
        bound = mean_abs_bound(v, beta)
        for i, rv in enumerate(system.rvs):
            mean_abs = float(rv.abs_moment(1))
            n_checked += 1
            if bound == 0.0:
                continue
            ratio = mean_abs / bound
            if ratio > max_ratio:
                max_ratio = ratio
                witness = {"system": idx, "i": i, "mean_abs": mean_abs, "bound": bound}
            if mean_abs > bound + 1e-12:
                violations.append(
                    {"system": idx, "i": i, "mean_abs": mean_abs, "bound": bound}
                )
    return MeanAbsReport(
        max_ratio=max_ratio,
        witness=witness,
        n_checked=n_checked,
        n_skipped=n_skipped,
        violations=tuple(violations),
    )
