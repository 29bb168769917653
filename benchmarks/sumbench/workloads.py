"""The four workloads: inputs generated from the seed, and one callable per op.

An op is one outermost public call into the library.  A workload is a fixed
list of ops, its *round*; a run repeats the round.

The corpus workloads draw their systems from ``gen_corpus`` streams, but a
plain corpus mixes system shapes by chance: the cost of one system grows
steeply with its number of summands and atoms, and the few heaviest shapes
(four summands of four atoms) arrive as a Poisson count, so two seeds'
200-system corpora differed by 40% in total cost.  A *stratified* input set
fixes how many systems of each shape (sorted atom counts per summand) it
holds, in proportion to the shape's probability under ``gen_corpus``, and
takes them in stream order from ``gen_corpus(CorpusSpec(seed))`` and corpora
with derived seeds.  The seed still picks every value; only the shape mix is
fixed.  ``corpus="plain"`` runs ``gen_corpus(CorpusSpec(seed))`` itself,
which reproduces the criterion-1 corpus.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Any, Callable

from sumtails import cli, mc, verify
from sumtails.bounds import CONSTANT_NAMES, BoundParams, SystemOracle
from sumtails.discrete import System, save_system

from . import WORKLOADS
CORPORA = ("stratified", "plain")

#: atom counts gen_corpus draws per summand (CorpusSpec.atoms_max = 4)
ATOM_COUNTS = (2, 3, 4)
#: corpus chunks searched for the rarest shape before giving up
MAX_CHUNKS = 500

SWEEP_MODES = verify.WINSOR_MODES
#: scaled-y exponent of the criterion-1 sweep, y = z / (1 + p/2)
SWEEP_P = 2
TABLE_MODES = ("winsorize", "truncate")
#: every constant supplied, so P4 and P5 enter `best`
TABLE_CONSTANTS = tuple(f"{name}=1" for name in CONSTANT_NAMES)
MC_Z_GRID = tuple(i / 2 for i in range(9))  # 0:0.5:4


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark size."""

    #: (most summands, systems) of each corpus workload
    corpora: dict[str, tuple[int, int]]
    #: exact z grid 0:z_step:8 of exact-sweep and bounds-table
    z_step: Fraction
    #: systems in the plain corpus
    plain_count: int
    #: seeds per MC call in one round
    mc_seeds: int
    mc_samples: int


SIZES = {
    # bounds-table stops at three summands: a four-summand table takes over a
    # second, too few ops per run for a p90 with ten ops beyond it
    "full": Size(
        {"exact-sweep": (4, 32), "bounds-table": (3, 14), "calibrate": (4, 40)},
        Fraction(1, 4),
        200,
        2,
        1 << 15,
    ),
    "tiny": Size(
        {"exact-sweep": (2, 10), "bounds-table": (1, 3), "calibrate": (2, 10)},
        Fraction(1),
        20,
        1,
        1 << 12,
    ),
}


@dataclass(frozen=True)
class Outcome:
    """What the untimed check of one op's output found."""

    #: canonical rendering of the output; its hash is the op's digest
    text: str
    #: failures the library itself reports: violations, cap skips, flags
    problems: tuple[str, ...]
    #: work units the op completed
    units: int


@dataclass(frozen=True)
class Op:
    call: Callable[[], Any]
    inspect: Callable[[Any], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    corpus: str
    #: what one work unit is
    unit: str
    ops: tuple[Op, ...]
    #: op times are scaled to reference seconds (see ``speed``); not for
    #: mc-iid, whose time is in numpy kernels: its ops slowed by only 0.36 of
    #: the reference loop's slowdown, so scaling would add noise
    scaled: bool = True


def derive_seed(*parts: object) -> int:
    """A 32-bit seed that depends only on ``parts``."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:4], "big")


def canon(value: object) -> str:
    """Canonical text of an output: exact values as num/den, floats as repr."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, int):
        return repr(int(value))
    if is_dataclass(value):
        inner = ",".join(canon(getattr(value, f.name)) for f in fields(value))
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        items = sorted((canon(k), canon(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if hasattr(value, "item"):  # numpy scalar
        return canon(value.item())
    raise TypeError(f"no canonical form for {type(value).__name__}")


def z_grid(step: Fraction) -> tuple[Fraction, ...]:
    return tuple(step * i for i in range(int(8 / step) + 1))


def shape(system: System) -> tuple[int, ...]:
    return tuple(sorted(len(rv.values) for rv in system.rvs))


def shapes(n_max: int) -> list[tuple[int, ...]]:
    return [
        c for n in range(1, n_max + 1) for c in combinations_with_replacement(ATOM_COUNTS, n)
    ]


def shape_probability(s: tuple[int, ...], n_max: int) -> Fraction:
    """P(shape) under gen_corpus: n uniform on 1..n_max, atom counts i.i.d. uniform."""
    orderings = math.factorial(len(s))
    for count in ATOM_COUNTS:
        orderings //= math.factorial(s.count(count))
    return Fraction(orderings, n_max * len(ATOM_COUNTS) ** len(s))


def shape_quotas(n_max: int, k: int) -> dict[tuple[int, ...], int]:
    """Systems of each shape in a set of ``k``: largest-remainder apportionment."""
    exact = {s: k * shape_probability(s, n_max) for s in shapes(n_max)}
    quotas = {s: math.floor(v) for s, v in exact.items()}
    by_remainder = sorted(exact, key=lambda s: quotas[s] - exact[s])  # stable: ties keep order
    for s in by_remainder[: k - sum(quotas.values())]:
        quotas[s] += 1
    return quotas


def stratified_corpus(seed: int, n_max: int, k: int) -> list[System]:
    """``k`` systems with the shape counts of :func:`shape_quotas`, lightest shapes first.

    Systems are taken in stream order from ``gen_corpus(CorpusSpec(seed))``
    and then from further corpora with seeds derived from ``seed``.
    """
    quotas = shape_quotas(n_max, k)
    found: dict[tuple[int, ...], list[System]] = {s: [] for s, q in quotas.items() if q}
    for chunk in range(MAX_CHUNKS):
        spec_seed = seed if chunk == 0 else derive_seed(seed, "corpus", chunk)
        for system in verify.gen_corpus(verify.CorpusSpec(seed=spec_seed, n_max=n_max)):
            bucket = found.get(shape(system))
            if bucket is not None and len(bucket) < quotas[shape(system)]:
                bucket.append(system)
        if all(len(b) == quotas[s] for s, b in found.items()):
            return [system for bucket in found.values() for system in bucket]
    missing = [s for s, b in found.items() if len(b) < quotas[s]]
    raise RuntimeError(f"too few systems of shapes {missing} in {MAX_CHUNKS} corpora")


# -- exact-sweep ---------------------------------------------------------------


def sweep_cells(zs: tuple[Fraction, ...]) -> int:
    """(mode, z, w, y) cells one system evaluates: the y grid plus the scaled
    y per z, counted once when the scaled y is already on the grid."""
    per_mode = 0
    for z in zs:
        ys = set(verify.DEFAULT_Y_GRID) | {z / (1 + Fraction(SWEEP_P, 2))}
        per_mode += len(verify.DEFAULT_W_GRID) * len(ys)
    return per_mode * len(SWEEP_MODES)


def _sweep_op(system: System, zs: tuple[Fraction, ...], cells: int) -> Op:
    def call():
        oracle = SystemOracle(system)
        skips: list = []
        found = [
            verify.verify_osipov(system, zs, mode=mode, p=SWEEP_P, oracle=oracle, skip_log=skips)
            for mode in SWEEP_MODES
        ]
        return oracle, found, skips

    def inspect(out) -> Outcome:
        oracle, found, skips = out
        problems = []
        if any(found):
            problems.append(f"{sum(map(len, found))} violations")
        if skips:
            problems.append(f"{len(skips)} cap skips")
        # the verdicts alone are empty lists; the cached exact values behind
        # them are what a faster oracle must reproduce
        values = [
            (
                [oracle.delta(z, w, mode) for mode in SWEEP_MODES for w in verify.DEFAULT_W_GRID],
                [(oracle.q(z, y), oracle.qstar(z, y)) for y in verify.DEFAULT_Y_GRID],
            )
            for z in zs
        ]
        return Outcome(canon((found, skips, values)), tuple(problems), cells)

    return Op(call, inspect)


# -- bounds-table --------------------------------------------------------------


def _table_op(system_path: Path, mode: str, out_path: Path, grid_text: str) -> Op:
    argv = ["bounds", "--system", str(system_path), "--mode", mode, "--z-grid", grid_text]
    argv += ["--y", "auto", "--format", "csv", "--out", str(out_path)]
    for constant in TABLE_CONSTANTS:
        argv += ["--constant", constant]

    def call():
        return cli.main(argv)

    def inspect(status) -> Outcome:
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        out_path.unlink(missing_ok=True)
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = []
        if status != 0:
            problems.append(f"exit status {status}")
        if any(row["delta_w"] == "" for row in rows):
            problems.append("tail-difference oracle skipped")
        return Outcome(f"{status}\n{text}", tuple(problems), len(rows))

    return Op(call, inspect)


# -- calibrate -----------------------------------------------------------------


def _calibrate_op(system: System, family: str) -> Op:
    def call():
        return verify.calibrate([system], family, mode="winsorize")

    def inspect(result) -> Outcome:
        return Outcome(result.to_json(), (), result.n_cells)

    return Op(call, inspect)


# -- mc-iid --------------------------------------------------------------------


def _mc_ops(seed: int, seeds_per_call: int, samples: int) -> tuple[Op, ...]:
    exponential = mc.SamplerSpec("standardized-exponential", n=32)
    two_point = mc.SamplerSpec("standardized-two-point", n=256)
    pareto = mc.SamplerSpec("standardized-pareto", n=32, alpha=4.0)

    def check(report) -> Outcome:
        problems = (f"{report.n_flags} significant flags",) if report.n_flags else ()
        return Outcome(canon(report), problems, samples * exponential.n)

    def tails(n: int) -> Callable[[Any], Outcome]:
        return lambda estimates: Outcome(canon(estimates), (), samples * n)

    def ops_for(j: int) -> tuple[Op, ...]:
        s1, s2, s3 = (derive_seed(seed, "mc", j, call) for call in range(3))
        return (
            Op(
                lambda: mc.mc_check_bounds(
                    exponential, BoundParams(w=1), MC_Z_GRID, samples, s1, mode="winsorize"
                ),
                check,
            ),
            Op(lambda: mc.mc_tails(two_point, MC_Z_GRID, samples, s2, mode="raw"), tails(256)),
            Op(
                lambda: mc.mc_tails(pareto, MC_Z_GRID, samples, s3, mode="winsorize", w=1.0),
                tails(32),
            ),
        )

    return tuple(op for j in range(seeds_per_call) for op in ops_for(j))


# -- assembly ------------------------------------------------------------------


UNITS = {
    "exact-sweep": "cells",
    "bounds-table": "table rows",
    "calibrate": "calibration cells",
    "mc-iid": "summand draws",
}


def build(
    name: str,
    seed: int,
    size: str = "full",
    corpus: str = "stratified",
    workdir: Path | None = None,
) -> Workload:
    """Generate the inputs of one workload; bounds-table writes system JSON to ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if corpus not in CORPORA:
        raise ValueError(f"unknown corpus {corpus!r}; expected one of {CORPORA}")
    sz = SIZES[size]
    if name == "mc-iid":
        ops = _mc_ops(seed, sz.mc_seeds, sz.mc_samples)
        return Workload(name, seed, size, corpus, UNITS[name], ops, scaled=False)

    n_max, k = sz.corpora[name]
    if corpus == "plain":
        systems = verify.gen_corpus(verify.CorpusSpec(seed=seed, count=sz.plain_count, n_max=n_max))
    else:
        systems = stratified_corpus(seed, n_max, k)

    zs = verify.DEFAULT_Z_GRID if sz.z_step == Fraction(1, 4) else z_grid(sz.z_step)
    if name == "exact-sweep":
        cells = sweep_cells(zs)
        ops = tuple(_sweep_op(s, zs, cells) for s in systems)
    elif name == "calibrate":
        ops = tuple(_calibrate_op(s, f) for s in systems for f in verify.CALIBRATION_BOUNDS)
    else:
        if workdir is None:
            raise ValueError("bounds-table needs a working directory for its system files")
        workdir.mkdir(parents=True, exist_ok=True)
        grid_text = f"0:{float(sz.z_step):g}:8"
        out_path = workdir / "table.csv"
        table_ops = []
        for i, system in enumerate(systems):
            path = workdir / f"system-{i}.json"
            save_system(system, str(path))
            table_ops += [_table_op(path, mode, out_path, grid_text) for mode in TABLE_MODES]
        ops = tuple(table_ops)
    return Workload(name, seed, size, corpus, UNITS[name], ops)
