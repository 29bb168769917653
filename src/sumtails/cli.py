"""Command line for bound tables, verification sweeps, calibration and MC runs.

Every stochastic command takes a mandatory ``--seed`` and produces
byte-identical output for identical configurations, so runs are usable as
reproducible evidence.  Exit status is 0 iff no exact inequality violation
and no statistically significant Monte Carlo flag was found.

:func:`main` builds only the invoked command's parser, so a ``bounds`` call
does not pay for the other five; ``-h``, ``--version``, no command and an
unknown command build all six.  Help, usage errors and exit status are the
same either way.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from io import StringIO
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .bounds import (
    CONSTANT_NAMES,
    BoundParams,
    SystemOracle,
    bound_reports_to_csv,
    bound_reports_to_json,
    p_bounds_row,
    write_csv,
)
# the table is one p_bounds_row call; the name p_bounds stays here because
# benchmarks/sumbench/tracing.py wraps cli.p_bounds
from .bounds import p_bounds  # noqa: F401
from .discrete import WINSOR_MODES, load_system
from .mc import FAMILIES, MODES, SamplerSpec, mc_check_bounds, mc_tails
from .scalars import LemmaGrid, check_pointwise_lemmas, young_delta, young_grid_scan
from .verify import (
    CALIBRATION_BOUNDS,
    CorpusSpec,
    calibrate,
    extremal_report,
    gen_corpus,
    verify_corpus,
)


#: most points a ``start:step:stop`` grid or a ``young`` u grid may have
MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> list[Fraction]:
    """Parse "start:step:stop" into an inclusive exact grid.

    The point count is computed before any point is built, and a grid of
    more than :data:`MAX_GRID_POINTS` points is rejected.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:step:stop, got {spec!r}")
    try:
        start, step, stop = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}: {exc}") from None
    if step <= 0:
        raise argparse.ArgumentTypeError(f"grid step must be positive, got {step}")
    points = max((stop - start) // step + 1, 0)
    if points > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} has {points} points, more than {MAX_GRID_POINTS}"
        )
    return [start + k * step for k in range(points)]


def _parse_constant(spec: str) -> tuple[str, float]:
    name, _, value = spec.partition("=")
    if name not in CONSTANT_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown constant {name!r}; expected one of {CONSTANT_NAMES}"
        )
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad constant value in {spec!r}") from None


def _bound_params(args: argparse.Namespace) -> BoundParams:
    """``BoundParams`` from the bound flags present; an absent one takes the field default."""
    given = {name: getattr(args, name, None) for name in _BOUND_FLAGS}
    if given["constants"] is not None:
        given["constants"] = dict(given["constants"])
    return BoundParams(**{name: value for name, value in given.items() if value is not None})


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _y_value(text: str) -> Fraction | str:
    if text == "auto":
        return "auto"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"y must be a number such as 1/2 or 0.5, or 'auto', got {text!r}"
        ) from None


def _parse_n_list(spec: str) -> list[int]:
    """Parse "2,101" into ``[2, 101]``; empty items are skipped, so "," is ``[]``."""
    try:
        return [int(x) for x in spec.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"n list must be comma-separated integers such as 2,101, got {spec!r}"
        ) from None


#: the flag and its ``add_argument`` settings for each ``BoundParams`` field
_BOUND_FLAGS = {
    "v": ("--v", dict(type=Fraction, default=Fraction(1), help="moment scale v > 0")),
    "w": ("--w", dict(type=Fraction, default=Fraction(1), help="cap level w > 0")),
    "lam": (
        "--lambda",
        dict(dest="lam", type=float, default=0.5, help="exponential rate lambda > 0"),
    ),
    "p": ("--p", dict(type=float, default=2.0, help="moment exponent p > 0")),
    "c": ("--c", dict(type=float, default=1.0, help="shift c > 0 in (c+z)^p")),
    "y": (
        "--y",
        dict(type=_y_value, default="auto", help="y for P2/P3, or 'auto' to minimize"),
    ),
    "constants": (
        "--constant",
        dict(
            dest="constants",
            action="append",
            type=_parse_constant,
            metavar="NAME=VALUE",
            help=f"caller-supplied constant, one of {', '.join(CONSTANT_NAMES)} (repeatable)",
        ),
    ),
}


def _add_bound_param_flags(parser: argparse.ArgumentParser, names: Iterable[str]) -> None:
    """Register the flags of the named ``BoundParams`` fields, the ones the command reads."""
    for name in names:
        flag, settings = _BOUND_FLAGS[name]
        parser.add_argument(flag, **settings)


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--atoms-max", type=int, default=4)


def _corpus(args: argparse.Namespace) -> list:
    spec = CorpusSpec(
        seed=args.seed, count=args.count, n_max=args.n_max, atoms_max=args.atoms_max
    )
    return gen_corpus(spec)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = _bound_params(args)
    system = load_system(args.system)
    oracle = SystemOracle(system)
    reports = p_bounds_row(system, args.z_grid, params, args.mode, oracle=oracle)
    if args.format == "csv":
        # the CSV has no column for them, so the warnings go to stderr, once each
        for text in dict.fromkeys(w for report in reports for w in report.warnings):
            print(f"warning: {text}", file=sys.stderr)
        buf = StringIO()
        bound_reports_to_csv(reports, buf)
        _emit(buf.getvalue(), args.out)
    else:
        _emit(bound_reports_to_json(reports) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    corpus = _corpus(args)
    modes = WINSOR_MODES if args.mode == "both" else (args.mode,)
    sweep = verify_corpus(corpus, modes=modes)
    lemma_violations = check_pointwise_lemmas(LemmaGrid())
    young_violations, young_gap = young_grid_scan()

    total = len(sweep.violations) + len(lemma_violations) + len(young_violations)
    report = {
        "corpus": {"seed": args.seed, "count": len(corpus)},
        "tail_difference": {
            "cells": sweep.cells,
            "skipped": sweep.skipped,
            "violations": [
                {
                    "system": idx,
                    "mode": mode,
                    "bound": v.bound,
                    "z": v.z,
                    "w": v.w,
                    "y": v.y,
                }
                for idx, mode, v in sweep.violations
            ],
        },
        "pointwise_lemmas": {
            "violations": [
                {"name": v.name, "point": v.point, "lhs": v.lhs, "rhs": v.rhs}
                for v in lemma_violations
            ]
        },
        "young": {
            "violations": [
                {"point": v.point, "delta": v.lhs} for v in young_violations
            ],
            "closed_form_max_gap": young_gap,
        },
        "total_violations": total,
    }
    if args.out:
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    print(
        f"checked {sweep.cells} tail-difference cells over {len(corpus)} systems "
        f"({sweep.skipped} skipped), pointwise lemmas, and the Young grid: "
        f"{total} violations"
    )
    return 0 if total == 0 else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    params = _bound_params(args)
    params.check_float_range()
    corpus = _corpus(args)
    result = calibrate(corpus, args.bound, params=params, z_grid=args.z_grid, mode=args.mode)
    _emit(result.to_json() + "\n", args.out)
    skipped = result.grid.get("skipped")
    past_budget = f" ({skipped} skipped past the atom budget)" if skipped else ""
    print(f"{args.bound}: a_min = {result.a_min!r} over {result.n_cells} cells{past_budget}")
    return 0


#: the ``SharpnessReport`` fields of an ``extremal`` row, in CSV column order
_EXTREMAL_COLUMNS = (
    "n,x,y,sum_var,beta,mean_abs_first,bound,ratio,ratio_closed_form,in_regime".split(",")
)


def _cmd_extremal(args: argparse.Namespace) -> int:
    if args.v > sys.float_info.max:
        raise ValueError(f"--v must be at most {sys.float_info.max!r}")
    reports = [extremal_report(n, float(args.v)) for n in args.n_list]
    rows = [[getattr(r, k) for k in _EXTREMAL_COLUMNS] for r in reports]
    if args.format == "csv":
        _emit(_csv_text(_EXTREMAL_COLUMNS, rows), args.out)
    else:
        records = [dict(zip(_EXTREMAL_COLUMNS, row)) for row in rows]
        _emit(json.dumps(records, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _check_mc_flags(args: argparse.Namespace) -> None:
    """Reject an ``mc`` flag that the chosen run would silently ignore.

    ``--mode`` and ``--w`` default to None, so that a given value can be
    told from the default: a None mode means ``raw`` for tails and
    ``winsorize`` for the check, and a None w means no cap for tails and 1
    for the check.
    """
    if args.check_bounds:
        if args.mode == "raw":
            raise ValueError("--mode raw does not apply with --check-bounds, which caps at --w")
    elif args.bound_scale is not None:
        raise ValueError("--bound-scale applies only with --check-bounds")
    elif args.w is not None and args.mode in (None, "raw"):
        raise ValueError("--w applies only with --check-bounds or --mode winsorize or truncate")


def _cmd_mc(args: argparse.Namespace) -> int:
    _check_mc_flags(args)
    params = _bound_params(args)
    params.check_float_range()
    if args.family == "discrete-system":
        if not args.system:
            print("error: --system is required for family 'discrete-system'", file=sys.stderr)
            return 2
        spec = SamplerSpec(family=args.family, system=load_system(args.system))
    else:
        spec = SamplerSpec(family=args.family, n=args.n, q=args.q, alpha=args.alpha)

    if args.check_bounds:
        report = mc_check_bounds(
            spec,
            params,
            args.z_grid,
            args.samples,
            args.seed,
            mode=args.mode or "winsorize",
            workers=args.workers,
            bound_scale=1.0 if args.bound_scale is None else args.bound_scale,
        )
        header = "z,p_hat_raw,p_hat_bar,delta_hat,ci_lo,ci_hi,p1,p2,p3,bound,flag".split(",")
        rows = [[*(getattr(r, k) for k in header[:-1]), int(r.flag)] for r in report.rows]
        _emit(_csv_text(header, rows), args.out)
        print(f"{report.n_flags} statistically significant flags")
        return 0 if report.ok else 1

    estimates = mc_tails(
        spec, args.z_grid, args.samples, args.seed, mode=args.mode or "raw",
        w=None if args.w is None else float(params.w), workers=args.workers,
    )
    header = "z,p_hat,ci_lo,ci_hi,n_samples,seed".split(",")
    _emit(_csv_text(header, [[getattr(e, k) for k in header] for e in estimates]), args.out)
    return 0


def _check_u_grid(u_min: float, u_max: float, u_step: float) -> None:
    """Reject a ``young`` u grid that is empty, not finite or too large."""
    if not all(map(math.isfinite, (u_min, u_max, u_step))):
        raise ValueError("--u-min, --u-max and --u-step must be finite")
    if not u_step > 0:
        raise ValueError(f"--u-step must be positive, got {u_step!r}")
    if u_min > u_max:
        raise ValueError(f"--u-min {u_min!r} is above --u-max {u_max!r}")
    if (u_max - u_min) / u_step + 1 > MAX_GRID_POINTS:
        raise ValueError(f"the u grid has more than {MAX_GRID_POINTS} points")


def _cmd_young(args: argparse.Namespace) -> int:
    if args.k is not None and not math.isfinite(args.k):
        raise ValueError(f"--k must be finite, got {args.k!r}")
    _check_u_grid(args.u_min, args.u_max, args.u_step)
    us = np.arange(args.u_min, args.u_max + args.u_step / 2, args.u_step)
    if args.k is not None:
        deltas = np.array([young_delta(args.k, float(u)).delta for u in us])
        i_min = int(np.argmin(deltas))
        report = {
            "k": args.k,
            "u_grid": {"min": args.u_min, "max": args.u_max, "step": args.u_step},
            "min_delta": float(deltas[i_min]),
            "argmin_u": float(us[i_min]),
            "negative": bool(deltas[i_min] < -1e-12),
        }
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
        print(
            f"k={args.k}: min Delta = {report['min_delta']!r} at u = {report['argmin_u']!r}"
        )
        # a negative minimum for k > 8/9 documents the boundary, not a failure
        violated = args.k <= 8.0 / 9.0 and report["negative"]
        return 1 if violated else 0
    violations, gap = young_grid_scan(u_values=us)
    report = {
        "k_grid": "0.01..8/9 step 0.001 plus the endpoint 8/9",
        "u_grid": f"{args.u_min:g}..{args.u_max:g} step {args.u_step:g}",
        "violations": [{"point": v.point, "delta": v.lhs} for v in violations],
        "closed_form_max_gap": gap,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    print(f"{len(violations)} violations; closed-form max gap {gap!r}")
    return 0 if not violations else 1


def _add_bounds_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", required=True, help="system JSON path")
    parser.add_argument("--mode", choices=WINSOR_MODES, default="winsorize")
    parser.add_argument("--z-grid", type=_parse_grid, default="0:0.25:8")
    _add_bound_param_flags(parser, _BOUND_FLAGS)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.set_defaults(func=_cmd_bounds)


def _add_verify_flags(parser: argparse.ArgumentParser) -> None:
    _add_corpus_flags(parser)
    parser.add_argument("--mode", choices=(*WINSOR_MODES, "both"), default="both")
    parser.add_argument("--out", help="JSON report path")
    parser.set_defaults(func=_cmd_verify)


def _add_calibrate_flags(parser: argparse.ArgumentParser) -> None:
    _add_corpus_flags(parser)
    parser.add_argument("--bound", choices=CALIBRATION_BOUNDS, required=True)
    parser.add_argument("--mode", choices=WINSOR_MODES, default="winsorize")
    parser.add_argument("--z-grid", type=_parse_grid, default="0:0.25:8")
    _add_bound_param_flags(parser, ("v", "w", "lam", "p", "c"))
    parser.add_argument("--out", help="JSON output path (default stdout)")
    parser.set_defaults(func=_cmd_calibrate)


def _add_extremal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n-list",
        type=_parse_n_list,
        default=[2, 101, 10001, 100000001],
        help="comma-separated n values (each >= 2)",
    )
    parser.add_argument("--v", type=Fraction, default=Fraction(1))
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.set_defaults(func=_cmd_extremal)


def _add_mc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--system", help="system JSON path (discrete-system family)")
    parser.add_argument("--n", type=int, default=1, help="number of summands (iid families)")
    parser.add_argument("--q", type=float, default=0.5, help="two-point upper mass")
    parser.add_argument("--alpha", type=float, default=4.0, help="Pareto shape (> 2)")
    parser.add_argument("--z-grid", type=_parse_grid, default="0:0.5:4")
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="capping of the sampled sums (default: raw for the tails, winsorize with "
        "--check-bounds, which accepts only winsorize or truncate)",
    )
    parser.add_argument(
        "--w",
        type=Fraction,
        default=None,
        help="cap level w > 0 of the sampled sums: needed by the winsorize and truncate "
        "tails, 1 by default with --check-bounds, not accepted with raw tails",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--check-bounds", action="store_true", help="flag significant bound violations"
    )
    parser.add_argument(
        "--bound-scale",
        type=float,
        default=None,
        help="multiply bounds by this finite positive factor (negative-control self-test; "
        "default 1)",
    )
    # the check reads only P1-P3, so only the flags they read
    _add_bound_param_flags(parser, ("p", "y"))
    parser.add_argument("--out", help="CSV output path (default stdout)")
    parser.set_defaults(func=_cmd_mc)


def _add_young_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=float, default=None, help="scan one k (default: full grid)")
    parser.add_argument("--u-min", type=float, default=0.0)
    parser.add_argument("--u-max", type=float, default=10.0)
    parser.add_argument("--u-step", type=float, default=1e-3)
    parser.add_argument("--out", help="JSON output path (default stdout)")
    parser.set_defaults(func=_cmd_young)


#: each command's help line and the function that adds its flags and handler,
#: in the order ``sumtails -h`` lists them
_COMMANDS = {
    "bounds": ("bound table over a z grid for one system", _add_bounds_flags),
    "verify": ("exact verification suite over a seeded corpus", _add_verify_flags),
    "calibrate": ("empirical minimal constant for one bound", _add_calibrate_flags),
    "extremal": ("sharpness report for the two-scale family", _add_extremal_flags),
    "mc": ("Monte Carlo tail estimates and bound flags", _add_mc_flags),
    "young": ("Delta(k, u) grid scan and boundary study", _add_young_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``sumtails`` parser: every command's, or only the named command's.

    A one-command parser parses that command's argv as the full parser
    does, with the same help, usage errors and exit status: its usage line
    still lists every command.
    """
    parser = argparse.ArgumentParser(
        prog="sumtails",
        description="Tail bounds for sums of independent random variables: "
        "exact verification, calibration, Monte Carlo.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        # only here: with it set, the "required" and "invalid choice" errors
        # of the full parser would name the brace list instead of "command"
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in _COMMANDS if command is None else (command,):
        help_text, add_flags = _COMMANDS[name]
        # a flag must be given in full: a prefix such as --c for --check-bounds
        # would otherwise silently stand for the one flag it begins
        add_flags(sub.add_parser(name, help=help_text, allow_abbrev=False))
    return parser


def _join_grid_values(argv: Sequence[str]) -> list[str]:
    """``--z-grid VALUE`` as ``--z-grid=VALUE``.

    argparse takes a value such as ``-1:0.5:1``, which starts with ``-`` and
    is not a plain negative number, for an option, so the two-token form of
    a grid with a negative start would fail to parse.
    """
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--z-grid":
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    tokens = _join_grid_values(sys.argv[1:] if argv is None else argv)
    # help, --version, no command and an unknown command need every command
    command = tokens[0] if tokens and tokens[0] in _COMMANDS else None
    args = build_parser(command).parse_args(tokens)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
