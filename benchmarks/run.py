#!/usr/bin/env python3
"""Benchmark of the sumtails library: one workload per run, or all of them.

    python3 benchmarks/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else.  Prints every metric by name with its unit, then,
as the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits with status 2, printing no
result, when the library sources are missing.  See ``benchmarks/NOTES.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sumbench import ROOT, WORKLOADS, LibraryMissing, load_library  # noqa: E402
from sumbench.speed import speed_factor  # noqa: E402

#: set-up samples per run (this process plus fresh child processes)
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
WORK_ROOT = ROOT / ".bench_run"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: a quick self-test"
    )
    parser.add_argument(
        "--corpus",
        choices=("stratified", "plain"),
        default="stratified",
        help="plain: the corpus workloads run gen_corpus(CorpusSpec(seed)) as one input set",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _forward(args: argparse.Namespace, workload: str) -> list[str]:
    return [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--corpus", args.corpus,
    ]  # fmt: skip


def child_setup_s(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process: import plus input generation, in reference seconds."""
    done = subprocess.run(
        _forward(args, args.workload) + ["--setup-only"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


def run_one(args: argparse.Namespace) -> int:
    try:
        load_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from sumbench import harness, workloads

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, args.size, args.corpus, workdir)
        # set-up is interpreter-bound: scale it by the machine's speed right after it
        setup_s = (time.perf_counter() - _START) * speed_factor()
        if args.setup_only:
            print(repr(setup_s))
            return 0
        samples = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        result = harness.measure(
            workload,
            args.seconds,
            bool(args.trace),
            statistics.median(samples),
            harness.load_reference(workload),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed
    for line in harness.report_lines(result):
        print(line)
    problems = result.untraced.problems[:10]
    if result.traced is not None:
        problems += result.traced.problems[:10]
    for problem in problems:
        print(f"failed: {problem}", file=sys.stderr)
    if result.trace_mismatches:
        print(f"failed: traced digests differ at {result.trace_mismatches[:10]}", file=sys.stderr)
    print(json.dumps(result.summary(), sort_keys=True))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is that workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(_forward(args, workload), capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: {workload} exited with status {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
