"""Closed-loop measurement, the correctness gate and the result.

One caller runs ops back to back.  A run repeats the workload's round of ops
until another round would overrun ``seconds``, and runs at least
:data:`MIN_ROUNDS` rounds and :data:`MIN_OPS` ops, so every op is timed at
least three times and the p90 has ten ops beyond it.  ``wall_s`` is the time
of one round taken as the sum over its ops of each op's median time across
the run's rounds.  Op times of interpreter-bound workloads are in reference
seconds (see :mod:`.speed`).

Every op's output is checked untimed: it fails if it raises, if the library
reports a violation, a cap skip or a significant flag, if its digest differs
from the reference recorded for this seed, or if it differs between rounds.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import ROOT
from .probes import PROBE_METRICS, run_probes
from .speed import REF_LOOP_S, reference_loop_s
from .tracing import SPAN_METRICS, Tracer
from .workloads import Workload

MIN_ROUNDS = 3
MIN_OPS = 100
LOOP_WINDOW = 5
REFERENCE_PATH = Path(__file__).resolve().parents[1] / "reference.json"
#: end-to-end metrics: unit and which direction is better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = SPAN_METRICS + PROBE_METRICS + (("trace.overhead_s", "s"),)


@dataclass
class Phase:
    """Timings, work and failures of a run's rounds."""

    #: per op: its time in each round, in reference seconds if the workload is scaled
    op_s: list[list[float]]
    #: per op: its measured time in each round
    raw_s: list[list[float]]
    rounds: int = 0
    #: work units of one round
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: per op: the digest of its output in the first round (None if it failed)
    digests: list[str | None] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: the reference loop's latest times; their median sets the scale, which
    #: follows the machine's slow phases (tens of seconds) but not its jitter
    loop_s: deque = field(default_factory=lambda: deque(maxlen=LOOP_WINDOW))

    def round_s(self, index: int) -> float:
        return sum(times[index] for times in self.op_s)

    @property
    def samples_ms(self) -> list[float]:
        return [t * 1e3 for times in self.op_s for t in times]

    @property
    def median_round_s(self) -> float:
        return sum(statistics.median(times) for times in self.op_s)

    @property
    def raw_median_round_s(self) -> float:
        return sum(statistics.median(times) for times in self.raw_s)


def reference_key(workload: Workload) -> str:
    return f"{workload.name}/{workload.size}/{workload.corpus}/{workload.seed}"


def load_reference(workload: Workload) -> list[str] | None:
    """Recorded digests for this workload and seed, or None if none were recorded."""
    if not REFERENCE_PATH.is_file():
        return None
    recorded = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    digests = recorded.get(reference_key(workload))
    if digests is not None and len(digests) != len(workload.ops):
        raise ValueError(f"{REFERENCE_PATH} does not match the ops of {reference_key(workload)}")
    return digests


def _run_round(
    workload: Workload, phase: Phase, reference: list[str] | None, tracer: Tracer | None
) -> None:
    first = phase.rounds == 0
    for index, op in enumerate(workload.ops):
        scale = 1.0
        if workload.scaled:
            phase.loop_s.append(reference_loop_s())
            scale = REF_LOOP_S / statistics.median(phase.loop_s)
        if tracer is not None:
            tracer.begin_op()
            tracer.active = True
        error = None
        start = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        phase.raw_s[index].append(elapsed)
        phase.op_s[index].append(elapsed * scale)
        phase.attempted += 1

        digest = None
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                outcome = op.inspect(out)
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
            else:
                problems = list(outcome.problems)
                digest = hashlib.sha256(outcome.text.encode()).hexdigest()[:16]
                if first:
                    phase.units += outcome.units
                if reference is not None and digest != reference[index]:
                    problems.append("digest differs from the reference")
                if not first and digest != phase.digests[index]:
                    problems.append("output differs from the first round")
        if first:
            phase.digests.append(digest)
        if problems:
            phase.failed += 1
            phase.problems.append(f"round {phase.rounds} op {index}: " + "; ".join(problems))
    phase.rounds += 1


def run_phase(
    workload: Workload,
    seconds: float,
    reference: list[str] | None = None,
    tracer: Tracer | None = None,
    rounds: int | None = None,
) -> Phase:
    """Run ``rounds`` rounds, or as many as fit in ``seconds`` (see module doc)."""
    phase = Phase(op_s=[[] for _ in workload.ops], raw_s=[[] for _ in workload.ops])
    start = perf_counter()
    while rounds is None or phase.rounds < rounds:
        round_start = perf_counter()
        _run_round(workload, phase, reference, tracer)
        if rounds is None and phase.rounds >= MIN_ROUNDS and phase.attempted >= MIN_OPS:
            now = perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    return phase


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    samples = phase.samples_ms
    if len(samples) < MIN_OPS:
        raise RuntimeError(f"{len(samples)} ops are too few for a p90")
    wall_s = phase.median_round_s
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work_per_s": phase.units / wall_s,
        "op_ms.p50": statistics.median(samples),
        "op_ms.p90": statistics.quantiles(samples, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
    }


@dataclass
class Result:
    workload: Workload
    untraced: Phase
    end_to_end: dict[str, float]
    traced: Phase | None = None
    per_layer: dict[str, float] | None = None
    #: ops whose traced digest differs from the untraced one
    trace_mismatches: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.untraced.attempted + (self.traced.attempted if self.traced else 0)

    @property
    def failed(self) -> int:
        traced_failed = self.traced.failed if self.traced else 0
        return self.untraced.failed + traced_failed + len(self.trace_mismatches)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        """The result object: end-to-end metrics, or per-layer ones when traced."""
        if self.per_layer is None:
            metrics = {n: {"value": self.end_to_end[n], "unit": u} for n, u, _ in END_TO_END}
        else:
            metrics = {n: {"value": self.per_layer[n], "unit": u} for n, u in PER_LAYER}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    setup_s: float,
    reference: list[str] | None = None,
) -> Result:
    """Measure untraced; with ``trace``, then run one round traced."""
    untraced = run_phase(workload, seconds, reference)
    result = Result(workload, untraced, end_to_end(untraced, setup_s))
    if not trace:
        return result
    tracer = Tracer()
    with tracer.installed():
        traced = run_phase(workload, seconds, reference, tracer, rounds=1)
    result.traced = traced
    result.trace_mismatches = [
        i for i, (a, b) in enumerate(zip(traced.digests, untraced.digests)) if a != b
    ]
    per_layer = tracer.metrics()
    per_layer.update(run_probes())
    # one traced round against the untraced per-op medians
    per_layer["trace.overhead_s"] = traced.round_s(0) - untraced.median_round_s
    result.per_layer = per_layer
    return result


# -- machine facts --------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the repository rooted exactly at ROOT, if there is one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sumtails").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(traced: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "traced": traced,
    }


def report_lines(result: Result) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    wl = result.workload
    phase = result.untraced
    lines = [
        f"# machine {json.dumps(machine_facts(result.per_layer is not None), sort_keys=True)}",
        f"{wl.name}: seed {wl.seed}, size {wl.size}, corpus {wl.corpus}, "
        f"{phase.rounds} rounds of {len(wl.ops)} ops, work unit: {wl.unit}",
    ]
    for name, unit, _better in END_TO_END:
        note = f"  (over {phase.attempted} ops)" if name == "op_ms.p90" else ""
        lines.append(f"  {name:<12} {result.end_to_end[name]:.6g} {unit}{note}")
    if wl.scaled:
        raw = phase.raw_median_round_s
        lines.append(f"  (times in reference seconds; unscaled wall_s {raw:.6g} s)")
    lines.append(
        f"  {'error_rate':<12} {phase.failed / phase.attempted:.6g} ratio"
        f"  ({phase.failed} of {phase.attempted} ops failed)"
    )
    if result.per_layer is not None:
        lines.append(
            f"traced: {result.traced.rounds} round, "
            f"{len(result.trace_mismatches)} digests differ from the untraced run"
        )
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<38} {result.per_layer[name]:.6g} {unit}")
    return lines
