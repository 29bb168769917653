#!/usr/bin/env python3
"""Record the reference digests of every op's output into ``reference.json``.

    python3 benchmarks/record_reference.py

Runs one round of every workload, at both sizes, for the default seed and
one held-out seed, on the stratified inputs.  Refuses to record when
any op fails its own checks.  Re-record only when a change is meant to alter
outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sumbench import ROOT, WORKLOADS, load_library  # noqa: E402

#: the default seed and one seed held out while the benchmark was tuned
SEEDS = (1, 7)
SIZES = ("full", "tiny")


def main() -> int:
    load_library()
    from sumbench import harness, workloads

    workdir = ROOT / ".bench_run" / "record"
    reference = {}
    try:
        for name in WORKLOADS:
            for size in SIZES:
                for seed in SEEDS:
                    workload = workloads.build(name, seed, size, "stratified", workdir)
                    phase = harness.run_phase(workload, 0.0, rounds=1)
                    if phase.failed:
                        print("\n".join(phase.problems), file=sys.stderr)
                        return 1
                    reference[harness.reference_key(workload)] = phase.digests
                    print(f"{harness.reference_key(workload)}: {phase.attempted} ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    harness.REFERENCE_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
