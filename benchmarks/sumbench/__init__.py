"""Benchmark harness for the sumtails library.

The harness drives the library's public entry points in a closed loop (one
process, one caller, ``workers=1``) and reports end-to-end metrics per
workload.  A separate traced run installs timing wrappers around the names one
library module calls in another and reports per-layer counts and self times.
Nothing under ``src/`` is modified.  See ``benchmarks/NOTES.md``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

#: repository root: the directory holding ``src/`` and ``benchmarks/``
ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("exact-sweep", "bounds-table", "calibrate", "mc-iid")


class LibraryMissing(RuntimeError):
    """The library sources are not present next to the benchmark."""


def load_library():
    """Import ``sumtails`` from ``<root>/src`` and nowhere else.

    A benchmark that silently measured some other installed copy would report
    numbers for code it was not asked to measure, so anything else raises.
    """
    src = ROOT / "src"
    if not (src / "sumtails" / "__init__.py").is_file():
        raise LibraryMissing(f"no library sources at {src / 'sumtails'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = importlib.import_module("sumtails")
    origin = Path(lib.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise LibraryMissing(f"sumtails was imported from {origin}, not from {src}")
    return lib
