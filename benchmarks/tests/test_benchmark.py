"""Tests of the benchmark itself, on the tiny size.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from sumbench import ROOT, WORKLOADS, load_library  # noqa: E402

load_library()

from sumbench import harness, workloads  # noqa: E402
from sumbench.tracing import Tracer  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return tmp_path / "work"


def _measure(name, workdir, trace=False, reference=None):
    workload = workloads.build(name, 1, "tiny", "stratified", workdir)
    if reference is None:
        reference = harness.load_reference(workload)
    return harness.measure(workload, 0.01, trace, setup_s=1.0, reference=reference)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(name, workdir):
    result = _measure(name, workdir, trace=True)
    assert result.correct, result.untraced.problems
    assert result.trace_mismatches == []
    assert result.untraced.attempted >= harness.MIN_OPS

    untraced = harness.Result(result.workload, result.untraced, result.end_to_end).summary()
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == {
        n: u for n, u, _ in harness.END_TO_END
    }
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = result.summary()
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == dict(harness.PER_LAYER)
    lines = "\n".join(harness.report_lines(result))
    for name_, unit, _ in harness.END_TO_END:
        assert f"{name_} " in lines and unit in lines
    assert "error_rate" in lines


def test_tiny_sizes_have_reference_digests(workdir):
    for name in WORKLOADS:
        assert harness.load_reference(workloads.build(name, 1, "tiny", "stratified", workdir))


def test_corrupted_reference_digest_raises_error_rate(workdir):
    workload = workloads.build("exact-sweep", 1, "tiny", "stratified", workdir)
    reference = list(harness.load_reference(workload))
    reference[3] = "0" * 16
    result = harness.measure(workload, 0.01, False, setup_s=1.0, reference=reference)
    assert not result.correct
    assert result.failed >= 1
    assert any("differs from the reference" in p for p in result.untraced.problems)


def test_tracer_restores_every_patched_name():
    from sumtails import bounds, cli, mc, verify

    owners = (bounds, cli, mc, verify, bounds.SystemOracle)
    before = [dict(vars(owner)) for owner in owners]
    with Tracer().installed():
        assert bounds._convolve_two is not before[0]["_convolve_two"]
    assert [dict(vars(owner)) for owner in owners] == before


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_command_prints_result_last():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mc-iid", "--seed", "3"]
        + ["--seconds", "0.01", "--size", "tiny"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "exact-sweep"]
        + ["--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
