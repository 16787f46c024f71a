"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py

Checks that every workload runs and passes its correctness gate, that the
span wrappers leave the output digest unchanged, that each span's children
cover no more than the span, and that the benchmark refuses to run without
the package source.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_is_correct_and_digest_unchanged(workload):
    proc = run_bench(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])

    record = json.loads((HERE / "results" / f"{workload}-seed3-trace1-smoke.json").read_text())
    digests = {run["digest"] for run in record["runs"]}
    assert len(record["runs"]) >= 2  # at least one untraced run and the traced one
    assert digests == {record["digest"]}
    assert record["nesting_violations"] == 0
    assert record["trace_skipped_patches"] == []


def test_smoke_untraced_reports_end_to_end_metrics():
    proc = run_bench(ROOT, "gn-dense", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_times_and_nesting():
    recorder = tracer.Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))

    def outer():
        inner()
        inner()
        time.sleep(0.005)

    recorder.wrap("outer", outer)()
    spans = recorder.spans
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[1] for s in spans] == [-1, 0, 0]
    own = tracer.self_times(spans)
    assert sum(own) == pytest.approx(spans[0][3] - spans[0][2])
    assert own[0] >= 0.004
    assert tracer.nesting_violations(spans) == []
    bad = [list(s) for s in spans]
    bad[1][3] = bad[0][3] + 1.0  # a child that outlives its parent
    assert tracer.nesting_violations(bad) == [0, 1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", ".work", "__pycache__"))
    proc = run_bench(tmp_path, "planted-ensemble", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
