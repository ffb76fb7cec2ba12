"""Tiny-scale runs of every workload: each metric is emitted with its unit and
every output check runs. Each run takes a few seconds."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_smoke(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tmp_path / f"{workload}-smoke-s3-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_and_runs_every_check(tmp_path, workload, trace):
    result, record = run_smoke(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert record["checks"], "no output check ran"
    assert all(c["ran"] > 0 and c["failed"] == 0 for c in record["checks"].values())
    assert record["failed_frac"] == 0.0
    if trace:
        assert (tmp_path / f"{workload}-smoke-s3-trace1-spans.json").is_file()


def test_fails_without_sources(tmp_path):
    """Outside a checkout (only the benchmark's files) it exits non-zero and prints no result."""
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    for name in ("run.py", "bench.py"):
        (bench_copy / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
