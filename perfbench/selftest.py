"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection: the
trace-counter test runs every workload twice (a few minutes on 2 CPUs).
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import layer_metric_names, metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


def test_benchmark_json_follows_its_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in BENCH[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert [m["name"] for m in BENCH["per_layer"]] == layer_metric_names()
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["unit"] == metric_unit(m["name"])


def test_result_line_reports_every_end_to_end_metric():
    result = result_of(run_bench("--workload", "queries", "--seed", "4", "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    tmp_path = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench("--workload", "population", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    finally:
        shutil.rmtree(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_trace_counters_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        result = result_of(run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"))
        assert result["correct"]
        assert [*result["metrics"]] == layer_metric_names()
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith((".calls", ".items", "_ratio"))})
    assert counts[0] == counts[1]
