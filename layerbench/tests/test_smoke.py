"""Cold-cache smoke test: every workload, one short pass, untraced and
traced, from an empty input cache. Slow (a few minutes); run with

    python3 -m pytest layerbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def ray_processes() -> list[str]:
    """Command lines of Ray processes running on this host."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if cmd.startswith("ray::") or "raylet" in cmd or "gcs_server" in cmd or "default_worker.py" in cmd:
            found.append(cmd)
    return found


def run_bench(workload: str, trace: int, cache: str, cwd: str = ROOT, run: str = RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--cache-dir", cache]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace, cache):
    assert not ray_processes(), "a Ray session is already running"
    proc = run_bench(workload, trace, cache)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert context["fail_ratio"] == 0.0
    assert context["ray_processes_killed"] == 0
    assert context["host.ray_cpus"] == 2
    assert not ray_processes(), "Ray processes survived the run"


def test_refuses_to_run_without_engine(tmp_path):
    """A checkout holding only BENCHMARK.json and the benchmark exits
    non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "layerbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("tiling", 0, str(tmp_path / "cache"), cwd=str(tmp_path),
                     run=str(tmp_path / "layerbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
