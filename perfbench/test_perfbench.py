"""Smoke-size runs of the serving benchmark.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import serving  # noqa: E402
from measure import Slowdown, least_slowed  # noqa: E402
from repro.memory.accessor import MemoryAccessor  # noqa: E402

SMOKE_SECONDS = 0.4

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.fixture
def smoke_size(monkeypatch):
    """Shrink every phase so a run takes about a second."""
    monkeypatch.setattr(serving, "SETUP_REPS", 1)
    monkeypatch.setattr(serving, "APACHE_WARMUP", 20)
    monkeypatch.setattr(serving, "OPEN_WINDOW_S", 0.2)
    monkeypatch.setattr(serving.ApacheAttack, "window_requests", 100)
    monkeypatch.setattr(serving.FleetSoak, "window_requests", 60)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(serving.WORKLOADS)


@pytest.mark.parametrize("name", sorted(serving.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(name, smoke_size):
    workload = serving.WORKLOADS[name](seed=7, seconds=SMOKE_SECONDS)
    report = serving.measure_end_to_end(workload, SMOKE_SECONDS)
    assert report.correct, report.tally.problems
    assert report.tally.attempted > 0
    reported = {metric: unit for metric, (_value, unit) in report.metrics.items()}
    assert reported == units(BENCHMARK["end_to_end"])

    metrics, tally, tracer = run.traced_metrics(
        serving.WORKLOADS[name](seed=7, seconds=SMOKE_SECONDS), SMOKE_SECONDS, report.detail
    )
    assert tally.failed == 0, tally.problems
    assert tracer.requests and tracer.spans
    reported = {metric: unit for metric, (_value, unit) in metrics.items()}
    assert reported == units(BENCHMARK["per_layer"])
    # The wrappers are gone once the traced phase ends.
    assert not hasattr(MemoryAccessor.read_byte, "__wrapped__")


def test_wrong_response_body_counts_in_failed_ratio(smoke_size):
    workload = serving.ApacheFoAttack(seed=7, seconds=SMOKE_SECONDS)
    workload.expected_body = b"<html>not the home page</html>"
    report = serving.measure_end_to_end(workload, SMOKE_SECONDS)
    tally = report.tally
    assert not report.correct
    assert tally.legit_attempted > 0
    assert tally.failed == tally.legit_attempted
    assert report.detail["failed_ratio"] == tally.failed / tally.attempted
    assert report.metrics["availability"][0] == 0.0


def test_least_slowed_ranks_windows_by_the_timing_before_them():
    windows = [("a", Slowdown(1.5, 1.0)), ("b", Slowdown(1.0, 1.9)),
               ("c", Slowdown(1.2, 1.2)), ("d", Slowdown(1.9, 1.0))]
    assert [name for name, _ in least_slowed(windows, 0.5)] == ["b", "c"]
    assert [name for name, _ in least_slowed(windows[:1], 0.5)] == ["a"]


#: Runs the benchmark as a child subreaper, so that any process the run
#: leaves behind is re-parented to this script, and prints those processes.
LEFTOVER_CHECK = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
completed = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            parent = int(handle.read().rsplit(")", 1)[1].split()[1])
    except OSError:
        continue
    if parent == os.getpid():
        left.append(pid)
print(completed.returncode, len(left))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_leaves_no_process_behind(trace):
    """Shared memory would start a resource-tracker process; the run keeps
    it from starting, and starts no other process."""
    completed = subprocess.run(
        [sys.executable, "-c", LEFTOVER_CHECK, sys.executable, "perfbench/run.py",
         "--workload", "apache-fo-attack", "--seed", "1", "--seconds", "0.4",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.stdout.split() == ["0", "0"], completed.stderr


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-soak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
