"""Smoke tests of the benchmark itself: ``python3 -m pytest wallbench -q``.

Every workload runs at its smoke size, untraced and traced, with all
checks on; the schedule checker is shown to catch each property it
claims to check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from checks import check_schedule  # noqa: E402
import hostspeed  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "wallbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0
    info = json.loads(info_line)["info"]
    assert info["blas_threads"] in (1, None)
    assert sum(info["failures"].values()) == result["failed"]
    if workload == "daemon-load":
        # one malformed request per 16-request round takes its batch of 8 down
        assert (result["attempted"], result["failed"]) == (16, 8)
        assert info["failures"]["no_result"] == 8
    else:
        assert result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "wallbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("solve-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _valid_schedule():
    # four requests on p=4: two halves, then the whole machine
    arrays = {
        "index": np.array([0, 1, 2, 3]),
        "start": np.array([0.0, 0.0, 1.0, 2.0]),
        "finish": np.array([1.0, 2.0, 2.0, 3.0]),
        "size": np.array([2, 2, 2, 4]),
        "mask": np.array([0b0011, 0b1100, 0b0011, 0b1111], dtype=np.uint64),
    }
    return arrays, np.array([0.0, 0.0, 0.5, 1.0]), 3.0


def test_schedule_check_accepts_a_valid_schedule():
    arrays, arrivals, makespan = _valid_schedule()
    assert check_schedule(arrays, arrivals, 4, makespan) == []


@pytest.mark.parametrize(
    "field, row, value, problem",
    [
        ("index", 3, 2, "not one each"),
        ("start", 2, 0.25, "before they arrive"),
        ("start", 3, 1.5, "overlap"),
        ("size", 3, 3, "not a power of two"),
        ("mask", 3, 0b0111, "rank set"),
    ],
)
def test_schedule_check_catches(field, row, value, problem):
    arrays, arrivals, makespan = _valid_schedule()
    arrays[field] = arrays[field].copy()
    arrays[field][row] = value
    bad = check_schedule(arrays, arrivals, 4, makespan)
    assert any(problem in b for b in bad), bad


def test_schedule_check_catches_a_wrong_makespan():
    arrays, arrivals, _ = _valid_schedule()
    assert any("makespan" in b for b in check_schedule(arrays, arrivals, 4, 2.5))


def test_windows_lose_their_samples_and_scale_by_the_slowdown(monkeypatch):
    monkeypatch.setattr(hostspeed, "REF_UNIT_S", 0.01)
    host = hostspeed.HostSpeed()
    host.at = [1.0, 2.0, 3.0, 4.0]
    host.took = [0.02, 0.04, 0.06, 0.10]
    host.unit = [0.01, 0.02, 0.03, 0.05]
    # samples at 2 and 3 fall inside [1.5, 3.5]
    assert host.own(1.5, 3.5) == pytest.approx(2.0 - 0.10)
    assert host.slowdown(1.5, 3.5) == pytest.approx(2.5)
    assert host.at_ref(1.5, 3.5) == pytest.approx(1.90 / 2.5)
    # none inside [3.2, 3.8]: the nearest on each side
    assert host.own(3.2, 3.8) == pytest.approx(0.6)
    assert host.slowdown(3.2, 3.8) == pytest.approx(4.0)
    assert host.slowdown(4.5, 5.0) == pytest.approx(5.0)
    # a window shorter than MIN_SPAN_S is widened around its middle
    assert host.own(2.9, 2.95) == pytest.approx(0.05)
    assert host.slowdown(2.9, 2.95) == pytest.approx(3.0)


def test_the_timer_samples_only_inside_the_with_block():
    host = hostspeed.HostSpeed()
    with host:
        end = hostspeed.perf() + 0.3
        while hostspeed.perf() < end:
            pass
    n = len(host.took)
    assert n >= 3 and all(0 < u < t for u, t in zip(host.unit, host.took))
    hostspeed.time.sleep(0.1)
    assert len(host.took) == n
