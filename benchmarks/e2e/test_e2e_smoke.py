"""Smoke test of the end-to-end benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Runs every workload at --quick size through the command line and in
process: every operation passes its check, the deterministic metrics
repeat exactly for a seed (across processes and hash seeds), a held-out
seed passes too, the traced pass reports every layer and leaves no
wrapper behind, BENCHMARK.json agrees with metrics.py, compare.py tells
a regression from a repeat, and outside the repository the command fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (str(REPO / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DETERMINISTIC = ("syscalls_per_op", "ctxsw_per_op")
HELD_OUT_SEED = 20260928

#: The layers each workload is meant to stress: their spans must not be empty.
STRESSED = {
    "reactive_fattree": ("drivers", "yancfs", "vfs", "vfs.uring", "vfs.notify", "proc", "apps", "openflow", "controlchannel"),
    "forward_fattree": ("dataplane", "netpkt", "sim"),
    "bulk_campus": ("yancfs", "vfs", "vfs.uring", "libyanc", "drivers", "openflow", "dataplane"),
    "monitor_clos": ("vfs", "shell", "apps", "vfs.notify", "drivers"),
}


def cli(*args: str, cwd: Path = REPO, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def values(result: dict, names=DETERMINISTIC) -> dict[str, float]:
    return {name: result["metrics"][name]["value"] for name in names}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_is_correct_and_repeats_exactly(name: str) -> None:
    first = last_json(cli("--workload", name, "--seed", "7", "--quick", "--trace", "0"))
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True and first["failed"] == 0 and first["attempted"] >= 1
    assert list(first["metrics"]) == [m.name for m in metrics.END_TO_END]
    for metric in metrics.END_TO_END:
        assert first["metrics"][metric.name]["unit"] == metric.unit
        assert first["metrics"][metric.name]["value"] > 0, metric.name
    second = last_json(cli("--workload", name, "--seed", "7", "--quick", "--trace", "0"))
    assert values(second) == values(first)
    # In this process the hash seed is whatever pytest runs under: the counts do not depend on it.
    in_process = run.run_workload(name, 7, run.QUICK_SECONDS, False, True)
    assert in_process["correct"] and values(in_process) == values(first)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_passes(name: str) -> None:
    result = last_json(cli("--workload", name, "--seed", str(HELD_OUT_SEED), "--quick"))
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_reports_every_layer_and_removes_its_wrappers(name: str, tmp_path: Path) -> None:
    from repro.netpkt import packet
    from repro.proc.process import Process
    from repro.sim.clock import Simulator
    from repro.vfs.syscalls import Syscalls

    originals = (Simulator.step, Syscalls.open, Process._guarded, packet.parse_frame)
    before = run.run_workload(name, 7, run.QUICK_SECONDS, False, True)
    trace_file = tmp_path / "spans.trace.json"
    traced = run.run_workload(name, 7, run.QUICK_SECONDS, True, True, str(trace_file))
    assert traced["correct"], traced["errors"]
    assert list(traced["metrics"]) == [m.name for m in metrics.PER_LAYER]
    reported = values(traced, traced["metrics"])
    for layer in STRESSED[name]:
        assert reported[f"{layer}.calls_per_op"] > 0 and reported[f"{layer}.self_us_per_op"] > 0, layer
    assert reported["trace.coverage"] >= 0.9
    assert reported["trace.overhead_ratio"] > 0
    assert reported["dataplane.table_entries_max"] < 600
    dumped = json.loads(trace_file.read_text())
    assert dumped["spans"] and len(dumped["spans"][0]) == len(dumped["fields"])
    assert {span[1] for span in dumped["spans"]} <= set(spans.LAYERS)
    # Nothing is left patched, and an untraced run counts what it counted before.
    assert (Simulator.step, Syscalls.open, Process._guarded, packet.parse_frame) == originals
    assert not any(hasattr(fn, "__wrapped__") for fn in originals)
    after = run.run_workload(name, 7, run.QUICK_SECONDS, False, True)
    assert values(after) == values(before)


def test_benchmark_json_lists_what_the_benchmark_reports() -> None:
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == run.RUN_SECONDS
    assert declared["workloads"] == [{"name": cls.name, "why": cls.why} for cls in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert declared["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    assert all(m.moves for m in metrics.PER_LAYER)


def test_compare_tells_a_regression_from_a_repeat(tmp_path: Path) -> None:
    out = tmp_path / "base.json"
    assert cli("--workload", "forward_fattree", "--quick", "--out", str(out)).returncode == 0
    record = json.loads(out.read_text())
    for key in ("git_rev", "python", "nproc", "load_average_at_start", "seed", "quick", "latency_samples", "timed_wall_s"):
        assert key in record, key
    assert record["quick"] is True
    assert compare.main([str(out), str(out)]) == 0
    record["metrics"]["throughput_ops_s"]["value"] *= 0.7
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(record))
    assert compare.main([str(out), str(slower)]) == 1
    record["metrics"]["throughput_ops_s"]["value"] /= 0.7
    record["failed"] = 1
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(record))
    assert compare.main([str(out), str(failing)]) == 1


def test_outside_the_repository_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    completed = cli("--workload", "reactive_fattree", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert completed.returncode != 0
    assert "{" not in completed.stdout
