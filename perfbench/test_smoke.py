"""Smoke tests for the benchmark itself, at tiny size.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q

They start real server processes (a few seconds per workload).
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import procs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 0.25


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_lists_the_workloads_the_command_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_sequence_is_byte_identical_across_generations(name):
    first = workloads.sequence_bytes(workloads.generate(name, 7, 1, tiny=True))
    again = workloads.sequence_bytes(workloads.generate(name, 7, 1, tiny=True))
    other = workloads.sequence_bytes(workloads.generate(name, 8, 1, tiny=True))
    assert first == again
    assert first != other


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_with_its_unit_and_no_failures(name, trace):
    result = run.run(name, seed=3, seconds=TINY_SECONDS, trace=trace,
                     tiny=True)
    expected = _units("per_layer" if trace else "end_to_end")
    got = {metric: value["unit"]
           for metric, value in result["metrics"].items()}
    assert got == expected
    assert result["failed"] == 0, "\n".join(result["report"])
    assert result["correct"]
    assert procs.stray_processes() == []
    if not trace:
        assert all(value["value"] > 0
                   for value in result["metrics"].values())


def test_oracle_catches_a_wrong_expected_answer():
    workload = workloads.generate("kv_oltp", 5, TINY_SECONDS, tiny=True)
    read = next(op for op in workload.measured if op[0] == "read")
    read[4] = {"rows": [[read[4]["rows"][0][0] + 1]]}
    result = run.run("kv_oltp", 5, TINY_SECONDS, trace=False, tiny=True,
                     workload=workload)
    assert result["failed"] == 1
    assert not result["correct"]


def test_command_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        SPEC["command"] + ["--workload", "kv_oltp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_sigterm_mid_run_tears_every_process_down():
    command = SPEC["command"] + ["--workload", "routed_oltp", "--seed", "1",
                                 "--seconds", "60", "--trace", "0"]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while len(procs.stray_processes()) < 3:  # router and both shards
            assert process.poll() is None, process.communicate()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode != 0
    assert '"correct"' not in stdout
    assert procs.stray_processes() == []
    assert not procs.RUN_ROOT.exists()
