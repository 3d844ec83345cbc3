"""Self-tests of the benchmark, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
Each workload runs end to end through ``perfbench/run.py`` exactly as
the benchmark command does, twice with the same seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Tiny sizes: jobs per batch, kernels (times three factors), requests.
TINY = {"campaign-angha": 4, "tsvc-checked": 2, "serve-mixed": 8}

#: End-to-end metrics that must repeat exactly for one seed.
DETERMINISTIC = ("code_size_reduction_pct", "rolled_loops", "dynamic_steps_ratio")

#: Per-layer counts that must repeat exactly for one seed.
DETERMINISTIC_LAYERS = (
    "rolag.attempted", "rolag.rolled", "rolag.schedule_rejected",
    "rolag.unprofitable", "rolag.roll_ratio", "transforms.reroll_rolled",
    "validation.rollbacks",
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, root: str = ROOT):
    """The benchmark command, run from the root of checkout ``root``."""
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", str(TINY[workload])],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _parse(completed):
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    detail = next(
        json.loads(line.split(": ", 1)[1])
        for line in lines if line.startswith("perfbench detail: ")
    )
    return detail, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_complete_and_deterministic(workload, trace):
    runs = [_parse(_run(workload, trace)) for _ in range(2)]
    declared = _spec()["per_layer" if trace else "end_to_end"]
    for detail, result in runs:
        assert result["correct"] is True, detail
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert detail["wrong_outputs"] == 0
        assert detail["leaked_processes"] == 0
        assert detail["problems"] == []
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    (first_detail, first), (second_detail, second) = runs
    assert first_detail["output_digest"] == second_detail["output_digest"]
    for name in DETERMINISTIC_LAYERS if trace else DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    if trace:
        assert first["metrics"]["trace.unattributed_pct"]["value"] < 10.0
    else:
        for name in ("setup_s", "wall_s", "jobs_per_s"):
            assert first["metrics"][name]["value"] > 0.0, name


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run("campaign-angha", 0, root=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
