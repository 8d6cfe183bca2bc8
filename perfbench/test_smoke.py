"""Smoke test for the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench
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

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def run_tiny(workload: str, seed: int, trace: int) -> tuple[dict, dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[len("meta "):])
    return json.loads(lines[-1]), meta, proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_printed(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, meta, text = run_tiny(workload, 1, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert "not produced" not in text
        for name in declared:
            assert f"  {name} " in text  # also in the human-readable table
        assert "failed_frac" in text
        assert {"python", "nproc", "git_sha", "seed", "why"} <= set(meta)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_inputs_not_metrics(workload):
    # The exhaustive sweeps take their seed only as a task order; theorem_sweep
    # has two tasks, so seeds 1 and 5 are a pair that orders them differently.
    (first, meta1, text1), (second, meta2, text2) = run_tiny(workload, 1, 0), run_tiny(workload, 5, 0)
    assert meta1["inputs_sha256"] != meta2["inputs_sha256"]
    # run.py reports a metric it did not produce as 0 and says so in the table.
    assert "not produced" not in text1 and "not produced" not in text2
    assert set(first["metrics"]) == set(second["metrics"])
    assert meta1["inputs"].keys() == meta2["inputs"].keys()


def test_refuses_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "theorem_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
