"""Self-tests of the benchmark, on its quick configurations.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, root=ROOT, seed=1):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--quick"],
        cwd=root, env=env, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_spec_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert set(tracing.TIME_BUCKETS) | set(tracing.CALL_COUNTS) <= set(layer_names)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_prints_every_end_to_end_metric(workload):
    record, result = parse(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = record["environment"]
    assert {"cpu_model", "nproc", "python", "numpy", "scipy", "threads"} <= set(env)
    assert record["seed"] == 1 and record["passes"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_same_outputs(workload):
    record, result = parse(run_bench(workload, 1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"] is True
    # traced and untraced passes wrote byte-identical outputs
    assert record["passes"] == record["traced_passes"] == 1
    assert len(record["digests"]) == 1
    # layer self times plus the time outside every span make up the traced wall time
    layered = sum(metrics[b] for b in tracing.TIME_BUCKETS) + metrics["trace.other_s"]
    assert layered == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert all(metrics[b] >= -1e-9 for b in tracing.TIME_BUCKETS)


def _reference():
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def _bump_csv(entry):
    entry["residual_csv"]["sample"][40][2] += 1e-6


def _bump(field, factor):
    def change(entry):
        entry[field] = [v * factor for v in entry[field]] if isinstance(
            entry[field], list) else entry[field] * factor
    return change


@pytest.mark.parametrize("workload, key, perturb", [
    ("newton", "solve n=3 ell=10 nodes=256 mode=newton", _bump("cone_angle_ratio", 1 + 1e-5)),
    ("newton", "solve n=6 ell=12 nodes=128 mode=newton", _bump_csv),
    ("spectrum", "kernel_spectrum count=3 n=3 ell=10 nodes=256 seed=1",
     _bump("singular_values", 1 + 1e-5)),
    ("sweep", "estimate n=4 R=16 trials=5 seed=1", _bump("fitted_constant", 1 + 1e-8)),
])
def test_perturbed_reference_fails_its_case(workload, key, perturb, tmp_path):
    reference = copy.deepcopy(_reference())
    perturb(reference[key])
    record = workloads.run_pass(workload, 1, False, "quick", str(tmp_path),
                                time.monotonic(), reference)
    by_key = {c["key"]: c for c in record["cases"]}
    assert not by_key[key]["matches"] and not by_key[key]["ok"]
    assert all(c["matches"] for k, c in by_key.items() if k != key)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__", ".pytest_cache"))
    proc = run_bench("sweep", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
