"""One tiny pass of every workload through the harness, and the shape of
what it prints.  Each pass runs a single round (about 3 to 7 s)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_calibration_scales_each_operation_by_the_kernel_beside_it():
    fast = run.REFERENCE_MS["kernel"]
    result = {"op_ms": [10.0, 10.0, 10.0], "op_ref": [0, 2, 4], "ref_kind": "kernel",
              "ref_ms": [fast] * 3 + [2 * fast] * 3}
    run.calibrate(result)
    # medians of samples 0..2, 1..4 and 3..5: fast, halfway, slow
    assert result["cal_ms"] == pytest.approx([10.0, 10.0 / 1.5, 5.0])


def test_plans_are_seeded_and_keep_their_make_up():
    for name in workloads.WORKLOADS:
        a, b = workloads.plan(name, 1), workloads.plan(name, 2)
        assert a == workloads.plan(name, 1)
        assert sorted(map(json.dumps, a)) == sorted(map(json.dumps, b))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    ops = len(workloads.plan(workload, 3))
    assert result["attempted"] == ops
    assert result["failed"] == (6 if workload == "cli" else 0)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_reports_every_layer_metric():
    proc = _run("--workload", "certify", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    assert result["metrics"]["verification.suite_gamma.self_ms"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
