"""Self-test of the benchmark, kept out of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload in smoke mode (tiny inputs, a few seconds each) and
checks that each metric is printed with its unit, that the per-layer
counts repeat exactly for a seed, that the output check rejects a random
orthonormal factor, and that the benchmark fails without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every metric the benchmark prints, with its unit, by trace mode
PRINTED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]} | {"fail_ratio": "ratio"},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}

# per-layer counts that must repeat exactly for a given seed
EXACT = ("sketch.PStableSketch.apply.draws", "sketch.apply_right.madds",
         "dimreduce.reduced_dim", "pipeline.t_rows", "pipeline.base_rows",
         "bicriteria.levels", "regression.levels", "regression.base_rows",
         "bicriteria.bicriteria_dim", "pipeline.recursion_depth")


def smoke(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    for name, unit in PRINTED[trace].items():
        assert printed.get(name, (None, None))[1] == unit, name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == PRINTED[trace][name]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_counts_repeat_for_a_seed(workload):
    runs = [json.loads(smoke(workload, 1, seed=7).stdout.strip().splitlines()[-1])
            for _ in range(2)]
    for name in EXACT:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_check_rejects_random_orthonormal_factor():
    work = workloads.WORKLOADS["lp_dense_outliers"]
    inp = work.inputs(seed=3)
    ref = work.reference(inp)
    d = inp.a.shape[1]
    _, _, vt = np.linalg.svd(inp.a, full_matrices=False)
    assert work.check(inp, ref, vt[:workloads.K].T)[0]
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, workloads.K)))
    ok, ratio = work.check(inp, ref, q)
    assert not ok and ratio > 1.0 + work.eps
    assert not work.check(inp, ref, np.full((d, workloads.K), np.nan))[0]
    assert not work.check(inp, ref, 2.0 * q)[0]


def test_fails_without_the_package():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = smoke("lp_dense_outliers", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
