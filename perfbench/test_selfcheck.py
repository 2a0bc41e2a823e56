"""Tiny-size self-check of the benchmark: every workload with every check on.

    python3 -m pytest perfbench -q

Runs ``run.py --tiny`` (smallest grids and sample counts, one spawn per
subprocess timing) in both modes and checks the printed result against
BENCHMARK.json, that reruns with one seed are bit-identical, and that the
computed counts of the traced run do not depend on the seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2].removeprefix("run record: "))
    return json.loads(lines[-1]), record


def check_result(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced(workload):
    first, rec1 = result_of(bench(workload, 3, 0))
    check_result(first, "end_to_end")
    assert all(m["value"] > 0 for m in first["metrics"].values())
    _, rec2 = result_of(bench(workload, 3, 0))
    assert rec1["results_sha256"] == rec2["results_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    a, _ = result_of(bench(workload, 3, 1))
    b, _ = result_of(bench(workload, 4, 1))
    check_result(a, "per_layer")
    check_result(b, "per_layer")
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "B"):
            assert a["metrics"][m["name"]] == b["metrics"][m["name"]], m["name"]


def test_refuses_without_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))  # fmt: skip
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
