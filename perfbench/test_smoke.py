"""Smoke test of the benchmark (about two minutes):

    python3 -m pytest -q perfbench/test_smoke.py

Short runs of every workload must print every metric BENCHMARK.json
names, with its unit, and fail no job.  A perturbed golden value in a
copy of the checkout must count as a failed job, and a directory without
the program must be refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(root, workload, trace, seconds=1):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def copy_checkout(dst: Path, with_program=True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench-work")
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(ROOT / "perfbench", dst / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", dst / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests" / "golden", dst / "tests" / "golden")
    return dst


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_job_fails(workload, trace):
    result = result_of(run_benchmark(ROOT, workload, trace))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_perturbed_golden_value_is_a_failed_job(tmp_path):
    root = copy_checkout(tmp_path)
    golden = root / "tests" / "golden" / "ligo_scan.csv"
    lines = golden.read_text(encoding="utf-8").splitlines()
    row = lines.index("r_c_m,lambda_max_per_s") + 100
    rc, lam = lines[row].split(",")
    lines[row] = f"{rc},{float(lam) * (1.0 + 1e-9)!r}"
    golden.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = result_of(run_benchmark(root, "survey", 0))
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_refused_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_program=False)
    proc = run_benchmark(root, "survey", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
