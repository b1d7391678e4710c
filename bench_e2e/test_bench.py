"""Quick-mode check of the benchmark itself.

    python3 -m pytest -q bench_e2e/test_bench.py

Runs every workload at 16x16 with 5-iteration budgets, untraced and traced,
and checks that each metric BENCHMARK.json names comes out with its unit
and that no solve failed.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench_e2e" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    report = dict(re.findall(r"^  (\S+) +\S+ (\S+)$", proc.stdout, re.M))
    assert report["failed_ratio"] == "ratio"
    assert re.search(r"^  failed_ratio +0 ratio$", proc.stdout, re.M)
    if workload.startswith("deblur") and not trace:
        assert report["psnr_db.pg"] == report["psnr_db.tlf"] == "dB"


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench_e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "deblur-64", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
