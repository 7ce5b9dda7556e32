"""The benchmark's own correctness checks, run at tiny scale.

Each workload of BENCHMARK.json runs once through `perfbench/run.py --scale
tiny` in a copy of the checkout under tmp_path (the copy's
`.perfbench_work/` is its own), so a change that the benchmark would mark
failed or incorrect fails here first.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    (root / "tests").mkdir()
    shutil.copy2(ROOT / "tests" / "naive_reference.py", root / "tests")
    shutil.copy2(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_its_checks_at_tiny_scale(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--scale", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=checkout,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0, proc.stdout
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
