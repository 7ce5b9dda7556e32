"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

They check the self-time arithmetic on a hand-built span tree, and run
every workload at tiny dimensions, untraced and traced, to check that each
run passes its correctness checks, reports exactly the metrics that
BENCHMARK.json names, and counts forward calls as METRICS.md predicts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t"}


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        tree = [
            span("cli.main", 0.0, 10.0),  # 0: children cover 1-4 and 5-9
            span("training.train_epoch", 1.0, 4.0, 0),  # 1: children cover 1.5-3.5
            span("head.forward", 1.5, 2.5, 1),  # 2: leaf
            span("head.backward", 2.0, 3.5, 1),  # 3: overlaps 2, union with it is 1.5-3.5
            span("training.evaluate", 5.0, 9.0, 0),  # 4: child covers 6-9
            span("head.forward", 6.0, 12.0, 4),  # 5: ends after its parent; clipped at 9
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 1.0, 1.0, 1.5, 1.0, 6.0])

    def test_forward_calls_per_step_skip_evaluate(self):
        tree = [
            span("training.train_epoch", 0, 20),
            span("head.forward", 1, 2, 0),
            span("head.forward", 2, 3, 0),
            span("training.adam_step", 3, 4, 0),
            span("head.forward", 5, 6, 0),
            span("training.adam_step", 6, 7, 0),
            span("training.evaluate", 8, 10, 0),
            span("head.forward", 8, 9, 6),
        ]
        self.assertEqual(spans.forward_calls_per_step(tree), [2, 1])


def run_bench(workload: str, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int, names: list[str]) -> dict:
        result, seconds = run_bench(workload, trace)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertIsInstance(metric["value"], float)
        self.assertLess(seconds, 30)
        return {name: metric["value"] for name, metric in result["metrics"].items()}

    def test_every_workload_untraced(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0, names)
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_every_workload_traced(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        per_step = {"train_cli_default": 64, "train_batched": 1}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1, names)
                if workload in per_step:
                    self.assertEqual(metrics["head.forward_calls_per_step"], per_step[workload])
                    self.assertGreater(metrics["training.adam_step_calls"], 0)
                else:
                    self.assertEqual(metrics["head.backward_calls"], 0)
                    self.assertEqual(metrics["training.adam_step_calls"], 0)
                    self.assertEqual(metrics["head.forward_calls"], 1)


if __name__ == "__main__":
    unittest.main()
