"""Self-tests of the benchmark, at tiny sizes.

Run from the root of the repository::

    python3 -m unittest perfbench/selftest.py

Each workload runs twice per mode, in process: every metric named in
``BENCHMARK.json`` must be present with its unit, nothing may fail, and
every per-layer value that is not real time (counts, model ms, ratios
of counts) must repeat exactly.  A last test runs the command in a
directory holding only ``BENCHMARK.json`` and the benchmark, where it
must exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: 25 x 25 is the smallest point of the pinned Table 4 grid, so the
#: model-ms check runs against a real pinned row.
TINY_TABLE = {"divisor_tuples": 25, "quotient_tuples": 25}
TINY_SERVE = workloads.ServeParams(
    clients=2,
    requests_per_client=10,
    table_pairs=2,
    divisor_tuples=4,
    quotient_tuples=16,
    admission_bytes=4 * 1024,
)


def run_tiny(workload: str, trace: int, seed: int = 3) -> tuple[dict, run.Bench]:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=trace)
    bench = run.Bench(args, DECLARED)
    if workload == "serve-zipf-rw":
        bench.params = TINY_SERVE
    else:
        bench.params = workloads.TableParams(bench.params.strategies, **TINY_TABLE)
    return bench.measure(), bench


class BenchmarkSelfTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        kind = "per_layer" if trace else "end_to_end"
        metrics, bench = run_tiny(workload, trace)
        self.assertEqual(bench.failed, 0, bench.problems)
        self.assertGreater(bench.attempted, 0)
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        return {name: entry["value"] for name, entry in metrics.items()}

    def test_end_to_end_metrics_present_and_nonzero(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_run(workload, trace=0)
                self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_per_layer_counters_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.check_run(workload, trace=1)
                second = self.check_run(workload, trace=1)
                deterministic = [
                    name
                    for name in first
                    if not name.endswith(run.REAL_TIME_SUFFIXES)
                    and name != "trace.overhead_ratio"
                ]
                self.assertIn("model.cpu_ms", deterministic)
                for name in deterministic:
                    self.assertEqual(first[name], second[name], name)

    def test_layers_each_workload_should_move(self):
        sort = self.check_run("table4-sort", trace=1)
        hashed = self.check_run("table4-hash", trace=1)
        serve = self.check_run("serve-zipf-rw", trace=1)
        self.assertGreater(sort["op.ExternalSort.model_ms"], 0)
        self.assertEqual(sort["hash_table.find_or_insert.calls"], 0)
        self.assertEqual(hashed["op.ExternalSort.model_ms"], 0)
        self.assertGreater(hashed["hash_table.find.calls"], 0)
        self.assertGreater(serve["catalog.insert_rows.calls"], 0)
        self.assertGreater(serve["plan.collect_estimates.calls"], 0)
        self.assertEqual(sort["plan.collect_estimates.calls"], 0)

    def test_wrong_answer_is_counted_as_failed(self):
        original = workloads.run_table_query

        def wrong(*args, **kwargs):
            result = original(*args, **kwargs)
            result.correct = False
            return result

        workloads.run_table_query = wrong
        try:
            _, bench = run_tiny("table4-hash", trace=0)
        finally:
            workloads.run_table_query = original
        self.assertEqual(bench.failed, bench.attempted)

    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench")
            done = subprocess.run(
                DECLARED["command"]
                + ["--workload", "table4-hash", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
