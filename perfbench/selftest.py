"""Self-tests of the benchmark harness.

  python3 perfbench/selftest.py        (from the repository root, ~1.5 minutes)

Runs every workload briefly on two seeds, untraced and traced, and checks:
  - a traced run's output digest equals the untraced run's;
  - the same seed gives the same inputs and digests, another seed other inputs;
  - backward, Adam and cross_entropy_mean never run on eval_dense_allmodes
    or explain_lime (and do run on train_desk);
  - model.real_token_frac is >= 0.8 on eval_dense_allmodes, <= 0.3 elsewhere;
  - the last stdout line carries exactly the metrics BENCHMARK.json lists;
  - a directory holding only the benchmark makes the command fail without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
WORK_ROOT = ROOT / ".perfbench_work"
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
WORKLOADS = ("train_desk", "eval_dense_allmodes", "explain_lime")
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
from compare import verdict  # noqa: E402


class HarnessRuns(unittest.TestCase):
    """One short run per (workload, seed, trace) combination the checks need."""

    @classmethod
    def setUpClass(cls):
        WORK_ROOT.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
        cls.records = {}
        cls.last_lines = {}
        for workload in WORKLOADS:
            for seed, trace in ((1, 0), (1, 1), (2, 0)):
                path = cls.tmp / f"{workload}-{seed}-{trace}.jsonl"
                proc = subprocess.run(
                    RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--record", str(path)],
                    capture_output=True, text=True, check=True, timeout=300)
                cls.records[workload, seed, trace] = json.loads(path.read_text())
                cls.last_lines[workload, seed, trace] = json.loads(proc.stdout.splitlines()[-1])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_runs_are_correct(self):
        for key, record in self.records.items():
            self.assertTrue(record["correct"], key)
            self.assertEqual(record["failed"], 0, key)

    def test_traced_digest_equals_untraced(self):
        for workload in WORKLOADS:
            traced = self.records[workload, 1, 1]
            self.assertEqual(traced["digest"], self.records[workload, 1, 0]["digest"], workload)
            self.assertEqual(traced["digest"], traced["untraced_digest"], workload)

    def test_seed_fixes_inputs_and_digests(self):
        for workload in WORKLOADS:
            first, again = self.records[workload, 1, 0], self.records[workload, 1, 1]
            other = self.records[workload, 2, 0]
            self.assertEqual(first["inputs_digest"], again["inputs_digest"], workload)
            self.assertNotEqual(first["inputs_digest"], other["inputs_digest"], workload)
            self.assertNotEqual(first["digest"], other["digest"], workload)

    def test_no_backward_outside_training(self):
        training_only = ("autodiff.backward", "training.Adam.step",
                         "autodiff.cross_entropy_mean.fwd")
        for name in training_only:
            self.assertIn(name, self.records["train_desk", 1, 1]["span_calls"])
        for workload in ("eval_dense_allmodes", "explain_lime"):
            calls = self.records[workload, 1, 1]["span_calls"]
            for name in training_only:
                self.assertNotIn(name, calls, workload)

    def test_real_token_fraction(self):
        frac = {w: self.records[w, 1, 1]["per_layer"]["model.real_token_frac"] for w in WORKLOADS}
        self.assertGreaterEqual(frac["eval_dense_allmodes"], 0.8)
        self.assertLessEqual(frac["train_desk"], 0.3)
        self.assertLessEqual(frac["explain_lime"], 0.3)

    def test_last_line_follows_benchmark_json(self):
        for (workload, seed, trace), line in self.last_lines.items():
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
            self.assertEqual(list(line["metrics"]), names, (workload, trace))
            self.assertGreaterEqual(line["attempted"], 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_program(self):
        WORK_ROOT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT))
        try:
            shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "train_desk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Verdict(unittest.TestCase):
    def test_rule(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(verdict(base, [90.0, 91.0, 89.0, 90.5, 89.5], 5, 5, True, 0.1), "improved")
        self.assertEqual(verdict(base, [101.0, 102.0, 100.0, 101.5, 100.5], 0, 5, True, 0.1),
                         "no worse")
        self.assertEqual(verdict(base, [120.0, 121.0, 119.0, 120.5, 119.5], 0, 5, True, 0.1), "worse")
        noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
        self.assertEqual(verdict(noisy, [115.0, 125.0, 105.0, 110.0, 120.0], 1, 5, True, 0.1),
                         "unresolved")
        # Higher-is-better metrics mirror the rule.
        self.assertEqual(verdict(base, [110.0, 111.0, 109.0, 110.5, 109.5], 5, 5, False, 0.1),
                         "improved")


if __name__ == "__main__":
    unittest.main()
