"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They run tiny passes (a few ops) of every workload as the benchmark's
users do, from the root of the checkout, and check what the benchmark
promises: every metric printed with its unit, wrong answers counted as
failures, op lists fixed by the seed, per-layer counts that repeat, and a
BENCHMARK.json that records why each workload exists and what each layer
is predicted to move.
"""

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
TINY_OPS = "4"


def run_bench(*args):
    """Run the benchmark command; returns (exit code, stdout lines, last-line JSON)."""
    command = list(SPEC["command"]) + list(args)
    command[0] = sys.executable
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, lines, result, proc.stderr


def tiny(workload, trace, *extra, seed="5"):
    return run_bench("--workload", workload, "--seed", seed, "--seconds", "0",
                     "--trace", str(trace), "--ops", TINY_OPS, *extra)


class TinyRuns(unittest.TestCase):
    def check_metrics(self, lines, result, specs):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for metric in specs:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float))
            printed = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
            self.assertTrue(printed, f"{metric['name']} not printed")
            self.assertEqual(printed[0][-1], metric["unit"])

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                code, lines, result, err = tiny(workload, 0)
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(lines, result, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)
            with self.subTest(workload=workload, trace=1):
                code, lines, result, err = tiny(workload, 1)
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.check_metrics(lines, result, SPEC["per_layer"])

    def test_per_layer_counts_repeat_and_bypassed_layers_stay_zero(self):
        counts = {}
        for workload in workloads.WORKLOADS:
            runs = []
            for _ in range(2):
                code, _, result, err = tiny(workload, 1)
                self.assertEqual(code, 0, err)
                runs.append({
                    name: entry["value"] for name, entry in result["metrics"].items()
                    if entry["unit"] == "count"
                })
            self.assertEqual(runs[0], runs[1], workload)
            counts[workload] = runs[0]
        self.assertEqual(counts["universal-sweep"]["blockperm.type_of.calls"], 0)
        self.assertEqual(counts["poly-rows"]["blockperm.type_of.calls"], 0)
        self.assertGreater(counts["group"]["blockperm.type_of.calls"], 0)
        for name, value in counts["group"].items():
            if name.startswith("kpartial."):
                self.assertEqual(value, 0, name)

    def test_injected_wrong_coefficient_is_a_failure(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                # cli's first ops may all be cache hits, which never compute
                ops = "16" if workload == "cli" else TINY_OPS
                code, lines, result, err = run_bench(
                    "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0",
                    "--ops", ops, "--inject-fault")
                self.assertEqual(code, 0, err)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                error_rate = [line.split() for line in lines if line.startswith("error_rate ")]
                self.assertGreater(float(error_rate[0][1]), 0)

    def test_no_result_without_the_program(self):
        scratch = BENCH / "out" / "bare-checkout"
        if scratch.exists():
            shutil.rmtree(scratch)
        (scratch / "perfbench").mkdir(parents=True)
        for path in BENCH.iterdir():
            if path.is_file():
                (scratch / "perfbench" / path.name).write_bytes(path.read_bytes())
        (scratch / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        command = [sys.executable, "perfbench/run.py", "--workload", "group", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(command, cwd=scratch, capture_output=True, text=True, timeout=180)
        shutil.rmtree(scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class OpLists(unittest.TestCase):
    def plan_keys(self, workload, seed, workdir):
        lib = workloads.Library(ROOT / "src")
        plan = workloads.make_plan(workload, lib, seed, workdir, ROOT / "src", BENCH / "cli_child.py")
        return [op.key for op in plan.ops]

    def test_a_fixed_seed_gives_the_same_op_list(self):
        workdir = BENCH / "out" / "selftest-oplists"
        workdir.mkdir(parents=True, exist_ok=True)
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.plan_keys(workload, 7, workdir)
                self.assertEqual(first, self.plan_keys(workload, 7, workdir))
                other = self.plan_keys(workload, 8, workdir)
                self.assertNotEqual(first, other)
                if workload == "universal-sweep":
                    self.assertEqual(sorted(first), sorted(other))
                    self.assertEqual(len(first), 649)

    def test_draws_are_cost_matched(self):
        lib = workloads.Library(ROOT / "src")
        class_size = lib.families.class_size
        fams_of = lib.families.families_with_size

        def group_work(seed):
            ops = workloads.group_ops(lib, random.Random(seed))
            return sorted(
                min(class_size(L, n), class_size(R, n)) * len(fams_of(L.k, n)) for L, R, n in (op.args for op in ops)
            )

        self.assertEqual(group_work(1), group_work(2))

        def poly_pairs(seed):
            return sorted(workloads.stage_pairs(lib, *op.args) for op in workloads.poly_ops(lib, random.Random(seed)))

        self.assertEqual(poly_pairs(1), poly_pairs(2))


class Spec(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)

    def test_each_workload_has_a_reason_and_each_layer_a_prediction(self):
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(set(PREDICTIONS["workloads"]), names)
        for entry in PREDICTIONS["workloads"].values():
            self.assertTrue(entry["why"])
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        covered = set()
        for layer, entry in PREDICTIONS["layers"].items():
            self.assertTrue(set(entry["exercising"]) <= names, layer)
            self.assertTrue(set(entry["bypass"]) <= names, layer)
            self.assertTrue(set(entry["should_move"]) <= end_to_end, layer)
            covered.update(entry["metrics"])
        self.assertEqual(covered, {m["name"] for m in SPEC["per_layer"]})
        for layer in ("partitions", "families", "blockperm", "kpartial", "center", "characters", "cli"):
            self.assertTrue(PREDICTIONS["layers"][layer]["should_move"], layer)


if __name__ == "__main__":
    unittest.main()
