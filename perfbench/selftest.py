"""Tests of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

They check that the tracer replaces and restores every binding, that traced
counts repeat exactly for a seed, that a smoke run of every workload emits
every metric of BENCHMARK.json with its unit, and that the benchmark refuses
to run without the package sources.  The file name keeps pytest from
collecting it with the package's own tests.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from procs import ROOT, SRC, child_env, run  # noqa: E402

sys.path.insert(0, SRC)

import cantorfull  # noqa: E402
import cantorfull.cli  # noqa: E402,F401
import metrics  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cantorfull import closets, constructions, elements  # noqa: E402


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(workload, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


class TracerBindings(unittest.TestCase):
    def test_install_replaces_every_binding_and_uninstall_restores_it(self):
        before = tracer.bindings()
        originals = {id(fn) for _, _, fn in tracer._targets()}
        compose = elements.compose
        cylinder = closets.CloSet.__dict__["cylinder"]
        t = tracer.Tracer().install()
        try:
            self.assertIsNot(cantorfull.compose, compose)
            self.assertIs(constructions.compose, elements.compose)
            self.assertIsNot(closets.CloSet.__dict__["cylinder"], cylinder)
            for (owner, attr), obj in tracer.bindings().items():
                self.assertNotIn(id(getattr(obj, "__func__", obj)), originals,
                                 f"{owner.__name__}.{attr} still bound to the original")
        finally:
            t.uninstall()
        after = tracer.bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, f"{key[0].__name__}.{key[1]} not restored")

    def test_spans_nest_and_count(self):
        engine = cantorfull.sft_engine("ab", ["bb"])
        phi = cantorfull.shift(engine)
        t = tracer.Tracer().install()
        try:
            cantorfull.ball_sizes([phi], 2)
        finally:
            t.uninstall()
        snap = t.snapshot()
        self.assertEqual(snap["counts"]["elements.ball_sizes.attempts"],
                         snap["spans"]["elements.compose"][0])
        calls, self_s, total_s = snap["spans"]["elements.ball_sizes"]
        self.assertEqual(calls, 1)
        self.assertLess(self_s, total_s)


class TracedCountsRepeat(unittest.TestCase):
    def traced_snapshot(self, argv):
        out, err, code, _, _ = run(argv, child_env(7))
        self.assertEqual(code, 0, err.decode())
        return json.loads(out.decode().strip().splitlines()[-1])["trace"]

    def assert_same_counts(self, first, second):
        self.assertEqual(first["counts"], second["counts"])
        self.assertEqual(first["maxima"].keys(), second["maxima"].keys())
        self.assertEqual({k: v[0] for k, v in first["spans"].items()},
                         {k: v[0] for k, v in second["spans"].items()})

    def test_library_pass(self):
        for workload, kind in (("sft_compose", "sft"), ("orbit_reads", "substitution")):
            argv = ["perfbench/worker.py", "pass", "--workload", workload, "--seed", "3",
                    "--trace", "--smoke"]
            first, second = self.traced_snapshot(argv), self.traced_snapshot(argv)
            self.assertGreater(first["spans"]["elements.compose"][0], 0)
            self.assertGreater(first["counts"][f"language.allowed_words.{kind}.misses"], 0)
            self.assert_same_counts(first, second)

    def test_cli_call(self):
        argv = ["perfbench/worker.py", "cli", "--", "--subshift",
                "perfbench/subshifts/fibonacci.subshift", "construct", "gw",
                "--A", 'cyl(0,"a")', "--B", 'cyl(0,"b")']
        self.assert_same_counts(self.traced_snapshot(argv), self.traced_snapshot(argv))


class SmokeRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        spec = benchmark_json()
        wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                  1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                proc = run_benchmark(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 wanted[trace], f"{workload} trace={trace}")

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark("sft_compose", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Scaling(unittest.TestCase):
    def test_scaled_time_is_plain_time_at_nominal_speed(self):
        self.assertEqual(speed.scaled(2.0, [speed.NOMINAL_S]), 2.0)
        self.assertAlmostEqual(speed.scaled(2.0, [speed.NOMINAL_S, 3 * speed.NOMINAL_S]), 1.0)

    def test_reference_work_does_not_enter_the_package(self):
        t = tracer.Tracer().install()
        try:
            speed.reference_s()
        finally:
            t.uninstall()
        snap = t.snapshot()
        self.assertFalse(any(v[0] for v in snap["spans"].values()))
        self.assertFalse(any(snap["counts"].values()))


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        import run as runner
        spec = benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(runner.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.PER_LAYER)

    def test_thue_morse_complexity(self):
        engine = cantorfull.substitution_engine(workloads.THUE_MORSE)
        for n in range(0, 70):
            self.assertEqual(len(engine.allowed_words(n)), workloads.thue_morse_complexity(n))


if __name__ == "__main__":
    unittest.main()
