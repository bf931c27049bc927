"""Self-test of the benchmark's checks and of its clock.

    python3 perfbench/selftest.py                  # everything, about 20 minutes
    python3 perfbench/selftest.py PerturbedEvaluators CleanRun MissingProgram

Each workload is run once with ``--perturb``, which swaps in a wrong
evaluator; the checks must report failures.  A clean run must report none,
and a directory without the program must make the benchmark exit non-zero
without printing a result.  ``ClockAddsUp`` inserts a known amount of extra
interpreter work and of extra numpy work into every unit request and checks
that the reported evaluation time grows by that amount.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args, cwd=ROOT, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--seed", "7",
                           "--seconds", "1", "--trace", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


def result(*args):
    proc, last = bench(*args)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(last)


class PerturbedEvaluators(unittest.TestCase):

    def assert_caught(self, workload):
        res = result("--workload", workload, "--perturb")
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        return res

    def test_eval_panel_kernel_scaled_by_1_plus_1e6(self):
        res = self.assert_caught("eval_panel")
        # every value of every class misses its gate
        self.assertEqual(res["failed"], res["attempted"])

    def test_reproducing_kernel_scaled_by_1_01(self):
        res = self.assert_caught("reproducing")
        self.assertEqual(res["failed"], res["attempted"])

    def test_series_oracle_wrong_closed_form(self):
        res = self.assert_caught("series_oracle")
        # the two swapped 3-d families fail, the other three pass
        self.assertEqual(res["failed"], 2 * res["attempted"] // 5)

    def test_geometry_probe_kernel_scaled_by_1_02(self):
        self.assert_caught("geometry_probe")


class CleanRun(unittest.TestCase):

    def test_geometry_probe_passes_and_reports_every_metric(self):
        res = result("--workload", "geometry_probe")
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(res["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(res["metrics"][m["name"]]["value"], 0)


class MissingProgram(unittest.TestCase):

    def test_exits_nonzero_without_a_result(self):
        bare = HERE / ".work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc, last = bench("--workload", "eval_panel", cwd=bare, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(last.startswith("{"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class ClockAddsUp(unittest.TestCase):
    """Jobs of a workload (A), of the workload with N units of extra work in
    every unit request (B), and of that extra work alone (C), alternated
    over five rounds.  The growth of the evaluation time, median B minus
    median A, must equal median C within the benchmark's bound, 0.25 of C.
    A probe that the program's own work slowed would read the two parts of
    B at a different speed than A and C and break the sum."""

    ROUNDS = 5
    BOUND = 0.25

    def adds_up(self, workload, extra):
        workdir = HERE / ".work" / f"selftest-clock-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        kinds = {"A": [], "B": ["--extra", extra], "C": ["--extra", extra, "--extra-only"]}
        times = {k: [] for k in kinds}
        raw = {k: [] for k in kinds}
        try:
            for r in range(self.ROUNDS):
                for k, flags in kinds.items():
                    job = run.run_job(workload, 7, workdir, False, False,
                                      time.perf_counter() + 170, 0, flags)
                    times[k].append(job["eval_s"])
                    raw[k].append(job["eval_s_raw"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        med = {k: statistics.median(v) for k, v in times.items()}
        med_raw = {k: statistics.median(v) for k, v in raw.items()}
        growth = med["B"] - med["A"]
        print(f"\n{workload} +{extra}: eval_s A {med['A']:.3f} B {med['B']:.3f} C {med['C']:.3f}"
              f" s; growth/C {growth / med['C']:.3f} (wall clock "
              f"{(med_raw['B'] - med_raw['A']) / med_raw['C']:.3f})", file=sys.stderr)
        self.assertLessEqual(abs(growth - med["C"]), self.BOUND * med["C"])

    def test_eval_panel_plus_interpreter_work(self):
        self.adds_up("eval_panel", "interp:20")

    def test_eval_panel_plus_numpy_work(self):
        self.adds_up("eval_panel", "numpy:1")

    def test_reproducing_plus_interpreter_work(self):
        self.adds_up("reproducing", "interp:3000")

    def test_reproducing_plus_numpy_work(self):
        self.adds_up("reproducing", "numpy:150")


if __name__ == "__main__":
    unittest.main(verbosity=2)
