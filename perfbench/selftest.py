"""Self-tests of the benchmark itself (not part of the ftjsim test suite).

Run from the repository root:

    python3 perfbench/selftest.py

* A one-second smoke run of every workload, untraced and traced, prints
  every metric of BENCHMARK.json with its unit and reports no failure.
* A deliberately corrupted op result fails its check, and counts as a
  failed op in the closed loop.
* In a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)

import ftjsim  # noqa: E402
import ftjsim.cli  # noqa: E402

from worker import Loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / f"selftest-{os.getpid()}"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeRun(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for metric in declared:
            value = result["metrics"][metric["name"]]
            self.assertEqual(value["unit"], metric["unit"])
            self.assertIsInstance(value["value"], (int, float))
            printed = [line.split() for line in lines[:-1]]
            self.assertTrue(any(row[:1] == [metric["name"]] and metric["unit"] in row
                                for row in printed),
                            f"{metric['name']} [{metric['unit']}] not printed")
        return lines

    def test_untraced_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_run(workload, 0, SPEC["end_to_end"])
                self.assertTrue(any(line.split()[:1] == ["fail_ratio"]
                                    for line in lines))
                self.assertTrue(any(line.startswith("stamp ") for line in lines))

    def test_traced_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_run(workload, 1, SPEC["per_layer"])
                self.assertTrue(any("tracing overhead" in line for line in lines))


class CorruptedResult(unittest.TestCase):
    """Each corruption is far below what a careless tolerance would let
    through: a relative 1e-6 change, or one byte of one file."""

    @staticmethod
    def corrupt(workload, result):
        if workload == "xbar_read":
            sol = result.solution
            return dataclasses.replace(result, solution=dataclasses.replace(
                sol, device_i=sol.device_i * (1.0 + 1e-6)))
        if workload == "mvm_mc":
            return dataclasses.replace(result,
                                       rel_errors=result.rel_errors * (1.0 + 1e-6))
        code, out, err = result
        first = Path(out.splitlines()[0][len("wrote "):])
        first.write_bytes(first.read_bytes() + b" ")
        return result

    def test_corrupted_result_fails(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                workdir = SCRATCH / name
                workdir.mkdir(parents=True)
                wl = cls(ftjsim, 0, workdir)
                wl.load_goldens()
                self.assertIsNone(wl.check(0, wl.observe(0, wl.op(0))))
                bad = self.corrupt(name, wl.op(0))
                self.assertIsNotNone(wl.check(0, wl.observe(0, bad)))

                honest_op = wl.op
                wl.op = lambda k: (self.corrupt(name, honest_op(k)) if k == 1
                                   else honest_op(k))
                loop = Loop().run(wl, range(2))
                self.assertEqual(len(loop.times), 2)
                self.assertEqual(len(loop.failures), 1, loop.failures)
                self.assertTrue(loop.failures[0].startswith("op 1: "), loop.failures)

    def test_kcl_violation_fails(self):
        wl = WORKLOADS["xbar_read"](ftjsim, 0, SCRATCH)
        wl.load_goldens()
        obs = wl.observe(0, wl.op(0))
        _, row, col = wl.pool[0]
        floating = (row + 1) % obs["device_i"].shape[0]
        obs["device_i"][floating, col] += 1e-11
        wl.golden[0]["device_i"] = obs["device_i"]
        self.assertIn("KCL", wl.check(0, obs))


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "xbar_read", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


def main() -> int:
    SCRATCH.mkdir(parents=True)
    try:
        result = unittest.main(exit=False, verbosity=2).result
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
