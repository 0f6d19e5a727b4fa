"""The benchmark's three workloads: inputs, one op, and the op's output check.

A workload is built from an input set ``g = seed % INPUT_SETS``. Every input
set has goldens captured by ``capture.py``, so every op a run can reach is
checked against them. Op index ``k`` runs pool entry ``k % len(pool)``: the
pool is a fixed list built in set-up, and a long run cycles through it.
ftjsim holds no cache keyed on these inputs, so a repeated op costs what
its first run cost; a change that adds such a cache would show a gain here
that fresh inputs would not.

Ops reach ftjsim only through module attributes looked up at call time
(``self.crossbar.sneak_margin``), so the tracer's re-bound wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

INPUT_SETS = 16
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

REL_TOL = 1e-9          # golden agreement, relative to the golden's largest entry
KCL_TOL_A = 1e-12       # net device current into any floating line, A


def rel_dev(value, golden) -> float:
    """Largest absolute deviation over the golden's largest magnitude."""
    value = np.asarray(value, dtype=float)
    golden = np.asarray(golden, dtype=float)
    if value.shape != golden.shape:
        return float("inf")
    scale = float(np.max(np.abs(golden)))
    dev = float(np.max(np.abs(value - golden)))
    return dev / scale if scale > 0 else dev


class Workload:
    """One closed-loop workload.

    ``cycle`` is the number of ops that hold the workload's mix once; a run
    ends only at a cycle boundary. ``trace_ops`` is the fixed op count of the
    traced run, so its counters repeat exactly from run to run.
    """

    name = ""
    cycle = 1
    trace_ops = 1
    bytes_written = 0

    def __len__(self) -> int:
        return len(self.pool)

    def op(self, k: int):
        """Run op k through ftjsim's public API and return its raw result."""
        raise NotImplementedError

    def observe(self, k: int, result):
        """Reduce a raw result to the values the golden holds."""
        raise NotImplementedError

    def check(self, k: int, obs) -> str | None:
        """None when the observation matches the golden, else the reason."""
        raise NotImplementedError

    def load_goldens(self) -> None:
        raise NotImplementedError


class XbarRead(Workload):
    """Floating-line selected reads: one op is ``crossbar.sneak_margin`` at
    0.5 V on an array with uniform random weights and sigma_d2d = 0.1.

    Set-up builds one 8x8, two 16x16 and one 32x32 array and picks two cells
    on each, so one cycle of eight ops holds the sizes 1:2:1. The median op
    is then a 16x16 read and the 90th percentile a 32x32 read.
    """

    name = "xbar_read"
    cycle = 8
    trace_ops = 8
    SIZES = (8, 16, 16, 32)
    CELLS_PER_ARRAY = 2
    V_READ = 0.5
    SIGMA_D2D = 0.1

    def __init__(self, ftjsim, input_set: int, workdir: Path):
        self.input_set = input_set
        self.crossbar = ftjsim.crossbar
        p = ftjsim.conduction.default_params()
        rng = np.random.default_rng([1, input_set])
        ops = []
        for n in self.SIZES:
            xbar = self.crossbar.build_crossbar(
                n, n, p, sigma_d2d=self.SIGMA_D2D,
                seed=int(rng.integers(2 ** 32)))
            xbar = xbar.with_weights(rng.uniform(0.0, 1.0, (n, n)))
            for row, col in rng.integers(0, n, (self.CELLS_PER_ARRAY, 2)):
                ops.append((xbar, int(row), int(col)))
        self.pool = [ops[i] for i in rng.permutation(len(ops))]

    def op(self, k):
        xbar, row, col = self.pool[k % len(self.pool)]
        return self.crossbar.sneak_margin(xbar, row, col, self.V_READ)

    def observe(self, k, result):
        sol = result.solution
        return {"line_v": np.concatenate([sol.row_v, sol.col_v]),
                "device_i": np.array(sol.device_i, dtype=float)}

    def check(self, k, obs):
        golden = self.golden[k % len(self.pool)]
        _, row, col = self.pool[k % len(self.pool)]
        dev_v = rel_dev(obs["line_v"], golden["line_v"])
        if not dev_v <= REL_TOL:
            return f"line potentials off golden by {dev_v:.3g} rel"
        dev_i = rel_dev(obs["device_i"], golden["device_i"])
        if not dev_i <= REL_TOL:
            return f"device currents off golden by {dev_i:.3g} rel"
        di = obs["device_i"]
        free_rows = np.delete(di, row, axis=0).sum(axis=1)
        free_cols = np.delete(di, col, axis=1).sum(axis=0)
        kcl = float(np.max(np.abs(np.concatenate([free_rows, free_cols]))))
        if not kcl < KCL_TOL_A:
            return f"KCL residual {kcl:.3g} A"
        return None

    def load_goldens(self):
        with np.load(GOLDEN_DIR / "xbar_read.npz") as data:
            self.golden = [
                {key: data[f"{self.input_set}.{k}.{key}"]
                 for key in ("line_v", "device_i")}
                for k in range(len(self.pool))]

    @staticmethod
    def save_goldens(observed: dict) -> None:
        arrays = {f"{g}.{k}.{key}": value
                  for g, per_op in observed.items()
                  for k, obs in enumerate(per_op)
                  for key, value in obs.items()}
        np.savez_compressed(GOLDEN_DIR / "xbar_read.npz", **arrays)


class MvmMc(Workload):
    """Analog MVM Monte Carlo: one op is one ``inference.mvm_error_mc`` trial
    (n_trials=1, its own seed) on a random 8x8 weight matrix and input
    vector, with write-verify programming, the calibrated decoder,
    sigma_d2d = 0.1 and the update model's default c2c of 0.10."""

    name = "mvm_mc"
    cycle = 1
    trace_ops = 16
    POOL = 64
    SHAPE = (8, 8)
    SIGMA_D2D = 0.1

    def __init__(self, ftjsim, input_set: int, workdir: Path):
        self.input_set = input_set
        self.inference = ftjsim.inference
        self.params = ftjsim.conduction.default_params()
        rng = np.random.default_rng([2, input_set])
        self.pool = [(rng.uniform(-1.0, 1.0, self.SHAPE),
                      rng.uniform(0.0, 1.0, self.SHAPE[0]),
                      int(rng.integers(2 ** 32)))
                     for _ in range(self.POOL)]

    def op(self, k):
        w, x, seed = self.pool[k % len(self.pool)]
        return self.inference.mvm_error_mc(
            w, x_inputs=x, sigma_d2d=self.SIGMA_D2D, n_trials=1, seed=seed,
            programming="write_verify", decoder="calibrated", p=self.params)

    def observe(self, k, result):
        return [float(e) for e in result.rel_errors]

    def check(self, k, obs):
        golden = self.golden[k % len(self.pool)]
        if len(obs) != 1:
            return f"expected one trial error, got {len(obs)}"
        if not abs(obs[0] - golden) <= REL_TOL * abs(golden):
            return f"trial error {obs[0]!r} against golden {golden!r}"
        return None

    def load_goldens(self):
        with open(GOLDEN_DIR / "mvm_mc.json", encoding="utf-8") as fh:
            self.golden = json.load(fh)[str(self.input_set)]

    @staticmethod
    def save_goldens(observed: dict) -> None:
        _dump_json("mvm_mc.json", {str(g): [obs[0] for obs in per_op]
                                   for g, per_op in observed.items()})


class CliStudies(Workload):
    """CLI studies: one op is one in-process ``cli.main`` call. Each round
    runs all 11 commands once with a new seed, reading an INI file that holds
    ``emit_config(SimConfig())`` and writing into a scratch directory.

    In a round, ``d2d`` alone takes most of the time; it is one op in eleven,
    so it sits above the 90th percentile (``cdf``) and shows in ops_per_s.
    The median op is the sixth-slowest command (``xbar``).
    """

    name = "cli_studies"
    COMMANDS = ("iv", "hysteresis", "scheme", "fitA", "cdf", "retention",
                "d2d", "scaling", "arrhenius", "xbar", "bench")
    cycle = len(COMMANDS)
    trace_ops = 2 * len(COMMANDS)
    ROUNDS = 6

    def __init__(self, ftjsim, input_set: int, workdir: Path):
        self.input_set = input_set
        self.cli = ftjsim.cli
        self.config_path = workdir / "run.ini"
        self.config_path.write_text(
            ftjsim.config.emit_config(ftjsim.config.SimConfig()),
            encoding="utf-8")
        self.out_dir = workdir / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.pool = [(command, 1000 * input_set + rnd)
                     for rnd in range(self.ROUNDS) for command in self.COMMANDS]

    def op(self, k):
        command, seed = self.pool[k % len(self.pool)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main([command, "--config", str(self.config_path),
                                  "--out", str(self.out_dir),
                                  "--seed", str(seed)])
        return code, out.getvalue(), err.getvalue()

    def observe(self, k, result):
        """Digest the files the command reports, then delete them so that a
        later op cannot pass on a stale file."""
        code, out, err = result
        paths = sorted((Path(line[len("wrote "):])
                        for line in out.splitlines() if line.startswith("wrote ")),
                       key=lambda path: path.name)
        digest = hashlib.sha256()
        for path in paths:
            data = path.read_bytes()
            digest.update(f"{path.name}\0{len(data)}\0".encode())
            digest.update(data)
            self.bytes_written += len(data)
            path.unlink()
        return {"code": code, "files": [path.name for path in paths],
                "digest": digest.hexdigest(), "stderr": err.strip()}

    def check(self, k, obs):
        if obs["code"] != 0:
            return f"exit code {obs['code']}: {obs['stderr']}"
        golden = self.golden[k % len(self.pool)]
        if obs["files"] != golden["files"] or obs["digest"] != golden["digest"]:
            return f"outputs {obs['files']} differ from the golden bytes"
        return None

    def load_goldens(self):
        with open(GOLDEN_DIR / "cli_studies.json", encoding="utf-8") as fh:
            self.golden = json.load(fh)[str(self.input_set)]

    @staticmethod
    def save_goldens(observed: dict) -> None:
        _dump_json("cli_studies.json", {
            str(g): [{"files": obs["files"], "digest": obs["digest"]}
                     for obs in per_op]
            for g, per_op in observed.items()})


def _dump_json(name: str, payload) -> None:
    with open(GOLDEN_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")


WORKLOADS = {cls.name: cls for cls in (XbarRead, MvmMc, CliStudies)}
