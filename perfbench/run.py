"""ftjsim benchmark: one workload, one closed-loop client, checked ops.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload xbar_read --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints its per-layer metrics from a separate traced run, with the tracing
overhead. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 2 without a
result when the checkout holds no ``src/ftjsim`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Every child runs its BLAS on one thread: the workloads are single-threaded
# by design, and the machine the figures come from has two cores.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_RUNS = 5           # set-ups per run; setup_s is their median
TIME_LIMIT_S = 170.0     # whole run, children included


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(mode: str, args, deadline: float, extra=()) -> dict:
    """Run one worker child to completion and return its JSON result."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(WORKER), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def print_table(rows, units) -> None:
    print(f"  {'metric':34} {'value':>16}  unit")
    for name, value, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:34} {text:>16}  {units[name]:6} {note}".rstrip())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ftjsim" / "__init__.py").is_file():
        print(f"error: no ftjsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        if args.trace:
            trace_file.parent.mkdir(exist_ok=True)
            child = spawn("trace", args, deadline,
                          ["--trace-file", str(trace_file)])
            declared = spec["per_layer"]
            values = child["per_layer"]
            setups = []
        else:
            setups = [spawn("setup", args, deadline)
                      for _ in range(SETUP_RUNS - 1)]
            child = spawn("run", args, deadline)
            setups.append(child)
            declared = spec["end_to_end"]
            values = {name: child[name] for name in
                      ("ops_per_kref", "op_p50_ref", "op_p90_ref", "peak_rss_mib")}
            values["setup_s"] = statistics.median(c["setup_s"] for c in setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) - set(values)
    if missing:
        print(f"error: no value for {', '.join(sorted(missing))}", file=sys.stderr)
        return 2

    attempted, failed = child["ops"], child["failed"]
    stamp = {"workload": args.workload, "seed": args.seed,
             "input_set": child["input_set"], "commit": git_commit(),
             "nproc": os.cpu_count(),
             "cpu_affinity": len(os.sched_getaffinity(0)),
             "machine": platform.machine(), **child["versions"],
             "blas_threads": BLAS_ENV}
    print(f"ftjsim benchmark, {args.workload}: one closed-loop client, "
          f"{'traced run' if args.trace else f'{args.seconds:g} s measured'}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        rows = [(name, values[name], "") for name in units]
        print_table(rows, units)
        print(f"  tracing overhead: traced ops took {values['trace.overhead_ratio']:.3f}x "
              f"the same {child['ops'] // 2} ops untraced, both in reference units; "
              f"per-layer values cover set-up and the traced ops; one reference "
              f"run took {child['ref_ms']:.4f} ms")
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    else:
        counts = f"({attempted} ops, {child['beyond_p90']} beyond p90)"
        notes = {"op_p50_ref": f"({attempted} ops)", "op_p90_ref": counts,
                 "setup_s": f"(median of {len(setups)} set-ups)"}
        rows = [(name, values[name], notes.get(name, "")) for name in units]
        raw = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
               "setup_wall_s": "s", "ref_ms": "ms", "fail_ratio": "1"}
        setup_wall = statistics.median(c["setup_raw_s"] for c in setups)
        rows += [("ops_per_s", child["ops_per_s"], "(wall time, not gated)"),
                 ("op_ms_p50", child["op_ms_p50"], "(wall time, not gated)"),
                 ("op_ms_p90", child["op_ms_p90"], "(wall time, not gated) " + counts),
                 ("setup_wall_s", setup_wall, "(wall time, not gated)"),
                 ("ref_ms", child["ref_ms"], "(one reference run, median of probes)"),
                 ("fail_ratio", failed / attempted,
                  f"({failed} failed / {attempted} attempted)")]
        print_table(rows, {**units, **raw})
    for reason in child["failures"]:
        print(f"  FAILED {reason}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
