"""One workload child: set up, run the closed loop, check every op.

Started by ``run.py`` with BLAS pinned to one thread and the checkout's
``src`` on ``PYTHONPATH``. Prints one JSON object as its last stdout line.

Modes:
  setup  import ftjsim and build the inputs, then report the set-up time
  run    set up, then run ops back to back for --seconds (one client, the
         next op starts when the previous one has been checked), stopping
         at the end of a workload cycle
  trace  set up under the tracer, run the workload's fixed trace ops
         untraced, then the same ops traced, and report per-layer metrics
         and the tracing overhead
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MAX_FAILURE_REPORTS = 5
# One reference run takes about 1 ms when the 2-core box is quiet; its
# neighbours can slow it, and every op, by up to 2x for minutes at a time.
REF_NUMPY_CALLS = 250
REF_PYTHON_STEPS = 10_000
NOMINAL_REF_S = 1e-3     # the reference time that set-up seconds are scaled to
PROBE_EVERY_S = 0.25


def reference_work() -> float:
    """Fixed work in the style of ftjsim's hot path: scalar numpy calls and
    plain Python arithmetic. It belongs to the benchmark, so no ftjsim change
    moves it; its time tracks how fast the host runs such code right now."""
    import numpy as np

    acc = 0.0
    for i in range(REF_NUMPY_CALLS):
        v = np.asarray(0.1 + 1e-4 * i, dtype=float)
        acc += float(np.abs(v) * np.exp(0.5 * np.sqrt(np.abs(v))))
    total = 0
    for i in range(REF_PYTHON_STEPS):
        total += i * i
    return acc + total


def probe_reference() -> float:
    """Seconds of one reference run, the best of three back to back."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def timed_op(wl, k: int) -> tuple[float, str | None]:
    """Run and check op k. Returns its wall time and a failure reason."""
    start = time.perf_counter()
    try:
        result = wl.op(k)
    except Exception as exc:  # any raise is a failed op; the loop goes on
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(k, wl.observe(k, result))
    except Exception as exc:  # a result the check cannot read is a failure
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


class Loop:
    """One closed loop: per-op start and wall times, failures, and the
    reference probes taken between ops (once PROBE_EVERY_S has passed since
    the last one, and once after the last op, so that every op lies between
    two probes)."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.failures: list[str] = []
        self.probes: list[tuple[float, float]] = []

    def run(self, wl, ops, seconds: float | None = None, tracer=None) -> "Loop":
        """Run ops in order; with ``seconds``, stop at the first cycle
        boundary after that much wall time."""
        start = time.perf_counter()
        for k in ops:
            now = time.perf_counter()
            if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
                self.probes.append((now, probe_reference()))
            if tracer is not None:
                tracer.op_id = k
            self.starts.append(time.perf_counter())
            elapsed, reason = timed_op(wl, k)
            self.times.append(elapsed)
            if reason is not None:
                self.failures.append(f"op {k}: {reason}")
            if (seconds is not None and (k + 1) % wl.cycle == 0
                    and time.perf_counter() - start >= seconds):
                break
        self.probes.append((time.perf_counter(), probe_reference()))
        return self

    def ref_times(self) -> list[float]:
        """Each op's wall time over the mean of the two probes around it."""
        probe_at = [t for t, _ in self.probes]
        out = []
        for start, elapsed in zip(self.starts, self.times):
            j = bisect.bisect_right(probe_at, start)
            out.append(elapsed / (0.5 * (self.probes[j - 1][1] + self.probes[j][1])))
        return out


def percentiles(values: list[float]) -> tuple[float, float, int]:
    """Median, nearest-rank 90th percentile, and the samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return statistics.median(ordered), ordered[rank - 1], len(ordered) - rank


def loop_stats(loop: Loop) -> dict:
    """End-to-end figures of one closed loop, in reference units and raw."""
    completed = len(loop.times) - len(loop.failures)
    ref = loop.ref_times()
    ref_p50, ref_p90, beyond = percentiles(ref)
    ms_p50, ms_p90, _ = percentiles([1e3 * t for t in loop.times])
    return {
        "ops_per_kref": 1e3 * completed / sum(ref),
        "op_p50_ref": ref_p50,
        "op_p90_ref": ref_p90,
        "ops_per_s": completed / sum(loop.times),
        "op_ms_p50": ms_p50,
        "op_ms_p90": ms_p90,
        "ref_ms": 1e3 * statistics.median(r for _, r in loop.probes),
        "ops": len(loop.times),
        "beyond_p90": beyond,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    start = time.monotonic()
    import ftjsim
    import ftjsim.cli
    import_s = time.monotonic() - start
    if Path(ftjsim.__file__).resolve().parent != SRC / "ftjsim":
        print(f"ftjsim imported from {ftjsim.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    from tracer import Tracer
    from workloads import INPUT_SETS, WORKLOADS

    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install(ftjsim)
        input_set = args.seed % INPUT_SETS
        wl = WORKLOADS[args.workload](ftjsim, input_set, workdir)
        setup_raw_s = time.monotonic() - args.spawned_at
        setup_ref_s = probe_reference()
        out = {"setup_s": setup_raw_s * NOMINAL_REF_S / setup_ref_s,
               "setup_raw_s": setup_raw_s, "import_s": import_s,
               "input_set": input_set,
               "versions": {"python": sys.version.split()[0],
                            "numpy": numpy.__version__,
                            "scipy": scipy.__version__}}
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        wl.load_goldens()
        if tracer is None:
            loop = Loop().run(wl, range(sys.maxsize), args.seconds)
            out.update(loop_stats(loop))
            failures = loop.failures
        else:
            tracer.uninstall()
            ops = range(wl.trace_ops)
            plain = Loop().run(wl, ops)
            wl.bytes_written = 0
            tracer.install(ftjsim)
            traced = Loop().run(wl, ops, tracer=tracer)
            tracer.uninstall()
            layers = tracer.per_layer()
            layers.update({"cli.bytes_written": wl.bytes_written,
                           "setup.import_s": import_s,
                           "trace.overhead_ratio":
                               sum(traced.ref_times()) / sum(plain.ref_times())})
            out["per_layer"] = layers
            out["ops"] = len(plain.times) + len(traced.times)
            out["ref_ms"] = 1e3 * statistics.median(
                r for _, r in plain.probes + traced.probes)
            failures = plain.failures + [f"traced {f}" for f in traced.failures]
            if args.trace_file:
                tracer.write_spans(args.trace_file, {
                    "workload": args.workload, "seed": args.seed,
                    "input_set": input_set,
                    "per_layer": layers})
        out["failed"] = len(failures)
        out["failures"] = failures[:MAX_FAILURE_REPORTS]
        out["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024.0)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
