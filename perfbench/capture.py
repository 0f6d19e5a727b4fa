"""Capture the goldens the benchmark checks every op against.

Run from the repository root:

    python3 perfbench/capture.py                 # all workloads
    python3 perfbench/capture.py xbar_read       # one workload

For every input set it builds the workload, runs each pool entry once and
stores what the op's check compares. Re-capture only in a change that
alters a random stream or a model result on purpose, and say so.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)

import ftjsim  # noqa: E402
import ftjsim.cli  # noqa: E402

from workloads import GOLDEN_DIR, INPUT_SETS, WORKLOADS  # noqa: E402


def capture(name: str, workdir: Path) -> None:
    cls = WORKLOADS[name]
    runs = {}
    for g in range(INPUT_SETS):
        wl = cls(ftjsim, g, workdir)
        runs[g] = (wl, [wl.observe(k, wl.op(k)) for k in range(len(wl))])
        print(f"{name}: input set {g} captured ({len(wl)} ops)", flush=True)
    cls.save_goldens({g: observed for g, (_, observed) in runs.items()})
    # The checks that do not depend on the golden (exit codes, KCL) must
    # hold for what was just stored.
    for g, (wl, observed) in runs.items():
        wl.load_goldens()
        for k, obs in enumerate(observed):
            reason = wl.check(k, obs)
            if reason is not None:
                raise SystemExit(f"{name} input set {g}, op {k}: {reason}; "
                                 f"the stored goldens are not valid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench" / f"capture-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in args.workloads or WORKLOADS:
            capture(name, workdir)
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
