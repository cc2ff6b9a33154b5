"""Benchmark of the hdefect command line, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan,defect,conjecture} --seed N --seconds S --trace {0,1}

The last line of standard output is the result as JSON: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate run
with timing wrappers installed. The line before it is the detailed report,
which is also written under perfbench/out/. The exit code is 1 when any
operation failed its oracle and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Pinned before numpy is imported; the first multi-threaded SVD of each shape
# is slow enough to swamp small calls.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scan", "defect", "conjecture")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "hdefect", "__init__.py")):
        print(f"error: no hdefect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hdefect

    if os.path.dirname(os.path.abspath(hdefect.__file__)) != os.path.join(SRC, "hdefect"):
        print(f"error: imported hdefect from {hdefect.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    blas = {"vars": BLAS_THREAD_VARS, "set": dict.fromkeys(BLAS_THREAD_VARS, BLAS_THREADS), "inherited": inherited}
    result, report = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, blas)
    path = os.path.join(ROOT, "perfbench", "out", f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, allow_nan=False)
        handle.write("\n")
    for message in report["failures"]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps(report, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
