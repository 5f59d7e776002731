"""Benchmark launcher: one workload run in one fresh, pinned worker process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the conefix source tree under
``src/`` next to this directory.  The worker's result object is the last
line of standard output.  See README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

# one interpreter thread of work, and no thread pools inside numpy/BLAS
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "conefix" / "__init__.py").is_file():
        print(f"no conefix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic())]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
