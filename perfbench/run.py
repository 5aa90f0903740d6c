"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh child
process whose environment pins the sources of noise: a fixed PYTHONHASHSEED
(set and dict order over bytes keys decides the work order in
integer_multiple_certificate) and native thread pools of one thread.  The
child's output, whose last line is the JSON result, passes through.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 175
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def main() -> int:
    needed = [ROOT / "src" / "fsdim" / "__init__.py", ROOT / "tests" / "oracles.py",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a full fsdim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    command = [sys.executable, str(BENCH / "harness.py"), *sys.argv[1:]]
    try:
        return subprocess.run(command, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        print(f"perfbench: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
