"""Tracing overhead and per-layer figures, workload by workload.

    python3 perfbench/report.py

For each workload, runs run.py on seed SEED, untraced and traced PAIRS
times each, alternating which goes first, for the run length in
BENCHMARK.json, and prints the median op_ms_p50 of both and their ratio
(the measured tracing overhead), the share of operation time the traced
spans cover, and the per-layer metrics of the last traced run.  Because
run-to-run machine noise can exceed the overhead, it also prints the
overhead estimated from the spans per operation and the cost of one span,
measured here on a wrapped empty function.
"""

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("preserve-k10", "arith-stream", "delta-solve", "dim-grid")
SEED = 3
PAIRS = 2
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402  (needs the path above)


def span_cost_s(calls=200_000):
    """Seconds a span adds to one call: wrapped minus bare empty function."""
    def empty():
        return None

    wrapped = Tracer().wrap("empty", empty)
    costs = []
    for fn in (empty, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append((time.perf_counter() - start) / calls)
    return costs[1] - costs[0]


def spans_per_op(workload):
    trace = json.loads((BENCH / "out" / f"trace-{workload}-seed{SEED}.json").read_text())
    ops = [span[3] for span in trace["spans"] if span[2] == "op"]
    return len(ops) / (max(ops) + 1) if ops else 0.0


def run(workload, trace):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", str(SEED), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} trace={trace}: outputs failed the checks\n{out}")
    op_ms = float(re.search(r"^\s+op_ms_p50\s+([\d.]+)", out, re.M).group(1))
    coverage = re.search(r"inside spans ([\d.]+), median per operation ([\d.]+)", out)
    return op_ms, coverage.groups() if coverage else None, result["metrics"]


def main():
    cost = span_cost_s()
    print(f"one span costs {cost * 1e6:.2f} us")
    print(f"| workload | op_ms_p50 untraced | op_ms_p50 traced | traced/untraced "
          f"| spans per op | estimated overhead | span share of op time (all, median op) |")
    print("|---|---|---|---|---|---|---|")
    layers = {}
    for workload in WORKLOADS:
        plain, traced = [], []
        for pair in range(PAIRS):
            for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
                op_ms, coverage, metrics = run(workload, trace)
                (traced if trace else plain).append(op_ms)
                if trace:
                    layers[workload], share = metrics, coverage
        p, t = statistics.median(plain), statistics.median(traced)
        per_op = spans_per_op(workload)
        print(f"| {workload} | {p:.4g} | {t:.4g} | {t / p:.3f} | {per_op:.1f} "
              f"| {per_op * cost * 1000 / p:.2%} | {share[0]}, {share[1]} |")
    print()
    print("| per-layer metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, first in layers[WORKLOADS[0]].items():
        print(f"| {name} | {first['unit']} | "
              + " | ".join(f"{layers[w][name]['value']:.4g}" for w in WORKLOADS) + " |")


if __name__ == "__main__":
    main()
