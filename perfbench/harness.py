"""One benchmark run of one workload; run.py starts it in a fresh process.

The run issues whole rounds of operations from a single caller, each
waiting for the last (a closed loop), until the timed operations have taken
the run length.  Each round's outputs are checked after it, outside the
timing.  The set-up is repeated `setup_repeats` times (a workload
attribute), spread over the run, and its median is reported.  Between
operations the run times the fixed work of calibrate.py (of the kind the
workload's `calibration` names), and each reported timing is scaled by the
machine's speed at the time it was taken.  With
--trace 1 the fsdim functions are wrapped in spans (tracing.py) and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import calibrate  # noqa: E402  (needs the path above)

PROBE_SIZES = (100_000, 200_000, 400_000)
CALIBRATION_SHARE = 0.05  # calibration time as a share of the set-up and operation time
# a timing is scaled by the median of this many calibration samples on
# either side of its start: the host's speed changes within seconds
CALIBRATION_NEIGHBOURS = 4
MAX_FAILURES_SHOWN = 20


@dataclass
class Op:
    label: str
    key: object
    output: object
    error: str | None
    start: float
    seconds: float


class Runner:
    """Set-ups, timed operations and checks of one run, in a closed loop of one caller."""

    def __init__(self, workload, seed, seconds, workdir, tracer):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir, self.tracer = workdir, tracer
        self.setups: list[tuple[float, float]] = []  # (start, seconds)
        self.log: list[Op] = []  # every operation, its output dropped once checked
        self.failures: list[str] = []
        self.busy = 0.0
        self.calibration_starts: list[float] = []
        self.calibration: list[float] = []
        self.calibration_s = 0.0
        self.rounds = 0
        self._round: list[Op] = []

    def _phase(self, phase):
        if self.tracer is not None:
            self.tracer.phase = phase

    def setup(self):
        target = self.workdir / f"setup{len(self.setups)}"
        target.mkdir(parents=True)
        self.calibrate()
        self._phase("setup")
        gc.collect()
        begin = time.perf_counter()
        state = self.workload.setup(self.seed, target)
        self.setups.append((begin, time.perf_counter() - begin))
        self._phase("between")
        return state

    def op(self, label, key, fn, *args):
        # the repeated set-ups are spread over the run, so that their median
        # sees the same machine as the operations do; their inputs are dropped
        repeats = self.workload.setup_repeats
        while (len(self.setups) < repeats
               and self.busy >= len(self.setups) * self.seconds / repeats):
            self.setup()
        self.calibrate()
        # collect the garbage left so far, then freeze the survivors so that
        # no collection inside an operation walks them again
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            self.tracer.phase, self.tracer.op = "op", len(self.log) + len(self._round)
        error = None
        start = time.perf_counter()
        try:
            output = fn(*args)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self._phase("between")
        self.busy += seconds
        self._round.append(Op(label, key, output, error, start, seconds))
        return output

    def calibrate(self, at_least=0):
        """Time calibration samples until they have taken their share of the
        time measured so far, and at least `at_least` of them; the samples are
        thus spread over the run as the set-ups and operations are."""
        self._phase("calibrate")
        measured = self.busy + sum(seconds for _, seconds in self.setups)
        taken = len(self.calibration)
        while (not self.calibration or self.calibration_s < CALIBRATION_SHARE * measured
               or len(self.calibration) < taken + at_least):
            self.calibration_starts.append(time.perf_counter())
            self.calibration.append(calibrate.sample(self.workload.calibration))
            self.calibration_s += self.calibration[-1]
        self._phase("between")

    def slowness(self, start):
        """How many times slower than the reference machine this one ran at `start`."""
        i = bisect.bisect(self.calibration_starts, start)
        near = self.calibration[max(0, i - CALIBRATION_NEIGHBOURS):i + CALIBRATION_NEIGHBOURS]
        return statistics.median(near) / calibrate.reference_s(self.workload.calibration)

    def reference_seconds(self, start, seconds):
        """A timing taken at `start`, in seconds of the reference machine."""
        return seconds / self.slowness(start)

    def run(self):
        state = self.setup()
        while self.rounds < self.workload.min_rounds or self.busy < self.seconds:
            self._round = []
            self.workload.run_round(state, self.rounds, self.op)
            self.rounds += 1
            self._phase("check")
            self.failures += self.workload.check(state, [e for e in self._round if e.error is None])
            self._phase("between")
            self.log += [Op(e.label, e.key, None, e.error, e.start, e.seconds) for e in self._round]
        while len(self.setups) < self.workload.setup_repeats:
            self.setup()
        self.calibrate(at_least=CALIBRATION_NEIGHBOURS)  # the last timing's later neighbours


def scaling_probe(fsdim, sizes=PROBE_SIZES):
    """Seconds of gen_rational_expansion(22/101) and of mul_int_mod1(., 7) on a
    bare Champernowne base-10 stream at each of `sizes` digits."""
    alphabet = fsdim.Alphabet(10)
    source = fsdim.gen_champernowne(alphabet, max(sizes) + 64)
    seconds = {"gen_rational_expansion": [], "mul_int_mod1": []}
    for size in sizes:
        stream = fsdim.DigitSequence(alphabet, source.prefix(size + 64))
        for name, call in (("gen_rational_expansion",
                            lambda: fsdim.gen_rational_expansion(Fraction(22, 101), alphabet, size)),
                           ("mul_int_mod1", lambda: fsdim.mul_int_mod1(stream, 7, size))):
            gc.collect()
            start = time.perf_counter()
            call()
            seconds[name].append(time.perf_counter() - start)
    return seconds


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description="Run one fsdim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    import fsdim
    import_s = time.perf_counter() - start
    import tracing
    from workloads import WORKLOADS

    args = parse_args(argv)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    out_dir = BENCH / "out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    runner = Runner(workload, args.seed, args.seconds, workdir, tracer)
    begin = time.perf_counter()
    try:
        runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall_s = time.perf_counter() - begin

    log, failures = runner.log, runner.failures
    setup_seconds = [seconds for _, seconds in runner.setups]
    failed = [op for op in log if op.error is not None]
    done = [op.seconds for op in log if op.error is None]
    if not done:
        print(f"every operation failed, the first with {failed[0].error}", file=sys.stderr)
        return 1
    # the end-to-end timings are in seconds of the reference machine
    setup_ref = [runner.reference_seconds(start, seconds) for start, seconds in runner.setups]
    op_ref = [runner.reference_seconds(op.start, op.seconds) for op in log]
    done_ref = [t for t, op in zip(op_ref, log) if op.error is None]
    end_to_end = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "op_ms_p50": (statistics.median(done_ref) * 1000, "ms"),
        "ops_per_s": (len(done_ref) / sum(op_ref), "ops/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {"setup_s": statistics.median(setup_seconds),
            "op_ms_p50": statistics.median(done) * 1000,
            "ops_per_s": len(done) / runner.busy}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {runner.rounds}  wall {wall_s:.2f} s  timed {runner.busy:.2f} s  "
          f"import fsdim {import_s:.3f} s")
    slowness = [runner.slowness(op.start) for op in log]
    print(f"calibration ({workload.calibration}): {len(runner.calibration)} samples, {runner.calibration_s:.2f} s, "
          f"median {statistics.median(runner.calibration) * 1000:.4f} ms; slowness at the "
          f"operations {min(slowness):.3f} to {max(slowness):.3f}, "
          f"median {statistics.median(slowness):.4f}")
    print("set-up seconds: " + " ".join(f"{s:.4f}" for s in setup_seconds))
    for name, (value, unit) in end_to_end.items():
        raw = f"   (wall time {wall[name]:.4f})" if name in wall else ""
        print(f"  {name:<12} {value:12.4f} {unit}{raw}")
    print(f"  attempted {len(log)}  failed {len(failed)}")
    by_label = {}
    for op in log:
        by_label.setdefault(op.label, []).append(op.seconds * 1000)
    for label, ms in sorted(by_label.items()):
        print(f"    {label:<36} n={len(ms):<6} median {statistics.median(ms):10.3f} ms")
    for op in failed[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {op.label}: {op.error}")
    for msg in failures[:MAX_FAILURES_SHOWN]:
        print(f"CHECK {msg}")

    if tracer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    else:
        probe_seconds = {}
        if getattr(workload, "probe_scaling", False):
            tracer.phase = "probe"
            probe_seconds = scaling_probe(fsdim)
        # a workload without the probe reads 0, as for a layer it never calls
        exponents = {name: tracing.fit_exponent(PROBE_SIZES, probe_seconds[name])
                     if probe_seconds else 0.0
                     for name in ("gen_rational_expansion", "mul_int_mod1")}
        layers = tracing.layer_metrics(tracer, len(log), len(setup_seconds), exponents)
        coverage, coverage_p50 = tracing.op_coverage(tracer, [op.seconds for op in log])
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"  traced spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(f"  share of operation time inside spans {coverage:.4f}, "
              f"median per operation {coverage_p50:.4f}")
        if probe_seconds:
            print("  probe seconds at " + ", ".join(map(str, PROBE_SIZES)) + " digits: "
                  + "; ".join(f"{n} " + " ".join(f"{t:.3f}" for t in ts)
                              for n, ts in probe_seconds.items()))
        for name, value in layers.items():
            print(f"  {name:<44} {value:.6g}")
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in units}

    print(json.dumps({"correct": not failures, "attempted": len(log), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
