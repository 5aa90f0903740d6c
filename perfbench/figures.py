"""Measure again the reference figures the benchmark's README quotes.

    python3 perfbench/figures.py

Prints: the run-to-run spread of a fixed pure-Python loop, which is the
floor under every timing metric on the machine; cold `import fsdim` time
over five fresh interpreters; the traced run's scaling probe
(mul_int_mod1 on a bare Champernowne base-10 stream and
gen_rational_expansion(22/101)) at 1e5, 4e5 and 1e6 digits, with the fitted
exponents; a cProfile breakdown of one
criterion-7 verification (q = 1/3, 70k digits, l <= 6, n up to 10^4); and
delta_exact times for n = 6 pairs drawn as the delta-solve workload draws
them, at the workload's denominator bound and at 64.  Takes a few minutes.
"""

import cProfile
import os
import pstats
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from harness import ROOT, scaling_probe  # also puts src/, tests/ and perfbench/ on sys.path

import fsdim
from tracing import fit_exponent
from workloads import DeltaSolve


def timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def import_times():
    code = "import time; t = time.perf_counter(); import fsdim; print(time.perf_counter() - t)"
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, text=True,
                                 capture_output=True,
                                 env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout)
            for _ in range(5)]


def criterion7_profile():
    seq = fsdim.gen_champernowne(fsdim.Alphabet(10), 70_000)
    profile = cProfile.Profile()
    profile.enable()
    fsdim.verify_rational_arithmetic(seq, Fraction(1, 3), 6, [1250, 2500, 5000, 10_000])
    profile.disable()
    stats = pstats.Stats(profile).stats
    total = max(entry[3] for entry in stats.values())

    def cumulative(name):
        return sum(entry[3] for (_, _, fn), entry in stats.items() if fn == name)

    def own(name):
        return sum(entry[2] for (_, _, fn), entry in stats.items() if fn == name)

    realarith = sum(cumulative(n) for n in ("add_rational_mod1", "mul_rational_mod1", "mul_int_mod1"))
    return {"total": total,
            "validate_certificate": cumulative("validate_certificate"),
            "integer_multiple_certificate": cumulative("integer_multiple_certificate"),
            "support_counts": cumulative("support_counts"),
            "_count_elements (own)": own("<built-in method _collections._count_elements>"),
            "realarith share": realarith / total}


def delta_n6(max_den, count=40):
    workload = DeltaSolve()
    workload.MAX_DEN = max_den
    rng = random.Random(max_den)
    times = [timed(fsdim.delta_exact, fsdim.ProbabilityVector(tuple(workload._vector(rng, 6))),
                   fsdim.ProbabilityVector(tuple(workload._vector(rng, 6))))
             for _ in range(count)]
    return statistics.median(times), max(times)


def machine_floor(runs=5, seconds=5.0):
    """Iterations per second of a fixed pure-Python loop, each run in a fresh interpreter."""
    code = ("import time\n"
            "t0 = time.perf_counter(); n = 0\n"
            f"while time.perf_counter() - t0 < {seconds}:\n"
            "    s = 0\n"
            "    for i in range(100_000): s += i * i % 7\n"
            "    n += 1\n"
            "print(n / (time.perf_counter() - t0))")
    return [float(subprocess.run([sys.executable, "-c", code], check=True, text=True,
                                 capture_output=True).stdout) for _ in range(runs)]


def main():
    floor = machine_floor()
    quartiles = statistics.quantiles(floor, n=4)
    print("fixed pure-Python loop, iterations/s in five fresh interpreters: "
          + ", ".join(f"{v:.2f}" for v in floor)
          + f"; quartile spread {(quartiles[2] - quartiles[0]) / statistics.median(floor):.3f} of the median")
    imports = import_times()
    print("cold import fsdim, five interpreters: " + ", ".join(f"{t:.3f}" for t in imports) + " s")
    sizes = (100_000, 400_000, 1_000_000)
    for name, seconds in scaling_probe(fsdim, sizes).items():
        print(f"{name} at {sizes} digits: " + ", ".join(f"{t:.2f} s" for t in seconds)
              + f"; exponent {fit_exponent(sizes, seconds):.2f}, "
              f"{fit_exponent(sizes[:2], seconds[:2]):.2f} from 1e5 to 4e5")
    for name, value in criterion7_profile().items():
        unit = "" if name.endswith("share") else " s"
        print(f"criterion-7 verification under cProfile, {name}: {value:.3f}{unit}")
    for max_den in (DeltaSolve.MAX_DEN, 64):
        median, worst = delta_n6(max_den)
        print(f"delta_exact, 40 pairs n=6, denominators <= {max_den}: "
              f"median {median * 1000:.1f} ms, max {worst * 1000:.1f} ms")


if __name__ == "__main__":
    main()
