"""In-process timings of the digit kernels, block tables, verify and the exact solver on two trees.

    python3 scripts/kernels_ab.py PARENT_TREE CHANGE_TREE > kernels.json

loads TREE/src/fsdim of both trees side by side in one process, checks that
each pair of calls returns the same digits, and prints, for each kernel, the
minimum over 11 interleaved repeats, alternating which tree goes first, of
the per-call mean of a timeit batch (about 50 ms per batch), in milliseconds,
and the minor page faults per call of each side just after.  Inputs are uniform random digits
from NumPy seed 29.  The kernels:

- digits_to_limbs, base 10, at each tree's own limb_width(10), on the digits
  of 441 and 11 700 limbs of 18 digits (a preserve-k10 product and an
  arith-stream stream);
- the DigitSequence constructor at 7 700 and 200 000 digits;
- mul_int_mod1(., 7) and div_int(., 7) on a bare stream of 200 512 digits,
  and gen_rational_expansion(22/101), all at 200 000 digits, in each base of
  the optional third argument (a comma list; default 2,3,10,13,16,17,20,24,30,36).

Then the block tables, as preserve-k10 builds them: integer_multiple_certificate
with m = 3 and the product passed precomputed, then validate(), for l = 1..6,
on the Champernowne base-10 window of 6n + 512 digits from digit 100 000, at
n = 125 and at n = 1250, after checking that both trees write the same
certificate file for every cell.  It prints the six cells' time for each n and
the fixed cost per cell, the time per cell extrapolated to n = 0 from the two.

Then one verify_rational_arithmetic call at preserve-k10's shape, on the
n = 1250 window above, with l <= 6 and the one block count n = 1250, at q = 3
and at q = 1/3, after checking that both trees write the same report JSON.
It prints the minimum over 11 interleaved repeats in milliseconds: the
in-process cost of the call that preserve-k10 times end to end with to_json.

Then the solver, on the delta-solve pool of seed 1 (CHANGE_TREE's perfbench
workload; 400 triples pi, mu, nu), as the workload calls it:

- one pass of delta_exact over pi -> mu, mu -> pi and mu -> nu of every
  triple, after checking that both trees give every solve the same m*,
  method, node count and witness file; it prints the minimum over 11
  interleaved passes in milliseconds and the nodes the pass searched per
  second;
- one pass of reverse_certificate (the mu -> pi witness, reversed) and one of
  compose_certificates (the mu -> nu witness after the pi -> mu one) over
  every triple, each tree on its own witnesses, after checking that both
  trees write the same certificate file for every reversal and composition;
  it prints the minimum over 11 interleaved passes in milliseconds;
- one pass of validate_certificate over the three witnesses of every triple,
  each against its own pi and mu, as every solve, reversal and composition
  checks its output, after checking that both trees give every check the
  same outcome; it prints the minimum over 11 interleaved passes in
  milliseconds.
"""

import dataclasses
import importlib.util
import json
import resource
import sys
import tempfile
import timeit
from fractions import Fraction
from pathlib import Path

import numpy as np


def load(name: str, tree: str):
    """The fsdim package of `tree`, imported under the name `name`."""
    spec = importlib.util.spec_from_file_location(
        name, f"{tree}/src/fsdim/__init__.py", submodule_search_locations=[f"{tree}/src/fsdim"])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def best_ms(calls, repeats: int = 11):
    """Minimum per-call mean of each call over interleaved timeit batches, in ms;
    the batches alternate which call goes first, since the heap one leaves
    behind can change the other's page faults."""
    once = timeit.timeit(calls[0], number=1)
    number = max(1, int(0.05 / max(once, 1e-7)))
    best = [float("inf")] * len(calls)
    for r in range(repeats):
        for i in (range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))):
            best[i] = min(best[i], timeit.timeit(calls[i], number=number) / number)
    return [round(t * 1e3, 4) for t in best]


def faults(call, number: int = 20) -> float:
    """Minor page faults per call, right after the timing: the heap state
    that earlier calls left behind decides how many fresh pages a call touches."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(number):
        call()
    return round((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / number, 1)


def solver_pool(tree: str):
    """(pi, mu, nu) of every triple of the delta-solve pool at seed 1, as Fraction tuples."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/perfbench", f"{tree}/tests"]
    import workloads
    with tempfile.TemporaryDirectory() as workdir:
        triples = workloads.DeltaSolve().setup(1, Path(workdir))["triples"]
    return [(pi.p, mu.p, nu.p) for pi, mu, nu in triples]


def same_on_both(label: str, inputs, parent, change):
    """Exit unless the two trees' outputs agree on every input."""
    for args, p, c in zip(inputs, parent, change):
        if p != c:
            raise SystemExit(f"{label}{args}: the two trees give {p} and {c}")


def solver(packages, change: str):
    """The solver timings on the pool, after checking that both trees solve it alike."""
    pool = solver_pool(change)
    pairs = [(a, b) for pi, mu, nu in pool for a, b in ((pi, mu), (mu, pi), (mu, nu))]
    solves, reversals, compositions, validations = [], [], [], []
    for fsdim in packages:
        vectors = [tuple(map(fsdim.ProbabilityVector, triple)) for triple in pool]
        results = [[fsdim.delta_exact(a, b) for a, b in ((pi, mu), (mu, pi), (mu, nu))]
                   for pi, mu, nu in vectors]
        to_json = fsdim.certificate_to_json_dict
        solves.append(([(r.m_star, r.method, r.nodes, to_json(r.witness))
                        for triple in results for r in triple],
                       lambda f=fsdim.delta_exact, v=vectors: [
                           f(a, b) for pi, mu, nu in v for a, b in ((pi, mu), (mu, pi), (mu, nu))]))
        reverse = [(fsdim.reverse_certificate, (r2.witness, mu, pi))
                   for (pi, mu, _), (_, r2, _) in zip(vectors, results)]
        compose = [(fsdim.compose_certificates, (r3.witness, r1.witness, pi, mu, nu))
                   for (pi, mu, nu), (r1, _, r3) in zip(vectors, results)]
        validate = [(fsdim.validate_certificate, (r.witness, a, b))
                    for (pi, mu, nu), (r1, r2, r3) in zip(vectors, results)
                    for r, a, b in ((r1, pi, mu), (r2, mu, pi), (r3, mu, nu))]
        for calls, out, form in ((reverse, reversals, to_json), (compose, compositions, to_json),
                                 (validate, validations, dataclasses.astuple)):
            out.append(([form(f(*args)) for f, args in calls],
                        lambda calls=calls: [f(*args) for f, args in calls]))
    same_on_both("delta_exact", pairs, solves[0][0], solves[1][0])
    same_on_both("reverse_certificate", pool, reversals[0][0], reversals[1][0])
    same_on_both("compose_certificates", pool, compositions[0][0], compositions[1][0])
    same_on_both("validate_certificate", pairs, validations[0][0], validations[1][0])
    nodes = sum(r[2] for r in solves[0][0])
    p, c = best_ms([call for _, call in solves])
    out = {"delta_exact pass @ delta-solve seed 1": {
        "parent_ms": p, "change_ms": c, "change_vs_parent": round(c / p - 1, 3),
        "solves": len(pairs), "nodes": nodes, "parent_nodes_per_s": round(nodes / p * 1e3),
        "change_nodes_per_s": round(nodes / c * 1e3)}}
    for label, runs in (("reverse_certificate", reversals), ("compose_certificates", compositions),
                        ("validate_certificate", validations)):
        p, c = best_ms([call for _, call in runs])
        out[f"{label} pass @ delta-solve seed 1"] = {
            "parent_ms": p, "change_ms": c, "change_vs_parent": round(c / p - 1, 3),
            "calls": len(runs[0][0])}
    return out


def block_tables(packages):
    """The block-table timings, after checking that both trees build every table alike."""
    out, per_n = {}, {}
    for n in (125, 1250):
        calls, files = [], []
        for fsdim in packages:
            total = 100_000 + 6 * n + 512
            digits = fsdim.gen_champernowne(fsdim.Alphabet(10), total).prefix(total)[100_000:]
            seq = fsdim.DigitSequence(fsdim.Alphabet(10), digits)
            product = fsdim.mul_int_mod1(seq, 3, 6 * n).digits

            def build(l, f=fsdim, s=seq, p=product, n=n):
                return f.integer_multiple_certificate(s, 3, l, n, product_digits=p)[0]
            files.append([fsdim.certificate_to_json_dict(build(l)) for l in range(1, 7)])
            calls.append(lambda build=build: [build(l).validate() for l in range(1, 7)])
        same_on_both("integer_multiple_certificate", [(3, l, n) for l in range(1, 7)], *files)
        per_n[n] = best_ms(calls)
        p, c = per_n[n]
        out[f"block tables m=3 l=1..6 + validate @ n={n}"] = {
            "parent_ms": p, "change_ms": c, "change_vs_parent": round(c / p - 1, 3)}
    # t(n) = a + b*n per cell: a from the two block counts
    p, c = ((per_n[125][i] * 1250 - per_n[1250][i] * 125) / 1125 / 6 for i in (0, 1))
    out["block table fixed cost per cell"] = {
        "parent_ms": round(p, 4), "change_ms": round(c, 4), "change_vs_parent": round(c / p - 1, 3)}
    return out


def verify(packages):
    """The verify timings at preserve-k10's shape, after checking that both trees report alike."""
    out = {}
    total = 100_000 + 6 * 1250 + 512
    for q in (Fraction(3), Fraction(1, 3)):
        calls = []
        for fsdim in packages:
            digits = fsdim.gen_champernowne(fsdim.Alphabet(10), total).prefix(total)[100_000:]
            seq = fsdim.DigitSequence(fsdim.Alphabet(10), digits)
            calls.append(lambda f=fsdim, s=seq: f.verify_rational_arithmetic(s, q, 6, [1250]))
        same_on_both("verify_rational_arithmetic", [(q,)], *([call().to_json()] for call in calls))
        p, c = best_ms(calls)
        out[f"verify_rational_arithmetic q={q} l=1..6 @ n=1250"] = {
            "parent_ms": p, "change_ms": c, "change_vs_parent": round(c / p - 1, 3)}
    return out


def main(parent: str, change: str, bases):
    packages = load("fsdim_parent", parent), load("fsdim_change", change)
    trees = [(fsdim.digitseq, fsdim.realarith) for fsdim in packages]
    rng = np.random.default_rng(29)
    out = {}

    def record(label, calls, same=lambda a, b: True):
        if not same(*(call() for call in calls)):
            raise SystemExit(f"{label}: the two trees return different digits")
        p, c = best_ms(calls)
        out[label] = {"parent_ms": p, "change_ms": c, "change_vs_parent": round(c / p - 1, 3),
                      "parent_faults": faults(calls[0]), "change_faults": faults(calls[1])}

    for limbs in (441, 11700):
        digits = rng.integers(0, 10, 18 * limbs, dtype=np.uint8)
        calls = [lambda d=d: d.digits_to_limbs(digits, 10, *d.limb_width(10)) for d, _ in trees]
        record(f"digits_to_limbs k=10 @ {18 * limbs} digits", calls)
    for n in (7700, 200000):
        digits = rng.integers(0, 10, n, dtype=np.uint8)
        calls = [lambda d=d: d.DigitSequence(d.Alphabet(10), digits) for d, _ in trees]
        record(f"DigitSequence k=10 @ {n} digits", calls)
    count = 200000
    for k in bases:
        digits = rng.integers(0, k, count + 512, dtype=np.uint8)
        streams = [d.DigitSequence(d.Alphabet(k), digits) for d, _ in trees]
        same = lambda a, b: a.digits.prefix(count) == b.digits.prefix(count)  # noqa: E731
        record(f"mul_int_mod1(., 7) k={k} @ 2e5 digits",
               [lambda r=r, s=s: r.mul_int_mod1(s, 7, count) for (_, r), s in zip(trees, streams)],
               same)
        record(f"div_int(., 7) k={k} @ 2e5 digits",
               [lambda r=r, s=s: r.div_int(s, 7, count) for (_, r), s in zip(trees, streams)], same)
        record(f"gen_rational_expansion(22/101) k={k} @ 2e5 digits",
               [lambda d=d: d.gen_rational_expansion(Fraction(22, 101), d.Alphabet(k), count)
                for d, _ in trees],
               lambda a, b: a.prefix(count) == b.prefix(count))
    out.update(block_tables(packages))
    out.update(verify(packages))
    out.update(solver(packages, change))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2],
         [int(k) for k in (sys.argv[3] if len(sys.argv) == 4 else "2,3,10,13,16,17,20,24,30,36")
          .split(",")])
