"""Self-test of the benchmark's output checks: each must pass a correct output
and catch a corrupted one.

    python3 perfbench/selftest.py

Runs every workload's check on small inputs, first on the outputs fsdim
gives, then on copies with one corruption each (a flipped digit, an altered
certificate entry, a shifted entropy, ...).  Exits 1 if a correct output is
refused or a corrupted one is accepted.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from harness import Op  # also puts src/, tests/ and perfbench/ on sys.path

import fsdim
import reference as ref
from workloads import ArithStream, DeltaSolve, DimGrid, PreserveK10

SEED = 7
results = []


def expect(label, failures, should_fail):
    ok = bool(failures) == should_fail
    results.append(ok)
    verdict = "caught" if failures else "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({failures[0]})" if failures else ""))


def entry(key, output, label="op"):
    return Op(label, key, output, None, 0.0, 0.0)


def flip_digit(result, position):
    digits = bytearray(result.digits.prefix(result.digits.length_available))
    digits[position] = (digits[position] + 1) % result.digits.alphabet.k
    return dataclasses.replace(result, digits=fsdim.DigitSequence(result.digits.alphabet, digits))


def arith_stream(workdir):
    wl = ArithStream()
    wl.COUNT, wl.GUARD = 3000, 256
    state = wl.setup(SEED, workdir)
    for name, fn, param in state["ops"]:
        if fn != "mul_rational_mod1":
            continue
        key = (name, fn, param)
        result = getattr(fsdim, fn)(state["streams"][name], param, wl.COUNT)
        expect(f"arith {name} {fn}", wl.check(state, [entry(key, result)]), False)
        expect(f"arith {name} {fn}, one digit flipped",
               wl.check(state, [entry(key, flip_digit(result, 1234))]), True)
        expect(f"arith {name} {fn}, fewer digits certified",
               wl.check(state, [entry(key, dataclasses.replace(result, certified_count=wl.COUNT - 1))]), True)


def preserve(workdir):
    wl = PreserveK10()
    wl.MAX_L, wl.SCHEDULE, wl.DIGITS = 4, (300,), 4 * 300 + 512
    state = wl.setup(SEED, workdir)
    q = Fraction(1, 3)
    report, text = wl._verify(state["alpha"], q)
    expect("preserve report", wl.check(state, [entry(q, (report, text))]), False)
    expect("preserve, second call with different JSON",
           wl.check(state, [entry(q, (report, text.replace("true", "false", 1)))]), True)

    def corrupted(edit):
        bad = copy.deepcopy(report)
        edit(bad)
        return wl.report_failures(state["alpha"], q, bad)

    expect("preserve, bound_bits altered",
           corrupted(lambda r: r.records[5].update(bound_bits=r.records[5]["bound_bits"] + 1e-9)), True)
    expect("preserve, row support altered",
           corrupted(lambda r: r.records[7].update(row_support=r.records[7]["row_support"] + 1)), True)
    expect("preserve, image entropy shifted by 1e-9",
           corrupted(lambda r: r.records[3].update(h_image=r.records[3]["h_image"] + 1e-9)), True)
    expect("preserve, estimate gap above 0.1",
           corrupted(lambda r: r.details["estimate_gaps"]["q-alpha"].update(lower=0.11)), True)
    expect("preserve, a cell skipped",
           corrupted(lambda r: r.details.update(skipped_cells=[{"leg": "x"}])), True)

    leg, source, m = wl.legs(state["alpha"].prefix(wl.DIGITS), q)[1]
    l, n = 3, 300
    src = ref.settled_prefix(source, 10, l * n)
    dst = ref.settled_prefix(ref.ref_mul_int(source, m, 10), 10, l * n)
    cert = wl.leg_certificate(leg, source, m, report.inputs["digits_used"], l, n)
    expect(f"preserve certificate {leg} l={l}", ref.block_certificate_failures(cert, src, dst, 10, l, n), False)
    (i, j), v = next(iter(cert.entries.items()))
    bad = copy.deepcopy(cert)
    bad.entries[(i, j)] = v + Fraction(1, 1000)
    expect("preserve certificate, one entry altered",
           ref.block_certificate_failures(bad, src, dst, 10, l, n), True)
    bad = copy.deepcopy(cert)
    bad.identity_columns = frozenset(list(bad.identity_columns)[1:])
    expect("preserve certificate, one identity column dropped",
           ref.block_certificate_failures(bad, src, dst, 10, l, n), True)


def dim_grid(workdir):
    wl = DimGrid()
    wl.GRIDS = (("champernowne2", 2, 40_000, 10), ("champernowne10", 10, 30_000, 3),
                ("zeros", 2, 20_000, 6))
    wl.NORMALITY_N = 5000
    state = wl.setup(SEED, workdir)
    state["dilution_digits"] = [20_000]
    outputs = {}

    def run(label, key, fn, *args):
        outputs[key] = fn(*args)

    wl.run_round(state, 0, run)
    good = [entry(key, out, str(key)) for key, out in outputs.items()]
    expect("dim-grid round", wl.check(dict(state), good), False)

    def corrupted(key, edit):
        bad_out = copy.deepcopy(outputs[key])
        bad_out = edit(bad_out) or bad_out
        return wl.check(dict(state), [entry(key, bad_out, str(key))])

    def shift_largest_cell(out):
        grid, _ = out
        cell = max(grid.entries, key=lambda e: (e.l, e.n))
        cell.h += 1e-9

    expect("dim-grid, largest Champernowne cell shifted by 1e-9",
           corrupted(("grid", "champernowne2"), shift_largest_cell), True)
    expect("dim-grid, zero sequence estimate not exactly 0",
           corrupted(("grid", "zeros"), lambda out: (out[0], (0.0, 2.0 ** -50))), True)
    expect("dim-grid, normality deviation off by 1e-9",
           corrupted(("normality", "champernowne10"), lambda out: out + Fraction(1, 10 ** 9)), True)
    expect("dim-grid, diluted estimate moved",
           corrupted(("dilution", 20_000),
                     lambda out: out.details["estimates"]["diluted"].update(lower=0.3)), True)


def delta_solve(workdir):
    wl = DeltaSolve()
    wl.POOL = 10
    state = wl.setup(SEED, workdir)
    for i in (2, 4):  # n = 4 and n = 6
        outputs = {}

        def run(label, key, fn, *args):
            outputs[key[1]] = fn(*args)
            return outputs[key[1]]

        pi, mu, nu = state["triples"][i]
        wl.run_round({"triples": [state["triples"][i]]}, 0, run)
        brute = {pi.n: 1}
        expect(f"delta n={pi.n}", wl.triple_failures(pi, mu, nu, outputs, dict(brute)), False)
        passes = {"triples": [state["triples"][i]]}
        expect(f"delta n={pi.n} pass", wl.check(passes, [entry((0, k), v) for k, v in outputs.items()]),
               False)
        later = dataclasses.replace(outputs["mu-nu"], m_star=outputs["mu-nu"].m_star + 1)
        expect(f"delta n={pi.n}, a later pass differs", wl.check(passes, [entry((0, "mu-nu"), later)]),
               True)

        def corrupted(kind, edit):
            bad = dict(outputs)
            bad[kind] = copy.deepcopy(outputs[kind])
            bad[kind] = edit(bad[kind]) or bad[kind]
            return wl.triple_failures(pi, mu, nu, bad, dict(brute))

        def alter_entry(cert):
            (r, c), v = next(iter(cert.entries.items()))
            cert.entries[(r, c)] = v / 2

        expect(f"delta n={pi.n}, witness entry halved",
               corrupted("pi-mu", lambda res: alter_entry(res.witness)), True)
        expect(f"delta n={pi.n}, m* raised by one",
               corrupted("mu-pi", lambda res: dataclasses.replace(res, m_star=res.m_star + 1)), True)
        expect(f"delta n={pi.n}, budget-limited method",
               corrupted("mu-nu", lambda res: dataclasses.replace(res, method="certificate-upper-bound")),
               True)
        expect(f"delta n={pi.n}, reversed certificate entry halved",
               corrupted("reverse", alter_entry), True)
        expect(f"delta n={pi.n}, composed certificate entry halved",
               corrupted("compose", alter_entry), True)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for case in (arith_stream, preserve, dim_grid, delta_solve):
            workdir = Path(tmp) / case.__name__
            workdir.mkdir()
            case(workdir)
    print(f"{sum(results)} of {len(results)} self-test cases behaved as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
