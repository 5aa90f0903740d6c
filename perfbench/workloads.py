"""The four workloads: inputs made from a seed, one round of operations, output checks.

A workload has three parts.  `setup(seed, workdir)` makes the inputs: it
generates digit streams, writes them as digit files and reads them back with
read_digit_file, the way the CLI loads its input.  `run_round(state, r, op)`
issues one round of operations through `op(label, key, fn, *args)`, which
times the call and logs its output; every round issues the same operations.
`setup_repeats` says how often a run repeats the set-up for the median it
reports.  `calibration` names the kind of calibration sample (calibrate.py)
whose speed the workload's timings are scaled by.  `check(state, entries)` runs after every round, outside the timed
region: it compares that round's outputs with the independent computations in
reference.py and returns a list of failure messages.  Outputs are dropped
after their round is checked, so memory does not grow with the run length;
what a later round must be compared with is kept in `state`.

Workloads call fsdim through module attributes at call time (fsdim.name),
so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import fsdim
import oracles
import reference as ref


def _windows(rng, k: int, offsets: int, count: int, paths):
    """`count` digits of Champernowne base k from a seeded offset below
    `offsets`, one window per path, each through a digit file.  The generated
    length does not depend on the offsets, so neither does the set-up time."""
    source = fsdim.gen_champernowne(fsdim.Alphabet(k), offsets + count)
    digits = source.prefix(offsets + count)
    streams = []
    for path in paths:
        offset = rng.randrange(offsets)
        window = fsdim.DigitSequence(source.alphabet, digits[offset:offset + count])
        fsdim.write_digit_file(window, count, path)
        streams.append(fsdim.read_digit_file(path))
    return streams


def _first_time(state, entry, digest, failures):
    """True the first time an operation key is seen; a later call must repeat its digest."""
    seen = state.setdefault("seen", {})
    if entry.key not in seen:
        seen[entry.key] = digest
        return True
    if seen[entry.key] != digest:
        failures.append(f"{entry.label}: output differs from an earlier call with the same inputs")
    return False


class PreserveK10:
    """verify_rational_arithmetic + to_json on a Champernowne base-10 window."""

    name = "preserve-k10"
    min_rounds = 2  # two calls per q, so byte-identity of the JSON is always checked
    setup_repeats = 25
    calibration = "loop"
    MAX_L = 6
    SCHEDULE = (1250,)
    DIGITS = 6 * 1250 + 512
    CERT_L = 4  # the cell per leg whose certificate is compared entry by entry
    LEGS = 4

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        alpha, = _windows(rng, 10, 200_000, self.DIGITS, [workdir / "alpha.txt"])
        return {"alpha": alpha, "qs": (Fraction(3), Fraction(1, 3))}

    def run_round(self, state, r, op):
        for q in state["qs"]:
            op(f"verify q={q}", q, self._verify, state["alpha"], q)

    def _verify(self, alpha, q):
        report = fsdim.verify_rational_arithmetic(alpha, q, self.MAX_L, list(self.SCHEDULE))
        return report, report.to_json()

    def check(self, state, entries):
        failures = []
        for entry in entries:
            report, text = entry.output
            # two calls with the same inputs must give byte-identical JSON
            if _first_time(state, entry, text, failures):
                q = entry.key
                failures += [f"q={q}: {msg}" for msg in self.report_failures(state["alpha"], q, report)]
        return failures

    def legs(self, alpha_digits, q):
        """(leg, source reference, multiplier) for the four legs of the reduction chain."""
        a, b = abs(q.numerator), q.denominator
        alpha = (alpha_digits, 1)
        return [("alpha-times-|a|", alpha, a),
                ("q-alpha-times-b", ref.ref_mul_q(alpha, q, 10), b),
                ("alpha-times-b", alpha, b),
                ("q-plus-alpha-times-b", ref.ref_add_q(alpha, q, 10), b)]

    def report_failures(self, alpha, q, report):
        failures = []
        if not report.passes or report.violations:
            failures.append(f"report does not pass: {report.violations[:3]}")
        if report.details.get("skipped_cells"):
            failures.append(f"{len(report.details['skipped_cells'])} cells skipped")
        for stream, gap in report.details["estimate_gaps"].items():
            if gap["lower"] > ref.GAP_LIMIT or gap["upper"] > ref.GAP_LIMIT:
                failures.append(f"estimate gap of {stream} exceeds {ref.GAP_LIMIT}: {gap}")
        need = self.MAX_L * max(self.SCHEDULE)
        records = {(rec["leg"], rec["l"], rec["n"]): rec for rec in report.records}
        expected_cells = self.LEGS * self.MAX_L * len(self.SCHEDULE)
        if len(records) != expected_cells:
            failures.append(f"{len(records)} certificate cells, expected {expected_cells}")
        for leg, source, m in self.legs(alpha.prefix(self.DIGITS), q):
            src = ref.settled_prefix(source, 10, need)
            dst = ref.settled_prefix(ref.ref_mul_int(source, m, 10), 10, need)
            if src is None or dst is None:
                failures.append(f"{leg}: reference digits undecided at {need} digits")
                continue
            for l in range(1, self.MAX_L + 1):
                for n in self.SCHEDULE:
                    rec = records.get((leg, l, n))
                    if rec is None:
                        failures.append(f"{leg} l={l} n={n}: cell missing")
                        continue
                    failures += [f"{leg} l={l} n={n}: {msg}"
                                 for msg in self._check_cell(rec, src, dst, m, l, n)]
            n = self.SCHEDULE[0]
            cert = self.leg_certificate(leg, source, m, report.inputs["digits_used"], self.CERT_L, n)
            failures += [f"{leg} l={self.CERT_L} n={n} certificate: {msg}" for msg in
                         ref.block_certificate_failures(cert, src, dst, 10, self.CERT_L, n)]
        return failures

    def leg_certificate(self, leg, source, m, digits_used, l, n):
        """The (l, n) certificate of a leg, built from the inputs the timed call used.

        Like verify_rational_arithmetic: alpha's legs read alpha whole, the
        derived legs read their stream cut to `digits_used`, and the product
        digits come from one mul_int_mod1 over the leg's largest cell.
        """
        digits = source[0] if leg.startswith("alpha") else source[0][:digits_used]
        seq = fsdim.DigitSequence(fsdim.Alphabet(10), digits)
        product = fsdim.mul_int_mod1(seq, m, self.MAX_L * max(self.SCHEDULE))
        cert, _, _ = fsdim.integer_multiple_certificate(seq, m, l, n, product_digits=product.digits)
        return cert

    @staticmethod
    def _check_cell(rec, src, dst, m, l, n):
        failures = []
        g = math.gcd(m, 10 ** l)
        s = ref.digit_sum(m, 10)
        h_src = ref.entropy_of_counts(Counter(ref.naive_blocks(src, l, n)).values(), n)
        h_dst = ref.entropy_of_counts(Counter(ref.naive_blocks(dst, l, n)).values(), n)
        if rec["m"] != m:
            failures.append(f"multiplier {rec['m']} != {m}")
        if abs(rec["h_source"] - h_src) > ref.ENTROPY_TOL or abs(rec["h_image"] - h_dst) > ref.ENTROPY_TOL:
            failures.append(f"entropies ({rec['h_source']}, {rec['h_image']}) != naive ({h_src}, {h_dst})")
        if abs(rec["delta_h"] - abs(h_src - h_dst)) > 2 * ref.ENTROPY_TOL:
            failures.append(f"delta_h {rec['delta_h']} != {abs(h_src - h_dst)}")
        if rec["bound_bits"] != math.log2(g * (s + 1) * m):
            failures.append(f"bound_bits {rec['bound_bits']} != log2({g}*{s + 1}*{m})")
        if (rec["col_bound"], rec["row_bound"]) != ((s + 1) * m, g * (s + 1) * m):
            failures.append(f"support bounds {rec['col_bound']}, {rec['row_bound']} are wrong")
        support = ref.cell_support(src, dst, l, n)
        if (rec["col_support"], rec["row_support"]) != support:
            failures.append(f"supports ({rec['col_support']}, {rec['row_support']}) != naive {support}")
        if abs(h_src - h_dst) > rec["bound_bits"] + ref.ENTROPY_SLACK:
            failures.append(f"entropy gap {abs(h_src - h_dst)} exceeds the bound {rec['bound_bits']}")
        if not (rec["valid"] and rec["passed"]):
            failures.append("cell reported as failing")
        return failures


class ArithStream:
    """Certified arithmetic on 2e5-digit streams, enclosure path and exact path."""

    name = "arith-stream"
    min_rounds = 1
    setup_repeats = 7
    calibration = "bigint"  # its operations are big-integer arithmetic
    probe_scaling = True  # its traced run also times the scaling probe
    COUNT = 200_000
    GUARD = 512
    BARE_WINDOWS = 8
    OPS = ("mul_int_mod1", "div_int", "add_rational_mod1", "mul_rational_mod1")

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        # every bare operation reads its own window: how far the enclosure
        # must look ahead depends on the digits after the last one requested
        names = [f"bare{i}" for i in range(self.BARE_WINDOWS)]
        streams = dict(zip(names, _windows(rng, 10, 100_000, self.COUNT + self.GUARD,
                                           [workdir / f"{name}.txt" for name in names])))
        den = rng.randrange(3, 10_000)
        streams["exact"] = fsdim.gen_rational_expansion(
            Fraction(rng.randrange(1, den), den), fsdim.Alphabet(10), self.COUNT + self.GUARD)
        params = {"mul_int_mod1": lambda: rng.randint(2, 12),
                  "div_int": lambda: rng.randint(2, 12),
                  "add_rational_mod1": lambda: Fraction(rng.randint(1, 12), rng.randint(2, 12)),
                  "mul_rational_mod1": lambda: Fraction(rng.randint(1, 12), rng.randint(2, 12))}
        ops = [(name, self.OPS[i % len(self.OPS)]) for i, name in enumerate(names)]
        ops += [("exact", fn) for fn in self.OPS]
        ops = [(name, fn, params[fn]()) for name, fn in ops]
        return {"streams": streams, "ops": ops}

    def run_round(self, state, r, op):
        for name, fn, param in state["ops"]:
            op(f"{fn} {name}", (name, fn, param), getattr(fsdim, fn),
               state["streams"][name], param, self.COUNT)

    def expected(self, seq, fn, param):
        if seq.exact_value is not None:
            return oracles.frac_digits(ref.exact_affine(fn, seq.exact_value, param), 10, self.COUNT)
        reference = ref.REF_OPS[fn]((seq.prefix(self.COUNT + self.GUARD), 1), param, 10)
        return ref.settled_prefix(reference, 10, self.COUNT)

    def check(self, state, entries):
        failures = []
        expected = state.setdefault("expected", {})
        for entry in entries:
            name, fn, param = entry.key
            if entry.key not in expected:
                expected[entry.key] = self.expected(state["streams"][name], fn, param)
            failures += [f"{entry.label} ({param}): {msg}"
                         for msg in self.result_failures(entry.output, expected[entry.key])]
        return failures

    def result_failures(self, result, expected):
        if expected is None:
            return ["reference digits undecided"]
        failures = []
        if result.certified_count != self.COUNT or result.unresolved:
            failures.append(f"certified {result.certified_count} of {self.COUNT} digits "
                            f"(unresolved={result.unresolved})")
        got = result.digits.prefix(min(result.certified_count, self.COUNT))
        if got != expected[:len(got)]:
            first = next(i for i, (x, y) in enumerate(zip(got, expected)) if x != y)
            failures.append(f"digit {first} is {got[first]}, reference says {expected[first]}")
        return failures


class DimGrid:
    """Entropy grids, normality deviation and the dilution counterexample."""

    name = "dim-grid"
    min_rounds = 1
    setup_repeats = 9
    calibration = "mixed"
    # (stream, base, digits, max block length); zeros has no seeded offset
    GRIDS = (("champernowne2", 2, 600_000, 14),
             ("champernowne10", 10, 300_000, 5),
             ("zeros", 2, 200_000, 8))
    NORMALITY = (("champernowne2", 6), ("champernowne10", 3))
    NORMALITY_N = 100_000
    DILUTION_L = 8
    # three dilution lengths put the median operation inside one cluster of
    # similar costs, so that op_ms_p50 does not jump between operation kinds
    DILUTIONS = 3
    SAMPLED_CELLS = 3

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        streams = {}
        for name, k, count, _ in self.GRIDS:
            path = workdir / f"{name}.txt"
            if name == "zeros":
                fsdim.write_digit_file(fsdim.DigitSequence(fsdim.Alphabet(k), bytes(count)), count, path)
                streams[name] = fsdim.read_digit_file(path)
            else:
                streams[name], = _windows(rng, k, 100_000, count, [path])
        schedules = {name: sorted({(count // L) // 2 ** i for i in range(4)})
                     for name, _, count, L in self.GRIDS}
        dilution_digits = [2 * rng.randrange(95_000, 105_000) for _ in range(self.DILUTIONS)]
        return {"streams": streams, "schedules": schedules, "dilution_digits": dilution_digits,
                "cell_rng": random.Random(seed + 1)}

    def run_round(self, state, r, op):
        streams = state["streams"]
        for name, _, _, L in self.GRIDS:
            op(f"grid {name}", ("grid", name), self._grid, streams[name], L, state["schedules"][name])
        for name, w in self.NORMALITY:
            op(f"normality {name}", ("normality", name), fsdim.normality_deviation,
               streams[name], w, self.NORMALITY_N)
        for total in state["dilution_digits"]:
            op("dilution", ("dilution", total), fsdim.verify_dilution_counterexample,
               total, self.DILUTION_L)

    @staticmethod
    def _grid(seq, L, schedule):
        grid = fsdim.entropy_rate_grid(seq, L, schedule)
        return grid, fsdim.dim_estimates(grid)

    def check(self, state, entries):
        failures = []
        for entry in entries:
            kind, output = entry.key[0], entry.output
            if kind == "grid":
                grid, estimates = output
                digest = ([(e.l, e.n, e.h) for e in grid.entries], estimates)
            else:
                digest = output.to_json() if kind == "dilution" else output
            if not _first_time(state, entry, digest, failures):
                continue
            if kind == "grid":
                failures += [f"grid {entry.key[1]}: {msg}" for msg in
                             self.grid_failures(state, entry.key[1], *output)]
            elif kind == "normality":
                name = entry.key[1]
                w = dict(self.NORMALITY)[name]
                seq = state["streams"][name]
                expected = ref.sliding_deviation(seq.prefix(self.NORMALITY_N + w), seq.alphabet.k,
                                                 w, self.NORMALITY_N)
                if output != expected:
                    failures.append(f"normality {name}: {output} != sliding recount {expected}")
            else:
                failures += [f"dilution {entry.key[1]}: {msg}"
                             for msg in self.dilution_failures(entry.key[1], output)]
        return failures

    def grid_failures(self, state, name, grid, estimates):
        seq = state["streams"][name]
        k = seq.alphabet.k
        cells = [(e.l, e.n, e.h) for e in grid.entries]
        failures = []
        if len(cells) != grid.max_block_len * len(state["schedules"][name]) or grid.clipped:
            failures.append(f"{len(cells)} cells, clipped={grid.clipped}")
        if tuple(estimates) != ref.estimates_from_entries(cells):
            failures.append(f"estimates {estimates} do not follow from the grid")
        sample = [max(cells), min(cells)] + state["cell_rng"].sample(cells, self.SAMPLED_CELLS - 2)
        for l, n, h in sample:
            naive = ref.normalized_entropy(seq.prefix(l * n), k, l, n)
            if abs(h - naive) > ref.ENTROPY_TOL:
                failures.append(f"cell l={l} n={n}: {h} != naive {naive}")
        if name == "zeros" and tuple(estimates) != (0.0, 0.0):
            failures.append(f"zero sequence estimates {estimates}, not exactly (0, 0)")
        if name != "zeros" and min(estimates) < ref.DENSE_FLOOR:
            failures.append(f"Champernowne estimates {estimates} below {ref.DENSE_FLOOR}")
        return failures

    def dilution_failures(self, total, report):
        failures = [] if report.passes else [f"report does not pass: {report.violations}"]
        half = (total + 1) // 2
        diluted = bytearray(total)
        diluted[0::2] = ref.champernowne_digits(2, half)
        schedule = report.inputs["n_schedule"]
        cells = [(l, n, ref.normalized_entropy(diluted, 2, l, n))
                 for l in range(1, self.DILUTION_L + 1) for n in schedule if l * n <= total]
        lower, upper = ref.estimates_from_entries(cells)
        reported = report.details["estimates"]["diluted"]
        if abs(reported["lower"] - lower) > ref.ENTROPY_TOL or abs(reported["upper"] - upper) > ref.ENTROPY_TOL:
            failures.append(f"diluted estimates {reported} != naive ({lower}, {upper})")
        lo, hi = ref.DILUTED_BAND
        if not lo <= lower <= upper <= hi:
            failures.append(f"diluted estimates ({lower}, {upper}) outside [{lo}, {hi}]")
        if report.details["estimates"]["zeros"] != {"lower": 0.0, "upper": 0.0}:
            failures.append("zero stream of the dilution report is not exactly (0, 0)")
        return failures


class DeltaSolve:
    """Exact dispersion, reversal and composition on seeded rational triples."""

    name = "delta-solve"
    min_rounds = 1
    setup_repeats = 15
    calibration = "mixed"
    # a round is one pass over the whole pool, so every run solves the same
    # instances however fast it goes; the pool is small enough for several
    # passes in a run
    POOL = 400
    MAX_DEN = 24
    # n = 5 and 6 triples come from this fixed seed, not from --seed: their
    # times have a heavy tail (the hardest 5% of random n = 6 pairs take about
    # 60% of the time), so a pool drawn per seed made ops_per_s a property of
    # the seed, which then hid any change in the code
    HEAVY_SEED = 0
    # n <= 4 answers checked against the brute-force oracle: its cost grows
    # steeply with n, so only the first triples of each dimension are checked
    BRUTE_FORCE = {2: 40, 3: 40, 4: 3}

    def setup(self, seed, workdir):
        seeded, fixed = random.Random(seed), random.Random(self.HEAVY_SEED)
        rows = []
        for i in range(self.POOL):
            n = 2 + i % 5
            rng = fixed if n >= 5 else seeded
            pi = self._vector(rng, n)
            # every tenth mu is a permutation of pi, taking each n in turn
            if i % 10 == 2 * (i // 10 % 5) + 1:
                mu = list(pi)
                rng.shuffle(mu)
            else:
                mu = self._vector(rng, n)
            rows.append([{"n": n, "p": [str(x) for x in v]} for v in (pi, mu, self._vector(rng, n))])
        path = workdir / "triples.json"
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)
        with open(path, "r", encoding="ascii") as fh:
            triples = [tuple(fsdim.ProbabilityVector(tuple(Fraction(x) for x in v["p"])) for v in row)
                       for row in json.load(fh)]
        return {"triples": triples}

    def _vector(self, rng, n):
        # uniform weak composition of a random denominator d into n parts
        d = rng.randint(1, self.MAX_DEN)
        cuts = sorted(rng.sample(range(d + n - 1), n - 1))
        return [Fraction(b - a - 1, d) for a, b in zip([-1] + cuts, cuts + [d + n - 1])]

    def run_round(self, state, r, op):
        for i, (pi, mu, nu) in enumerate(state["triples"]):
            r1 = op("delta_exact", (i, "pi-mu"), fsdim.delta_exact, pi, mu)
            r2 = op("delta_exact", (i, "mu-pi"), fsdim.delta_exact, mu, pi)
            r3 = op("delta_exact", (i, "mu-nu"), fsdim.delta_exact, mu, nu)
            op("reverse_certificate", (i, "reverse"),
               lambda: fsdim.reverse_certificate(r2.witness, mu, pi))
            op("compose_certificates", (i, "compose"),
               lambda: fsdim.compose_certificates(r3.witness, r1.witness, pi, mu, nu))

    def check(self, state, entries):
        # each triple is checked on the first pass; a later pass must repeat it
        failures = []
        outputs = {entry.key: entry.output for entry in entries
                   if _first_time(state, entry, repr(entry.output), failures)}
        brute_left = state.setdefault("brute_left", dict(self.BRUTE_FORCE))
        for i in sorted({key[0] for key in outputs}):
            pi, mu, nu = state["triples"][i]
            got = {kind: outputs.get((i, kind)) for kind in ("pi-mu", "mu-pi", "mu-nu", "reverse", "compose")}
            if any(v is None for v in got.values()):
                continue  # a failed operation is already counted as failed
            failures += [f"triple {i} (n={pi.n}): {msg}" for msg in
                         self.triple_failures(pi, mu, nu, got, brute_left)]
        return failures

    @staticmethod
    def triple_failures(pi, mu, nu, got, brute_left):
        failures = []
        for kind, (src, dst) in (("pi-mu", (pi, mu)), ("mu-pi", (mu, pi)), ("mu-nu", (mu, nu))):
            res = got[kind]
            if res.method != "exact-search":
                failures.append(f"{kind}: method {res.method}, not exact-search")
            if res.witness.declared_m != res.m_star or res.delta_bits != math.log2(res.m_star):
                failures.append(f"{kind}: witness declares {res.witness.declared_m}, m*={res.m_star}")
            failures += [f"{kind} witness: {msg}" for msg in
                         ref.certificate_failures(res.witness, src.p, dst.p, res.m_star)]
        if got["pi-mu"].m_star != got["mu-pi"].m_star:
            failures.append(f"m(pi, mu) = {got['pi-mu'].m_star} != m(mu, pi) = {got['mu-pi'].m_star}")
        if brute_left.get(pi.n, 0) > 0:
            brute_left[pi.n] -= 1
            brute = oracles.dispersion_m_bruteforce(pi.p, mu.p)
            if brute != got["pi-mu"].m_star:
                failures.append(f"m* = {got['pi-mu'].m_star}, brute force says {brute}")
        failures += [f"reverse: {msg}" for msg in
                     ref.certificate_failures(got["reverse"], pi.p, mu.p, got["mu-pi"].m_star)]
        bound = got["pi-mu"].m_star * got["mu-nu"].m_star
        failures += [f"compose: {msg}" for msg in
                     ref.certificate_failures(got["compose"], pi.p, nu.p, bound)]
        return failures


WORKLOADS = {w.name: w for w in (PreserveK10, ArithStream, DimGrid, DeltaSolve)}
