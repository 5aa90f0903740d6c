"""End-to-end verification harness with structured, reproducible reports.

Three kinds of finite-scale evidence are produced for the dimension
preservation results:

* exact certificate inequalities: for every integer-multiplication leg of
  the q+alpha / q*alpha reduction chain, the coupling certificate between
  block statistics bounds the entropy difference by log2(g*(s+1)*m) bits,
  capped by log2(m^2 (s+1)) independently of block and prefix length; each
  certificate is an integer joint-count table checked in integers, and the
  legs that reach one image (|a|*alpha, and b*alpha) must agree digit for
  digit;
* bounded estimate gaps: dimension estimates of alpha and its images agree
  within an empirically pinned tolerance at fixed grid scale;
* axiom suites: pseudometric axioms and entropy contractivity of the exact
  dispersion solver on seeded random rational vectors, including the banded
  worst-case majorization chain.

The rational-arithmetic check counts blocks by one plan per block length l:
each stream it reads (alpha, q*alpha, q+alpha and the four certified
products) is encoded once, streams with equal digits share one encoding, and
the nested prefixes of the schedule are counted in one pass.  Grid entries,
certificate entropies and the marginals each pair table is checked against
all read those counts; the tables' own pairs never supply a marginal.

Reports serialize to JSON deterministically: same seed and inputs give
byte-identical output (timing is kept out of the canonical form).
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .blockstats import (_BlockCounts, _grid_from_bits, _grid_schedule, dim_estimates,
                         entropy_rate_grid, normality_deviation, shannon_entropy)
from .digitseq import Alphabet, DigitSequence, gen_champernowne, gen_dilution, select_progression
from .dispersion import (BlockCoupling, ProbabilityVector, _certificate_dimension,
                         build_banded_worst_case, compose_certificates,
                         delta_exact, majorizes, reverse_certificate, validate_certificate)
from .realarith import (DEFAULT_LOOKAHEAD_CAP, CertifiedDigitResult, add_rational_mod1,
                        mul_int_mod1, mul_rational_mod1)

ENTROPY_SLACK = 2.0 ** -30


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class VerificationReport:
    """Structured result of one verification scenario.

    `records` carries the per-cell or per-sample checks, `details` the
    scenario-level numbers, and `violations` one message per failed check.
    `elapsed_seconds` is informational and excluded from canonical JSON so
    reruns with the same inputs serialize identically.
    """

    scenario: str
    inputs: Dict
    records: List[Dict] = field(default_factory=list)
    details: Dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    passes: bool = True
    elapsed_seconds: Optional[float] = None

    def to_dict(self, include_timing: bool = False) -> Dict:
        out = {
            "scenario": self.scenario,
            "inputs": _jsonable(self.inputs),
            "records": _jsonable(self.records),
            "details": _jsonable(self.details),
            "violations": list(self.violations),
            "passes": self.passes,
        }
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)


def _count_blocks(streams: Dict[str, Tuple[DigitSequence, List[int]]], l: int):
    """The counting plan of one block length: {name: _BlockCounts} for `streams`,
    which maps a name to (digits, ascending nonempty block counts it needs).
    Taken longest need first, a stream shares the counts of the first earlier
    one whose digits agree with its own needed prefix."""
    groups = []  # (digits, sequence, block counts, names) of each distinct prefix
    for name, (seq, fits) in sorted(streams.items(), key=lambda item: -item[1][1][-1]):
        view = seq.prefix_array(fits[-1] * l)
        group = next((g for g in groups if np.array_equal(g[0][:len(view)], view)), None)
        if group is None:
            groups.append(group := (view, seq, set(), []))
        group[2].update(fits)
        group[3].append(name)
    return {name: counted for _, seq, fits, names in groups
            for counted in [_BlockCounts(seq, l, sorted(fits))] for name in names}


def _certificate_cell(leg: str, m: int, source: _BlockCounts, image: _BlockCounts,
                      alphabet: Alphabet, l: int, n: int, records: List, violations: List):
    """Check cell (l, n) of one leg, from the counted blocks of its stream and of
    its product frac(m * stream): an integer joint-count table checked against
    the plan's marginals, with the plan's entropies.  Appends its record and
    any violation."""
    table = BlockCoupling.from_codes(alphabet, l, m, source, image, n)
    bound = math.log2(table.row_bound)
    h_a, h_b = source.at(n)[1], image.at(n)[1]
    outcome = table.validate()
    row_support, col_support = table.max_degrees()
    delta_h = abs(h_a - h_b)
    ok = (outcome.ok and delta_h <= bound + ENTROPY_SLACK
          and col_support <= table.col_bound and row_support <= table.row_bound)
    records.append({
        "leg": leg, "m": m, "l": l, "n": n,
        "h_source": h_a, "h_image": h_b, "delta_h": delta_h,
        "bound_bits": bound,
        "col_support": col_support, "col_bound": table.col_bound,
        "row_support": row_support, "row_bound": table.row_bound,
        "valid": outcome.ok, "passed": ok,
    })
    if not ok:
        detail = outcome.detail if not outcome.ok else f"|dH|={delta_h} > {bound}"
        violations.append(f"{leg} l={l} n={n}: {detail}")


def _image_mismatch(leg_a: str, image_a: CertifiedDigitResult,
                    leg_b: str, image_b: CertifiedDigitResult) -> Optional[str]:
    """A violation message if two certified images differ on their common prefix."""
    common = min(image_a.certified_count, image_b.certified_count)
    a, b = image_a.digits.prefix_array(common), image_b.digits.prefix_array(common)
    if np.array_equal(a, b):
        return None
    first = int(np.argmax(a != b))
    return f"{leg_a} and {leg_b} images differ at digit {first} of {common}"


def verify_rational_arithmetic(seq_alpha: DigitSequence, q, max_block_len: int,
                               n_schedule: Sequence[int], tail_fraction: float = 0.5,
                               lookahead_cap: int = DEFAULT_LOOKAHEAD_CAP) -> VerificationReport:
    """Finite-scale check that q+alpha and q*alpha carry alpha's dimension.

    Computes both derived digit streams, builds coupling certificates for
    every integer-multiplication leg of the reduction chain (alpha -> |a|*alpha
    and q*alpha -> |a|*alpha for multiplication; alpha -> b*alpha and
    (q+alpha) -> b*alpha for addition, with q = a/b), and reports dimension
    estimates, estimate gaps, and normality deviations (blocks of length
    <= 3, windows of up to 10 000 digits) for the streams.  The two legs
    that end in one image must produce the same certified digits; a
    difference is a violation.  Unresolved carries shorten the usable prefix
    and are reported rather than fatal: a derived stream whose certified
    digits fit no grid cell has no estimate and is a violation.  An alpha
    too short for any grid cell raises InsufficientDigitsError.
    """
    start = time.monotonic()
    schedule = _grid_schedule(max_block_len, n_schedule)
    k = seq_alpha.alphabet.k
    _certificate_dimension(k, max_block_len)
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    a, b = q.numerator, q.denominator
    # derived streams get guard digits beyond the largest grid cell so the
    # certificate multiplications have lookahead room at the tail
    target = min(max_block_len * schedule[-1] + 256, seq_alpha.length_available)

    sum_result = add_rational_mod1(seq_alpha, q, target, lookahead_cap)
    prod_result = mul_rational_mod1(seq_alpha, q, target, lookahead_cap)

    report = VerificationReport(
        scenario="rational-arithmetic-preservation",
        inputs={"k": k, "q": q, "max_block_len": max_block_len,
                "n_schedule": schedule, "tail_fraction": tail_fraction,
                "digits_used": target},
    )
    if sum_result.unresolved:
        report.details["sum_certified"] = sum_result.certified_count
    if prod_result.unresolved:
        report.details["product_certified"] = prod_result.certified_count

    streams = {"alpha": seq_alpha, "q-alpha": prod_result.digits, "q-plus-alpha": sum_result.digits}
    legs = [
        ("alpha-times-|a|", "alpha", abs(a)),
        ("q-alpha-times-b", "q-alpha", b),
        ("alpha-times-b", "alpha", b),
        ("q-plus-alpha-times-b", "q-plus-alpha", b),
    ]
    # one multiplication per leg covers every (l, n) cell of that leg
    products = {leg: mul_int_mod1(streams[name], m,
                                  min(max_block_len * schedule[-1],
                                      streams[name].length_available), lookahead_cap)
                for leg, name, m in legs}
    cells = {leg: ([], [], []) for leg, _, _ in legs}  # records, violations, skipped
    bits = {name: {} for name in streams}
    # each stream's grid cells cover its legs' source cells; an image has its legs' cells
    digits = {**{name: (seq, seq.length_available) for name, seq in streams.items()},
              **{leg: (p.digits, p.certified_count) for leg, p in products.items()}}
    for l in range(1, max_block_len + 1):
        fits = {name: [n for n in schedule if n * l <= count]
                for name, (_, count) in digits.items()}
        plan = _count_blocks({name: (digits[name][0], f) for name, f in fits.items() if f}, l)
        for n in schedule:
            for name in streams:
                if n in fits[name]:
                    bits[name][l, n] = plan[name].at(n)[1]
            for leg, name, m in legs:
                records, violations, skipped = cells[leg]
                if n in fits[leg]:
                    _certificate_cell(leg, m, plan[name], plan[leg], seq_alpha.alphabet, l, n,
                                      records, violations)
                else:
                    skipped.append({"leg": leg, "l": l, "n": n,
                                    "reason": "insufficient certified digits"})
        del plan  # hold one block length's codes at a time
    skipped_cells = []
    for records, violations, skipped in cells.values():
        report.records.extend(records)
        report.violations.extend(violations)
        skipped_cells.extend(skipped)
    # the legs pair up on one image: b*frac(|q|*alpha) = |a|*alpha and
    # b*frac(q + alpha) = b*alpha (mod 1), so each pair's certified digits agree
    for leg_a, leg_b in (("alpha-times-|a|", "q-alpha-times-b"),
                         ("alpha-times-b", "q-plus-alpha-times-b")):
        mismatch = _image_mismatch(leg_a, products[leg_a], leg_b, products[leg_b])
        if mismatch:
            report.violations.append(mismatch)
    if skipped_cells:
        report.details["skipped_cells"] = skipped_cells

    estimates = {}
    for name, stream in streams.items():
        if name != "alpha" and not bits[name]:
            report.violations.append(
                f"{name}: {stream.length_available} certified digits fit no grid cell")
            continue
        grid = _grid_from_bits(stream.alphabet, max_block_len, schedule,
                               stream.length_available, bits[name])
        lo, hi = dim_estimates(grid, tail_fraction)
        estimates[name] = {"lower": lo, "upper": hi, "clipped": grid.clipped}
    report.details["estimates"] = estimates
    report.details["estimate_gaps"] = {
        name: {"lower": abs(estimates["alpha"]["lower"] - estimates[name]["lower"]),
               "upper": abs(estimates["alpha"]["upper"] - estimates[name]["upper"])}
        for name in ("q-alpha", "q-plus-alpha") if name in estimates
    }

    w_len = 3
    norm_n = min(10_000, target - w_len)
    if norm_n >= 1:
        # a derived stream holds its certified digits only, which may be fewer than target
        report.details["normality_deviation"] = {
            name: float(normality_deviation(stream, w_len, max(1, min(
                norm_n, stream.length_available - w_len + 1))))
            for name, stream in streams.items() if stream.length_available >= w_len
        }

    if b == 1 and a >= 1:
        # integer shifts leave the fractional digits untouched
        n_cmp = sum_result.certified_count
        identical = sum_result.digits.prefix(n_cmp) == seq_alpha.prefix(n_cmp)
        report.details["sum_digits_identical"] = identical
        if not identical:
            report.violations.append("integer addition changed fractional digits")

    report.passes = not report.violations
    report.elapsed_seconds = time.monotonic() - start
    return report


def verify_dilution_counterexample(total_digits: int, max_block_len: int = 8) -> VerificationReport:
    """Selection along arithmetic progressions does not preserve dimension.

    Interleaving a normal binary sequence with zeros halves its dimension at
    desk scale, while the two progression selections of the interleaving
    recover the normal sequence and the zero sequence: one estimate stays
    high, the other is exactly zero, so neither matches the interleaved
    sequence's own estimate.  The protocol is fixed: block counts
    top // 2^i for i < 5 with top = total_digits // max_block_len, tail
    fraction 0.5, the diluted estimates within [0.4, 0.65] and the even
    selection's lower estimate at least 0.8.
    """
    if total_digits < 2 ** 12:
        raise ValueError("need at least 2^12 digits for a meaningful run")
    if max_block_len < 1:
        raise ValueError("max_block_len must be >= 1")
    start = time.monotonic()
    alphabet = Alphabet(2)
    half = (total_digits + 1) // 2
    source = gen_champernowne(alphabet, half)
    diluted = gen_dilution(source, total_digits)
    zeros = DigitSequence(alphabet, bytes(total_digits))
    sel_even = select_progression(diluted, 0, 2, half)
    sel_odd = select_progression(diluted, 1, 2, total_digits // 2)
    top = max(1, total_digits // max_block_len)
    schedule = sorted({max(1, top // 2 ** i) for i in range(5)})
    tail_fraction, (lo_band, hi_band), dense_floor = 0.5, (0.40, 0.65), 0.80

    report = VerificationReport(
        scenario="dilution-counterexample",
        inputs={"k": 2, "total_digits": total_digits, "max_block_len": max_block_len,
                "n_schedule": schedule, "tail_fraction": tail_fraction,
                "diluted_band": [lo_band, hi_band], "dense_floor": dense_floor},
    )
    streams = {"source": source, "diluted": diluted, "zeros": zeros,
               "selection-even": sel_even, "selection-odd": sel_odd}
    estimates = {}
    for name, stream in streams.items():
        grid = entropy_rate_grid(stream, max_block_len, schedule)
        lo, hi = dim_estimates(grid, tail_fraction)
        estimates[name] = {"lower": lo, "upper": hi}
        report.records.append({"stream": name, "lower": lo, "upper": hi})
    report.details["estimates"] = estimates

    checks = [
        ("zeros estimates exactly (0, 0)",
         estimates["zeros"]["lower"] == 0.0 and estimates["zeros"]["upper"] == 0.0),
        (f"diluted estimates within [{lo_band}, {hi_band}]",
         lo_band <= estimates["diluted"]["lower"] and estimates["diluted"]["upper"] <= hi_band),
        (f"even selection estimates >= {dense_floor}",
         estimates["selection-even"]["lower"] >= dense_floor),
        ("odd selection estimates exactly (0, 0)",
         estimates["selection-odd"]["lower"] == 0.0 and estimates["selection-odd"]["upper"] == 0.0),
    ]
    for label, ok in checks:
        if not ok:
            report.violations.append(label)
    report.passes = not report.violations
    report.elapsed_seconds = time.monotonic() - start
    return report


def _random_rational_vector(rng: random.Random, n: int) -> ProbabilityVector:
    # denominator <= 64; uniform weak composition via stars and bars
    d = rng.randint(1, 64)
    cuts = sorted(rng.sample(range(d + n - 1), n - 1))
    parts = []
    prev = -1
    for c in cuts:
        parts.append(c - prev - 1)
        prev = c
    parts.append(d + n - 2 - prev)
    return ProbabilityVector(tuple(Fraction(x, d) for x in parts))


def _sample_triples(sample_count: int, n_max: int, seed: int):
    """Seeded (pi, mu, nu) triples cycling dimensions 2..n_max.

    Every tenth mu is a shuffle of pi, so zero-dispersion pairs with unequal
    vectors are always exercised.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rng = random.Random(seed)
    triples = []
    for i in range(sample_count):
        n = 2 + i % (n_max - 1)
        pi = _random_rational_vector(rng, n)
        if i % 10 == 9:
            perm = list(pi.p)
            rng.shuffle(perm)
            mu = ProbabilityVector(tuple(perm))
        else:
            mu = _random_rational_vector(rng, n)
        nu = _random_rational_vector(rng, n)
        triples.append((n, pi, mu, nu))
    return triples


def verify_pseudometric_suite(sample_count: int = 200, n_max: int = 4,
                              seed: int = 0) -> VerificationReport:
    """Pseudometric axioms of the exact dispersion on seeded random triples.

    Checks nonnegativity, identity, symmetry, and the triangle inequality
    (in exact integer form m13 <= m12 * m23), and re-validates the reversal
    and composition constructions on the solver witnesses.  Each distinct
    pair is solved once by delta_exact with its defaults (n <= 6, a 10 s
    budget); a solve that hits the budget is a violation.
    """
    start = time.monotonic()
    report = VerificationReport(
        scenario="pseudometric-suite",
        inputs={"sample_count": sample_count, "n_max": n_max, "seed": seed},
    )
    solve = functools.cache(delta_exact)  # each pair is solved once per call
    for idx, (n, pi, mu, nu) in enumerate(_sample_triples(sample_count, n_max, seed)):
        results = {
            "identity": solve(pi, pi),
            "pi_mu": solve(pi, mu),
            "mu_pi": solve(mu, pi),
            "mu_nu": solve(mu, nu),
            "pi_nu": solve(pi, nu),
        }
        for name, res in results.items():
            if res.method != "exact-search":
                report.violations.append(f"triple {idx}: {name} hit the budget")
        checks = [
            ("nonnegativity", all(r.m_star >= 1 for r in results.values())),
            ("identity", results["identity"].m_star == 1),
            ("symmetry", results["pi_mu"].m_star == results["mu_pi"].m_star),
            ("triangle", results["pi_nu"].m_star
             <= results["pi_mu"].m_star * results["mu_nu"].m_star),
        ]
        try:
            rev = reverse_certificate(results["mu_pi"].witness, mu, pi)
            checks.append(("reverse-validates", validate_certificate(rev, pi, mu).ok))
            comp = compose_certificates(results["mu_nu"].witness,
                                        results["pi_mu"].witness, pi, mu, nu)
            checks.append(("compose-validates", validate_certificate(comp, pi, nu).ok))
        except (ValueError, AssertionError) as exc:
            checks.append((f"construction-error: {exc}", False))
        failed = [label for label, ok in checks if not ok]
        report.records.append({
            "triple": idx, "n": n,
            "m": {name: res.m_star for name, res in results.items()},
            "failed": failed,
        })
        for label in failed:
            report.violations.append(f"triple {idx} (n={n}): {label}")
    report.details["triples_checked"] = sample_count
    report.passes = not report.violations
    report.elapsed_seconds = time.monotonic() - start
    return report


def verify_contractivity_suite(sample_count: int = 200, n_max: int = 4,
                               seed: int = 0) -> VerificationReport:
    """Entropy contractivity and the banded worst-case chain, same pairs.

    For each seeded pair: |H(pi) - H(mu)| <= log2(m*); and with B the banded
    matrix for m*, r = B * (pi sorted descending) majorizes mu sorted
    descending, H(r) <= H(mu), and H(pi) <= H(r) + log2(m*).  The pairs are
    solved as in verify_pseudometric_suite.
    """
    start = time.monotonic()
    report = VerificationReport(
        scenario="contractivity-suite",
        inputs={"sample_count": sample_count, "n_max": n_max, "seed": seed},
    )
    solve = functools.cache(delta_exact)  # each pair is solved once per call
    for idx, (n, pi, mu, _nu) in enumerate(_sample_triples(sample_count, n_max, seed)):
        res = solve(pi, mu)
        if res.method != "exact-search":
            report.violations.append(f"pair {idx}: solver hit the budget")
        m = res.m_star
        delta_bits = res.delta_bits
        h_pi = shannon_entropy(pi)
        h_mu = shannon_entropy(mu)

        pi_sorted = sorted(pi.p, reverse=True)
        banded = build_banded_worst_case(n, m)
        spread = banded.apply(list(pi_sorted))
        r_vec = tuple(spread.get(i, Fraction(0)) for i in range(n))
        h_r = shannon_entropy(ProbabilityVector(r_vec))

        checks = [
            ("contractive", abs(h_pi - h_mu) <= delta_bits + ENTROPY_SLACK),
            ("banded-majorizes", majorizes(r_vec, mu.p)),
            ("H(r) <= H(mu)", h_r <= h_mu + ENTROPY_SLACK),
            ("H(pi) <= H(r) + log2(m)", h_pi <= h_r + math.log2(m) + ENTROPY_SLACK),
        ]
        failed = [label for label, ok in checks if not ok]
        report.records.append({
            "pair": idx, "n": n, "m": m,
            "h_pi": h_pi, "h_mu": h_mu, "h_spread": h_r,
            "failed": failed,
        })
        for label in failed:
            report.violations.append(f"pair {idx} (n={n}): {label}")
    report.details["pairs_checked"] = sample_count
    report.passes = not report.violations
    report.elapsed_seconds = time.monotonic() - start
    return report
