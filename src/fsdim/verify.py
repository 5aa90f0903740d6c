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

Both digit-stream checks walk the grid's row loop (blockstats._count_rows),
which yields each (l, n) cell finished: for each stream holding n*l digits,
the codes of its first n l-blocks, their counts and their entropy.  Each
stream is encoded once per block length, streams with equal digits share one
encoding, and the nested prefixes of the schedule are counted in one pass.
The rational-arithmetic check reads alpha, q*alpha, q+alpha and the four
certified products; its grid entries, its certificate entropies and the
marginals each pair table is checked against all come from those cells, and
the tables' own pairs never supply a marginal.  The dilution check reads five
streams but encodes three per row: the even selection shares the source's
counts and the odd selection the zeros'.

Reports hold JSON values and serialize deterministically: same seed and
inputs give byte-identical output (timing is kept out of the canonical form).
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .blockstats import (TAIL_FRACTION, _Blocks, _count_rows, _grid_from_bits, _grid_schedule,
                         _grids, dim_estimates, normality_deviation, shannon_entropy)
from .digitseq import Alphabet, DigitSequence, gen_champernowne, gen_dilution, select_progression
from .dispersion import (MAX_EXACT_DIMENSION, BlockCoupling, ProbabilityVector,
                         _certificate_dimension, build_banded_worst_case, compose_certificates,
                         delta_exact, majorizes, reverse_certificate)
from .realarith import CertifiedDigitResult, add_rational_mod1, mul_int_mod1, mul_rational_mod1

ENTROPY_SLACK = 2.0 ** -30


@dataclass
class VerificationReport:
    """Structured result of one verification scenario.

    `records` carries the per-cell or per-sample checks, `details` the
    scenario-level numbers, and `violations` one message per failed check;
    the report passes exactly when there is none.  All four hold JSON values
    only (a rational q is the string "num/den").  `elapsed_seconds` is
    informational and excluded from canonical JSON so reruns with the same
    inputs serialize identically.
    """

    scenario: str
    inputs: Dict
    records: List[Dict] = field(default_factory=list)
    details: Dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    elapsed_seconds: Optional[float] = None

    @property
    def passes(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        names = ("scenario", "inputs", "records", "details", "violations", "passes")
        return {name: getattr(self, name) for name in names}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _certificate_cell(leg: str, m: int, source: _Blocks, image: _Blocks,
                      alphabet: Alphabet, l: int, n: int, records: List, violations: List):
    """Check cell (l, n) of one leg, from the counted blocks of its stream and of
    its product frac(m * stream): an integer joint-count table checked against
    the plan's marginals, with the plan's entropies.  Appends its record and
    any violation."""
    table = BlockCoupling.from_codes(alphabet, l, m, source, image)
    bound = math.log2(table.row_bound)
    h_a, h_b = source.bits, image.bits
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
                               n_schedule: Sequence[int]) -> VerificationReport:
    """Finite-scale check that q+alpha and q*alpha carry alpha's dimension.

    Computes both derived digit streams, builds coupling certificates for
    every integer-multiplication leg of the reduction chain (alpha -> |a|*alpha
    and q*alpha -> |a|*alpha for multiplication; alpha -> b*alpha and
    (q+alpha) -> b*alpha for addition, with q = a/b), and reports dimension
    estimates, estimate gaps, and normality deviations (blocks of length
    <= 3, windows of up to 10 000 digits) for the streams.  The two legs
    that end in one image must produce the same certified digits; a
    difference is a violation.  The estimates take the tail fraction 0.5.
    Unresolved carries shorten the usable prefix and are reported rather
    than fatal: the leg cells they leave out are listed as skipped, and a
    derived stream whose certified digits fit no grid cell has no estimate
    and is a violation.  For an integer q, of either sign, the certified
    digits of q+alpha must be alpha's own.  An alpha too short for any grid
    cell raises InsufficientDigitsError.
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

    sum_result = add_rational_mod1(seq_alpha, q, target)
    prod_result = mul_rational_mod1(seq_alpha, q, target)

    report = VerificationReport(
        scenario="rational-arithmetic-preservation",
        inputs={"k": k, "q": f"{a}/{b}", "max_block_len": max_block_len,
                "n_schedule": schedule, "tail_fraction": TAIL_FRACTION,
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
                                      streams[name].length_available))
                for leg, name, m in legs}
    cells = {leg: ([], []) for leg, _, _ in legs}  # records, violations
    bits = {name: {} for name in streams}
    # each stream's grid cells cover its legs' source cells; an image, which
    # holds its certified digits only, has its legs' cells
    digits = {**streams, **{leg: p.digits for leg, p in products.items()}}
    for l, n, counted in _count_rows(digits, max_block_len, schedule):
        for name in streams.keys() & counted.keys():
            bits[name][l, n] = counted[name].bits
        for leg, name, m in legs:
            if leg in counted:
                _certificate_cell(leg, m, counted[name], counted[leg], seq_alpha.alphabet, l, n,
                                  *cells[leg])
    for records, violations in cells.values():
        report.records.extend(records)
        report.violations.extend(violations)
    built = {(r["leg"], r["l"], r["n"]) for r in report.records}
    skipped_cells = [{"leg": leg, "l": l, "n": n, "reason": "insufficient certified digits"}
                     for leg, _, _ in legs for l in range(1, max_block_len + 1) for n in schedule
                     if (leg, l, n) not in built]
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
        lo, hi = dim_estimates(grid)
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

    if b == 1:
        # integer shifts leave the fractional digits untouched
        n_cmp = sum_result.certified_count
        identical = sum_result.digits.prefix(n_cmp) == seq_alpha.prefix(n_cmp)
        report.details["sum_digits_identical"] = identical
        if not identical:
            report.violations.append("integer addition changed fractional digits")

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
    selection's lower estimate at least 0.8.  The five grids come from one
    counting plan per block length, in which the even selection shares the
    source's counts and the odd selection the zeros' (its digits are a
    prefix of them), so each row encodes three streams; every estimate
    equals that of entropy_rate_grid on the stream alone.
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
    (lo_band, hi_band), dense_floor = (0.40, 0.65), 0.80

    report = VerificationReport(
        scenario="dilution-counterexample",
        inputs={"k": 2, "total_digits": total_digits, "max_block_len": max_block_len,
                "n_schedule": schedule, "tail_fraction": TAIL_FRACTION,
                "diluted_band": [lo_band, hi_band], "dense_floor": dense_floor},
    )
    streams = {"source": source, "diluted": diluted, "zeros": zeros,
               "selection-even": sel_even, "selection-odd": sel_odd}
    estimates = {}
    for name, grid in _grids(streams, max_block_len, schedule).items():
        lo, hi = dim_estimates(grid)
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
    report.violations.extend(label for label, ok in checks if not ok)
    report.elapsed_seconds = time.monotonic() - start
    return report


def _random_rational_vector(rng: random.Random, n: int) -> ProbabilityVector:
    # denominator <= 64; uniform weak composition via stars and bars
    d = rng.randint(1, 64)
    bars = [-1, *sorted(rng.sample(range(d + n - 1), n - 1)), d + n - 1]
    parts = [hi - lo - 1 for lo, hi in zip(bars, bars[1:])]
    return ProbabilityVector(tuple(Fraction(x, d) for x in parts))


def _sample_triples(sample_count: int, n_max: int, seed: int):
    """Seeded (pi, mu, nu) triples cycling dimensions 2..n_max.

    Every tenth mu is a shuffle of pi, so zero-dispersion pairs with unequal
    vectors are always exercised.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    if not 2 <= n_max <= MAX_EXACT_DIMENSION:
        raise ValueError(f"n_max must lie in [2, {MAX_EXACT_DIMENSION}]")
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


def _axiom_suite(scenario: str, unit: str, sample_count: int, n_max: int, seed: int,
                 check) -> VerificationReport:
    """The loop both axiom suites share, over the seeded triples.

    `check(solve, pi, mu, nu)` returns the solver results it read by name,
    the record's own fields, and (label, ok) pairs; `solve` solves each
    distinct pair once by delta_exact.  A result that hit the node budget
    and each failed label are violations.
    """
    start = time.monotonic()
    report = VerificationReport(
        scenario=scenario,
        inputs={"sample_count": sample_count, "n_max": n_max, "seed": seed},
    )
    solve = functools.cache(delta_exact)
    for idx, (n, pi, mu, nu) in enumerate(_sample_triples(sample_count, n_max, seed)):
        results, fields, checks = check(solve, pi, mu, nu)
        report.violations.extend(f"{unit} {idx}: {name} hit the budget"
                                 for name, res in results.items() if res.method != "exact-search")
        failed = [label for label, ok in checks if not ok]
        report.records.append({unit: idx, "n": n, **fields, "failed": failed})
        report.violations.extend(f"{unit} {idx} (n={n}): {label}" for label in failed)
    report.details[f"{unit}s_checked"] = sample_count
    report.elapsed_seconds = time.monotonic() - start
    return report


def _pseudometric_check(solve, pi, mu, nu):
    results = {
        "identity": solve(pi, pi),
        "pi_mu": solve(pi, mu),
        "mu_pi": solve(mu, pi),
        "mu_nu": solve(mu, nu),
        "pi_nu": solve(pi, nu),
    }
    checks = [
        ("nonnegativity", all(r.m_star >= 1 for r in results.values())),
        ("identity", results["identity"].m_star == 1),
        ("symmetry", results["pi_mu"].m_star == results["mu_pi"].m_star),
        ("triangle", results["pi_nu"].m_star
         <= results["pi_mu"].m_star * results["mu_nu"].m_star),
    ]
    try:
        # both constructions validate what they build and raise AssertionError if it fails
        reverse_certificate(results["mu_pi"].witness, mu, pi)
        compose_certificates(results["mu_nu"].witness, results["pi_mu"].witness, pi, mu, nu)
    except (ValueError, AssertionError) as exc:
        checks.append((f"construction-error: {exc}", False))
    return results, {"m": {name: res.m_star for name, res in results.items()}}, checks


def verify_pseudometric_suite(sample_count: int = 200, n_max: int = 4,
                              seed: int = 0) -> VerificationReport:
    """Pseudometric axioms of the exact dispersion on seeded random triples.

    Checks nonnegativity, identity, symmetry, and the triangle inequality
    (in exact integer form m13 <= m12 * m23), and rebuilds the reversal and
    composition constructions, which validate themselves, on the solver
    witnesses.  Each distinct pair is solved once by delta_exact (n <= 6, at
    most 10^6 search nodes below m = n); a solve that hits the node budget is
    a violation.
    """
    return _axiom_suite("pseudometric-suite", "triple", sample_count, n_max, seed,
                        _pseudometric_check)


def _contractivity_check(solve, pi, mu, _nu):
    res = solve(pi, mu)
    m = res.m_star
    h_pi = shannon_entropy(pi)
    h_mu = shannon_entropy(mu)

    pi_sorted = sorted(pi.p, reverse=True)
    banded = build_banded_worst_case(pi.n, m)
    spread = banded.apply(list(pi_sorted))
    r_vec = tuple(spread.get(i, Fraction(0)) for i in range(pi.n))
    h_r = shannon_entropy(ProbabilityVector(r_vec))

    checks = [
        ("contractive", abs(h_pi - h_mu) <= res.delta_bits + ENTROPY_SLACK),
        ("banded-majorizes", majorizes(r_vec, mu.p)),
        ("H(r) <= H(mu)", h_r <= h_mu + ENTROPY_SLACK),
        ("H(pi) <= H(r) + log2(m)", h_pi <= h_r + math.log2(m) + ENTROPY_SLACK),
    ]
    return {"solver": res}, {"m": m, "h_pi": h_pi, "h_mu": h_mu, "h_spread": h_r}, checks


def verify_contractivity_suite(sample_count: int = 200, n_max: int = 4,
                               seed: int = 0) -> VerificationReport:
    """Entropy contractivity and the banded worst-case chain, same pairs.

    For each seeded pair: |H(pi) - H(mu)| <= log2(m*); and with B the banded
    matrix for m*, r = B * (pi sorted descending) majorizes mu sorted
    descending, H(r) <= H(mu), and H(pi) <= H(r) + log2(m*).  The pairs are
    solved as in verify_pseudometric_suite: once each by delta_exact, and a
    solve that hits the node budget is a violation.
    """
    return _axiom_suite("contractivity-suite", "pair", sample_count, n_max, seed,
                        _contractivity_check)
