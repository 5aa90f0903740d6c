"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances and runtime caps are pinned here, not configurable: entropy
comparisons carry a 2^-30 bit slack for the float log evaluations, exact
checks (probability sums, marginal maps, majorization, dimension endpoints
of eventually-trivial sequences) use equality on rationals or on floats
whose computation is exact by construction.
"""

import math
import random
import time
from fractions import Fraction

from fsdim import (Alphabet, DigitSequence, certificate_bound_bits, dim_estimates,
                   entropy_rate_grid, gen_champernowne, gen_rational_expansion,
                   integer_multiple_certificate, add_rational_mod1, div_int, mul_int_mod1,
                   mul_rational_mod1, verify_contractivity_suite, verify_dilution_counterexample,
                   verify_pseudometric_suite, verify_rational_arithmetic)
from oracles import _digit_sum, entropy_from_counts, frac_digits, numpy_block_counts

SEED = 20260808
ENTROPY_SLACK = 2.0 ** -30


def _report(number, label, elapsed, cap):
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.1f}s <= {cap:.0f}s)")


def test_criterion_1_pseudometric_suite():
    start = time.monotonic()
    rep = verify_pseudometric_suite(sample_count=200, n_max=4, seed=SEED)
    elapsed = time.monotonic() - start
    assert rep.violations == [], rep.violations[:5]
    assert len(rep.records) == 200
    assert {rec["n"] for rec in rep.records} == {2, 3, 4}
    assert elapsed <= 60.0
    _report(1, "pseudometric axioms, 200 seeded triples", elapsed, 60)


def test_criterion_2_contractivity_suite():
    start = time.monotonic()
    rep = verify_contractivity_suite(sample_count=200, n_max=4, seed=SEED)
    elapsed = time.monotonic() - start
    assert rep.violations == [], rep.violations[:5]
    assert len(rep.records) == 200
    # the suite asserts, per pair: |H(pi)-H(mu)| <= delta, the banded spread
    # of sorted pi majorizes sorted mu, and the entropy chain holds
    assert all(rec["failed"] == [] for rec in rep.records)
    assert elapsed <= 60.0
    _report(2, "entropy contractivity + majorization chain", elapsed, 60)


def test_criterion_3_integer_multiple_certificates():
    # each table's marginals are compared with block counts it did not produce,
    # alpha's and the certified product's digits counted by a matrix product and
    # np.unique, and the table checks its pairs against those marginals
    start = time.monotonic()
    for k in (2, 10):
        seq = gen_champernowne(Alphabet(k), 100_000)
        for m in (2, 3, 5, 7, 12):
            s = _digit_sum(m, k)
            for l in range(1, 7):
                guard_blocks = -(-64 // l) + 4
                n = 100_000 // l - guard_blocks
                product = mul_int_mod1(seq, m, n * l).digits
                cert, _, _ = integer_multiple_certificate(seq, m, l, n, product_digits=product)
                pi, mu = (numpy_block_counts(digits.prefix_array(n * l), k, l, n)
                          for digits in (seq, product))
                assert dict(zip(cert.columns.tolist(), cert.masses.tolist())) == pi, (k, m, l)
                assert dict(zip(cert.image_codes.tolist(), cert.image_counts.tolist())) == mu, \
                    (k, m, l)
                outcome = cert.validate()
                assert outcome.ok, (k, m, l, outcome.violation, outcome.detail)
                row_max, col_max = cert.max_degrees()
                g = math.gcd(m, k ** l)
                assert col_max <= (s + 1) * m, (k, m, l)
                assert row_max <= g * (s + 1) * m, (k, m, l)
                gap = abs(entropy_from_counts(pi.values(), n) - entropy_from_counts(mu.values(), n))
                bound = certificate_bound_bits(m, k, l)
                assert gap <= bound + ENTROPY_SLACK, (k, m, l, gap, bound)
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    _report(3, "coupling certificates, bases 2 and 10, 1e5 digits", elapsed, 300)


def test_criterion_4_arithmetic_oracle_equivalence():
    start = time.monotonic()
    alphabet = Alphabet(10)
    q_values = [Fraction(1, 3), Fraction(-1, 3), Fraction(2), Fraction(-2),
                Fraction(5, 4), Fraction(7), Fraction(1, 7)]
    rng = random.Random(SEED)
    digits_requested = 256
    for _ in range(100):
        den = rng.randint(2, 10_000)
        num = rng.randrange(den)
        alpha = Fraction(num, den)
        # bare stream: forces the interval-enclosure route; the oracle is
        # exact rational arithmetic plus long division
        stream = DigitSequence(
            alphabet, gen_rational_expansion(alpha, alphabet, 400).prefix(400))
        for q in q_values:
            cases = [
                (add_rational_mod1(stream, q, digits_requested), q + alpha),
                (mul_rational_mod1(stream, q, digits_requested), abs(q) * alpha),
                (div_int(stream, q.denominator, digits_requested), alpha / q.denominator),
            ]
            for result, exact in cases:
                assert result.certified_count == digits_requested, (alpha, q)
                expected = frac_digits(exact, 10, digits_requested)
                assert result.digits.prefix(digits_requested) == expected, (alpha, q)
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    _report(4, "certified digits match exact rationals, 2100 cases", elapsed, 30)


def test_criterion_5_dimension_endpoints():
    start = time.monotonic()
    zeros = DigitSequence(Alphabet(2), bytes(20_000))
    grid = entropy_rate_grid(zeros, 4, [100, 1000, 5000])
    assert dim_estimates(grid) == (0.0, 0.0)

    alternating = DigitSequence(Alphabet(2), bytes([0, 1] * 10_000))
    grid = entropy_rate_grid(alternating, 2, [100, 1000, 5000])
    assert dim_estimates(grid) == (0.0, 0.0)

    total = 200_000
    champ = gen_champernowne(Alphabet(2), total)
    schedule = sorted({(total // 8) // 2 ** i for i in range(5)})
    lo, hi = dim_estimates(entropy_rate_grid(champ, 8, schedule))
    assert lo >= 0.80 and hi >= 0.80, (lo, hi)
    elapsed = time.monotonic() - start
    _report(5, "dimension endpoints (0, 0, and normal >= 0.80)", elapsed, 60)


def test_criterion_6_dilution_counterexample():
    start = time.monotonic()
    rep = verify_dilution_counterexample(200_000, max_block_len=8)
    assert rep.violations == [], rep.violations
    est = rep.details["estimates"]
    assert 0.40 <= est["diluted"]["lower"] <= est["diluted"]["upper"] <= 0.65
    assert est["selection-even"]["lower"] >= 0.80
    assert est["selection-odd"] == {"lower": 0.0, "upper": 0.0}
    elapsed = time.monotonic() - start
    _report(6, "dilution halves dimension; selections do not keep it", elapsed, 60)


def test_criterion_7_rational_arithmetic_preservation():
    start = time.monotonic()
    seq = gen_champernowne(Alphabet(10), 70_000)
    schedule = [1250, 2500, 5000, 10_000]
    for q in (Fraction(3), Fraction(1, 3)):
        rep = verify_rational_arithmetic(seq, q, 6, schedule)
        assert rep.violations == [], (q, rep.violations[:5])
        assert "skipped_cells" not in rep.details, q
        gaps = rep.details["estimate_gaps"]
        for stream in ("q-alpha", "q-plus-alpha"):
            assert gaps[stream]["lower"] <= 0.1, (q, stream, gaps[stream])
            assert gaps[stream]["upper"] <= 0.1, (q, stream, gaps[stream])
    elapsed = time.monotonic() - start
    assert elapsed <= 180.0
    _report(7, "q+alpha and q*alpha keep dimension estimates (gap <= 0.1)", elapsed, 180)
