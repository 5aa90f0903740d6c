import collections
import dataclasses
import json
from fractions import Fraction

import pytest

import fsdim.blockstats
import fsdim.dispersion
import fsdim.verify
from fsdim import (Alphabet, DigitSequence, InsufficientDigitsError, dim_estimates,
                   entropy_rate_grid, gen_champernowne, gen_dilution, gen_rational_expansion,
                   select_progression, verify_contractivity_suite, verify_dilution_counterexample,
                   verify_pseudometric_suite, verify_rational_arithmetic)

import oracles


def _raise_boom(*args):
    raise AssertionError("boom")


def _budget_hit(pi, mu):
    return dataclasses.replace(fsdim.dispersion.delta_exact(pi, mu),
                               method="certificate-upper-bound")


class TestSuites:
    def test_pseudometric_suite_clean(self):
        rep = verify_pseudometric_suite(sample_count=45, n_max=4, seed=7)
        assert rep.passes and rep.violations == []
        assert len(rep.records) == 45
        assert all(rec["failed"] == [] for rec in rep.records)

    def test_pseudometric_suite_covers_permuted_pairs(self):
        rep = verify_pseudometric_suite(sample_count=30, n_max=4, seed=7)
        # every tenth mu is a shuffle of pi; dispersion 0 must show up there
        shuffled = [rec for i, rec in enumerate(rep.records) if i % 10 == 9]
        assert shuffled and all(rec["m"]["pi_mu"] == 1 for rec in shuffled)

    def test_contractivity_suite_clean(self):
        rep = verify_contractivity_suite(sample_count=45, n_max=4, seed=7)
        assert rep.passes and rep.violations == []
        assert all(rec["failed"] == [] for rec in rep.records)

    def test_suites_share_pairs_for_equal_seeds(self):
        a = verify_pseudometric_suite(sample_count=12, n_max=3, seed=99)
        b = verify_contractivity_suite(sample_count=12, n_max=3, seed=99)
        assert [r["n"] for r in a.records] == [r["n"] for r in b.records]
        assert [r["m"]["pi_mu"] for r in a.records] == [r["m"] for r in b.records]

    @pytest.mark.parametrize("suite,message", [(verify_pseudometric_suite, "pi_mu hit the budget"),
                                               (verify_contractivity_suite, "solver hit the budget")])
    def test_suites_fail_on_an_exhausted_node_budget(self, monkeypatch, suite, message):
        monkeypatch.setattr(fsdim.dispersion, "SEARCH_NODE_BUDGET", 0)
        rep = suite(sample_count=3, n_max=3, seed=1)
        assert not rep.passes
        assert sum(message in v for v in rep.violations) == 3

    @pytest.mark.parametrize("suite,name,replacement,failed,violation", [
        (verify_pseudometric_suite, "reverse_certificate", _raise_boom,
         ["construction-error: boom"], "triple 0 (n=2): construction-error: boom"),
        (verify_contractivity_suite, "majorizes", lambda x, y: False,
         ["banded-majorizes"], "pair 0 (n=2): banded-majorizes"),
        (verify_pseudometric_suite, "delta_exact", _budget_hit,
         [], "triple 0: identity hit the budget"),
        (verify_contractivity_suite, "delta_exact", _budget_hit,
         [], "pair 0: solver hit the budget"),
    ])
    def test_suite_messages(self, monkeypatch, suite, name, replacement, failed, violation):
        monkeypatch.setattr(fsdim.verify, name, replacement)
        rep = suite(sample_count=1, n_max=2, seed=0)
        assert not rep.passes
        assert rep.records[0]["failed"] == failed
        assert rep.violations[0] == violation

    @pytest.mark.parametrize("suite", [verify_pseudometric_suite, verify_contractivity_suite])
    def test_suites_refuse_empty_sample(self, suite):
        for sample_count in (0, -1):
            with pytest.raises(ValueError, match="sample_count must be positive"):
                suite(sample_count=sample_count, n_max=3, seed=1)


    @pytest.mark.parametrize("suite", [verify_pseudometric_suite, verify_contractivity_suite])
    def test_suites_refuse_n_max_above_the_solver_cap_before_solving(self, monkeypatch, suite):
        def no_solve(*args):
            raise AssertionError("a pair was solved before n_max was checked")
        monkeypatch.setattr(fsdim.verify, "delta_exact", no_solve)
        # 3 samples draw n = 2..4 only, 8 samples reach n = 7
        for sample_count in (3, 8):
            with pytest.raises(ValueError, match=r"n_max must lie in \[2, 6\]"):
                suite(sample_count=sample_count, n_max=7, seed=1)


class TestDilution:
    def test_small_scale_run(self):
        rep = verify_dilution_counterexample(2 ** 14, max_block_len=6)
        assert rep.passes, rep.violations
        est = rep.details["estimates"]
        assert est["zeros"] == {"lower": 0.0, "upper": 0.0}
        assert est["selection-odd"] == {"lower": 0.0, "upper": 0.0}
        assert 0.40 <= est["diluted"]["lower"] <= est["diluted"]["upper"] <= 0.65
        assert est["selection-even"]["lower"] >= 0.80
        # the even selection recovers the source stream exactly
        assert est["selection-even"] == est["source"]

    @pytest.mark.parametrize("total, max_block_len", [(2 ** 12, 8), (4097, 3), (6001, 12)])
    def test_estimates_match_each_stream_counted_alone(self, monkeypatch, total, max_block_len):
        # the streams share counts where their digits agree: selection-even is
        # source and selection-odd a prefix of zeros, so each row encodes 3 streams
        encoded = collections.Counter()
        block_codes = fsdim.blockstats.block_codes

        def counted(seq, l, n):
            encoded[l] += 1
            return block_codes(seq, l, n)
        monkeypatch.setattr(fsdim.blockstats, "block_codes", counted)
        rep = verify_dilution_counterexample(total, max_block_len)
        monkeypatch.undo()
        assert encoded == {l: 3 for l in range(1, max_block_len + 1)}
        half = (total + 1) // 2
        source = gen_champernowne(Alphabet(2), half)
        diluted = gen_dilution(source, total)
        zeros = DigitSequence(Alphabet(2), bytes(total))
        streams = {"source": source, "diluted": diluted, "zeros": zeros,
                   "selection-even": select_progression(diluted, 0, 2, half),
                   "selection-odd": select_progression(diluted, 1, 2, total // 2)}
        schedule = rep.inputs["n_schedule"]
        alone = {}
        for name, stream in streams.items():
            grid = entropy_rate_grid(stream, max_block_len, schedule)
            lo, hi = dim_estimates(grid)
            alone[name] = {"lower": lo, "upper": hi}
            if name in ("source", "selection-odd"):
                assert grid.clipped  # fewer digits than the largest cells need
        assert rep.details["estimates"] == alone
        assert rep.records == [{"stream": name, **est} for name, est in alone.items()]

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ValueError):
            verify_dilution_counterexample(100)

    @pytest.mark.parametrize("max_block_len", [0, -1])
    def test_rejects_nonpositive_block_length_before_generating(self, monkeypatch, max_block_len):
        def no_digits(*args):
            raise AssertionError("digits generated before the arguments were checked")
        monkeypatch.setattr(fsdim.verify, "gen_champernowne", no_digits)
        with pytest.raises(ValueError, match="max_block_len must be >= 1"):
            verify_dilution_counterexample(2 ** 13, max_block_len=max_block_len)


class TestRationalArithmetic:
    def test_integer_q_is_identity_for_addition(self):
        seq = gen_champernowne(Alphabet(10), 9000)
        rep = verify_rational_arithmetic(seq, Fraction(1), 3, [200, 800])
        assert rep.passes, rep.violations
        assert rep.details["sum_digits_identical"] is True
        # q = 1 means every leg multiplies by 1: entropy gaps vanish
        assert all(rec["delta_h"] == 0.0 for rec in rep.records)

    def test_small_scenario_q_five_fourths(self):
        seq = gen_champernowne(Alphabet(10), 9000)
        rep = verify_rational_arithmetic(seq, Fraction(5, 4), 3, [300, 1000])
        assert rep.passes, rep.violations
        legs = {rec["leg"] for rec in rep.records}
        assert legs == {"alpha-times-|a|", "q-alpha-times-b", "alpha-times-b",
                        "q-plus-alpha-times-b"}
        for rec in rep.records:
            assert rec["valid"]
            assert rec["delta_h"] <= rec["bound_bits"] + 2 ** -30
            assert rec["col_support"] <= rec["col_bound"]
            assert rec["row_support"] <= rec["row_bound"]
        gaps = rep.details["estimate_gaps"]
        assert gaps["q-alpha"]["lower"] <= 0.2 and gaps["q-plus-alpha"]["lower"] <= 0.2

    def test_negative_q(self):
        seq = gen_champernowne(Alphabet(10), 6000)
        rep = verify_rational_arithmetic(seq, Fraction(-2), 2, [200, 600])
        assert rep.passes, rep.violations
        # frac(q + alpha) = alpha for every integer q, negative ones included
        assert rep.details["sum_digits_identical"] is True

    def test_integer_addition_that_changes_a_digit_is_a_violation(self, monkeypatch):
        add = fsdim.verify.add_rational_mod1

        def one_digit_off(seq, q, count):
            result = add(seq, q, count)
            digits = bytearray(result.digits.prefix(result.certified_count))
            digits[10] = (digits[10] + 1) % 10
            return dataclasses.replace(result, digits=DigitSequence(Alphabet(10), bytes(digits)))
        monkeypatch.setattr(fsdim.verify, "add_rational_mod1", one_digit_off)
        rep = verify_rational_arithmetic(gen_champernowne(Alphabet(10), 6000), Fraction(2), 2,
                                         [200, 600])
        assert rep.details["sum_digits_identical"] is False
        assert rep.violations == ["alpha-times-b and q-plus-alpha-times-b images differ at digit 10 "
                                  "of 1200", "integer addition changed fractional digits"]

    def test_rejects_zero_q(self):
        seq = gen_champernowne(Alphabet(10), 2000)
        with pytest.raises(ValueError):
            verify_rational_arithmetic(seq, Fraction(0), 2, [100])

    @pytest.mark.parametrize("max_block_len,n_schedule,message", [
        (2, [], "n_schedule must be nonempty"),
        (2, [0, 100], "n_schedule must be nonempty"),
        (0, [100], "max_block_len must be >= 1"),
        (-1, [100], "max_block_len must be >= 1"),
        # 2^25 > 2^24 blocks: refused before any product, not at the first oversized cell
        (25, [100], "block space k\\^l = 33554432 exceeds the certificate cap 16777216"),
    ])
    def test_rejects_bad_grid_before_arithmetic(self, monkeypatch, max_block_len, n_schedule,
                                                message):
        def no_arithmetic(*args):
            raise AssertionError("arithmetic ran before the arguments were checked")
        monkeypatch.setattr(fsdim.verify, "add_rational_mod1", no_arithmetic)
        monkeypatch.setattr(fsdim.verify, "mul_int_mod1", no_arithmetic)
        seq = gen_champernowne(Alphabet(2), 3000)
        with pytest.raises(ValueError, match=message):
            verify_rational_arithmetic(seq, Fraction(1, 3), max_block_len, n_schedule)


    @pytest.mark.parametrize("q, per_row", [(Fraction(3), 2), (Fraction(1, 3), 4),
                                            (Fraction(-7, 12), 5)])
    def test_streams_with_equal_digits_share_one_encoding_per_row(self, monkeypatch, q, per_row):
        # of the 3 streams and 4 leg images, q = 3 has 2 distinct digit streams
        # (alpha and 3*alpha) and q = 1/3 has 4; each is encoded once per row
        encoded = collections.Counter()
        block_codes = fsdim.blockstats.block_codes

        def counted(seq, l, n):
            encoded[l] += 1
            return block_codes(seq, l, n)
        monkeypatch.setattr(fsdim.blockstats, "block_codes", counted)
        report = verify_rational_arithmetic(gen_champernowne(Alphabet(10), 6000), q, 4,
                                            [250, 500, 1250])
        assert report.passes, report.violations
        assert encoded == {l: per_row for l in range(1, 5)}

    def test_normality_window_fits_each_certified_stream(self):
        # with no guard digits past the largest cell, q*alpha certifies one
        # digit fewer than requested; its window shrinks to its own digits
        seq = gen_champernowne(Alphabet(10), 900)
        report = verify_rational_arithmetic(seq, 3, 5, [100, 400, 1000])
        assert report.passes
        assert report.to_json() == \
            oracles.rational_arithmetic_report(seq, Fraction(3), 5, [100, 400, 1000]).to_json()

    @pytest.mark.parametrize("head,q,stream,certified", [
        (60, Fraction(3), "q-alpha", 59),
        (60, Fraction(2, 3), "q-plus-alpha", 59),
        (0, Fraction(3), "q-alpha", 0),  # 3 * 0.333... leaves no digit certified
    ])
    def test_derived_stream_too_short_for_any_cell_is_a_violation(self, head, q, stream,
                                                                    certified):
        # after its head alpha is all threes, so the derived stream's carries never resolve
        seq = DigitSequence(Alphabet(10),
                            gen_champernowne(Alphabet(10), head).prefix(head) + bytes([3]) * 3000)
        report = verify_rational_arithmetic(seq, q, 3, [100, 400])
        assert not report.passes
        assert report.violations == [f"{stream}: {certified} certified digits fit no grid cell"]
        assert stream not in report.details["estimates"]
        assert stream not in report.details["estimate_gaps"]
        assert (stream in report.details["normality_deviation"]) == (certified >= 3)
        assert report.to_json() == \
            oracles.rational_arithmetic_report(seq, q, 3, [100, 400]).to_json()

    def test_alpha_too_short_for_any_cell_raises(self):
        seq = gen_champernowne(Alphabet(10), 50)
        with pytest.raises(InsufficientDigitsError, match="too short for any grid cell"):
            verify_rational_arithmetic(seq, Fraction(1, 3), 2, [100])

    @pytest.mark.parametrize("q", [Fraction(3), Fraction(1, 3)])
    def test_images_keep_dimension_and_strong_dimension_apart(self, q):
        # alpha has dimension 1/5 and strong dimension 4/5 (lower and upper
        # read 0.313 and 0.795 on this grid); q*alpha and q+alpha must keep
        # each of the two, not only one
        count = 2_000_000
        seq = DigitSequence(Alphabet(10), oracles.oscillating_digits(count))
        schedule = [count // 384 * 2 ** i for i in range(8)]
        report = verify_rational_arithmetic(seq, q, 3, schedule)
        assert report.passes, report.violations[:3]
        assert len(report.records) == 4 * 3 * 8 and all(rec["passed"] for rec in report.records)
        alpha = report.details["estimates"]["alpha"]
        assert alpha["upper"] - alpha["lower"] > 0.3
        gaps = report.details["estimate_gaps"]
        assert set(gaps) == {"q-alpha", "q-plus-alpha"}
        assert all(gap["lower"] <= 0.1 and gap["upper"] <= 0.1 for gap in gaps.values()), gaps


class TestReports:
    def test_reports_are_bit_identical_for_same_inputs(self):
        a = verify_pseudometric_suite(sample_count=10, n_max=3, seed=5)
        b = verify_pseudometric_suite(sample_count=10, n_max=3, seed=5)
        assert a.to_json() == b.to_json()
        c = verify_dilution_counterexample(2 ** 13, max_block_len=5)
        d = verify_dilution_counterexample(2 ** 13, max_block_len=5)
        assert c.to_json() == d.to_json()

    def test_timing_excluded_from_canonical_json(self):
        rep = verify_contractivity_suite(sample_count=5, n_max=3, seed=1)
        assert rep.elapsed_seconds >= 0
        data = json.loads(rep.to_json())
        assert "elapsed_seconds" not in data

    @pytest.mark.parametrize("scenario", [
        lambda: verify_rational_arithmetic(gen_champernowne(Alphabet(10), 6000),
                                           Fraction(-7, 12), 3, [200, 600]),
        lambda: verify_dilution_counterexample(2 ** 12, max_block_len=4),
        lambda: verify_pseudometric_suite(sample_count=12, n_max=5, seed=3),
        lambda: verify_contractivity_suite(sample_count=12, n_max=5, seed=3),
    ], ids=["rational-arithmetic", "dilution", "pseudometric", "contractivity"])
    def test_reports_hold_json_values(self, scenario):
        # a Fraction, tuple or numpy integer anywhere in the report fails here
        rep = scenario()
        assert json.loads(rep.to_json()) == rep.to_dict()
        if rep.scenario == "rational-arithmetic-preservation":
            assert rep.inputs["q"] == "-7/12"

    def test_report_fields_stable(self):
        rep = verify_pseudometric_suite(sample_count=4, n_max=3, seed=2)
        data = json.loads(rep.to_json())
        assert set(data) == {"scenario", "inputs", "records", "details",
                             "violations", "passes"}


class TestNegationInvariance:
    # why mul_rational_mod1 may drop the sign of q: frac(-alpha), made directly,
    # has the block statistics of alpha
    def test_grid_invariant_under_negation_for_nonterminating_stream(self):
        # frac(-alpha) digits are the (k-1)-complement, a relabeling, so
        # every grid entry matches exactly
        seq = gen_champernowne(Alphabet(2), 6000)
        neg = DigitSequence(Alphabet(2), bytes(1 - d for d in seq.prefix(6000 - 16)))
        g1 = entropy_rate_grid(seq, 3, [200, 1500])
        g2 = entropy_rate_grid(neg, 3, [200, 1500])
        assert [(e.l, e.n, e.h) for e in g1.entries] == [(e.l, e.n, e.h) for e in g2.entries]

    def test_negation_of_rational_grid_close_despite_boundary(self):
        import math
        seq = gen_rational_expansion(Fraction(22, 101), Alphabet(10), 4000)
        neg = gen_rational_expansion(1 - Fraction(22, 101), Alphabet(10), 3000)
        for l, n in ((1, 1000), (2, 800)):
            g1 = entropy_rate_grid(seq, l, [n]).entries[-1].h
            g2 = entropy_rate_grid(neg, l, [n]).entries[-1].h
            assert abs(g1 - g2) <= math.log2(n) / n + 2 ** -30
