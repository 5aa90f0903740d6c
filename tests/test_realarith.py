import random
from fractions import Fraction

import pytest

from fsdim import (Alphabet, DigitSequence, InsufficientDigitsError, add_rational_mod1,
                   div_int, gen_champernowne, gen_rational_expansion, mul_int_mod1,
                   mul_rational_mod1)
from fsdim.realarith import _certified_affine

from oracles import _numeral, frac_digits, lookahead_window, product_prefix_digits

A10 = Alphabet(10)
A2 = Alphabet(2)


def bare(digits, k=10):
    """Materialized stream without the exact-value annotation: forces the
    interval enclosure path."""
    return DigitSequence(Alphabet(k), bytes(digits))


def rational_stream(q, k=10, count=400):
    return bare(gen_rational_expansion(q, Alphabet(k), count).prefix(count), k)


class TestMulInt:
    def test_examples(self):
        res = mul_int_mod1(rational_stream(Fraction(1, 3)), 2, 5)
        assert list(res.digits.prefix(5)) == [6, 6, 6, 6, 6]
        assert not res.unresolved

        res = mul_int_mod1(rational_stream(Fraction(1, 4)), 4, 3)
        assert list(res.digits.prefix(3)) == [0, 0, 0]  # frac(1) = 0, terminating

    def test_champernowne_against_prefix_oracle(self):
        seq = gen_champernowne(A10, 130)
        res = mul_int_mod1(seq, 7, 100)
        assert res.certified_count == 100
        assert res.digits.prefix(100) == product_prefix_digits(seq.prefix(130), 10, 7, 100)

    def test_unresolved_at_kadic_point(self):
        # 3 * 0.333... straddles 1.0 at every finite prefix
        res = mul_int_mod1(lookahead_window(bare([3] * 2000), 5, 512), 3, 5)
        assert res.unresolved
        assert res.certified_count == 0
        assert res.lookahead_used == 512

    def test_zero_digits_read_nothing(self):
        # zero of zero digits is not fewer than requested, even where every
        # digit would be unresolved
        res = mul_int_mod1(bare([3] * 5000), 3, 0)
        assert (res.certified_count, res.lookahead_used, res.unresolved) == (0, 0, False)
        assert res.digits.length_available == 0

    def test_exact_fast_path_resolves_kadic(self):
        seq = gen_rational_expansion(Fraction(1, 3), A10, 50)
        res = mul_int_mod1(seq, 3, 5)
        assert not res.unresolved
        assert list(res.digits.prefix(5)) == [0, 0, 0, 0, 0]
        assert res.digits.exact_value == 0

    def test_exact_path_agrees_with_the_digits(self):
        # the one digit 5 is 1/2 exactly, and 3 * 0.5 = 1.5 gives 5, 0, 0, 0
        seq = gen_rational_expansion(Fraction(1, 2), A10, 1)
        assert seq.prefix(1) == b"\x05" and seq.exact_value == Fraction(1, 2)
        res = mul_int_mod1(seq, 3, 4)
        assert list(res.digits.prefix(4)) == [5, 0, 0, 0]
        assert res.digits.exact_value == Fraction(1, 2)

    def test_count_beyond_stream_raises(self):
        # a short stream is an input error, not a carry on a k-adic boundary
        seq = bare(gen_champernowne(A10, 100).prefix(100))
        with pytest.raises(InsufficientDigitsError):
            mul_int_mod1(seq, 3, 200)
        assert mul_int_mod1(seq, 3, 90).certified_count == 90

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            mul_int_mod1(bare([1, 2, 3]), 0, 2)


class TestDivInt:
    def test_examples(self):
        res = div_int(rational_stream(Fraction(1, 2)), 5, 3)
        assert list(res.digits.prefix(3)) == [1, 0, 0]
        res = div_int(rational_stream(Fraction(1, 9)), 3, 6)
        assert list(res.digits.prefix(6)) == [0, 3, 7, 0, 3, 7]

    def test_champernowne_against_division_oracle(self):
        seq = gen_champernowne(A10, 200)
        res = div_int(seq, 7, 100)
        assert res.certified_count == 100
        # oracle: long-divide the exact prefix rational, guard digits absorb the tail
        prefix = _numeral(seq.prefix(150), 10)
        lo = frac_digits(Fraction(prefix, 10 ** 150) / 7, 10, 100)
        hi = frac_digits(Fraction(prefix + 1, 10 ** 150) / 7, 10, 100)
        assert lo == hi == res.digits.prefix(100)


class TestAddRational:
    def test_examples(self):
        res = add_rational_mod1(rational_stream(Fraction(1, 4)), Fraction(1, 2), 3)
        assert list(res.digits.prefix(3)) == [7, 5, 0]
        res = add_rational_mod1(rational_stream(Fraction(2, 3)), Fraction(-1, 3), 4)
        assert list(res.digits.prefix(4)) == [3, 3, 3, 3]

    def test_champernowne_against_prefix_oracle(self):
        seq = gen_champernowne(A10, 160)
        res = add_rational_mod1(seq, Fraction(1, 7), 100)
        assert res.certified_count == 100
        prefix = _numeral(seq.prefix(150), 10)
        lo = frac_digits(Fraction(prefix, 10 ** 150) + Fraction(1, 7), 10, 100)
        hi = frac_digits(Fraction(prefix + 1, 10 ** 150) + Fraction(1, 7), 10, 100)
        assert lo == hi == res.digits.prefix(100)

    def test_integer_addition_returns_same_stream(self):
        # adding an integer never touches the fractional digits
        seq = gen_champernowne(A2, 600)
        for m in (1, 2, 7):
            res = add_rational_mod1(seq, Fraction(m), 500)
            assert res.digits.prefix(500) == seq.prefix(500)
        res = add_rational_mod1(bare(seq.prefix(600), 2), Fraction(3), 500)
        assert res.digits.prefix(500) == seq.prefix(500)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            add_rational_mod1(bare([1]), Fraction(0), 1)


class TestMulRational:
    def test_examples(self):
        res = mul_rational_mod1(rational_stream(Fraction(1, 2)), Fraction(1, 4), 4)
        assert list(res.digits.prefix(4)) == [1, 2, 5, 0]
        res = mul_rational_mod1(rational_stream(Fraction(3, 4)), Fraction(2, 3), 3)
        assert list(res.digits.prefix(3)) == [5, 0, 0]

    def test_champernowne_against_prefix_oracle(self):
        seq = gen_champernowne(A10, 170)
        res = mul_rational_mod1(seq, Fraction(3, 2), 100)
        assert res.certified_count == 100
        prefix = _numeral(seq.prefix(160), 10)
        lo = frac_digits(Fraction(prefix, 10 ** 160) * Fraction(3, 2), 10, 100)
        hi = frac_digits(Fraction(prefix + 1, 10 ** 160) * Fraction(3, 2), 10, 100)
        assert lo == hi == res.digits.prefix(100)

    def test_negative_multiplier_uses_magnitude(self):
        seq = rational_stream(Fraction(1, 2))
        neg = mul_rational_mod1(seq, Fraction(-1, 4), 4)
        pos = mul_rational_mod1(seq, Fraction(1, 4), 4)
        assert neg.digits.prefix(4) == pos.digits.prefix(4)

    def test_composition_consistency(self):
        # multiplying the one-shot |a|/b stream back by b recovers the
        # digits of |a|*alpha mod 1 (always), and div-after-mul agrees with
        # the one-shot exactly when floor(a*alpha) wraps by a multiple of b
        rng = random.Random(77)
        checked_wrap_free = 0
        for _ in range(30):
            den = rng.randint(2, 2000)
            alpha = Fraction(rng.randrange(den), den)
            stream = rational_stream(alpha, count=300)
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            q = Fraction(a, b)
            oneshot = mul_rational_mod1(stream, q, 120)
            back = mul_int_mod1(oneshot.digits, q.denominator, 100)
            direct = mul_int_mod1(stream, q.numerator, 100)
            n = min(back.certified_count, direct.certified_count)
            assert back.digits.prefix(n) == direct.digits.prefix(n)
            if (q.numerator * alpha).__floor__() % q.denominator == 0:
                chained = div_int(mul_int_mod1(stream, q.numerator, 250).digits,
                                  q.denominator, 120)
                n = min(oneshot.certified_count, chained.certified_count)
                assert oneshot.digits.prefix(n) == chained.digits.prefix(n)
                checked_wrap_free += 1
        assert checked_wrap_free >= 5


@pytest.mark.parametrize("call,message", [
    (lambda: mul_int_mod1(bare([1, 2, 3]), 3, -1), "count must be nonnegative"),
    (lambda: add_rational_mod1(bare([1, 2, 3]), Fraction(1, 3), -1), "count must be nonnegative"),
    (lambda: div_int(bare([1, 2, 3]), 0, 2), "b must be a positive integer"),
    (lambda: div_int(bare([1, 2, 3]), -2, 2), "b must be a positive integer"),
    (lambda: mul_rational_mod1(bare([1, 2, 3]), 0, 2), "q must be nonzero"),
    (lambda: _certified_affine(bare([1, 2, 3]), Fraction(0), Fraction(1, 3), 2),
     "coefficient must be nonzero"),
], ids=["mul-int-count", "add-count", "div-zero", "div-negative", "mul-q-zero",
        "affine-coefficient-zero"])
def test_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_enclosure_soundness_random_rationals():
    # certified digits equal the exact result's digits for every operation
    rng = random.Random(20260808)
    for _ in range(60):
        den = rng.randint(2, 10_000)
        alpha = Fraction(rng.randrange(den), den)
        stream = rational_stream(alpha, count=380)
        m = rng.randint(1, 30)
        b = rng.randint(1, 30)
        q = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        cases = [
            (mul_int_mod1(stream, m, 256), m * alpha),
            (div_int(stream, b, 256), alpha / b),
            (add_rational_mod1(stream, q, 256), q + alpha),
            (mul_rational_mod1(stream, q, 256), abs(q) * alpha),
            (_certified_affine(stream, Fraction(-1), Fraction(0), 256), -alpha),
        ]
        for res, exact in cases:
            want = frac_digits(exact, 10, 256)
            assert res.digits.prefix(res.certified_count) == want[:res.certified_count]


def test_negation_is_digit_complement_for_nonterminating():
    seq = gen_champernowne(A2, 400)
    res = _certified_affine(seq, Fraction(-1), Fraction(0), 300)
    assert res.certified_count == 300
    assert res.digits.prefix(300) == bytes(1 - d for d in seq.prefix(300))


def test_partial_certification_reports_common_prefix():
    # result approaches 0.25 from below: digits resolve only partway
    stream = bare([2, 4, 9, 9, 9, 9, 9, 9, 9, 9], 10)
    res = mul_int_mod1(stream, 1, 8)
    assert res.unresolved
    assert res.certified_count < 8
    assert res.digits.prefix(res.certified_count) == bytes([2, 4, 9, 9, 9, 9, 9])[:res.certified_count]
