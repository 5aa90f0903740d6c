"""Differential property tests: limb arithmetic against the Fraction enclosure.

Certified arithmetic multiplies limbs of base-k digits, resolves their
carries with a prefix scan and long-divides by a small integer.  Each test
draws a base in 2..36, a stream shaped to stress carries (random digits, long
runs of 0 and k-1, all k-1, exact k-adic points, periodic expansions, with
and without the exact value), an operand on both sides of the int64 limb
edge, a count and a lookahead cap, and checks every field of the result, or
the exception type, against tests/oracles.py:certified_affine, the enclosure
over k^N-sized Fractions.
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsdim import (Alphabet, DigitSequence, InsufficientDigitsError, UnresolvedCarryError,
                   add_rational_mod1, carry_advice_trace, div_int, gen_rational_expansion,
                   mul_int_mod1, mul_rational_mod1, negate_mod1)
from fsdim import digitseq
from fsdim.realarith import _certified_affine

from oracles import carry_after, certified_affine, long_division_digits

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])

KINDS = ("random", "runs", "all-top", "kadic", "periodic", "kadic-exact", "periodic-exact",
         "perturbed")


@st.composite
def streams(draw, max_len=160):
    """A digit stream over a base in 2..36, shaped to stress carries."""
    k = draw(st.integers(2, 36))
    n = draw(st.integers(0, max_len))
    kind = draw(st.sampled_from(KINDS))
    exact = None
    if kind == "random":
        digits = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    elif kind == "runs":
        runs = draw(st.lists(st.tuples(st.sampled_from([0, k - 1, k // 2]), st.integers(1, 60)),
                             min_size=1, max_size=8))
        digits = [d for d, length in runs for _ in range(length)][:n]
    elif kind == "all-top":
        digits = [k - 1] * n  # P + 1 = k^N
    elif kind == "perturbed":
        # j/den then random digits: times a multiple of den, a carry from the
        # random tail runs through a long chain of k - 1 into the integer part
        den = draw(st.integers(2, 12))
        digits = long_division_digits(Fraction(draw(st.integers(1, den - 1)), den), k, n)
        cut = draw(st.integers(0, n))
        digits = digits[:cut] + bytes(draw(st.lists(st.integers(0, k - 1), min_size=n - cut,
                                                    max_size=n - cut)))
    else:
        if kind.startswith("kadic"):
            den = k ** draw(st.integers(0, 6))
        else:
            den = draw(st.integers(2, 10 ** 6))
        exact = Fraction(draw(st.integers(0, den - 1)), den)
        digits = long_division_digits(exact, k, n)
        if not kind.endswith("exact"):
            exact = None
    return DigitSequence(Alphabet(k), bytes(digits), exact_value=exact)


# below, at and past the int64 limb edge (|M| * k^c < 2^62 with k^c >= |M|)
integers = (st.integers(1, 10 ** 6) | st.integers(2 ** 61 - 4, 2 ** 61 + 4)
            | st.integers(2 ** 62 - 2, 2 ** 80))
rationals = (st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 10 ** 6))
             | st.builds(Fraction, integers, integers) | st.just(Fraction(3 ** 50, 7)))

# name -> (call, operand strategy, (coef, offset) of the affine map it certifies)
OPERATIONS = {
    "mul_int_mod1": (mul_int_mod1, integers, lambda m: (Fraction(m), Fraction(0))),
    "div_int": (div_int, integers, lambda b: (Fraction(1, b), Fraction(0))),
    "add_rational_mod1": (add_rational_mod1, rationals, lambda q: (Fraction(1), q)),
    "mul_rational_mod1": (mul_rational_mod1, rationals, lambda q: (abs(q), Fraction(0))),
    "negate_mod1": (lambda seq, _, count, cap: negate_mod1(seq, count, cap), st.just(None),
                    lambda _: (Fraction(-1), Fraction(0))),
}


def outcome(fn, *args):
    """(digits, certified_count, lookahead_used, unresolved, exact_value), or the exception type."""
    try:
        result = fn(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    if isinstance(result, tuple):
        return result
    return (result.digits.prefix(result.digits.length_available), result.certified_count,
            result.lookahead_used, result.unresolved, result.digits.exact_value)


def assert_matches_oracle(name, seq, operand, count, cap):
    call, _, affine = OPERATIONS[name]
    coef, offset = affine(operand)
    assert outcome(call, seq, operand, count, cap) == outcome(
        certified_affine, seq, coef, offset, count, cap)


def counts(seq):
    """0 to the stream's length plus one; the length itself (no guard digits) often."""
    n = seq.length_available
    return st.integers(0, n + 1) | st.just(n)


@st.composite
def cases(draw, name):
    seq = draw(streams())
    operand = draw(OPERATIONS[name][1])
    return seq, operand, draw(counts(seq)), draw(st.sampled_from([1, 3, 16, 4096]))


@PROPERTY_SETTINGS
@given(seq=streams(), coef=rationals.map(lambda q: -q) | rationals, offset=st.just(0) | rationals,
       data=st.data())
def test_affine_maps_match_fraction_enclosure(seq, coef, offset, data):
    # negative coefficients with |M| > 1 or d > 1 take the k's complement
    # route that no public operation but negate_mod1 (M = -1) reaches
    count = data.draw(counts(seq))
    cap = data.draw(st.sampled_from([1, 3, 16, 4096]))
    offset = Fraction(offset)
    assert outcome(_certified_affine, seq, coef, offset, count, cap) == outcome(
        certified_affine, seq, coef, offset, count, cap)


def _all_top(k, n):
    return DigitSequence(Alphabet(k), bytes([k - 1]) * n)


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_operations_match_fraction_enclosure(name, data):
    assert_matches_oracle(name, *data.draw(cases(name)))


EDGE_OPERANDS = [("mul_int_mod1", m) for m in (3, 2 ** 61 - 1, 2 ** 61, 2 ** 62 - 1, 3 ** 50)] \
    + [("div_int", b) for b in (7, 2 ** 61, 3 ** 50)] \
    + [("add_rational_mod1", q) for q in (Fraction(-22, 7), Fraction(2 ** 61 + 1, 3))] \
    + [("mul_rational_mod1", q) for q in (Fraction(22, 7), Fraction(3 ** 50, 7))] \
    + [("negate_mod1", None)]


@pytest.mark.parametrize("name, operand", EDGE_OPERANDS)
@pytest.mark.parametrize("seq, count, cap", [
    (_all_top(10, 36), 36, 4096),   # the high end is k^N: every digit carries
    (_all_top(2, 300), 250, 16),
    (_all_top(36, 70), 0, 1),
    (DigitSequence(Alphabet(3), bytes(90)), 60, 3),
])
def test_operations_at_carry_and_width_edges(name, operand, seq, count, cap):
    assert_matches_oracle(name, seq, operand, count, cap)


@PROPERTY_SETTINGS
@given(seq=streams(max_len=120), name=st.sampled_from(sorted(OPERATIONS)), data=st.data())
def test_long_division_across_blocks(seq, name, data):
    # blocks of 2 limbs: every division crosses several Python-list blocks
    operand = data.draw(OPERATIONS[name][1])
    count = data.draw(st.integers(0, seq.length_available))
    with mock.patch.object(digitseq, "_DIVIDE_BLOCK", 2):
        assert_matches_oracle(name, seq, operand, count, 16)


@PROPERTY_SETTINGS
@given(seq=streams(), data=st.data())
def test_trace_carries_match_fraction_windows(seq, data):
    k = seq.alphabet.k
    # r = floor(log_k m) in 0..3, or an operand past the int64 limb edge
    m = data.draw(st.integers(0, 3).flatmap(lambda r: st.integers(k ** r, k ** (r + 1) - 1))
                  | st.just(2 ** 62 + 3))
    r = next(i for i in itertools.count() if k ** (i + 1) > m)
    l = data.draw(st.integers(1, 5))
    # at most one block more than the stream holds
    n_blocks = data.draw(st.integers(1, max(seq.length_available - r, 0) // l + 1))
    cap = data.draw(st.sampled_from([1, 3, 16, 4096]))
    if n_blocks * l + r > seq.length_available:
        with pytest.raises(InsufficientDigitsError):
            carry_advice_trace(seq, m, l, n_blocks, cap)
        return
    try:
        expected = [carry_after(seq, m, (j + 1) * l, cap) for j in range(n_blocks)]
    except UnresolvedCarryError:
        expected = UnresolvedCarryError
    try:
        carries = [e.carry for e in carry_advice_trace(seq, m, l, n_blocks, cap).entries]
    except UnresolvedCarryError:
        carries = UnresolvedCarryError
    # one certified product reads past every block's window, so the trace may
    # resolve carries the oracle cannot; it must resolve all that the oracle does
    assert carries == expected or expected is UnresolvedCarryError


@PROPERTY_SETTINGS
@given(k=st.integers(2, 36), count=st.integers(0, 300), data=st.data())
def test_rational_expansion_matches_long_division(k, count, data):
    den = data.draw(st.integers(1, 10 ** 40) | st.integers(0, 40).map(lambda e: k ** e)
                    | st.tuples(st.integers(0, 12), st.integers(1, 10 ** 6)).map(
                        lambda t: k ** t[0] * t[1]))
    q = Fraction(data.draw(st.integers(0, den - 1)), den)
    seq = gen_rational_expansion(q, Alphabet(k), count)
    assert seq.prefix(count) == long_division_digits(q, k, count)
    assert seq.exact_value == q


@pytest.mark.parametrize("k, q", [
    (10, Fraction(1, 10 ** 40 - 1)), (10, Fraction(10 ** 40 - 1, 10 ** 40)),
    (2, Fraction(2 ** 40 - 1, 2 ** 40)), (36, Fraction(5, 7 * 36 ** 12)), (7, Fraction(0))])
def test_rational_expansion_edges(k, q):
    seq = gen_rational_expansion(q, Alphabet(k), 400)
    assert seq.prefix(400) == long_division_digits(q, k, 400)
