"""Differential property tests: limb arithmetic against the Fraction enclosure.

Certified arithmetic multiplies limbs of base-k digits, resolves their
carries with a prefix scan and long-divides by a small integer.  Each test
draws a base in 2..36, a stream shaped to stress carries (random digits, long
runs of 0 and k-1, all k-1, exact k-adic points, periodic expansions, with
and without the exact value), an operand on both sides of the int64 limb
edge, a count and a lookahead cap, and checks every field of the result, or
the exception type, on the stream cut that many digits past the count
(tests/oracles.py:lookahead_window) against tests/oracles.py:certified_affine,
the enclosure over k^N-sized Fractions, with that cap.  On the same streams,
the pairs of a block table are checked against the carries
tests/oracles.py:carry_after encloses.  The long division's prefix scan and
the digit extraction are checked on their own against Python-int divmod,
with limbs laid out as for any operand, up to 4097 limbs; streams of up to
3000 digits of k - 1 carry the high end of the enclosure through every limb.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fsdim import (Alphabet, DigitSequence, InsufficientDigitsError, UnresolvedCarryError,
                   add_rational_mod1, div_int, gen_rational_expansion,
                   integer_multiple_certificate, mul_int_mod1, mul_rational_mod1)
from fsdim.digitseq import divide_limbs, limb_width, limbs_to_digits
from fsdim.dispersion import MAX_CERTIFICATE_DIMENSION
from fsdim.realarith import LOOKAHEAD_CAP, _certified_affine

from oracles import (_digit_sum, _numeral, _width_digits, carry_after, certified_affine,
                     long_division_digits, lookahead_window, shift_in_sum)

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
        if kind.endswith("exact"):
            return gen_rational_expansion(exact, Alphabet(k), n)
        digits = long_division_digits(exact, k, n)
    return DigitSequence(Alphabet(k), bytes(digits))


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
    assert outcome(call, lookahead_window(seq, count, cap), operand, count) == outcome(
        certified_affine, seq, coef, offset, count, cap)


def counts(seq):
    """0 to the stream's length plus one; the length itself (no guard digits) often."""
    n = seq.length_available
    return st.integers(0, n + 1) | st.just(n)


@st.composite
def cases(draw, name):
    seq = draw(streams())
    operand = draw(OPERATIONS[name][1])
    return seq, operand, draw(counts(seq)), draw(st.sampled_from([0, 1, 3, 16, LOOKAHEAD_CAP]))


@PROPERTY_SETTINGS
@given(seq=streams(), coef=rationals.map(abs), offset=st.just(0) | rationals, data=st.data())
def test_affine_maps_match_fraction_enclosure(seq, coef, offset, data):
    count = data.draw(counts(seq))
    cap = data.draw(st.sampled_from([0, 1, 3, 16, LOOKAHEAD_CAP]))
    offset = Fraction(offset)
    assert outcome(_certified_affine, lookahead_window(seq, count, cap), coef, offset,
                   count) == outcome(certified_affine, seq, coef, offset, count, cap)


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
    + [("add_rational_mod1", -q) for q in (Fraction(2 ** 61 + 1, 3),)] \
    + [("mul_rational_mod1", q) for q in (Fraction(22, 7), Fraction(3 ** 50, 7),
                                          Fraction(-22, 7))]


@pytest.mark.parametrize("name, operand", EDGE_OPERANDS)
@pytest.mark.parametrize("seq, count, cap", [
    (_all_top(10, 36), 36, LOOKAHEAD_CAP),   # the high end is k^N: every digit carries
    (_all_top(2, 300), 250, 16),
    (_all_top(36, 70), 0, 1),
    (DigitSequence(Alphabet(3), bytes(90)), 60, 3),
])
def test_operations_at_carry_and_width_edges(name, operand, seq, count, cap):
    assert_matches_oracle(name, seq, operand, count, cap)


@st.composite
def top_runs(draw):
    """Up to 3 digits, then k - 1 for 300 to 3000 digits."""
    k = draw(st.integers(2, 36))
    prefix = draw(st.lists(st.integers(0, k - 1), max_size=3))
    return DigitSequence(Alphabet(k), bytes(prefix + [k - 1] * draw(st.integers(300, 3000))))


@PROPERTY_SETTINGS
@given(seq=top_runs(), data=st.data(),
       coef=st.sampled_from([Fraction(1), Fraction(3), Fraction(1, 3), Fraction(7, 12),
                             Fraction(22, 7), Fraction(2 ** 62 + 3)]),
       offset=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-5, 9)]))
def test_affine_maps_carry_through_runs_of_top_digits(seq, coef, offset, data):
    # the high end is the low end plus a gap at the bottom limb: its carry
    # climbs every limb of K - 1 up to the prefix, or into the integer part
    n = seq.length_available
    count = data.draw(st.sampled_from([0, 1, n // 2, n - 40, n]))
    cap = data.draw(st.sampled_from([1, 16, LOOKAHEAD_CAP]))
    assert outcome(_certified_affine, lookahead_window(seq, count, cap), coef, offset,
                   count) == outcome(certified_affine, seq, coef, offset, count, cap)


@st.composite
def limb_arrays(draw, sizes=st.integers(0, 70), multipliers=integers):
    """(k, c, K, limbs): limbs of c base-k digits, as limb_width(k, m) lays them out."""
    k = draw(st.integers(2, 36))
    c, dtype = limb_width(k, draw(multipliers))
    K = k ** c
    n = draw(sizes)
    if n <= 70:
        values = draw(st.lists(st.integers(0, K - 1) | st.sampled_from([0, K - 1]),
                               min_size=n, max_size=n))
    else:  # past what Hypothesis draws one by one: seeded values, 0 and K - 1 among them
        rnd = random.Random(draw(st.integers(0, 2 ** 32)))
        values = [rnd.choice((0, K - 1, rnd.randrange(K))) for _ in range(n)]
    return k, c, K, np.array(values, dtype)


def assert_divides_like_python(limbs, top, d, K):
    dtype = limbs.dtype
    x = limbs.tolist()
    qtop, rem = divide_limbs(top, limbs, d, K)
    assert limbs.dtype == dtype and all(0 <= q < K for q in limbs.tolist())
    assert (_numeral([qtop] + limbs.tolist(), K), rem) == divmod(_numeral([top] + x, K), d)


@PROPERTY_SETTINGS
@given(limbs=limb_arrays(), top=st.integers(-2 ** 70, 2 ** 70),
       d=st.integers(1, 12) | st.integers(2, 2 ** 31 - 1) | st.integers(2 ** 31 - 3, 2 ** 31 + 3)
       | st.integers(3 * 2 ** 30, 2 ** 32) | st.integers(2 ** 31, 2 ** 80))
def test_divide_limbs_matches_integer_division(limbs, top, d):
    # up to 70 limbs cross the scan's power-of-two steps; d on both sides of
    # its 2^31 gate (past 3 * 2^30, d^2 overflows int64), and object limbs,
    # reach the per-limb loop
    assert_divides_like_python(limbs[3], top, d, limbs[2])


@pytest.mark.parametrize("d", [2, 3, 144, "k", 2 ** 31 - 1, 2 ** 31])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 4097])
@settings(max_examples=5, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_divide_limbs_at_block_edges(n, d, data):
    # the remainder scan reads n + 1 entries (top's remainder, then the limbs)
    # in blocks of 64: 64 limbs or more take the carry step, 4097 a block-end
    # scan past one block; d = k divides K, so the scan's multiplier is 0 at
    # once; 2^31 takes the per-limb loop, as object limbs do
    k, _, K, limbs = data.draw(limb_arrays(st.just(n),
                                           st.integers(1, 12) | st.integers(2 ** 62, 2 ** 80)))
    top = data.draw(st.integers(0, 2 ** 70))
    assert_divides_like_python(limbs, top, k if d == "k" else d, K)


@PROPERTY_SETTINGS
@given(limbs=limb_arrays())
def test_limbs_to_digits_matches_oracle(limbs):
    k, c, _, limbs = limbs
    assert limbs_to_digits(limbs, k, c).tobytes() == b"".join(
        _width_digits(x, k, c) for x in limbs.tolist())


@PROPERTY_SETTINGS
@given(seq=streams(), data=st.data())
def test_table_residues_match_fraction_carries(seq, data):
    # block j of m*alpha is (m*x_j + carry_j + shift-in sum) mod k^l: every pair
    # of the table, counted with its flow, has the residue the oracle gives
    k, avail = seq.alphabet.k, seq.length_available
    # r = floor(log_k m) in 0..3, or an operand past the int64 limb edge
    m = data.draw(st.integers(0, 3).flatmap(lambda r: st.integers(k ** r, k ** (r + 1) - 1))
                  | st.just(2 ** 62 + 3))
    r = next(i for i in itertools.count() if k ** (i + 1) > m)
    l = data.draw(st.integers(1, 5).filter(lambda l: k ** l <= MAX_CERTIFICATE_DIMENSION))
    # at most one block more than the stream holds
    n = data.draw(st.integers(1, max(avail - r, 0) // l + 1))
    cap = data.draw(st.sampled_from([1, 3, 16, LOOKAHEAD_CAP - r]))
    try:
        # the product's lookahead counts from its last digit, the oracle's cap
        # from the last shift-in digit r digits later: with cap + r both read
        # as far, so cap + r stays within the library's LOOKAHEAD_CAP
        table = integer_multiple_certificate(lookahead_window(seq, n * l, cap + r), m, l, n)[0]
    except (InsufficientDigitsError, UnresolvedCarryError) as exc:
        table = exc
    if n * l > avail:
        assert isinstance(table, InsufficientDigitsError)
        return
    digits = seq.prefix(avail) if seq.exact_value is None else long_division_digits(
        seq.exact_value, k, n * l + r)
    s, resolved, residues = _digit_sum(m, k), True, Counter()
    for p in range(l, n * l + 1, l):
        try:
            carry = carry_after(seq, m, p, cap)
        except (InsufficientDigitsError, UnresolvedCarryError):
            resolved = False
            continue
        assert 0 <= carry <= s
        residues[_numeral(digits[p - l:p], k),
                 (carry + shift_in_sum(digits[p:p + r], m, k)) % k ** l] += 1
    if isinstance(table, Exception):
        # wherever the oracle resolves every carry, the table is built
        assert isinstance(table, UnresolvedCarryError) and not resolved
        return
    assert table.validate().ok
    table_residues = Counter({(x, (y - m * x) % k ** l): flow for x, y, flow in zip(
        table.cols.tolist(), table.rows.tolist(), table.flows.tolist())})
    # the product reads past blocks whose own windows the oracle cannot resolve
    assert residues == table_residues if resolved else residues <= table_residues


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
