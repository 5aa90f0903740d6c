"""Differential property tests: integer block codes against byte-slice counting.

Block statistics count base-k integer codes, int64 while k^l <= 2^62 and
Python ints beyond, in block_frequencies and grid rows alike.
Each test draws a base in 2..36 and block lengths on both sides of that
boundary, and checks the counts, the grid rows' keys, counts and entropies,
the normality deviation and the entropy grid against naive counting over
byte slices.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fsdim import (Alphabet, DigitSequence, block_frequencies, entropy_rate_grid,
                   normality_deviation)
from fsdim.blockstats import _prefix_blocks

from oracles import _numeral, entropy_from_counts, naive_block_counts, sliding_normality_deviation

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def block_lengths(draw):
    """A base and a block length, half the time within a few digits of the int64 edge."""
    k = draw(st.integers(2, 36))
    edge = int(62 / math.log2(k))  # the longest block whose codes fit in 62 bits
    return k, draw(st.integers(1, edge + 8) | st.integers(edge - 1, edge + 3))


@st.composite
def repeating_digits(draw, k, l, count):
    """`count` digits assembled from a few l-digit blocks, so long blocks repeat."""
    pool = draw(st.lists(st.binary(min_size=l, max_size=l).map(
        lambda b: bytes(d % k for d in b)), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=-(-count // l), max_size=-(-count // l)))
    return b"".join(pool[i] for i in picks)[:count]


@st.composite
def aligned_cells(draw):
    k, l = draw(block_lengths())
    n = draw(st.integers(1, 30))
    return k, l, n, draw(repeating_digits(k, l, n * l + draw(st.integers(0, 5))))


@st.composite
def sliding_cells(draw):
    k, w = draw(block_lengths())
    n = draw(st.integers(1, 60))
    period = draw(st.integers(1, w + 3))
    return k, w, n, draw(repeating_digits(k, period, n + w))


@st.composite
def grid_cells(draw):
    k, max_len = draw(block_lengths())
    schedule = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    count = draw(st.integers(min(schedule), 40 * max_len))
    return k, max_len, schedule, draw(repeating_digits(k, draw(st.integers(1, max_len)), count))


@PROPERTY_SETTINGS
@given(aligned_cells())
@example((36, 14, 5, bytes(range(14)) * 3 + bytes(range(1, 15)) * 2))
@example((2, 70, 4, bytes(70) * 2 + bytes([1]) * 140))
@example((2, 64, 3, bytes([1]) * 128 + bytes(64)))
def test_block_counts_match_naive_slicing(cell):
    k, l, n, digits = cell
    expected = {_numeral(w, k): c for w, c in naive_block_counts(digits, l, n).items()}
    dist = block_frequencies(DigitSequence(Alphabet(k), digits), l, n)
    assert dict(zip(dist.values.tolist(), dist.counts.tolist())) == expected
    assert dist.codes.tolist() == [_numeral(digits[j * l:(j + 1) * l], k) for j in range(n)]


@st.composite
def prefix_rows(draw):
    k, l = draw(block_lengths())
    schedule = sorted(set(draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))))
    return k, l, schedule, draw(repeating_digits(k, l, schedule[-1] * l))


@PROPERTY_SETTINGS
@given(prefix_rows())
@example((2, 63, [1, 3, 4], bytes([1]) * 126 + bytes(63) + bytes([1]) * 63))
@example((36, 13, [2, 5], bytes(range(13)) * 3 + bytes([35] * 13) * 2))
def test_prefix_blocks_match_naive_counts(row):
    # past 62 bits the keys are Python ints, in code order all the same
    k, l, schedule, digits = row
    for n, blocks in zip(schedule, _prefix_blocks(DigitSequence(Alphabet(k), digits), l, schedule)):
        expected = {_numeral(w, k): c for w, c in naive_block_counts(digits, l, n).items()}
        assert blocks.codes.tolist() == [_numeral(digits[j * l:(j + 1) * l], k) for j in range(n)]
        values = blocks.values.tolist()
        assert values == sorted(expected)
        assert blocks.counts.tolist() == [expected[v] for v in values]
        assert blocks.bits == entropy_from_counts(expected.values(), n)


@PROPERTY_SETTINGS
@given(sliding_cells())
@example((36, 14, 20, bytes(range(34))))
@example((2, 64, 10, bytes(74)))
@example((4, 2, 30, bytes([0, 1, 2]) * 11))
def test_normality_deviation_matches_oracle(cell):
    k, w, n, digits = cell
    seq = DigitSequence(Alphabet(k), digits)
    assert normality_deviation(seq, w, n) == sliding_normality_deviation(digits, k, w, n)


@PROPERTY_SETTINGS
@given(grid_cells())
@example((2, 70, [1, 2, 3], bytes([0, 1]) * 105))
def test_entropy_grid_matches_block_frequencies(cell):
    k, max_len, schedule, digits = cell
    seq = DigitSequence(Alphabet(k), digits)
    grid = entropy_rate_grid(seq, max_len, schedule)
    cells = [(l, n) for l in range(1, max_len + 1) for n in sorted(set(schedule))]
    fitting = [(l, n) for l, n in cells if n * l <= len(digits)]
    expected = [(l, n, min(entropy_from_counts(naive_block_counts(digits, l, n).values(), n)
                           / (l * math.log2(k)), 1.0))
                for l, n in fitting]
    assert [(e.l, e.n, e.h) for e in grid.entries] == expected
    assert grid.clipped == (len(fitting) < len(cells))


@pytest.mark.parametrize("n", [0, -5])
def test_normality_deviation_refuses_empty_sample(n):
    seq = DigitSequence(Alphabet(10), bytes(range(10)) * 3)
    with pytest.raises(ValueError, match="n must be positive"):
        normality_deviation(seq, 3, n)
