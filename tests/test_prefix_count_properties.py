"""Differential property tests of block counting across the dense-count gate.

A row of codes is counted by one running bincount per schedule segment while
its code space k^l is at most twice its largest block count n, and by sorting
each prefix otherwise (always for Python-int codes past 62 bits).  Each draw
puts one block length below, at or above that gate and checks the entropy
grid and the normality deviation against naive counting over byte slices.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fsdim import Alphabet, DigitSequence, entropy_rate_grid, normality_deviation

from oracles import entropy_from_counts, naive_block_counts, sliding_normality_deviation

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def gated_lengths(draw):
    """(k, l, n): a block count n whose side of the gate k^l <= 2n is drawn.

    `gate` is the least n that counts densely; n = gate - 1 is the largest that
    sorts, and when k^l is even, n = gate meets the gate with equality.
    """
    k = draw(st.integers(2, 10))
    l = draw(st.integers(1, max(l for l in range(1, 11) if k ** l <= 1024)))
    space = k ** l
    gate = -(-space // 2)
    n = draw(st.sampled_from([gate - 1, gate, gate + 1]) | st.integers(1, 3 * space))
    return k, l, max(n, 1)


@st.composite
def digit_stream(draw, k, count):
    """`count` base-k digits: uniform, or a few short blocks repeated (ties, unseen blocks)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, k, count, dtype=np.uint8).tobytes()
    period = draw(st.integers(1, 6))
    pool = rng.integers(0, k, (draw(st.integers(1, 4)), period), dtype=np.uint8)
    picks = rng.integers(0, len(pool), -(-count // period))
    return pool[picks].tobytes()[:count]


@st.composite
def gated_grids(draw):
    """A grid whose row l has n at its gate side, with 1 to 5 nested schedule points up to n."""
    k, l, n = draw(gated_lengths())
    max_len = l + draw(st.integers(0, 2))
    schedule = draw(st.lists(st.integers(1, n), min_size=0, max_size=4)) + [n]
    count = n * l + draw(st.integers(0, l))
    return k, max_len, schedule, draw(digit_stream(k, count))


@st.composite
def wide_grids(draw):
    """A grid whose longest rows hold Python-int codes past 62 bits."""
    k = draw(st.integers(2, 36))
    max_len = int(62 / math.log2(k)) + draw(st.integers(-1, 3))
    schedule = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    count = draw(st.integers(max(schedule), 12 * max_len))
    return k, max_len, schedule, draw(digit_stream(k, count))


@st.composite
def gated_samples(draw):
    """A sliding sample of n offsets whose length-l words sit at the drawn gate side."""
    k, l, n = draw(gated_lengths())
    w_max_len = l + draw(st.integers(0, 2))
    return k, w_max_len, n, draw(digit_stream(k, n + w_max_len - 1 + draw(st.integers(0, 3))))


@st.composite
def wide_samples(draw):
    """A sliding sample whose longest words hold Python-int codes past 62 bits."""
    k = draw(st.integers(2, 36))
    w_max_len = int(62 / math.log2(k)) + draw(st.integers(-1, 3))
    n = draw(st.integers(1, 30))
    return k, w_max_len, n, draw(digit_stream(k, n + w_max_len - 1))


def naive_grid(digits: bytes, k: int, max_len: int, schedule):
    """Grid cells (l, n, h) of every fitting cell, by slicing and Counter grouping."""
    return [(l, n, min(entropy_from_counts(naive_block_counts(digits, l, n).values(), n)
                       / (l * math.log2(k)), 1.0))
            for l in range(1, max_len + 1) for n in sorted(set(schedule))
            if n * l <= len(digits)]


@PROPERTY_SETTINGS
@given(gated_grids() | wide_grids())
@example((2, 4, [8], bytes(range(2)) * 16))               # row 4: 2^4 = 2*8
@example((3, 3, [4, 13], bytes([0, 1, 2]) * 13))          # row 3: 27 > 2*13 sorts
@example((3, 3, [4, 14], bytes([0, 1, 2]) * 14))          # row 3: 27 <= 2*14 counts
@example((10, 4, [1, 2, 3, 4, 5000], bytes(range(10)) * 2000))  # row 4: 10^4 = 2*5000
@example((2, 66, [1, 2, 3], bytes([1]) * 66 + bytes(66) * 2))
def test_entropy_grid_matches_naive_counts(cell):
    k, max_len, schedule, digits = cell
    grid = entropy_rate_grid(DigitSequence(Alphabet(k), digits), max_len, schedule)
    expected = naive_grid(digits, k, max_len, schedule)
    assert [(e.l, e.n, e.h) for e in grid.entries] == expected
    assert grid.clipped == (len(expected) < max_len * len(set(schedule)))


@PROPERTY_SETTINGS
@given(gated_samples() | wide_samples())
@example((2, 3, 4, bytes([0, 0, 0, 1, 1, 1])))            # 2^3 = 2*4
@example((3, 2, 4, bytes([0, 1, 2]) * 3))                 # 3^2 > 2*4 sorts
@example((3, 2, 9, bytes([0, 0, 1, 0, 2, 1, 1, 2, 2, 0])))  # de Bruijn: every 2-block seen once
def test_normality_deviation_matches_naive_counts(cell):
    k, w_max_len, n, digits = cell
    seq = DigitSequence(Alphabet(k), digits)
    assert normality_deviation(seq, w_max_len, n) == sliding_normality_deviation(digits, k,
                                                                                 w_max_len, n)
