import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsdim import (Alphabet, DigitSequence, InsufficientDigitsError, block_frequencies,
                   dim_estimates, entropy_rate_grid, gen_champernowne, gen_dilution,
                   normality_deviation, shannon_entropy)
from fsdim.blockstats import FEW_CODES, DimensionEstimateGrid, _entropy_from_counts
from fsdim.dispersion import block_distribution_as_code_vector

from oracles import (_naive_dim_estimates, _numeral, entropy_from_counts, naive_block_counts,
                     oscillating_digits, sliding_normality_deviation)


def naive_code_counts(digits: bytes, k: int, l: int, n: int):
    """The oracle's block counts keyed by base-k block code."""
    return {_numeral(w, k): c for w, c in naive_block_counts(digits, l, n).items()}


def code_counts(dist):
    """{block code: count} of a block distribution."""
    return dict(zip(dist.values.tolist(), dist.counts.tolist()))


def _alternating(count):
    return DigitSequence(Alphabet(2), bytes([0, 1] * (count // 2 + 1))[:count])


def test_block_frequencies_trivial_cases():
    dist = block_frequencies(_alternating(16), 2, 4)
    assert code_counts(dist) == {_numeral(bytes([0, 1]), 2): 4}
    assert dist.n == 4 and dist.codes.tolist() == [1] * 4 and dist.bits == 0.0
    assert block_distribution_as_code_vector(dist) == {_numeral(bytes([0, 1]), 2): 1}

    seq = DigitSequence(Alphabet(2), bytes([0, 1, 1, 0]))
    dist = block_frequencies(seq, 1, 4)
    assert block_distribution_as_code_vector(dist) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_block_frequencies_against_naive_recount():
    seq = gen_champernowne(Alphabet(2), 3100)
    dist = block_frequencies(seq, 3, 1000)
    assert code_counts(dist) == naive_code_counts(seq.prefix(3000), 2, 3, 1000)

    rng = random.Random(3)
    for _ in range(20):
        k = rng.choice([2, 3, 10])
        l = rng.randint(1, 5)
        n = rng.randint(1, 200)
        digits = bytes(rng.randrange(k) for _ in range(n * l))
        seq = DigitSequence(Alphabet(k), digits)
        assert code_counts(block_frequencies(seq, l, n)) == naive_code_counts(digits, k, l, n)


def test_block_probabilities_sum_to_one_exactly():
    rng = random.Random(4)
    for _ in range(20):
        k = rng.choice([2, 5, 12])
        l = rng.randint(1, 4)
        n = rng.randint(1, 300)
        digits = bytes(rng.randrange(k) for _ in range(n * l))
        dist = block_frequencies(DigitSequence(Alphabet(k), digits), l, n)
        assert sum(block_distribution_as_code_vector(dist).values()) == 1


def test_block_frequencies_insufficient_digits():
    seq = DigitSequence(Alphabet(2), bytes(10))
    with pytest.raises(Exception):
        block_frequencies(seq, 3, 5)


def test_shannon_entropy_examples():
    assert shannon_entropy([Fraction(1, 4)] * 4) == 2.0
    assert shannon_entropy([Fraction(1)]) == 0.0
    assert shannon_entropy([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]) == 1.5


def test_shannon_entropy_of_distribution_matches_vector_form():
    seq = gen_champernowne(Alphabet(2), 4000)
    dist = block_frequencies(seq, 2, 2000)
    direct = dist.bits
    from_probs = shannon_entropy(list(block_distribution_as_code_vector(dist).values()))
    assert abs(direct - from_probs) < 1e-12


def test_shannon_entropy_rejects_unnormalized():
    with pytest.raises(ValueError):
        shannon_entropy([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.2])


def test_entropy_grid_zero_sequence():
    zeros = DigitSequence(Alphabet(2), bytes(4000))
    grid = entropy_rate_grid(zeros, 4, [10, 100, 1000])
    assert all(e.h == 0.0 for e in grid.entries)
    assert dim_estimates(grid) == (0.0, 0.0)


def test_entropy_grid_alternating_sequence():
    grid = entropy_rate_grid(_alternating(4000), 2, [100, 500, 1000])
    for entry in grid.row(1):
        assert abs(entry.h - 1.0) < 1e-12  # even n: exactly half zeros, half ones
    for entry in grid.row(2):
        assert entry.h == 0.0
    assert dim_estimates(grid) == (0.0, 0.0)


def test_entropy_grid_entries_in_unit_interval():
    rng = random.Random(9)
    seq = DigitSequence(Alphabet(3), bytes(rng.randrange(3) for _ in range(3000)))
    grid = entropy_rate_grid(seq, 5, [7, 33, 100])
    assert all(0.0 <= e.h <= 1.0 for e in grid.entries)


def test_entropy_grid_champernowne_high_entropy():
    seq = gen_champernowne(Alphabet(2), 100_000)
    grid = entropy_rate_grid(seq, 8, [1562, 3125, 6250, 12500])
    assert all(e.h >= 0.95 for e in grid.row(1))
    # normalized entropy decreases slowly with block length at fixed coverage
    tail = {l: max(e.h for e in grid.row(l)) for l in range(1, 9)}
    assert tail[8] > 0.9


def test_entropy_grid_clips_when_short():
    seq = DigitSequence(Alphabet(2), bytes(100))
    grid = entropy_rate_grid(seq, 4, [10, 100])
    assert grid.clipped
    assert [e for e in grid.entries if e.l == 4 and e.n == 100] == []


def test_dim_estimates_ordering_property():
    rng = random.Random(21)
    for _ in range(10):
        digits = bytes(rng.randrange(2) for _ in range(2000))
        grid = entropy_rate_grid(DigitSequence(Alphabet(2), digits), 3, [50, 100, 400])
        lo, hi = dim_estimates(grid)
        assert lo <= hi


def test_dim_estimates_read_each_entry_once():
    # a 200-digit stream fills 200 rows of a grid 10^6 block lengths tall: the
    # estimates group the entries by l once instead of filtering them per l
    seq = gen_champernowne(Alphabet(2), 200)
    start = time.perf_counter()
    grid = entropy_rate_grid(seq, 10 ** 6, [1, 2])
    estimates = dim_estimates(grid)
    assert time.perf_counter() - start < 1.0
    assert len(grid.entries) == 300
    assert estimates == _naive_dim_estimates([(e.l, e.n, e.h) for e in grid.entries], 200, 0.5)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ratio=st.integers(2, 8), dense_first=st.booleans(), count=st.integers(2000, 40_000))
def test_oscillating_estimates_are_the_tail_window_extremes(ratio, dense_first, count):
    # lower and upper of a sequence whose rows swing between its dimension and
    # its strong dimension: each the least over rows of the tail window's
    # minimum and maximum, so never crossed
    seq = DigitSequence(Alphabet(10), oscillating_digits(count, ratio, dense_first))
    grid = entropy_rate_grid(seq, 3, [count // 384 * 2 ** i for i in range(8)])
    lower, upper = dim_estimates(grid)
    assert lower <= upper
    assert (lower, upper) == _naive_dim_estimates([(e.l, e.n, e.h) for e in grid.entries], 3, 0.5)


def test_dilution_estimates_near_half():
    src = gen_champernowne(Alphabet(2), 100_000)
    diluted = gen_dilution(src, 200_000)
    grid = entropy_rate_grid(diluted, 8, [1562, 3125, 6250, 12500, 25000])
    lo, hi = dim_estimates(grid)
    assert 0.40 <= lo <= hi <= 0.65


def test_relabeling_invariance():
    # permuting digit labels leaves every grid entry unchanged
    rng = random.Random(33)
    digits = bytes(rng.randrange(4) for _ in range(4000))
    perm = [2, 0, 3, 1]
    relabeled = bytes(perm[d] for d in digits)
    g1 = entropy_rate_grid(DigitSequence(Alphabet(4), digits), 3, [40, 300])
    g2 = entropy_rate_grid(DigitSequence(Alphabet(4), relabeled), 3, [40, 300])
    assert [(e.l, e.n, e.h) for e in g1.entries] == [(e.l, e.n, e.h) for e in g2.entries]


def test_sliding_windows_read_exactly_the_digits_they_cover():
    # offsets i < n read digits up to n + |w| - 2, so n + |w| - 1 digits suffice
    digits = bytes([0, 1]) * 5
    alt = DigitSequence(Alphabet(2), digits)
    assert normality_deviation(alt, 2, 9) == sliding_normality_deviation(digits, 2, 2, 9)
    with pytest.raises(InsufficientDigitsError):
        normality_deviation(alt, 2, 10)


def test_normality_deviation_examples():
    zeros = DigitSequence(Alphabet(2), bytes(100))
    assert normality_deviation(zeros, 1, 50) == Fraction(1, 2)
    alt = _alternating(300)
    assert normality_deviation(alt, 2, 200) == Fraction(1, 4)
    champ = gen_champernowne(Alphabet(2), 100_010)
    assert normality_deviation(champ, 4, 100_000) < Fraction(5, 100)


CHAMP_2 = gen_champernowne(Alphabet(2), 64)


@pytest.mark.parametrize("call,message", [
    (lambda: _entropy_from_counts([], 0), "empty distribution"),
    (lambda: block_frequencies(CHAMP_2, 0, 5), "need l >= 1 and n >= 1"),
    (lambda: block_frequencies(CHAMP_2, 2, 0), "need l >= 1 and n >= 1"),
    (lambda: shannon_entropy([Fraction(3, 2), Fraction(-1, 2)]), "negative probability"),
    (lambda: shannon_entropy([1.5, -0.5]), "probabilities must be exact rationals"),
    (lambda: dim_estimates(DimensionEstimateGrid(Alphabet(2), 2, (10,))), "empty grid"),
    (lambda: normality_deviation(CHAMP_2, 0, 10), "w_max_len must be >= 1"),
    (lambda: entropy_rate_grid(CHAMP_2, 3, [2.5, 7.9]), "n_schedule entries must be integers"),
], ids=["distribution-n", "frequencies-l", "frequencies-n",
        "entropy-exact-negative", "entropy-float", "empty-grid", "normality-w",
        "grid-n-not-integer"])
def test_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_block_distribution_validates_totals():
    with pytest.raises(ValueError, match="^counts do not sum to n$"):
        _entropy_from_counts([3], 5)


@st.composite
def count_lists(draw):
    # zeros and a few distinct counts, small or large, each repeated many times
    pool = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 10 ** 9)),
                         min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool + [0]), min_size=1, max_size=300))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(count_lists(), st.booleans())
@example([887] * 5 + [5], False)
# a Counter groups at most FEW_CODES positive counts, zeros not counted
@example([3] * FEW_CODES, False)
@example([3] * (FEW_CODES + 1), True)
@example([0] * 7 + [10 ** 9] * FEW_CODES, True)
@example([10 ** 9] * (FEW_CODES + 1), False)
# past it, a bincount while the largest count is at most twice the codes, else a sort
@example([2 * 100] + [1] * 99, True)
@example([2 * 100 + 1] + [1] * 99, False)
@example([0] * 5 + [2 * (FEW_CODES + 1)] + [1] * FEW_CODES, True)
@example([0] * 5 + [2 * (FEW_CODES + 1) + 1] + [1] * FEW_CODES, False)
def test_entropy_from_counts_matches_counter_grouping(counts, as_array):
    n = sum(counts)
    arg = np.array(counts, dtype=np.int64) if as_array else counts
    if n == 0:
        with pytest.raises(ValueError, match="empty distribution"):
            _entropy_from_counts(arg, n)
        return
    # bit-identical floats, not merely close ones
    assert _entropy_from_counts(arg, n).hex() == entropy_from_counts(counts, n).hex()
    for wrong in (n - 1, n + 1):
        if wrong > 0:
            with pytest.raises(ValueError, match="counts do not sum to n"):
                _entropy_from_counts(arg, wrong)


def test_entropy_from_counts_memory_does_not_grow_with_the_largest_count():
    # a bincount here would allocate 8 GB; grouping is O(number of codes)
    counts = np.array([10 ** 9] * 65 + [1] * 100, dtype=np.int64)
    n = int(counts.sum())
    tracemalloc.start()
    try:
        h = _entropy_from_counts(counts, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.hex() == entropy_from_counts(counts.tolist(), n).hex()
    assert peak < 2 ** 20
