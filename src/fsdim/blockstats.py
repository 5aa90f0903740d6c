"""Block frequencies, Shannon entropy, and finite-scale dimension estimates.

The dimension of a digit sequence is approximated on a finite (l, n) grid of
normalized block entropies: for block length l and block count n, the entry is
H(empirical distribution of the first n aligned l-blocks) / (l * log2 k),
always in [0, 1].  Estimates take the infimum over l of a tail window in n,
which mirrors the liminf/limsup structure of the limiting quantities while
staying honest about finite scale.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .digitseq import Alphabet, DigitSequence, InsufficientDigitsError, digits_to_limbs

TAIL_FRACTION = 0.5  # share of each grid row, largest n first, that the estimates read


class BlockDistribution(NamedTuple):
    """The first n aligned l-blocks of one stream, counted: their keys `codes`
    in block order, the observed keys `values` ascending with their positive
    `counts` (which sum to n), and the Shannon entropy of those counts in
    bits.  Keys are base-k block codes, most significant digit first, at
    every block length: int32 or int64 arrays up to 62 bits, Python ints (an
    object array) beyond."""

    codes: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    bits: float

    @property
    def n(self) -> int:
        return len(self.codes)


def _code_dtype(k: int, l: int):
    """int32 while every base-k code of length l fits in 31 bits, int64 while
    it fits in 62 bits, else Python ints."""
    bits = l * math.log2(k)
    return np.int32 if bits <= 31 else np.int64 if bits <= 62 else object


def block_codes(seq: DigitSequence, l: int, n: int) -> np.ndarray:
    """Base-k integer codes of the first n aligned l-blocks.

    Codes are int32 while k^l <= 2^31, int64 while k^l <= 2^62 and Python
    ints (an object array) beyond that, so every block length is served.
    """
    k = seq.alphabet.k
    return digits_to_limbs(seq.prefix_array(n * l), k, l, _code_dtype(k, l))[0]


def _prefix_counts(codes: np.ndarray, space: int, schedule: Sequence[int]):
    """(values, counts) of the codes in codes[:n], for each n of the ascending `schedule`.

    Values are the observed codes in ascending order and counts their
    positive occurrence counts, as np.unique gives them; both are fresh
    arrays.  While the code space `space` is at most twice the longest
    prefix (so the codes are fixed-width integers), one running bincount adds each segment
    codes[prev:n] in turn, so the prefixes cost O(n + len(schedule) * space)
    and no sort; otherwise each prefix is sorted by np.unique.
    """
    if space <= 2 * schedule[-1]:
        running = np.zeros(space, dtype=np.int64)
        prev = 0
        for n in schedule:
            running += np.bincount(codes[prev:n], minlength=space)
            prev = n
            values = np.flatnonzero(running)
            yield values, running[values]
    else:
        for n in schedule:
            yield np.unique(codes[:n], return_counts=True)


def block_frequencies(seq: DigitSequence, l: int, n: int) -> BlockDistribution:
    """Count the first n aligned l-blocks of `seq`, keyed by integer block code.

    Block j is seq[j*l : (j+1)*l]; the distribution needs n*l digits.
    """
    if l < 1 or n < 1:
        raise ValueError("need l >= 1 and n >= 1")
    return next(_prefix_blocks(seq, l, [n]))


# below this many observed codes a Counter groups equal counts faster than numpy
FEW_CODES = 64


def _entropy_from_counts(counts, n: int) -> float:
    # H = sum (c/n) * (log2 n - log2 c); identical counts are grouped so the
    # number of log evaluations is O(sqrt(n)) and fsum keeps the sum exact.
    # The per-group form makes point masses exactly 0.0 and bounds the total
    # rounding error by a few ulps of H, far below the 2^-40 budget.  Groups
    # come from a Counter over few codes, from a bincount while the largest
    # count is at most twice the number of codes (the dense rule of
    # _prefix_counts), and from a sort otherwise, so memory stays O(codes);
    # fsum sums the same terms in any order, so the three give the same float.
    if n <= 0:
        raise ValueError("empty distribution")
    counts = np.asarray(counts, dtype=np.int64)
    counts = counts[counts > 0]
    if len(counts) <= FEW_CODES:
        groups = list(Counter(counts.tolist()).items())
    elif counts.max() <= 2 * len(counts):
        mults = np.bincount(counts)
        values = np.flatnonzero(mults)
        groups = list(zip(values.tolist(), mults[values].tolist()))
    else:
        values, mults = np.unique(counts, return_counts=True)
        groups = list(zip(values.tolist(), mults.tolist()))
    if sum(c * mult for c, mult in groups) != n:
        raise ValueError("counts do not sum to n")
    log_n = math.log2(n)
    h = math.fsum((mult * c / n) * (log_n - math.log2(c)) for c, mult in groups)
    return max(h, 0.0)


def _prefix_blocks(seq: DigitSequence, l: int, schedule: Sequence[int]):
    """Yield the BlockDistribution of the first n aligned l-blocks of `seq` for
    each n of the ascending `schedule`, counting the nested prefixes in one pass."""
    codes = block_codes(seq, l, schedule[-1])
    space = seq.alphabet.k ** l
    for n, (values, counts) in zip(schedule, _prefix_counts(codes, space, schedule)):
        # read-only: a block table built from the cell keeps these arrays as its own
        values.flags.writeable = counts.flags.writeable = False
        yield BlockDistribution(codes[:n], values, counts, _entropy_from_counts(counts, n))


@dataclass(frozen=True)
class ProbabilityVector:
    """Exact rational probability vector, and the one rule for what is one:
    entries are exact rationals (Fractions or ints, held as Fractions), none
    negative, summing to exactly 1.  A dict is refused, since a vector lists
    every entry."""

    p: Tuple[Fraction, ...]

    def __post_init__(self):
        if isinstance(self.p, dict):
            raise ValueError("probabilities must be a sequence, not a dict")
        p = tuple(self.p)
        if not all(isinstance(x, (Fraction, int)) for x in p):
            raise ValueError("probabilities must be exact rationals")
        if any(x < 0 for x in p):
            raise ValueError("negative probability")
        if sum(p) != 1:
            raise ValueError(f"probabilities sum to {sum(p)}, expected exactly 1")
        object.__setattr__(self, "p", tuple(x if type(x) is Fraction else Fraction(x) for x in p))

    @property
    def n(self) -> int:
        return len(self.p)

    def __getitem__(self, j: int) -> Fraction:
        return self.p[j]


def _probability_vector(vec, n: Optional[int] = None) -> ProbabilityVector:
    """`vec` itself if it is a ProbabilityVector, else the ProbabilityVector of
    its entries; of dimension `n` where one is given."""
    if not isinstance(vec, ProbabilityVector):
        vec = ProbabilityVector(vec)
    if n is not None and vec.n != n:
        raise ValueError(f"dimension mismatch: {n} vs {vec.n}")
    return vec


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of a probability vector (a :class:`ProbabilityVector`,
    or a sequence read as one), with the 0*log(1/0) = 0 convention.  A
    :class:`BlockDistribution` carries its entropy as ``bits``.
    """
    return max(math.fsum(-float(p) * math.log2(float(p))
                         for p in _probability_vector(dist).p if p > 0), 0.0)


@dataclass
class GridEntry:
    l: int
    n: int
    h: float  # normalized block entropy in [0, 1]


@dataclass
class DimensionEstimateGrid:
    """Normalized block entropies over a rectangular (l, n) grid.

    `clipped` flags that some requested cells were dropped because the
    source sequence was too short; the emitted entries always cover the
    largest feasible sub-grid.
    """

    alphabet: Alphabet
    max_block_len: int
    n_schedule: Tuple[int, ...]
    entries: List[GridEntry] = field(default_factory=list)
    clipped: bool = False

    def row(self, l: int) -> List[GridEntry]:
        return [e for e in self.entries if e.l == l]


def _grid_schedule(max_block_len: int, n_schedule: Sequence[int]) -> List[int]:
    """The sorted distinct block counts of a grid, after checking both axes."""
    if max_block_len < 1:
        raise ValueError("max_block_len must be >= 1")
    try:
        schedule = sorted(set(map(operator.index, n_schedule)))
    except TypeError:
        raise ValueError("n_schedule entries must be integers") from None
    if not schedule or schedule[0] < 1:
        raise ValueError("n_schedule must be nonempty with positive entries")
    return schedule


def entropy_rate_grid(seq: DigitSequence, max_block_len: int,
                      n_schedule: Sequence[int]) -> DimensionEstimateGrid:
    """Normalized block entropy H(pi_l_n) / (l * log2 k) for each grid cell.

    Cells whose n*l digits are unavailable are skipped and the grid is
    flagged clipped instead of failing, so partial sources still produce the
    largest feasible grid.
    """
    return _grids({"seq": seq}, max_block_len, _grid_schedule(max_block_len, n_schedule))["seq"]


def _count_rows(streams: Dict[str, DigitSequence], max_block_len: int, schedule: List[int]):
    """Yield (l, n, cells) for the cells of the grid, ascending l then n, up to
    the first row that no stream reaches; `cells` maps the name of each stream
    holding n*l digits to its BlockDistribution of the first n l-blocks.  Each
    row is counted by one plan: taken longest need first, a stream shares the
    counts of the first earlier one whose digits agree with its own needed
    prefix, so each distinct prefix is encoded once and its nested prefixes
    are counted in one pass.  `cells` is one dict, emptied after each yield,
    so one block length's codes are held at a time."""
    cells = {}
    for l in range(1, max_block_len + 1):
        fits = {name: [n for n in schedule if n * l <= seq.length_available]
                for name, seq in streams.items()}
        groups = []  # (needed digits, prefix blocks, names) of each distinct prefix
        for name in sorted((name for name in fits if fits[name]), key=lambda name: -fits[name][-1]):
            view = streams[name].prefix_array(fits[name][-1] * l)
            # distinct streams mostly differ in their first digits, and
            # np.array_equal reads every digit before it answers
            head = view[:64].tobytes()
            group = next((g for g in groups if g[0][:len(head)].tobytes() == head
                          and np.array_equal(g[0][:len(view)], view)), None)
            if group is None:
                groups.append(group := (view, _prefix_blocks(streams[name], l, fits[name]), []))
            group[2].append(name)
        if not groups:
            return
        for n in schedule:
            cells.update((name, blocks) for view, prefixes, names in groups if n * l <= len(view)
                         for blocks in [next(prefixes)] for name in names if n in fits[name])
            if cells:
                yield l, n, cells
            cells.clear()


def _grids(streams: Dict[str, DigitSequence], max_block_len: int,
           schedule: List[int]) -> Dict[str, DimensionEstimateGrid]:
    """{name: grid} of each stream, its cells counted by one plan (see _count_rows)."""
    bits = {name: {} for name in streams}
    for l, n, cells in _count_rows(streams, max_block_len, schedule):
        for name, blocks in cells.items():
            bits[name][l, n] = blocks.bits
    return {name: _grid_from_bits(seq.alphabet, max_block_len, schedule, seq.length_available,
                                  bits[name]) for name, seq in streams.items()}


def _grid_from_bits(alphabet: Alphabet, max_block_len: int, schedule: List[int], avail: int,
                    bits: Dict[Tuple[int, int], float]) -> DimensionEstimateGrid:
    """The grid of `avail` digits from the entropy in bits of each cell (l, n)
    with n*l <= avail, given in ascending l then n."""
    entries = [GridEntry(l, n, min(h / (l * math.log2(alphabet.k)), 1.0))
               for (l, n), h in bits.items()]
    if not entries:
        raise InsufficientDigitsError("sequence too short for any grid cell")
    return DimensionEstimateGrid(alphabet, max_block_len, tuple(schedule), entries,
                                 clipped=schedule[-1] * max_block_len > avail)


def dim_estimates(grid: DimensionEstimateGrid) -> Tuple[float, float]:
    """Finite-scale (lower, upper) dimension estimates from a grid.

    For each block length the tail window is the last half (`TAIL_FRACTION`)
    of the available n values; the lower estimate takes the window minimum and the
    upper estimate the window maximum, then both take the minimum over block
    lengths.  The lower estimate never exceeds the upper one.
    """
    if not grid.entries:
        raise ValueError("empty grid")
    rows: Dict[int, List[GridEntry]] = {}
    for e in grid.entries:
        rows.setdefault(e.l, []).append(e)
    lower = upper = math.inf
    for row in rows.values():
        row.sort(key=lambda e: e.n)
        tail = row[-max(1, int(len(row) * TAIL_FRACTION)):]
        lower = min(lower, min(e.h for e in tail))
        upper = min(upper, max(e.h for e in tail))
    return lower, upper


def normality_deviation(seq: DigitSequence, w_max_len: int, n: int) -> Fraction:
    """Worst sliding-frequency deviation max_w |freq(w) - k^(-|w|)|.

    freq(w) is the share of offsets i < n with seq[i : i+|w|] == w.  The
    maximum ranges over every nonempty w of length up to w_max_len; blocks
    that never occur contribute deviation k^(-|w|) exactly.
    """
    if w_max_len < 1:
        raise ValueError("w_max_len must be >= 1")
    if n < 1:
        raise ValueError("n must be positive")
    k = seq.alphabet.k
    digits = seq.prefix_array(n + w_max_len - 1)
    codes = np.zeros(n, dtype=np.int64)
    worst = Fraction(0)
    for l in range(1, w_max_len + 1):
        # codes of the l-blocks at offsets 0..n-1, extended from the (l-1)-blocks
        codes = codes.astype(_code_dtype(k, l), copy=False)
        codes *= k
        codes += digits[l - 1:l - 1 + n]
        space = k ** l
        (_, counts), = _prefix_counts(codes, space, [n])
        # |c/n - k^-l| = |c*k^l - n| / (n*k^l) peaks at the extreme counts (0 if unseen)
        low = int(counts.min()) if len(counts) == space else 0
        worst = max(worst, Fraction(max(int(counts.max()) * space - n, n - low * space), n * space))
    return worst
