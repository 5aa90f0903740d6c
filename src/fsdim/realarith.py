"""Certified exact arithmetic on fractional digit streams.

Operations map the digit stream of a real alpha in [0, 1) to certified digits
of frac(m*alpha), frac(alpha/b), frac(q+alpha), frac(|q|*alpha) and so on.
Certification works by interval enclosure with exact integer endpoints: an
N-digit prefix P pins alpha inside [P/k^N, (P+1)/k^N], and each end of the
affine image, scaled by k^count, is an integer computed on limbs of base-k
digits, which enter the limbs four per machine word (see
:func:`~fsdim.digitseq.digits_to_limbs`).  The low end takes one multiply,
whose carries a prefix scan resolves, and a long division by a small integer
d, by a two-level scan of its remainders; the high end is the low one plus a
gap.  Digits are emitted where both ends agree.  The lookahead N grows
geometrically until the digits resolve or it reaches `LOOKAHEAD_CAP`.  Streams
carrying an exact rational value skip the enclosure and emit digits by exact
long division, which also resolves results that sit exactly on k-adic points
(undetectable from any finite stream prefix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digitseq import (DigitSequence, InsufficientDigitsError, digits_to_limbs, divide_limbs,
                       gen_rational_expansion, limb_width, limbs_to_digits)

LOOKAHEAD_CAP = 4096


class UnresolvedCarryError(RuntimeError):
    """A trailing carry could not be resolved within the lookahead cap."""


@dataclass
class CertifiedDigitResult:
    """Digits of an arithmetic result together with their certification.

    The first `certified_count` digits of `digits` are exactly the digits of
    the true result (terminating expansion preferred).  `unresolved` is set
    when the enclosure still straddles a k-adic boundary at the lookahead
    cap, in which case fewer digits than requested are certified.
    """

    digits: DigitSequence
    certified_count: int
    lookahead_used: int
    unresolved: bool


def _resolve_carries(limbs: np.ndarray, K: int) -> int:
    """Reduce big-endian limbs, at least one, each at most 2K - 2, to base K in place.

    A limb of at least K generates a carry, a limb equal to K - 1 passes an
    incoming carry on, and any other limb absorbs it.  The carry into a limb
    is the generate bit of the nearest limb below it that does not pass
    carries on, found for every limb by one prefix scan (Ladner and
    Fischer), so runs of K - 1 cost no extra passes.  Returns the carry out
    of the top limb.
    """
    n = len(limbs)
    generates = np.append(limbs >= K, False)  # index n: no carry enters the bottom limb
    stops = np.where(limbs != K - 1, np.arange(n), n)
    nearest = np.minimum.accumulate(stops[::-1])[::-1]  # nearest stop at or below each limb
    limbs[:-1] += generates[nearest[1:]]
    limbs[limbs >= K] -= K
    return int(generates[nearest[0]])


def _enclosure_digits(digits: np.ndarray, k: int, M: int, S: int, d: int, count: int):
    """The digits both ends of the enclosure share, and whether the ends are equal.

    For the N-digit prefix P in `digits`, N >= 1, the ends are floor((M*P' + S*k^N) /
    (d*k^(N-count))) with P' in {P, P+1}.  The low end, an integer part and the
    limbs of its first N fractional digits, takes one multiply by M > 0, a split
    by x - K*(x // K), one carry scan and one long division by d; the high end
    is the low end plus a small gap at the bottom limb, and differs only in
    the limbs that addition's carry chain reaches.  Returns the fractional
    digits both ends share among the first `count` (none when their integer
    parts differ), and whether the two ends are equal.
    """
    c, dtype = limb_width(k, M)
    K = k ** c
    limbs, pad = digits_to_limbs(digits, k, c, dtype)
    top = S
    limbs *= M
    high = limbs // K
    limbs -= high * K
    top += int(high[0])
    limbs[:-1] += high[1:]
    del high
    top += _resolve_carries(limbs, K)
    rem = 0
    if d > 1:
        top, rem = divide_limbs(top, limbs, d, K)
    gap = (rem + M * k ** pad) // d
    i = first = len(limbs)  # the high end is `upper` at limb `first`, the low end's below it
    while gap > 1 and i:  # the gap's own limbs (gap < K^2), each carry folded into gap
        i -= 1
        gap, add = divmod(gap, K)
        total = int(limbs[i]) + add
        gap += total >= K
        if add:
            first, upper = i, total % K
    if gap == 1 and i:  # a carry of one passes up a run of K - 1, found by one search
        stops = np.flatnonzero(limbs[:i] != K - 1) if limbs[i - 1] == K - 1 else [i - 1]
        if len(stops):
            first, gap = int(stops[-1]), 0
            upper = int(limbs[first]) + 1
    agree = gap == 0  # no carry reaches the integer part
    shared = count if agree else 0
    if agree and first < -(-count // c):
        pair = limbs_to_digits(np.array([limbs[first], upper], dtype), k, c)
        shared = min(count, first * c + int((pair[:c] != pair[c:]).argmax()))
        agree = shared == count
    return limbs_to_digits(limbs[:-(-shared // c)], k, c)[:shared].tobytes(), agree


def _certified_affine(seq: DigitSequence, coef: Fraction, offset: Fraction,
                      count: int) -> CertifiedDigitResult:
    """Certified digits of frac(coef * alpha + offset) for the stream's alpha.

    With coef = a/b and offset = p/q, an N-digit prefix P pins the result
    between two integers scaled by k^-count, floor((M*P' + S*k^N) /
    (d*k^(N-count))) for P' in {P, P+1}, where M = a*q, S = p*b and d = b*q.
    Both are computed on limbs of base-k digits: a multiply by M whose
    carries one prefix scan resolves, then a long division by the small
    integer d.  The coefficient must be positive; the operations reach a
    negative q by a negative offset or by dropping its sign.  Digits are
    emitted where the two ends agree; N grows by doubling the guard digits up
    to `LOOKAHEAD_CAP`.  Streams with an exact value take the same long
    division of the exact result instead.

    Raises InsufficientDigitsError when a stream without an exact value holds
    fewer than `count` digits; `unresolved` is kept for k-adic boundaries.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if coef <= 0:
        raise ValueError("coefficient must be positive")
    k = seq.alphabet.k

    if seq.exact_value is not None:
        value = coef * seq.exact_value + offset
        out = gen_rational_expansion(value - math.floor(value), seq.alphabet, count)
        return CertifiedDigitResult(out, count, 0, False)

    avail = seq.length_available
    if count > avail:
        raise InsufficientDigitsError(
            f"requested {count} result digits but the stream has only {avail}")
    if not count:  # zero of zero digits are certified, and none need reading
        return CertifiedDigitResult(DigitSequence(seq.alphabet, b""), 0, 0, False)
    M = coef.numerator * offset.denominator
    S = offset.numerator * coef.denominator
    d = coef.denominator * offset.denominator
    max_read = min(count + LOOKAHEAD_CAP, avail)
    guard = 8
    while True:
        n_read = min(count + guard, max_read)
        digits, agree = _enclosure_digits(seq.prefix_array(n_read), k, M, S, d, count)
        if agree or n_read >= max_read:
            return CertifiedDigitResult(DigitSequence(seq.alphabet, digits),
                                        len(digits), n_read - count, not agree)
        guard *= 2


def mul_int_mod1(seq: DigitSequence, m: int, count: int) -> CertifiedDigitResult:
    """Certified digits of frac(m * alpha) for a positive integer m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return _certified_affine(seq, Fraction(m), Fraction(0), count)


def div_int(seq: DigitSequence, b: int, count: int) -> CertifiedDigitResult:
    """Certified digits of alpha / b for a positive integer b."""
    if b < 1:
        raise ValueError("b must be a positive integer")
    return _certified_affine(seq, Fraction(1, b), Fraction(0), count)


def add_rational_mod1(seq: DigitSequence, q, count: int) -> CertifiedDigitResult:
    """Certified digits of frac(q + alpha); q is any nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    return _certified_affine(seq, Fraction(1), q, count)


def mul_rational_mod1(seq: DigitSequence, q, count: int) -> CertifiedDigitResult:
    """Certified digits of frac(|q| * alpha) for nonzero rational q.

    Sign is dropped up front (negation preserves all the block statistics of
    interest), and numerator and denominator act on a single enclosure
    rather than as two lossy digit-stream passes.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    return _certified_affine(seq, abs(q), Fraction(0), count)
