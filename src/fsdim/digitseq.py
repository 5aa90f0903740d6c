"""Base-k digit sequences: generation, prefixes, and digit-file I/O.

A :class:`DigitSequence` is a finite, immutable buffer of digits over the
alphabet {0, ..., k-1}: a generated prefix, the certified output of an
arithmetic operation, or the contents of a digit file.  Sequences whose
digits were computed from a known rational carry the exact value along,
which downstream arithmetic uses as an exact fast path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_DIGIT_VALUES = bytes(range(len(_DIGIT_CHARS)))
# translate tables: digit value -> character, and character (either case) ->
# digit value; the second is only applied to text already checked for digits
_VALUE_TO_CHAR = bytes.maketrans(_DIGIT_VALUES, _DIGIT_CHARS.encode("ascii"))
_CHAR_TO_VALUE = bytes.maketrans((_DIGIT_CHARS + _DIGIT_CHARS.lower()).encode("ascii"),
                                 _DIGIT_VALUES * 2)
# the ASCII characters str.isspace() accepts, which digit files may contain anywhere
_WHITESPACE = bytes(c for c in range(128) if chr(c).isspace())
_NARROW = [np.uint8] * 9 + [np.uint16] * 8 + [np.uint32] * 16 + [np.int64] * 31 + [object]


class DigitFileError(ValueError):
    """Malformed digit file: bad header, non-ASCII bytes, or a character that is no digit."""


class InsufficientDigitsError(ValueError):
    """A sequence cannot supply the number of digits an operation needs."""


@dataclass(frozen=True)
class Alphabet:
    """Digit alphabet {0, ..., k-1} of a base-k expansion.

    Bases are capped at 36 so digits always have a single ASCII character
    0-9A-Z in text files.
    """

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or not 2 <= self.k <= 36:
            raise ValueError(f"base must be an integer in [2, 36], got {self.k!r}")


def limb_width(k: int, m: int = 1):
    """Digits per limb, and the limb dtype, for base-k limbs multiplied by m.

    int64 limbs hold the largest multiple of 4, c, with m * k^c < 2^62 and
    k^c >= m: then a limb times m stays below 2^62, a limb plus the carry-in
    from the limb below stays below 2K, K = k^c, and digits enter the limbs
    four per word (:func:`digits_to_limbs`).  Where that multiple of 4 keeps
    under three quarters of the digits of the largest such c (base 36 keeps 11
    digits, not 8), the limbs take that c instead.  Multipliers too large for
    either get Python ints in an object array, with the smallest c that has
    k^c >= m.
    """
    c = 0
    while m * k ** (c + 1) < 2 ** 62:
        c += 1
    c4 = c - c % 4
    if c4 and k ** c4 >= m and 4 * c4 >= 3 * c:
        return c4, np.int64
    if c and k ** c >= m:
        return c, np.int64
    c = 1
    while k ** c < m:
        c += 1
    return c, object


def digits_to_limbs(digits: np.ndarray, k: int, c: int, dtype):
    """Big-endian limbs of c base-k digits each, and the zero digits padded on the right.

    The limbs hold the digits' numeral times k^pad.  When c is a multiple of 4
    and the limbs are machine integers, digits enter them four per word
    (SWAR): widened to little-endian uint16, each uint64 word of four digits
    d0 d1 d2 d3 becomes the pairs k*d0 + d1 and k*d2 + d3 by one multiply,
    shift and mask, then their value (k*d0 + d1)*k^2 + k*d2 + d3 < 36^4 by one
    multiply and shift, and Horner's rule over the c/4 word columns, base k^4,
    builds the limbs.  Other widths take Horner's rule over the uint8 columns,
    from a cast of the first, so no other digit is copied to a wider type.  A
    partial last limb, under c digits, is built by a plain loop.  Python-int
    limbs (dtype object) of up to 640 digits, the least limit Python may set
    on int() from text, are each read by one int() from their digit characters.
    """
    n = len(digits)
    if dtype == object and c <= sys.int_info.str_digits_check_threshold:
        pad = -n % c
        text = (digits.tobytes().translate(_VALUE_TO_CHAR) + b"0" * pad).decode("ascii")
        return np.array([int(text[i:i + c], k) for i in range(0, n + pad, c)], dtype=object), pad
    full = n // c
    limbs = np.empty(-(-n // c), dtype)
    head = limbs[:full]
    body, base, width = digits[:full * c], k, c
    if c % 4 == 0 and dtype != object:
        # uint64 scalars throughout: NumPy 1.x would promote uint64 and a Python int to float64
        w = body.astype("<u2").view("<u8")
        w *= np.uint64(k << 16 | 1)
        w >>= np.uint64(16)
        w &= np.uint64(0x0000FFFF0000FFFF)
        w *= np.uint64(k * k << 32 | 1)
        w >>= np.uint64(32)
        body, base, width = w.view("<i8"), k ** 4, c // 4
    body = body.reshape(full, width)
    head[:] = body[:, 0]
    for j in range(1, width):
        head *= base
        head += body[:, j]
    pad = len(limbs) * c - n
    if pad:
        last = 0
        for d in digits[full * c:].tolist():
            last = last * k + d
        limbs[-1] = last * k ** pad
    return limbs, pad


def limbs_to_digits(limbs: np.ndarray, k: int, c: int) -> np.ndarray:
    """The c base-k digits of each limb, big-endian, as one uint8 array.

    By c - 1 halving splits per limb: w digits split into the high ceil(w/2)
    and low floor(w/2) by one floor division by k^floor(w/2).  A wider half
    goes into _NARROW[bits of k^width - 1], the narrowest of uint8, uint16,
    uint32, int64 and object holding it, so the scalars it meets fit its dtype.
    Int64 or object parts of even width split into interleaved halves, one
    array of the same digits in order, so later splits are one pass for both.
    """
    while c % 2 == 0 and limbs.dtype.kind in "iO":
        c //= 2
        p = k ** c
        halves = np.empty((len(limbs), 2), _NARROW[min((p - 1).bit_length(), 64)])
        halves[:, 0] = high = limbs // p
        halves[:, 1] = limbs - high * p
        limbs = halves.reshape(-1)
    out = np.empty((len(limbs), c), np.uint8)
    parts = [(limbs, 0, c)]
    while parts:
        x, j, w = parts.pop()
        if w == 1:
            out[:, j] = x
            continue
        low = w // 2
        high = x // k ** low
        for part, at, width in ((x - high * k ** low, j + w - low, low), (high, j, w - low)):
            narrow = _NARROW[min((k ** width - 1).bit_length(), 64)]
            parts.append((part if width == 1 else part.astype(narrow, copy=False), at, width))
    return out.reshape(-1)


def _affine_scan(r: np.ndarray, A: int, d: int):
    """Set r[..., i] = (A*r[..., i-1] + r[..., i]) mod d along the last axis, in place,
    from entries below d, by the doubling passes of :func:`divide_limbs`."""
    bound, s = d, 1  # every entry is below bound
    while s < r.shape[-1] and A:  # once A = 0, terms s or more places back vanish mod d
        if (A + 1) * bound > 2 ** 63:
            r -= r // d * d
            bound = d
        r[..., s:] += A * r[..., :-s]
        bound, s, A = (A + 1) * bound, 2 * s, A * A % d
    r -= r // d * d


def divide_limbs(top: int, limbs: np.ndarray, d: int, K: int):
    """Divide top * K^L + limbs by d in place, by a two-level prefix scan of the remainders.

    The L limbs x_i, each below K, become the quotient's L limbs; returns the
    quotient's part above them and the remainder.  The remainders
    r_i = (K*r_(i-1) + x_i) mod d, with r_(-1) = top mod d, are an affine
    recurrence mod d, scanned in two levels (Blelloch): r_(-1) and the x_i
    mod d in blocks of 64, all at once by 6 doubling passes (Ladner and
    Fischer; stride s adds K^s mod d times the entry s back), with a row
    (K mod d, 0, ...) that scans to the weights K^(j+1) mod d; one scan over
    the block ends (multiplier K^64 mod d) makes each the carry c into the
    next block; one pass adds K^(j+1)*c to its entry j.  Quotient limb i is
    the exact r_(i-1)*(K // d) + (r_(i-1)*(K mod d) + x_i - r_i) / d.
    On int64 limbs with d < 2^31, a pass takes entries below b below
    (K^s mod d + 1)*b, so they are reduced mod d (as x - d*(x // d): int64
    `%` is slower) only before a pass could reach 2^63; the carry pass stays
    below d^2 + d < 2^63, r_(i-1)*(K mod d) + x_i below d^2 + K < 2^63, and
    r_(i-1)*(K // d) below K.  Object limbs (multipliers past the int64 limb
    width) or a larger d take one Python divmod per limb.
    """
    qtop, rem = divmod(top, d)
    if limbs.dtype == object or d >= 2 ** 31:
        quotient = limbs.tolist()
        for i, x in enumerate(quotient):
            quotient[i], rem = divmod(rem * K + x, d)
        limbs[:] = quotient
        return qtop, rem
    Kq, Kr = divmod(K, d)
    n = len(limbs) + 1  # r_(-1), then one remainder per limb
    width, blocks = min(n, 64), -(-n // 64)
    rows = np.zeros((blocks + 1, width), np.int64)
    r = rows.reshape(-1)
    r[0], r[1:n], rows[-1, 0] = rem, limbs - limbs // d * d, Kr
    _affine_scan(rows, Kr, d)
    ends = rows[:blocks - 1, -1].copy()  # each block's end: the carry into the next
    _affine_scan(ends, int(rows[-1, -1]), d)
    carried = rows[1:blocks]
    carried += rows[-1] * ends[:, None]
    carried -= carried // d * d
    limbs[:] = r[:n - 1] * Kq + (r[:n - 1] * Kr + limbs - r[1:n]) // d
    return qtop, int(r[n - 1])


class DigitSequence:
    """A finite, immutable buffer of base-k digits.

    The digits are copied into `bytes` once, on construction; an array of
    another dtype than uint8 is read by its values.
    """

    def __init__(self, alphabet: Alphabet, digits):
        self.alphabet = alphabet
        if isinstance(digits, np.ndarray) and digits.dtype != np.uint8:
            digits = digits.tolist()  # bytes() of a wider array would copy its memory
        self._buf = bytes(digits)
        self._exact_value = None
        if self._buf and np.frombuffer(self._buf, np.uint8).max() >= alphabet.k:
            bad = self._buf.translate(None, _DIGIT_VALUES[:alphabet.k])
            raise ValueError(f"digit {bad[0]} out of range for base {alphabet.k}")

    @property
    def exact_value(self):
        """The rational whose terminating-preferred expansion the digits begin, or None.

        Read-only: only :func:`gen_rational_expansion`, which computes the
        digits from the value, sets it.
        """
        return self._exact_value

    @property
    def length_available(self) -> int:
        """Number of digits held."""
        return len(self._buf)

    def _ensure(self, n: int):
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n > len(self._buf):
            raise InsufficientDigitsError(
                f"requested {n} digits but only {len(self._buf)} are available")

    def prefix(self, n: int) -> bytes:
        """First n digits as raw digit values."""
        self._ensure(n)
        return self._buf[:n]

    def prefix_array(self, n: int) -> np.ndarray:
        """First n digits as a read-only uint8 view of the buffer."""
        self._ensure(n)
        return np.frombuffer(self._buf, dtype=np.uint8, count=n)

    def prefix_str(self, n: int) -> str:
        return self.prefix(n).translate(_VALUE_TO_CHAR).decode("ascii")


def gen_champernowne(alphabet: Alphabet, count: int, order: str = "shortlex") -> DigitSequence:
    """First `count` digits of the base-k Champernowne sequence.

    order="shortlex" concatenates every string over the alphabet in standard
    (shortlex) order, which for base 2 starts 0 1 00 01 10 11 000 ...;
    order="integers" concatenates the base-k numerals of 1, 2, 3, ...
    Both variants are normal in base k; shortlex is the default.

    Each word width w is one numpy pass: the words first, first+1, ... < k^w
    (first = 0 for shortlex, k^(w-1) for integers), up to the word that
    reaches `count`, are w-digit limbs whose digits fill the output.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if order not in ("shortlex", "integers"):
        raise ValueError(f"unknown order {order!r}")
    k = alphabet.k
    out = np.empty(count, np.uint8)
    pos, w = 0, 1
    while pos < count:
        first = k ** (w - 1) if order == "integers" else 0
        words = np.arange(first, min(k ** w, first + -(-(count - pos) // w)), dtype=np.int64)
        end = pos + len(words) * w
        out[pos:end] = limbs_to_digits(words, k, w)[:count - pos]
        pos, w = end, w + 1
    return DigitSequence(alphabet, out)


def gen_rational_expansion(q: Fraction, alphabet: Alphabet, count: int) -> DigitSequence:
    """First `count` digits of the base-k expansion of a rational q in [0, 1).

    k-adic rationals get the terminating expansion (trailing zeros): the
    digits are those of floor(q * k^count), found by long division of zero
    limbs, one limb of digits each.  The exact value rides along on the
    returned sequence.
    """
    q = Fraction(q)
    if not 0 <= q < 1:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    k = alphabet.k
    c, dtype = limb_width(k)
    quotient = np.zeros(-(-count // c), dtype)
    divide_limbs(q.numerator, quotient, q.denominator, k ** c)
    seq = DigitSequence(alphabet, limbs_to_digits(quotient, k, c)[:count])
    seq._exact_value = q
    return seq


def gen_dilution(source: DigitSequence, count: int) -> DigitSequence:
    """Interleave a sequence with zeros: T[2i] = S[i], T[2i+1] = 0."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    need = (count + 1) // 2
    if need > source.length_available:
        raise InsufficientDigitsError(
            f"dilution of length {count} needs {need} source digits, "
            f"only {source.length_available} available")
    buf = bytearray(count)
    buf[0::2] = source.prefix(need)
    return DigitSequence(source.alphabet, buf)


def select_progression(source: DigitSequence, offset: int, step: int, count: int) -> DigitSequence:
    """Subsequence at positions offset, offset+step, offset+2*step, ..."""
    if step < 1 or offset < 0 or count < 0:
        raise ValueError("offset >= 0, step >= 1, count >= 0 required")
    need = offset + (count - 1) * step + 1 if count else 0
    src = source.prefix(need)
    return DigitSequence(source.alphabet, src[offset::step][:count])


def write_digit_file(seq: DigitSequence, count: int, path) -> None:
    """Write the first `count` digits to `path`: a header line ``k=<base>``,
    then digit characters 0-9A-Z wrapped at 80 columns (readers ignore
    whitespace)."""
    chars = seq.prefix_str(count)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"k={seq.alphabet.k}\n")
        for start in range(0, len(chars), 80):
            fh.write(chars[start:start + 80])
            fh.write("\n")


def read_digit_file(path) -> DigitSequence:
    """Read a digit file written by :func:`write_digit_file`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        raise DigitFileError("digit file is not ASCII")
    header, _, body = raw.partition(b"\n")
    header = header.decode("ascii").strip()
    if not header.startswith("k="):
        raise DigitFileError(f"malformed header {header!r}, expected 'k=<base>'")
    try:
        k = int(header[2:])
    except ValueError as exc:
        raise DigitFileError(f"malformed base in header {header!r}") from exc
    if not 2 <= k <= 36:
        raise DigitFileError(f"unsupported base {k} in digit file")
    chars = body.translate(None, _WHITESPACE)
    valid = _DIGIT_CHARS[:k].encode("ascii")
    bad = chars.translate(None, valid + valid.lower())
    if bad:
        raise DigitFileError(f"character {chr(bad[0])!r} is not a base-{k} digit")
    return DigitSequence(Alphabet(k), chars.translate(_CHAR_TO_VALUE))
