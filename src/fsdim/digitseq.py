"""Base-k digit sequences: generation, prefixes, and digit-file I/O.

A :class:`DigitSequence` is a finite, immutable buffer of digits over the
alphabet {0, ..., k-1}: a generated prefix, the certified output of an
arithmetic operation, or the contents of a digit file.  Sequences whose
digits were computed from a known rational carry the exact value along,
which downstream arithmetic uses as an exact fast path.
"""

from __future__ import annotations

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
# limbs per Python list in long division
_DIVIDE_BLOCK = 4096


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


def digits_to_int(digits, k: int) -> int:
    """Value of big-endian base-k digits.

    A plain Horner loop: it reads the last, partial limb of a digit array,
    a few dozen digits at most.
    """
    v = 0
    for d in digits:
        v = v * k + d
    return v


def limb_width(k: int, m: int = 1):
    """Digits per limb, and the limb dtype, for base-k limbs multiplied by m.

    int64 limbs hold the largest c with m * k^c < 2^62, provided k^c >= m:
    then a limb times m stays below 2^62, and a limb plus the carry-in from
    the limb below stays below 2K, K = k^c.  Multipliers too large for that
    get Python ints in an object array, with the smallest c that has k^c >= m.
    """
    c = 0
    while m * k ** (c + 1) < 2 ** 62:
        c += 1
    if c and k ** c >= m:
        return c, np.int64
    c = 1
    while k ** c < m:
        c += 1
    return c, object


def digits_to_limbs(digits: np.ndarray, k: int, c: int, dtype):
    """Big-endian limbs of c base-k digits each, and the zero digits padded on the right.

    The limbs hold the digits' numeral times k^pad, built in place by Horner's
    rule over the uint8 columns from a cast of the first, so no other digit is
    copied to a wider type.
    """
    n = len(digits)
    full = n // c
    limbs = np.empty(-(-n // c), dtype)
    head = limbs[:full]
    body = digits[:full * c].reshape(full, c)
    head[:] = body[:, 0]
    for j in range(1, c):
        head *= k
        head += body[:, j]
    pad = len(limbs) * c - n
    if pad:
        limbs[-1] = digits_to_int(bytes(digits[full * c:]), k) * k ** pad
    return limbs, pad


def limbs_to_digits(limbs: np.ndarray, k: int, c: int) -> np.ndarray:
    """The c base-k digits of each limb, big-endian, as one uint8 array."""
    out = np.empty((len(limbs), c), np.uint8)
    rest = np.array(limbs)
    for j in range(c - 1, -1, -1):
        out[:, j] = rest % k
        rest //= k
    return out.reshape(-1)


def divide_limbs(top: int, limbs: np.ndarray, d: int, K: int):
    """Divide top * K^L + limbs by d in place, by schoolbook long division.

    The limbs become the quotient's L limbs, each below K since the running
    remainder stays below d; returns the quotient's part above them and the
    remainder.  The limbs pass through Python ints a block at a time, so the
    copy stays small.
    """
    qtop, rem = divmod(top, d)
    for start in range(0, len(limbs), _DIVIDE_BLOCK):
        block = limbs[start:start + _DIVIDE_BLOCK].tolist()
        for i, x in enumerate(block):
            block[i], rem = divmod(rem * K + x, d)
        limbs[start:start + _DIVIDE_BLOCK] = block
    return qtop, rem


def rational_digits(num: int, den: int, k: int, count: int) -> bytes:
    """The base-k digits of floor(num * k^count / den) for 0 <= num < den.

    These are the first `count` digits of num/den, terminating expansion
    preferred, by long division one limb of digits at a time.
    """
    c, dtype = limb_width(k)
    quotient = np.zeros(-(-count // c), dtype)
    divide_limbs(num, quotient, den, k ** c)
    return limbs_to_digits(quotient, k, c)[:count].tobytes()


class DigitSequence:
    """A finite, immutable buffer of base-k digits.

    The digits are copied into `bytes` once, on construction; an array of
    another dtype than uint8 is read by its values.  `exact_value` is the rational
    whose terminating-preferred expansion the digits begin, set only where they were
    computed from it (:func:`gen_rational_expansion`, exact arithmetic), else None.
    """

    def __init__(self, alphabet: Alphabet, digits):
        self.alphabet = alphabet
        if isinstance(digits, np.ndarray) and digits.dtype != np.uint8:
            digits = digits.tolist()  # bytes() of a wider array would copy its memory
        self._buf = bytes(digits)
        self.exact_value = None
        bad = self._buf.translate(None, _DIGIT_VALUES[:alphabet.k])
        if bad:
            raise ValueError(f"digit {bad[0]} out of range for base {alphabet.k}")

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
    (first = 0 for shortlex, k^(w-1) for integers) are written into the output
    one digit column at a time, stopping at the word that reaches `count`.
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
        for j in range(w - 1, -1, -1):
            # digit j of every word; the slice drops the last word's digits past `count`
            column = out[pos + j:end:w]
            column[:] = (words % k)[:len(column)]
            words //= k
        pos, w = end, w + 1
    return DigitSequence(alphabet, out)


def gen_rational_expansion(q: Fraction, alphabet: Alphabet, count: int) -> DigitSequence:
    """First `count` digits of the base-k expansion of a rational q in [0, 1).

    k-adic rationals get the terminating expansion (trailing zeros): the
    digits are those of floor(q * k^count), found by long division.  The
    exact value rides along on the returned sequence.
    """
    q = Fraction(q)
    if not 0 <= q < 1:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    seq = DigitSequence(alphabet, rational_digits(q.numerator, q.denominator, alphabet.k, count))
    seq.exact_value = q
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
