"""Base-k digit sequences: generation, indexing, and digit-file I/O.

A :class:`DigitSequence` is an immutable-once-read stream of digits over the
alphabet {0, ..., k-1}.  Sequences may be materialized buffers, pulled lazily
from a generator (buffered so positional reads replay deterministically), or
loaded from digit files.  Sequences produced from a known rational carry the
exact value along, which downstream arithmetic uses as an exact fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

_DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_BINARY_MAGIC = b"FSD1"


class DigitFileError(ValueError):
    """Malformed digit file: bad header, out-of-range digit, or truncation."""


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

    def digit_char(self, d: int) -> str:
        return _DIGIT_CHARS[d]

    def char_digit(self, ch: str) -> int:
        d = _DIGIT_CHARS.find(ch.upper())
        if d < 0 or d >= self.k:
            raise DigitFileError(f"character {ch!r} is not a base-{self.k} digit")
        return d


def digits_to_int(digits, k: int) -> int:
    """Value of big-endian base-k digits, by divide and conquer.

    Avoids per-digit Python loops for long prefixes; the split keeps the
    multiplications balanced so conversion stays subquadratic overall.
    """
    n = len(digits)
    if n <= 64:
        v = 0
        for d in digits:
            v = v * k + d
        return v
    mid = n // 2
    return digits_to_int(digits[:mid], k) * pow(k, n - mid) + digits_to_int(digits[mid:], k)


def int_to_digits(v: int, k: int, width: int) -> bytearray:
    """Big-endian base-k digits of v, zero-padded on the left to `width`.

    Requires 0 <= v < k**width.
    """
    if v < 0:
        raise ValueError("negative value")
    if width <= 64:
        out = bytearray(width)
        for i in range(width - 1, -1, -1):
            v, out[i] = divmod(v, k)
        if v:
            raise ValueError("value does not fit in width")
        return out
    mid = width // 2
    hi, lo = divmod(v, pow(k, width - mid))
    return int_to_digits(hi, k, mid) + int_to_digits(lo, k, width - mid)


class DigitSequence:
    """A finite or lazily-extended stream of base-k digits.

    Reads are positional and replayable: the same index always returns the
    same digit, also for generator-backed sequences (pulled digits are
    buffered).  `exact_value` is set when the stream is known to be the
    canonical (terminating-preferred) expansion of that rational.
    """

    def __init__(self, alphabet: Alphabet, digits=b"", generator: Optional[Iterator[int]] = None,
                 exact_value: Optional[Fraction] = None, limit: Optional[int] = None):
        self.alphabet = alphabet
        self._buf = bytearray(digits)
        self._gen = generator
        self._limit = limit if limit is not None else (None if generator is not None else len(self._buf))
        if exact_value is not None and not 0 <= exact_value < 1:
            raise ValueError("exact_value must lie in [0, 1)")
        self.exact_value = exact_value
        for d in self._buf:
            if d >= alphabet.k:
                raise ValueError(f"digit {d} out of range for base {alphabet.k}")

    @property
    def length_available(self):
        """Digits producible on demand; math.inf for unbounded generators."""
        if self._limit is None:
            return math.inf
        return self._limit

    def _ensure(self, n: int):
        if n <= len(self._buf):
            return
        if self._limit is not None and n > self._limit:
            raise InsufficientDigitsError(
                f"requested {n} digits but only {self._limit} are available")
        k = self.alphabet.k
        while len(self._buf) < n:
            try:
                d = next(self._gen)
            except StopIteration:
                self._limit = len(self._buf)
                self._gen = None
                raise InsufficientDigitsError(
                    f"requested {n} digits but generator stopped at {len(self._buf)}")
            if not 0 <= d < k:
                raise ValueError(f"generator produced digit {d} out of range for base {k}")
            self._buf.append(d)

    def digit(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative digit index")
        self._ensure(i + 1)
        return self._buf[i]

    def __getitem__(self, i):
        if isinstance(i, slice):
            stop = i.stop
            if stop is None:
                raise IndexError("open-ended slices are not supported")
            self._ensure(stop)
            return bytes(self._buf[i])
        return self.digit(i)

    def prefix(self, n: int) -> bytes:
        """First n digits as raw digit values."""
        self._ensure(n)
        return bytes(self._buf[:n])

    def prefix_int(self, n: int) -> int:
        """Integer value of the first n digits read as a base-k numeral."""
        return digits_to_int(self.prefix(n), self.alphabet.k)

    def prefix_array(self, n: int) -> np.ndarray:
        """First n digits as a uint8 array over one fresh copy of the buffer."""
        self._ensure(n)
        return np.frombuffer(self._buf[:n], dtype=np.uint8)

    def prefix_str(self, n: int) -> str:
        return "".join(_DIGIT_CHARS[d] for d in self.prefix(n))

    def materialize(self, n: int) -> "DigitSequence":
        """A value-like copy of the first n digits (exact value preserved)."""
        return DigitSequence(self.alphabet, self.prefix(n), exact_value=self.exact_value)


# RationalNumber in the public API is fractions.Fraction: arbitrary-precision
# integers, positive denominator, lowest terms.
RationalNumber = Fraction


def _champernowne_shortlex(k: int) -> Iterator[int]:
    # all strings over the alphabet in shortlex order: 0,1,...,k-1,00,01,...
    length = 1
    while True:
        for v in range(k ** length):
            yield from int_to_digits(v, k, length)
        length += 1


def _champernowne_integers(k: int) -> Iterator[int]:
    # base-k numerals of 1, 2, 3, ... concatenated
    n = 1
    while True:
        width = 1
        while k ** width <= n:
            width += 1
        yield from int_to_digits(n, k, width)
        n += 1


def gen_champernowne(alphabet: Alphabet, count: int, order: str = "shortlex") -> DigitSequence:
    """First `count` digits of the base-k Champernowne sequence.

    order="shortlex" concatenates every string over the alphabet in standard
    (shortlex) order, which for base 2 starts 0 1 00 01 10 11 000 ...;
    order="integers" concatenates the base-k numerals of 1, 2, 3, ...
    Both variants are normal in base k; shortlex is the default.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if order == "shortlex":
        gen = _champernowne_shortlex(alphabet.k)
    elif order == "integers":
        gen = _champernowne_integers(alphabet.k)
    else:
        raise ValueError(f"unknown order {order!r}")
    buf = bytearray()
    while len(buf) < count:
        buf.append(next(gen))
    return DigitSequence(alphabet, buf)


def gen_rational_expansion(q: Fraction, alphabet: Alphabet, count: int) -> DigitSequence:
    """First `count` digits of the base-k expansion of a rational q in [0, 1).

    k-adic rationals get the terminating expansion (trailing zeros), so the
    digits are floor(q * k^count) written as a width-`count` numeral.  The
    exact value rides along on the returned sequence.
    """
    q = Fraction(q)
    if not 0 <= q < 1:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    k = alphabet.k
    prefix_value = (q.numerator * k ** count) // q.denominator
    return DigitSequence(alphabet, int_to_digits(prefix_value, k, count), exact_value=q)


def gen_dilution(source: DigitSequence, count: int) -> DigitSequence:
    """Interleave a sequence with zeros: T[2i] = S[i], T[2i+1] = 0."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    need = (count + 1) // 2
    if need > source.length_available:
        raise InsufficientDigitsError(
            f"dilution of length {count} needs {need} source digits, "
            f"only {source.length_available} available")
    src = source.prefix(need)
    buf = bytearray(count)
    buf[0::2] = src[: (count + 1) // 2]
    return DigitSequence(source.alphabet, buf)


def select_progression(source: DigitSequence, offset: int, step: int, count: int) -> DigitSequence:
    """Subsequence at positions offset, offset+step, offset+2*step, ..."""
    if step < 1 or offset < 0 or count < 0:
        raise ValueError("offset >= 0, step >= 1, count >= 0 required")
    need = offset + (count - 1) * step + 1 if count else 0
    src = source.prefix(need)
    return DigitSequence(source.alphabet, src[offset::step][:count])


def write_digit_file(seq: DigitSequence, count: int, path, binary: bool = False) -> None:
    """Write the first `count` digits to `path`.

    ASCII mode: header line ``k=<base>``, then digit characters 0-9A-Z
    wrapped at 80 columns (readers ignore whitespace).  Binary mode: magic
    ``FSD1``, one base byte, then one byte per digit.
    """
    digits = seq.prefix(count)
    if binary:
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(bytes([seq.alphabet.k]))
            fh.write(digits)
        return
    chars = "".join(_DIGIT_CHARS[d] for d in digits)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"k={seq.alphabet.k}\n")
        for start in range(0, len(chars), 80):
            fh.write(chars[start:start + 80])
            fh.write("\n")


def read_digit_file(path) -> DigitSequence:
    """Read a digit file written by :func:`write_digit_file` (either mode)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _BINARY_MAGIC:
            base_byte = fh.read(1)
            if len(base_byte) != 1:
                raise DigitFileError("truncated binary digit file: missing base byte")
            k = base_byte[0]
            if not 2 <= k <= 36:
                raise DigitFileError(f"binary digit file declares unsupported base {k}")
            alphabet = Alphabet(k)
            payload = fh.read()
            for d in payload:
                if d >= k:
                    raise DigitFileError(f"binary digit file contains digit {d} >= base {k}")
            return DigitSequence(alphabet, payload)
        rest = head + fh.read()
    try:
        text = rest.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DigitFileError("digit file is neither FSD1 binary nor ASCII") from exc
    newline = text.find("\n")
    header = text[:newline] if newline >= 0 else text
    body = text[newline + 1:] if newline >= 0 else ""
    header = header.strip()
    if not header.startswith("k="):
        raise DigitFileError(f"malformed header {header!r}, expected 'k=<base>'")
    try:
        k = int(header[2:])
    except ValueError as exc:
        raise DigitFileError(f"malformed base in header {header!r}") from exc
    if not 2 <= k <= 36:
        raise DigitFileError(f"unsupported base {k} in digit file")
    alphabet = Alphabet(k)
    buf = bytearray()
    for ch in body:
        if ch.isspace():
            continue
        buf.append(alphabet.char_digit(ch))
    return DigitSequence(alphabet, buf)
