import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fsdim import (Alphabet, DigitFileError, DigitSequence, InsufficientDigitsError,
                   gen_champernowne, gen_dilution, gen_rational_expansion,
                   read_digit_file, select_progression, write_digit_file)
from fsdim.digitseq import digits_to_limbs, limb_width

from oracles import (DIGIT_CHARS, _numeral, _width_digits, champernowne_digits,
                     long_division_digits, parse_digit_file)

FILE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])
WHITESPACE = ["", "", "", " ", "\t", "\r", "\n", "\r\n", " \t\n"]


def test_alphabet_bounds():
    Alphabet(2)
    Alphabet(36)
    with pytest.raises(ValueError):
        Alphabet(1)
    with pytest.raises(ValueError):
        Alphabet(37)


def test_digit_int_conversions_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(2, 36)
        width = rng.randint(1, 300)
        v = rng.randrange(k ** width)
        # limbs of c digits each, the last one padded with zero digits
        c, dtype = limb_width(k)
        digits = np.frombuffer(_width_digits(v, k, width), np.uint8)
        limbs, pad = digits_to_limbs(digits, k, c, dtype)
        assert pad == -width % c
        assert _numeral(limbs.tolist(), k ** c) == v * k ** pad


def test_champernowne_binary_prefix():
    seq = gen_champernowne(Alphabet(2), 25)
    assert seq.prefix_str(25) == "0100011011000001010011100"


def test_champernowne_integer_variant():
    assert gen_champernowne(Alphabet(10), 11, order="integers").prefix_str(11) == "12345678910"
    assert list(gen_champernowne(Alphabet(3), 8, order="integers").prefix(8)) == [1, 2, 1, 0, 1, 1, 1, 2]


ORDERS = ("shortlex", "integers")


def width_boundaries(k: int, order: str, limit: int):
    """Digit counts at which each word width of the sequence ends, up to `limit`."""
    bounds, total = [], 0
    for w in itertools.count(1):
        total += w * (k ** w if order == "shortlex" else (k - 1) * k ** (w - 1))
        if total > limit:
            return bounds
        bounds.append(total)


@pytest.mark.parametrize("order", ORDERS)
def test_champernowne_matches_oracle_at_every_width_boundary(order):
    # every base, counts 0 and 1 and both sides of each width boundary below 30 000
    for k in range(2, 37):
        want = champernowne_digits(k, 30_001, order)
        counts = {0, 1}
        for b in width_boundaries(k, order, 30_000):
            counts |= {b - 1, b, b + 1}
        for count in sorted(counts):
            got = gen_champernowne(Alphabet(k), count, order)
            assert got.length_available == count
            assert got.prefix(count) == want[:count], (k, order, count)


@st.composite
def champernowne_cases(draw):
    k = draw(st.integers(2, 36))
    order = draw(st.sampled_from(ORDERS))
    if draw(st.booleans()):
        count = draw(st.sampled_from(width_boundaries(k, order, 150_000))) + draw(st.integers(-1, 1))
    else:
        count = draw(st.integers(0, 3000))
    return k, order, count


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(champernowne_cases())
def test_champernowne_differential(case):
    k, order, count = case
    assert gen_champernowne(Alphabet(k), count, order).prefix(count) == \
        champernowne_digits(k, count, order)


@pytest.mark.parametrize("order", ORDERS)
def test_champernowne_base2_million_digits(order):
    count = 10 ** 6
    assert gen_champernowne(Alphabet(2), count, order).prefix(count) == \
        champernowne_digits(2, count, order)


def test_champernowne_rejects_bad_arguments():
    with pytest.raises(ValueError, match="count must be nonnegative"):
        gen_champernowne(Alphabet(2), -1)
    with pytest.raises(ValueError, match="unknown order"):
        gen_champernowne(Alphabet(2), 0, order="lex")


def test_champernowne_deterministic_replay():
    a = gen_champernowne(Alphabet(2), 5000)
    b = gen_champernowne(Alphabet(2), 5000)
    assert a.prefix(5000) == b.prefix(5000)
    # reading twice from the same object gives the same digits
    assert a.prefix(1234) == a.prefix(5000)[:1234]


def test_rational_expansion_examples():
    assert list(gen_rational_expansion(Fraction(1, 3), Alphabet(10), 5).prefix(5)) == [3] * 5
    assert list(gen_rational_expansion(Fraction(1, 2), Alphabet(2), 4).prefix(4)) == [1, 0, 0, 0]
    assert list(gen_rational_expansion(Fraction(22, 101), Alphabet(10), 8).prefix(8)) == [2, 1, 7, 8, 2, 1, 7, 8]


def test_rational_expansion_matches_long_division():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.choice([2, 3, 10, 16])
        den = rng.randint(1, 5000)
        num = rng.randrange(den)
        q = Fraction(num, den)
        count = rng.randint(1, 120)
        assert gen_rational_expansion(q, Alphabet(k), count).prefix(count) == \
            long_division_digits(q, k, count)


def test_rational_expansion_reconstructs_value():
    rng = random.Random(12)
    for _ in range(30):
        k = rng.choice([2, 10])
        den = rng.randint(1, 4000)
        q = Fraction(rng.randrange(den), den)
        n = rng.randint(1, 80)
        digits = gen_rational_expansion(q, Alphabet(k), n).prefix(n)
        partial = sum(Fraction(d, k ** (i + 1)) for i, d in enumerate(digits))
        assert partial <= q < partial + Fraction(1, k ** n)


def test_rational_expansion_rejects_out_of_range():
    with pytest.raises(ValueError):
        gen_rational_expansion(Fraction(3, 2), Alphabet(10), 4)
    with pytest.raises(ValueError):
        gen_rational_expansion(Fraction(-1, 2), Alphabet(10), 4)


def test_dilution_examples():
    src = DigitSequence(Alphabet(2), bytes([1, 1, 0]))
    assert list(gen_dilution(src, 6).prefix(6)) == [1, 0, 1, 0, 0, 0]
    zeros = DigitSequence(Alphabet(2), bytes(4))
    assert list(gen_dilution(zeros, 4).prefix(4)) == [0, 0, 0, 0]
    champ = gen_champernowne(Alphabet(2), 5)
    assert list(gen_dilution(champ, 10).prefix(10)) == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]


def test_dilution_halves_density():
    src = gen_champernowne(Alphabet(2), 600)
    for n in (10, 100, 300):
        diluted = gen_dilution(src, 2 * n)
        assert sum(diluted.prefix(2 * n)) == sum(src.prefix(n))


def test_dilution_insufficient_source():
    src = DigitSequence(Alphabet(2), bytes([1, 0]))
    with pytest.raises(InsufficientDigitsError):
        gen_dilution(src, 10)


def test_select_progression():
    seq = DigitSequence(Alphabet(10), bytes(range(10)))
    assert list(select_progression(seq, 0, 2, 5).prefix(5)) == [0, 2, 4, 6, 8]
    assert list(select_progression(seq, 1, 3, 3).prefix(3)) == [1, 4, 7]


@pytest.mark.parametrize("call,message", [
    (lambda: gen_rational_expansion(Fraction(1, 3), Alphabet(10), -1),
     "count must be nonnegative"),
    (lambda: gen_dilution(gen_champernowne(Alphabet(2), 4), -1), "count must be nonnegative"),
    (lambda: select_progression(gen_champernowne(Alphabet(2), 8), 0, 0, 2),
     "offset >= 0, step >= 1, count >= 0 required"),
    (lambda: select_progression(gen_champernowne(Alphabet(2), 8), -1, 2, 2),
     "offset >= 0, step >= 1, count >= 0 required"),
    (lambda: select_progression(gen_champernowne(Alphabet(2), 8), 0, 2, -1),
     "offset >= 0, step >= 1, count >= 0 required"),
], ids=["rational-count", "dilution-count", "progression-step",
        "progression-offset", "progression-count"])
def test_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_sequence_is_finite_immutable_buffer():
    source = bytearray([1, 0, 1, 1, 0])
    seq = DigitSequence(Alphabet(2), source)
    source[0] = 0
    assert type(seq.length_available) is int and seq.length_available == 5
    assert seq.prefix(5) == bytes([1, 0, 1, 1, 0])
    with pytest.raises(InsufficientDigitsError):
        seq.prefix(seq.length_available + 1)
    view = seq.prefix_array(4)
    assert view.tolist() == [1, 0, 1, 1]
    assert view.flags.writeable is False
    with pytest.raises(ValueError):
        DigitSequence(Alphabet(2), bytes([0, 1, 2]))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint16])
def test_sequence_reads_arrays_by_their_digit_values(dtype):
    # bytes() of a wider array would copy its memory: 1, 2, 3 became 24 digits
    seq = DigitSequence(Alphabet(10), np.array([1, 2, 3], dtype=dtype))
    assert seq.prefix_str(seq.length_available) == "123"
    for bad in ([1, 12], [9, 99]):
        with pytest.raises(ValueError, match="out of range for base 10"):
            DigitSequence(Alphabet(10), np.array(bad, dtype=dtype))
    if np.iinfo(dtype).min < 0:
        with pytest.raises(ValueError):
            DigitSequence(Alphabet(10), np.array([1, -1], dtype=dtype))


def test_negative_prefix_lengths_are_refused(tmp_path):
    seq = DigitSequence(Alphabet(10), bytes(range(10)))
    for read in (seq.prefix, seq.prefix_array, seq.prefix_str):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            read(-1)
    path = tmp_path / "digits.txt"
    with pytest.raises(ValueError, match="n must be nonnegative"):
        write_digit_file(seq, -2, path)
    assert not path.exists()
    assert seq.prefix(0) == b"" and seq.prefix_array(0).tolist() == []


def test_digit_file_roundtrip(tmp_path):
    seq = gen_champernowne(Alphabet(2), 1000)
    path = tmp_path / "seq.txt"
    write_digit_file(seq, 1000, path)
    back = read_digit_file(path)
    assert back.alphabet.k == 2
    assert back.prefix(1000) == seq.prefix(1000)


def test_ascii_digit_file_format(tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("k=2\n0100\n")
    assert list(read_digit_file(path).prefix(4)) == [0, 1, 0, 0]
    # case-insensitive letters, whitespace ignored
    path.write_text("k=16\n a B\nf\n")
    assert list(read_digit_file(path).prefix(3)) == [10, 11, 15]


def test_digit_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("base=2\n0100\n")
    with pytest.raises(DigitFileError):
        read_digit_file(path)
    path.write_text("k=5\n7\n")
    with pytest.raises(DigitFileError):
        read_digit_file(path)


@pytest.mark.parametrize("k", [2, 10, 36])
def test_binary_digit_files_are_refused(tmp_path, k):
    # magic "FSD1", a base byte and one byte per digit: no "k=<base>" header line
    path = tmp_path / "seq.bin"
    path.write_bytes(b"FSD1" + bytes([k]) + bytes(range(k)))
    with pytest.raises(DigitFileError, match="^malformed header 'FSD1"):
        read_digit_file(path)
    assert_rejected_like_oracle(path)


@pytest.mark.parametrize("raw,message", [
    (b"k=x\n01\n", "malformed base in header 'k=x'"),
    (b"k=1\n0\n", "unsupported base 1 in digit file"),
    (b"k=37\n0\n", "unsupported base 37 in digit file"),
])
def test_digit_file_bases_rejected_like_oracle(tmp_path, raw, message):
    path = tmp_path / "bad"
    path.write_bytes(raw)
    with pytest.raises(DigitFileError, match=f"^{re.escape(message)}$"):
        read_digit_file(path)
    assert_rejected_like_oracle(path)


def test_rational_sequences_carry_exact_value():
    q = Fraction(22, 101)
    seq = gen_rational_expansion(q, Alphabet(10), 50)
    assert seq.exact_value == q
    # a bare buffer does not, and no caller attaches a value its digits could contradict
    assert DigitSequence(Alphabet(10), seq.prefix(10)).exact_value is None
    with pytest.raises(TypeError):
        DigitSequence(Alphabet(10), b"\x05", exact_value=Fraction(1, 3))
    with pytest.raises(AttributeError):
        seq.exact_value = Fraction(1, 3)
    assert seq.exact_value == q


@st.composite
def digit_files(draw):
    """(k, digits, ASCII file bytes) of one random sequence.

    The ASCII body mixes lowercase letters and whitespace among the digits.
    """
    k = draw(st.integers(2, 36))
    digits = draw(st.lists(st.integers(0, k - 1), max_size=200))
    lower = draw(st.lists(st.booleans(), min_size=len(digits), max_size=len(digits)))
    gaps = draw(st.lists(st.sampled_from(WHITESPACE), min_size=len(digits) + 1,
                         max_size=len(digits) + 1))
    body = gaps[0] + "".join((DIGIT_CHARS[d].lower() if low else DIGIT_CHARS[d]) + gap
                             for d, low, gap in zip(digits, lower, gaps[1:]))
    header = f"k={k}" + draw(st.sampled_from(["", " ", "\r"]))
    ascii_file = (header + "\n" + body).encode("ascii")
    return k, bytes(digits), ascii_file


@FILE_SETTINGS
@given(case=digit_files())
def test_read_digit_file_matches_oracle(tmp_path_factory, case):
    k, digits, ascii_file = case
    path = tmp_path_factory.mktemp("digits") / "seq"
    path.write_bytes(ascii_file)
    seq = read_digit_file(path)
    assert (seq.alphabet.k, seq.prefix(seq.length_available)) == parse_digit_file(path)
    assert seq.prefix(seq.length_available) == digits


def assert_rejected_like_oracle(path):
    with pytest.raises(ValueError) as expected:
        parse_digit_file(path)
    with pytest.raises(DigitFileError) as got:
        read_digit_file(path)
    assert str(got.value) == str(expected.value)


def insert_bytes(raw: bytes, start: int, values, data) -> bytes:
    """`raw` with each of `values` inserted at a drawn position at or after `start`."""
    for value in values:
        at = data.draw(st.integers(start, len(raw)))
        raw = raw[:at] + bytes([value]) + raw[at:]
    return raw


@FILE_SETTINGS
@given(case=digit_files(), data=st.data())
def test_read_digit_file_rejects_like_oracle(tmp_path_factory, case, data):
    k, _, ascii_file = case
    path = tmp_path_factory.mktemp("digits") / "bad"
    header_end = ascii_file.index(b"\n") + 1
    invalid = [c for c in range(128)
               if not chr(c).isspace() and chr(c).upper() not in DIGIT_CHARS[:k]]
    bad_chars = data.draw(st.lists(st.sampled_from(invalid), min_size=1, max_size=3))
    non_ascii = data.draw(st.lists(st.integers(128, 255), min_size=1, max_size=2))
    for raw in (insert_bytes(ascii_file, header_end, bad_chars, data),
                insert_bytes(ascii_file, header_end, non_ascii, data)):
        path.write_bytes(raw)
        assert_rejected_like_oracle(path)


# ------------------------------------------------ digits into limbs, four per word

MULTIPLIERS = st.integers(1, 12) | st.sampled_from([144, 2 ** 31 - 1, 2 ** 40, 2 ** 61, 2 ** 70])


@st.composite
def limb_layouts(draw):
    """(k, c, dtype, digits): any width up to limb_width's, half of them multiples
    of 4, in each dtype that holds k^c - 1, over whole limbs and maybe a partial
    one of digits that start at an odd byte of their buffer."""
    k = draw(st.integers(2, 36))
    c_max, _ = limb_width(k, draw(MULTIPLIERS))
    c = draw(st.integers(1, c_max).map(lambda w: w - w % 4 or w) | st.integers(1, c_max))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.int64, object]).filter(
        lambda t: t is object or k ** c - 1 <= np.iinfo(t).max))
    n = draw(st.integers(0, 6)) * c + draw(st.sampled_from([0, 1, c - 1]) | st.integers(0, c - 1))
    fill = draw(st.sampled_from([None, None, 0, k - 1]))  # all zeros or all k - 1: limbs at 0, K - 1
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    digits = [rnd.randrange(k) if fill is None else fill for _ in range(n)]
    return k, c, dtype, np.frombuffer(bytes([0] + digits), np.uint8)[1:]


# Python-int limbs past 640 digits, where int() from text may be refused, take Horner's rule
LONG_LIMBS = np.frombuffer(bytes(random.Random(640).choices(range(10), k=3 * 641 + 5)), np.uint8)


@settings(FILE_SETTINGS, max_examples=300)
@given(limb_layouts())
@example((10, 640, object, LONG_LIMBS))
@example((10, 641, object, LONG_LIMBS))
def test_digits_to_limbs_matches_numeral(layout):
    k, c, dtype, digits = layout
    limbs, pad = digits_to_limbs(digits, k, c, dtype)
    assert limbs.dtype == np.dtype(dtype) and len(limbs) == -(-len(digits) // c)
    assert pad == -len(digits) % c
    assert all(0 <= x < k ** c for x in limbs.tolist())
    assert _numeral(limbs.tolist(), k ** c) == _numeral(digits.tolist(), k) * k ** pad


@FILE_SETTINGS
@given(st.integers(2, 36), MULTIPLIERS)
def test_limb_width_fits_the_multiply(k, m):
    c, dtype = limb_width(k, m)
    widest = max((w for w in range(1, 64) if m * k ** w < 2 ** 62), default=0)
    if dtype is object:  # no int64 width holds k^c >= m
        assert k ** widest < m and k ** c >= m > k ** (c - 1)
        return
    assert m * k ** c < 2 ** 62 and k ** c >= m
    # four digits per word, unless that keeps under three quarters of the widest width
    four = widest - widest % 4
    assert c == (four if four and k ** four >= m and 4 * four >= 3 * widest else widest)


@pytest.mark.parametrize("kind", [bytes, bytearray, np.uint8, np.uint16])
@pytest.mark.parametrize("at", [0, 500, 999])
def test_sequence_names_its_first_bad_digit(kind, at):
    digits = [i % 7 for i in range(1000)]
    digits[-1] = 8  # out of range too, but after the first
    digits[at] = 9
    data = kind(digits) if kind in (bytes, bytearray) else np.array(digits, kind)
    with pytest.raises(ValueError, match="^digit 9 out of range for base 7$"):
        DigitSequence(Alphabet(7), data)
    assert DigitSequence(Alphabet(7), kind() if kind in (bytes, bytearray)
                         else np.array([], kind)).length_available == 0
