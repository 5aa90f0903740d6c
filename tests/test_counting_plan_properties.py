"""Differential property test of the counting plan behind verify_rational_arithmetic.

The library counts each distinct stream's blocks once per block length, shares
the counts between streams with equal digits and checks each pair table
against those shared marginals.  The oracle in tests/oracles.py builds the
same report one cell at a time from naive counts and the rational certificate
validator, so the two JSON texts must be identical.  Draws cover integer q
(where several streams have equal digits), unit fractions, negative and
non-unit q, 1 to 4 schedule points, digits from small pools so blocks repeat,
and streams short enough that cells are skipped and grids clip.

The plan itself (blockstats._count_rows) is checked cell by cell: each
stream's cell equals that stream counted alone, for streams that are equal,
strict prefixes of another (so they fit fewer cells of a row) or different
only at a late digit.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsdim.verify
from fsdim import Alphabet, DigitSequence, InsufficientDigitsError, verify_rational_arithmetic
from fsdim.blockstats import _count_rows, _prefix_blocks
from fsdim.realarith import LOOKAHEAD_CAP

import oracles

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])

MAX_BLOCK_LEN = {2: 5, 3: 4, 10: 3}


@st.composite
def scenarios(draw):
    """(digit sequence, q, max_block_len, schedule, lookahead)."""
    k = draw(st.sampled_from(sorted(MAX_BLOCK_LEN)))
    max_block_len = draw(st.integers(1, MAX_BLOCK_LEN[k]))
    schedule = draw(st.lists(st.integers(1, 90), min_size=1, max_size=4))
    q = draw(st.sampled_from([
        Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(-4),  # integers
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(-1, 3),  # unit fractions
        Fraction(-7, 12), Fraction(5, 3), Fraction(22, 7), Fraction(-9, 4)]))
    pool = draw(st.sampled_from([list(range(k)), sorted({0, 1, k - 1}), [0, k // 2], [0]]))
    cells = max_block_len * max(schedule)
    if draw(st.booleans()):  # short: cells are skipped and grids clip
        length = draw(st.integers(min(schedule), cells))
    else:
        length = cells + draw(st.integers(0, 300))
    digits = draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    lookahead = draw(st.sampled_from([2, LOOKAHEAD_CAP, LOOKAHEAD_CAP]))
    return DigitSequence(Alphabet(k), bytes(digits)), q, max_block_len, schedule, lookahead


def windowed(operation, lookahead):
    """The operation fed only `lookahead` digits past each count it is asked for."""
    return lambda seq, operand, count: operation(
        oracles.lookahead_window(seq, count, lookahead), operand, count)


def outcome(build, *args):
    """The report's JSON, or the type and message of what the build raised."""
    try:
        return build(*args).to_json()
    except InsufficientDigitsError as exc:
        return type(exc).__name__, str(exc)


@PROPERTY_SETTINGS
@given(scenarios())
def test_report_matches_per_cell_oracle(scenario):
    seq, q, max_block_len, schedule, lookahead = scenario
    # the library's arithmetic reads at most the drawn number of lookahead
    # digits, so a short lookahead leaves carries unresolved on both sides
    cut = {name: windowed(getattr(fsdim.verify, name), lookahead)
           for name in ("add_rational_mod1", "mul_rational_mod1", "mul_int_mod1")}
    with mock.patch.multiple(fsdim.verify, **cut):
        report = outcome(verify_rational_arithmetic, seq, q, max_block_len, schedule)
    assert report == outcome(oracles.rational_arithmetic_report,
                             seq, q, max_block_len, schedule, 0.5, lookahead)


@st.composite
def plans(draw):
    """(streams, max_block_len, schedule): each stream equal to a base stream,
    a strict prefix of it, or the base with one digit changed late."""
    k = draw(st.sampled_from([2, 3, 10]))
    max_block_len = draw(st.integers(1, 6))
    schedule = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    length = max_block_len * max(schedule) + draw(st.integers(0, 20))
    base = draw(st.lists(st.integers(0, k - 1), min_size=length, max_size=length))
    streams = {}
    for i in range(draw(st.integers(1, 5))):
        digits = list(base)
        kind = draw(st.sampled_from(["equal", "prefix", "late"]))
        if kind == "prefix":
            digits = digits[:draw(st.integers(0, length - 1))]
        elif kind == "late":
            j = draw(st.integers(length * 3 // 4, length - 1))
            digits[j] = (digits[j] + draw(st.integers(1, k - 1))) % k
        streams[f"{kind}-{i}"] = DigitSequence(Alphabet(k), bytes(digits))
    return streams, max_block_len, schedule


@PROPERTY_SETTINGS
@given(plans())
def test_plan_cells_match_each_stream_counted_alone(plan):
    streams, max_block_len, schedule = plan
    schedule = sorted(set(schedule))
    seen = []
    for l, n, cells in _count_rows(streams, max_block_len, schedule):
        seen.append((l, n))
        assert sorted(cells) == sorted(name for name, seq in streams.items()
                                       if n * l <= seq.length_available)
        for name, blocks in cells.items():
            fit = [f for f in schedule if f * l <= streams[name].length_available]
            alone = list(_prefix_blocks(streams[name], l, fit))[fit.index(n)]
            # a shared cell may hold its values in another integer dtype
            assert all(np.array_equal(got, want) for got, want in zip(blocks[:3], alone[:3]))
            assert blocks.bits == alone.bits
    assert seen == [(l, n) for l in range(1, max_block_len + 1) for n in schedule
                    if any(n * l <= seq.length_available for seq in streams.values())]
