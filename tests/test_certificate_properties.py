"""Differential property tests: implicit identity columns against a materialized set.

A block certificate keeps its unobserved columns as an UnobservedColumns view.
Each test rebuilds the same certificate with the identity columns written out
as frozenset(range(k^l) - observed), the observed codes taken by naive slicing,
and checks that both forms behave alike, on valid and on corrupted
certificates.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fsdim import (Alphabet, DigitSequence, SparseStochasticCertificate, UnobservedColumns,
                   UnresolvedCarryError, block_distribution_as_code_vector,
                   integer_multiple_certificate, validate_certificate)
from fsdim.digitseq import digits_to_int

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def block_cells(draw):
    """A certificate cell: base k, block length l, block count n, multiplier m, digits."""
    k = draw(st.integers(2, 5))
    l = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 12))
    digits = draw(st.lists(st.integers(0, k - 1), min_size=n * l + 32, max_size=n * l + 32))
    return k, l, n, m, bytes(digits)


def build(cell):
    """(implicit certificate, materialized copy, pi, mu, observed codes) for a cell."""
    k, l, n, m, digits = cell
    seq = DigitSequence(Alphabet(k), digits)
    try:
        cert, dist_a, dist_b = integer_multiple_certificate(seq, m, l, n, lookahead_cap=64)
    except UnresolvedCarryError:
        assume(False)
    observed = {digits_to_int(digits[j * l:(j + 1) * l], k) for j in range(n)}
    materialized = SparseStochasticCertificate(
        cert.n, dict(cert.entries), cert.declared_m,
        frozenset(set(range(k ** l)) - observed))
    return (cert, materialized, block_distribution_as_code_vector(dist_a),
            block_distribution_as_code_vector(dist_b), observed)


def outcome_tuple(cert, pi, mu):
    outcome = validate_certificate(cert, pi, mu)
    return outcome.ok, outcome.violation, outcome.detail


def assert_same_behaviour(implicit, materialized, pi, mu):
    assert outcome_tuple(implicit, pi, mu) == outcome_tuple(materialized, pi, mu)
    for cert in (implicit, materialized):
        rows, cols = cert.support_counts()
        assert cert.max_degrees() == (max(rows.values(), default=0),
                                      max(cols.values(), default=0))
        assert cert.max_support() == max(cert.max_degrees())


def with_entries(cert, entries, identity=None, declared_m=None):
    return SparseStochasticCertificate(
        cert.n, entries, cert.declared_m if declared_m is None else declared_m,
        cert.identity_columns if identity is None else identity)


@PROPERTY_SETTINGS
@given(block_cells())
def test_valid_certificates_agree(cell):
    implicit, materialized, pi, mu, observed = build(cell)
    assert isinstance(implicit.identity_columns, UnobservedColumns)
    assert validate_certificate(implicit, pi, mu).ok
    assert_same_behaviour(implicit, materialized, pi, mu)


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_mass_on_identity_column_agrees(cell, data):
    # half the mass moved onto an unobserved block j passes through its
    # identity column unchanged: A(pi/2 + e_j/2) = mu/2 + e_j/2
    implicit, materialized, pi, mu, _ = build(cell)
    identity = sorted(materialized.identity_columns)
    assume(identity)
    j = identity[data.draw(st.integers(0, len(identity) - 1))]
    half = Fraction(1, 2)
    pi_j = {**{x: v * half for x, v in pi.items()}, j: half}
    mu_j = {y: v * half for y, v in mu.items()}
    mu_j[j] = mu_j.get(j, 0) + half
    assert validate_certificate(implicit, pi_j, mu_j).ok
    assert_same_behaviour(implicit, materialized, pi_j, mu_j)
    assert implicit.apply(pi_j) == materialized.apply(pi_j) == mu_j


def test_identity_only_certificate_degrees():
    cert = SparseStochasticCertificate(3, {}, 1, UnobservedColumns(3, ()))
    assert cert.max_degrees() == (1, 1)
    assert validate_certificate(cert, {0: Fraction(1)}, {0: Fraction(1)}).ok


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_identity_view_matches_frozenset(cell, data):
    implicit, materialized, _, _, observed = build(cell)
    view, frozen = implicit.identity_columns, materialized.identity_columns
    assert len(view) == len(frozen)
    assert list(view) == sorted(frozen)
    assert view == frozen and frozen == view
    assert not view != frozen
    for j in data.draw(st.lists(st.integers(-2, implicit.n + 2), max_size=20)):
        assert (j in view) == (j in frozen)
    for j in observed:
        assert j not in view
    if frozen:
        smaller = frozen - {min(frozen)}
        assert view != smaller and smaller != view
    assert view == UnobservedColumns(implicit.n, observed)


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_altered_entry_agrees(cell, data):
    implicit, materialized, pi, mu, _ = build(cell)
    keys = sorted(implicit.entries)
    key = keys[data.draw(st.integers(0, len(keys) - 1))]
    factor = Fraction(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    entries = dict(implicit.entries)
    entries[key] *= factor
    assert_same_behaviour(with_entries(implicit, entries),
                          with_entries(materialized, entries), pi, mu)


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_extra_entry_in_identity_row_agrees(cell, data):
    # move half of an entry (y, x) into an identity row j: columns stay
    # stochastic and mu is moved to match, so only the support bound can fail
    implicit, materialized, pi, mu, _ = build(cell)
    identity = sorted(materialized.identity_columns)
    assume(identity)
    j = identity[data.draw(st.integers(0, len(identity) - 1))]
    keys = sorted(implicit.entries)
    y, x = keys[data.draw(st.integers(0, len(keys) - 1))]
    entries = dict(implicit.entries)
    half = entries[(y, x)] / 2
    entries[(y, x)] = half
    entries[(j, x)] = entries.get((j, x), 0) + half
    moved = dict(mu)
    moved[y] -= half * pi[x]
    moved[j] = moved.get(j, 0) + half * pi[x]
    moved = {i: v for i, v in moved.items() if v != 0}
    row_j = 1 + sum(1 for (i, _) in entries if i == j)
    declared = data.draw(st.integers(max(1, row_j - 2), row_j))
    a = with_entries(implicit, entries, declared_m=declared)
    b = with_entries(materialized, entries, declared_m=declared)
    assert_same_behaviour(a, b, pi, moved)
    ok, violation, _ = outcome_tuple(a, pi, moved)
    if declared < row_j:
        assert not ok and violation == "support-bound"


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_dropped_identity_column_agrees(cell, data):
    implicit, materialized, pi, mu, observed = build(cell)
    identity = sorted(materialized.identity_columns)
    assume(identity)
    j = identity[data.draw(st.integers(0, len(identity) - 1))]
    a = with_entries(implicit, dict(implicit.entries),
                     identity=UnobservedColumns(implicit.n, observed | {j}))
    b = with_entries(materialized, dict(materialized.entries),
                     identity=materialized.identity_columns - {j})
    assert_same_behaviour(a, b, pi, mu)
    assert outcome_tuple(a, pi, mu) == (False, "stochastic-columns", f"column {j} has no entries")


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_entry_colliding_with_identity_column_raises(cell, data):
    implicit, materialized, _, _, _ = build(cell)
    identity = sorted(materialized.identity_columns)
    assume(identity)
    j = identity[data.draw(st.integers(0, len(identity) - 1))]
    entries = dict(implicit.entries)
    entries[(data.draw(st.integers(0, implicit.n - 1)), j)] = Fraction(1)
    for cert in (implicit, materialized):
        with pytest.raises(ValueError, match="collide"):
            with_entries(cert, entries)
