"""Differential property tests of certificates.

A certificate holds integer flows over column masses, and validate_certificate
checks it in integers.  tests/oracles.py keeps the rational check as the
reference (validate_certificate_rational, over the certificate's Fraction
entries).  Both report the first condition broken at its least row or column
index, so outcomes, violation names and detail strings must all agree.

A block certificate keeps its unobserved columns as an UnobservedColumns view.
The first tests rebuild the same certificate with the identity columns written
out as frozenset(range(k^l) - observed), the observed codes taken by naive
slicing, and check that both forms behave alike, on valid and on corrupted
certificates.

The block table (BlockCoupling) is itself the certificate: its entries equal
the rational builder in tests/oracles.py, its validate() agrees with the
reference on valid and on corrupted tables, pairs given out of order build the
same table as pairs given ascending, and a table built from codes
changed after they were counted fails its checks, since its masses and image
counts are counted apart from its pairs.  Small random certificates, exact
solver witnesses and their reversals and compositions are checked against the
reference too, valid and with one flow, mass or entry changed, and so are fixed
edge cases: a column over its sparsity bound, flows and masses beyond int64,
and the reversal and composition of a certificate with an identity column.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import fsdim.verify
from fsdim import (Alphabet, BlockCoupling, DigitSequence, ProbabilityVector,
                   SparseStochasticCertificate, UnobservedColumns, UnresolvedCarryError,
                   block_distribution_as_code_vector, compose_certificates,
                   delta_exact, gen_champernowne, integer_multiple_certificate, mul_int_mod1,
                   reverse_certificate, validate_certificate, verify_rational_arithmetic)
from fsdim.blockstats import _prefix_blocks

import oracles

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
        cert, dist_a, dist_b = integer_multiple_certificate(seq, m, l, n)
    except UnresolvedCarryError:
        assume(False)
    observed = {oracles._numeral(digits[j * l:(j + 1) * l], k) for j in range(n)}
    materialized = SparseStochasticCertificate(
        cert.n, dict(cert.entries), cert.declared_m,
        frozenset(set(range(k ** l)) - observed))
    return (cert, materialized, block_distribution_as_code_vector(dist_a),
            block_distribution_as_code_vector(dist_b), observed)


def outcome_tuple(cert, pi, mu):
    outcome = validate_certificate(cert, pi, mu)
    return outcome.ok, outcome.violation, outcome.detail


def reference_tuple(cert, pi, mu):
    outcome = oracles.validate_certificate_rational(cert, pi, mu)
    return outcome.ok, outcome.violation, outcome.detail


def assert_matches_reference(cert, pi, mu):
    """The integer check and its degrees agree with the rational reference."""
    assert outcome_tuple(cert, pi, mu) == reference_tuple(cert, pi, mu)
    rows, cols = oracles.rational_support_counts(cert)
    assert cert.max_degrees() == (max(rows.values(), default=0), max(cols.values(), default=0))
    assert cert.support_counts() == (rows, cols)


def assert_same_behaviour(implicit, materialized, pi, mu):
    assert outcome_tuple(implicit, pi, mu) == outcome_tuple(materialized, pi, mu)
    assert_matches_reference(implicit, pi, mu)
    for cert in (implicit, materialized):
        rows, cols = cert.support_counts()
        assert cert.max_degrees() == (max(rows.values(), default=0),
                                      max(cols.values(), default=0))


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
    near = st.integers(-2, implicit.n + 2)
    members = st.one_of(near, near.map(float), near.map(str), st.text(max_size=3), st.none(),
                        st.floats(-2, implicit.n + 2).filter(lambda x: not x.is_integer()))
    for j in data.draw(st.lists(members, max_size=20)):
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


# ------------------------------------------- small certificates of any origin

@st.composite
def probability_vectors(draw, n):
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    return ProbabilityVector(tuple(Fraction(w, sum(weights)) for w in weights))


@st.composite
def small_certificates(draw):
    """(rational entries, identity columns, declared_m, pi, mu, solver-made certificate or None).

    Random sparse matrices, half of them made column-stochastic with mu their
    exact image of pi, or exact solver witnesses and their reversals and
    compositions for pi -> mu, whose rational entries are taken as they are."""
    n = draw(st.integers(1, 4))
    pi, mu, nu = (draw(probability_vectors(n)) for _ in range(3))
    kind = draw(st.sampled_from(["random", "witness", "reverse", "compose"]))
    if kind != "random":
        made = {"witness": lambda: delta_exact(pi, mu).witness,
                "reverse": lambda: reverse_certificate(delta_exact(mu, pi).witness, mu, pi),
                "compose": lambda: compose_certificates(delta_exact(nu, mu).witness,
                                                        delta_exact(pi, nu).witness, pi, nu, mu)}[kind]()
        return dict(made.entries), made.identity_columns, made.declared_m, pi, mu, made
    explicit = draw(st.sets(st.integers(0, n - 1)))
    spare = sorted(set(range(n)) - explicit)
    identity = frozenset(draw(st.sets(st.sampled_from(spare)))) if spare else frozenset()
    entries = {}
    for j in sorted(explicit):
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            entries[(i, j)] = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    if draw(st.booleans()):
        totals = {j: sum(v for (_, jj), v in entries.items() if jj == j) for j in explicit}
        entries = {(i, j): v / totals[j] for (i, j), v in entries.items()}
        image = {}
        for (i, j), v in entries.items():
            image[i] = image.get(i, 0) + v * pi[j]
        for j in identity:
            image[j] = image.get(j, 0) + pi[j]
        mu = {i: v for i, v in image.items() if v}
    return entries, identity, draw(st.integers(1, n)), pi, mu, None


def image_of(entries, identity, pi):
    mu = [Fraction(0)] * len(pi.p)
    for (i, j), v in entries.items():
        mu[i] += v * pi[j]
    for j in identity:
        mu[j] += pi[j]
    return ProbabilityVector(tuple(mu))


def stochastic(entries, identity, declared, pi):
    """The small_certificates tuple of a column-stochastic matrix, mu its image of pi."""
    return entries, frozenset(identity), declared, pi, image_of(entries, identity, pi), None


def through_identity_columns():
    """Reversal and composition of a certificate with an identity column, which
    read that column through triples()."""
    entries = {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2), (0, 1): Fraction(1)}
    pi = ProbabilityVector((Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)))
    mu = image_of(entries, {2}, pi)
    nu = image_of(entries, {2}, mu)
    cert = SparseStochasticCertificate(3, entries, 2, frozenset({2}))
    reverse = reverse_certificate(cert, pi, mu)
    compose = compose_certificates(cert, cert, pi, mu, nu)
    return [(dict(reverse.entries), reverse.identity_columns, reverse.declared_m, mu, pi, reverse),
            (dict(compose.entries), compose.identity_columns, compose.declared_m, pi, nu, compose)]


HALVES = ProbabilityVector((Fraction(1, 2), Fraction(1, 2)))
EDGE_CERTIFICATES = [
    # a column over declared_m while every row keeps within it
    stochastic({(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 3), (2, 0): Fraction(1, 3),
                (3, 1): Fraction(1)}, {2, 3}, 2, ProbabilityVector((Fraction(1, 4),) * 4)),
    # masses and flows beyond int64 are held as Python ints
    stochastic({(0, 0): Fraction(1, 2 ** 70), (1, 0): Fraction(2 ** 70 - 1, 2 ** 70)}, {1}, 2,
               HALVES),
    # flows that fit int64 but whose column sum does not
    ({(0, 0): Fraction(2 ** 62 + 1, 2 ** 63 - 1), (1, 0): Fraction(2 ** 62 + 1, 2 ** 63 - 1)},
     frozenset({1}), 2, HALVES, HALVES, None),
    *through_identity_columns(),
]


@PROPERTY_SETTINGS
@given(small_certificates(),
       st.sampled_from(["none", "flow", "mass", "extra", "dropped", "identity"]),
       st.sampled_from(["vector", "list", "dict"]), st.data())
@example(EDGE_CERTIFICATES[0], "none", "vector", None)
@example(EDGE_CERTIFICATES[1], "none", "vector", None)
@example(EDGE_CERTIFICATES[2], "none", "list", None)
@example(EDGE_CERTIFICATES[3], "none", "dict", None)
@example(EDGE_CERTIFICATES[4], "none", "vector", None)
def test_small_certificates_match_rational_reference(made, change, form, data):
    entries, identity, declared, pi, mu, solved = made
    entries = dict(entries)
    if change != "none":
        assume(entries)
        keys = sorted(entries)
        i, j = keys[data.draw(st.integers(0, len(keys) - 1))]
        factor = Fraction(data.draw(st.sampled_from([1, 2, 3, 5])), data.draw(st.sampled_from([2, 3, 4])))
        if change == "flow":
            entries[(i, j)] *= factor
        elif change == "mass":  # every flow of the column over a changed mass
            entries = {(r, c): v * factor if c == j else v for (r, c), v in entries.items()}
        elif change == "extra":
            free = [r for r in range(len(pi.p)) if (r, j) not in entries]
            assume(free)
            entries[(data.draw(st.sampled_from(free)), j)] = factor
        elif change == "dropped":
            del entries[(i, j)]
        else:  # an entry in an identity column is malformed, not merely invalid
            assume(identity)
            entries[(i, data.draw(st.sampled_from(sorted(identity))))] = factor
            with pytest.raises(ValueError, match="collide"):
                SparseStochasticCertificate(len(pi.p), entries, declared, identity)
            return
    cert = SparseStochasticCertificate(len(pi.p), entries, declared, identity)
    assert cert.entries == entries

    def shaped(v):
        if isinstance(v, dict) or form == "vector":
            return v
        return list(v.p) if form == "list" else {j: x for j, x in enumerate(v.p) if x}

    assert_matches_reference(cert, shaped(pi), shaped(mu))
    if solved is not None and change == "none":
        assert validate_certificate(solved, pi, mu).ok
        assert_matches_reference(solved, pi, mu)


# ------------------------------------------------- integer joint-count tables

@st.composite
def coupling_cells(draw):
    """A table cell: base k in {2, 3, 10}, l <= 3, n, m, and digits that
    sometimes come from a three-letter pool so source blocks repeat."""
    k = draw(st.sampled_from([2, 3, 10]))
    l = draw(st.integers(1, 3))
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 12))
    pool = draw(st.sampled_from([list(range(k)), sorted({0, 1, k - 1})]))
    digits = draw(st.lists(st.sampled_from(pool), min_size=n * l + 32, max_size=n * l + 32))
    return k, l, n, m, bytes(digits)


def build_table(cell):
    k, l, n, m, digits = cell
    seq = DigitSequence(Alphabet(k), digits)
    try:
        return integer_multiple_certificate(seq, m, l, n)[0]
    except UnresolvedCarryError:
        assume(False)


def rational_view(table):
    """The reference check against the table's block frequencies, and its degrees."""
    pi, mu = ({code: Fraction(c, table.blocks) for code, c in zip(codes.tolist(), counts.tolist())}
              for codes, counts in ((table.columns, table.masses),
                                    (table.image_codes, table.image_counts)))
    rows, cols = oracles.rational_support_counts(table)
    return reference_tuple(table, pi, mu), (max(rows.values(), default=0),
                                             max(cols.values(), default=0))


def integer_view(table):
    outcome = table.validate()
    return (outcome.ok, outcome.violation, outcome.detail), table.max_degrees()


def replace_pairs(table, x, y, count, blocks=None, source=None, image=None):
    """The table with its pairs, and optionally its block count and marginals, replaced."""
    return BlockCoupling(table.alphabet, table.l, table.m,
                         table.blocks if blocks is None else blocks,
                         np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64),
                         np.asarray(count, dtype=np.int64),
                         *(source or (table.columns, table.masses)),
                         *(image or (table.image_codes, table.image_counts)))


def shared_column(table, data):
    """Indices of two pairs in one column, or skip the example."""
    x = table.cols.tolist()
    shared = [t for t in range(len(x)) if x.count(x[t]) > 1]
    assume(shared)
    t1 = data.draw(st.sampled_from(shared))
    t2 = data.draw(st.sampled_from([t for t in shared if t != t1 and x[t] == x[t1]]))
    return t1, t2


def breaking_image(table, x):
    """An image block y with (y - m*x) mod k^l >= m that is not yet paired with x."""
    dimension = table.n
    taken = {y for xx, y in zip(table.cols.tolist(), table.rows.tolist()) if xx == x}
    return next((y for y in range(dimension)
                 if (y - table.m * x) % dimension >= table.m and y not in taken), None)


@PROPERTY_SETTINGS
@given(coupling_cells())
def test_table_validator_agrees_on_valid_tables(cell):
    table, _, pi, mu, _ = build(cell)
    assert integer_view(table) == rational_view(table)
    assert table.validate().ok
    assert_matches_reference(table, pi, mu)


@PROPERTY_SETTINGS
@given(coupling_cells())
def test_table_matches_rational_builder(cell):
    k, l, n, m, digits = cell
    table = build_table(cell)
    seq = DigitSequence(Alphabet(k), digits)
    product = mul_int_mod1(seq, m, n * l).digits
    entries, identity, declared = oracles.block_certificate(seq, product, m, l, n)
    # entries (y, x) in ascending (x, y) order, the table's pair order
    assert list(table.entries.items()) == sorted(entries.items(), key=lambda e: e[0][::-1])
    assert table.identity_columns == identity
    assert table.declared_m == declared
    assert integer_multiple_certificate(seq, m, l, n)[0].entries == entries


@PROPERTY_SETTINGS
@given(coupling_cells(), st.booleans(), st.data())
def test_table_from_shuffled_pairs_matches_ascending_build(cell, bumped, data):
    # from_codes passes its pairs in ascending (x, y) order; the constructor
    # must put pairs given in any other order into that order
    table = build_table(cell)
    count = table.flows.copy()
    if bumped:
        count[data.draw(st.integers(0, len(count) - 1))] += data.draw(st.integers(1, 5))
    ascending = replace_pairs(table, table.cols, table.rows, count)
    order = np.array(data.draw(st.permutations(range(len(count)))), dtype=np.int64)
    shuffled = replace_pairs(table, table.cols[order], table.rows[order], count[order])
    for name in ("rows", "cols", "flows"):
        assert getattr(shuffled, name).tolist() == getattr(ascending, name).tolist()
    assert list(shuffled.entries.items()) == list(ascending.entries.items())
    assert integer_view(shuffled) == integer_view(ascending)
    assert integer_view(ascending)[0][:2] == ((False, "stochastic-columns") if bumped
                                              else (True, None))


@PROPERTY_SETTINGS
@given(coupling_cells(), st.data())
def test_table_validator_agrees_on_moved_count(cell, data):
    # moving blocks between two pairs of one column keeps the column sum and
    # breaks both row sums; moving all of them drops the first pair
    table = build_table(cell)
    t1, t2 = shared_column(table, data)
    count = table.flows.tolist()
    moved = data.draw(st.integers(1, count[t1]))
    count[t1] -= moved
    count[t2] += moved
    keep = [t for t in range(len(count)) if count[t]]
    bad = replace_pairs(table, table.cols[keep], table.rows[keep], np.asarray(count)[keep])
    assert integer_view(bad) == rational_view(bad)
    assert integer_view(bad)[0][:2] == (False, "marginal-map")


@PROPERTY_SETTINGS
@given(coupling_cells(), st.data())
def test_table_validator_agrees_on_dropped_pair(cell, data):
    table = build_table(cell)
    t = data.draw(st.integers(0, len(table.cols) - 1))
    keep = [i for i in range(len(table.cols)) if i != t]
    bad = replace_pairs(table, table.cols[keep], table.rows[keep], table.flows[keep])
    assert integer_view(bad) == rational_view(bad)
    assert integer_view(bad)[0][:2] == (False, "stochastic-columns")


@PROPERTY_SETTINGS
@given(coupling_cells(), st.data())
def test_table_validator_agrees_on_bumped_count(cell, data):
    table = build_table(cell)
    t = data.draw(st.integers(0, len(table.cols) - 1))
    count = table.flows.copy()
    count[t] += data.draw(st.integers(1, 5))
    bad = replace_pairs(table, table.cols, table.rows, count)
    assert integer_view(bad) == rational_view(bad)
    assert integer_view(bad)[0][:2] == (False, "stochastic-columns")


@PROPERTY_SETTINGS
@given(coupling_cells(), st.data())
def test_table_validator_agrees_on_changed_mass(cell, data):
    table = build_table(cell)
    t = data.draw(st.integers(0, len(table.columns) - 1))
    masses = table.masses.copy()
    masses[t] = max(1, masses[t] + data.draw(st.sampled_from([-2, -1, 1, 3])))
    assume(masses[t] != table.masses[t])
    bad = replace_pairs(table, table.cols, table.rows, table.flows,
                        source=(table.columns, masses))
    assert integer_view(bad) == rational_view(bad)
    assert integer_view(bad)[0][:2] == (False, "stochastic-columns")


@PROPERTY_SETTINGS
@given(coupling_cells(), st.data())
def test_table_validator_agrees_on_added_pair(cell, data):
    # a pair that breaks the residue identity, added to an observed column
    table = build_table(cell)
    x = data.draw(st.sampled_from(table.columns.tolist()))
    y = breaking_image(table, x)
    assume(y is not None)
    c = data.draw(st.integers(1, 5))
    bad = replace_pairs(table, [*table.cols, x], [*table.rows, y], [*table.flows, c])
    assert integer_view(bad) == rational_view(bad)
    assert integer_view(bad)[0][:2] == (False, "stochastic-columns")


@PROPERTY_SETTINGS
@given(coupling_cells(), st.data())
def test_residue_guard_catches_balanced_pair(cell, data):
    # the same pair with both marginals grown to match: the rational
    # conditions may all hold, the residue identity still fails
    table = build_table(cell)
    x = data.draw(st.sampled_from(table.columns.tolist()))
    y = breaking_image(table, x)
    assume(y is not None)
    c = data.draw(st.integers(1, 5))
    source = dict(zip(table.columns.tolist(), table.masses.tolist()))
    image = dict(zip(table.image_codes.tolist(), table.image_counts.tolist()))
    source[x] += c
    image[y] = image.get(y, 0) + c
    bad = replace_pairs(
        table, [*table.cols, x], [*table.rows, y], [*table.flows, c], blocks=table.blocks + c,
        source=(np.array(sorted(source)), np.array([source[j] for j in sorted(source)])),
        image=(np.array(sorted(image)), np.array([image[j] for j in sorted(image)])))
    reference, degrees = rational_view(bad)
    assert bad.max_degrees() == degrees
    if reference[0]:
        assert integer_view(bad)[0][:2] == (False, "residue-identity")
    else:
        assert integer_view(bad)[0] == reference and reference[1] == "support-bound"


@PROPERTY_SETTINGS
@given(coupling_cells(), st.booleans(), st.data())
def test_table_checks_marginals_counted_apart_from_pairs(cell, in_source, data):
    # the marginals are counted from the code streams, never read off the
    # pairs: a table built from a code changed after counting fails its check
    k, l, n, m, digits = cell
    seq = DigitSequence(Alphabet(k), digits)
    product = mul_int_mod1(seq, m, n * l)
    assume(product.certified_count == n * l)
    (source,), (image,) = _prefix_blocks(seq, l, [n]), _prefix_blocks(product.digits, l, [n])
    j = data.draw(st.integers(0, n - 1))
    if in_source:
        others = [x for x in source.values.tolist() if x != source.codes[j]]
        assume(others)
        source.codes[j] = data.draw(st.sampled_from(others))
    else:
        image.codes[j] = (image.codes[j] + data.draw(st.integers(1, k ** l - 1))) % k ** l
    table = BlockCoupling.from_codes(seq.alphabet, l, m, source, image)
    assert integer_view(table) == rational_view(table)
    assert integer_view(table)[0][:2] == (False, "stochastic-columns" if in_source
                                          else "marginal-map")


@PROPERTY_SETTINGS
@given(coupling_cells(), st.data())
def test_pair_in_unobserved_column_raises(cell, data):
    table = build_table(cell)
    unobserved = sorted(set(range(table.n)) - set(table.columns.tolist()))
    assume(unobserved)
    x = data.draw(st.sampled_from(unobserved))
    with pytest.raises(ValueError, match="collide"):
        replace_pairs(table, [*table.cols, x], [*table.rows, 0], [*table.flows, 1])


def test_mismatched_paired_images_are_a_violation(monkeypatch):
    # b*frac(|q|*alpha) and |a|*alpha are one number; a product that differs
    # from its partner in one digit must show up, however valid its cells
    seq = gen_champernowne(Alphabet(10), 4000)
    clean = verify_rational_arithmetic(seq, Fraction(3, 7), 3, [300, 900])
    assert clean.passes, clean.violations
    calls = []

    def planted(stream, m, count):
        result = mul_int_mod1(stream, m, count)
        calls.append(m)
        if len(calls) == 2:  # the q-alpha-times-b leg
            digits = bytearray(result.digits.prefix(result.certified_count))
            digits[100] = (digits[100] + 1) % 10
            result = dataclasses.replace(result, digits=DigitSequence(Alphabet(10), bytes(digits)))
        return result

    monkeypatch.setattr(fsdim.verify, "mul_int_mod1", planted)
    report = verify_rational_arithmetic(seq, Fraction(3, 7), 3, [300, 900])
    assert not report.passes
    assert "alpha-times-|a| and q-alpha-times-b images differ at digit 100 of 2700" \
        in report.violations
    assert not any("alpha-times-b and" in v for v in report.violations)
