"""Differential property tests of certificates.

A certificate holds integer flows over column masses, and each type checks
itself in integers: validate_certificate a solver certificate against any pi
and mu, BlockCoupling.validate a block table against its own marginals (its
masses and image counts over its block count).  tests/oracles.py keeps the
rational check as the reference (validate_certificate_rational, over the
certificate's Fraction entries).  Both report the first condition broken at
its least row or column index, so outcomes, violation names and detail
strings must all agree.

A block certificate keeps its unobserved columns implicit, as an
UnobservedColumns view.  The first tests rebuild the same matrix as a
SparseStochasticCertificate with each identity column written out as an entry
(j, j): 1, the observed codes taken by naive slicing, and check that the
table, the written-out witness and the reference agree on the table's own
marginals, on valid and on corrupted certificates; a corrupted block
certificate is rebuilt as a table from its altered entries.

The block table (BlockCoupling) is itself the certificate: its entries equal
the rational builder in tests/oracles.py, its validate() agrees with the
reference on valid and on corrupted tables, pairs given out of order build the
same table as pairs given ascending, and a table built from codes
changed after they were counted fails its checks, since its masses and image
counts are counted apart from its pairs.  Small random certificates, exact
solver witnesses and their reversals and compositions are checked against the
reference too, valid and with one flow, mass or entry changed, and so are fixed
edge cases: a column over its sparsity bound, flows and masses beyond int64,
and the reversal and composition of a certificate with a column holding a
single 1 on its diagonal.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import fsdim.verify
from fsdim import (Alphabet, BlockCoupling, DigitSequence, ProbabilityVector,
                   SparseStochasticCertificate, UnobservedColumns, UnresolvedCarryError,
                   compose_certificates, delta_exact, gen_champernowne,
                   integer_multiple_certificate, mul_int_mod1, reverse_certificate,
                   validate_certificate, verify_rational_arithmetic)
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
    """(implicit certificate, materialized copy, observed codes) for a cell."""
    k, l, n, m, digits = cell
    seq = DigitSequence(Alphabet(k), digits)
    try:
        cert = integer_multiple_certificate(seq, m, l, n)[0]
    except UnresolvedCarryError:
        assume(False)
    observed = {oracles._numeral(digits[j * l:(j + 1) * l], k) for j in range(n)}
    materialized = SparseStochasticCertificate(
        cert.n, written_out(cert.entries, set(range(k ** l)) - observed), cert.declared_m)
    return cert, materialized, observed


def written_out(entries, identity):
    """`entries` with each identity column j written out as an entry (j, j): 1."""
    return {**entries, **{(j, j): Fraction(1) for j in identity}}


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


def assert_same_behaviour(table, materialized):
    """The table's own check agrees with the reference on its own marginals,
    and so does the written-out witness; the reference has no residue guard."""
    (outcome, degrees), (reference, reference_degrees) = integer_view(table), rational_view(table)
    assert degrees == reference_degrees
    assert reference == ((True, None, "") if outcome[1] == "residue-identity" else outcome)
    pi, mu = own_marginals(table)
    assert_matches_reference(materialized, pi, mu)
    assert outcome_tuple(materialized, pi, mu) == reference


def table_with_entries(table, entries, declared_m=None):
    """The block table holding rational `entries` as flows over per-column
    masses (the lcm of each column's denominators), its identity columns the
    table's own; `declared_m` replaces its declared bound."""
    masses = {}
    for (_, x), v in entries.items():
        masses[x] = math.lcm(masses.get(x, 1), v.denominator)
    keys = sorted(entries)
    made = replace_pairs(table, [x for _, x in keys], [y for y, _ in keys],
                         [(entries[key] * masses[key[1]]).numerator for key in keys],
                         source=(table.columns, [masses.get(x, 1) for x in table.columns.tolist()]))
    if declared_m is not None:
        made.declared_m = declared_m
    return made


@PROPERTY_SETTINGS
@given(block_cells())
def test_valid_certificates_agree(cell):
    implicit, materialized, _ = build(cell)
    assert isinstance(implicit.identity_columns, UnobservedColumns)
    assert implicit.validate().ok
    assert_same_behaviour(implicit, materialized)


def test_identity_only_certificate_degrees():
    cert = SparseStochasticCertificate(3, written_out({}, range(3)), 1)
    assert cert.max_degrees() == (1, 1)
    assert validate_certificate(cert, {0: Fraction(1)}, {0: Fraction(1)}).ok


@PROPERTY_SETTINGS
@given(block_cells())
def test_identity_view_matches_frozenset(cell):
    implicit, _, observed = build(cell)
    view, frozen = implicit.identity_columns, frozenset(range(implicit.n)) - observed
    assert len(view) == len(frozen)
    assert list(view) == sorted(frozen)


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_altered_entry_agrees(cell, data):
    implicit, _, _ = build(cell)
    keys = sorted(implicit.entries)
    key = keys[data.draw(st.integers(0, len(keys) - 1))]
    factor = Fraction(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    entries = dict(implicit.entries)
    entries[key] *= factor
    assert_same_behaviour(table_with_entries(implicit, entries),
                          SparseStochasticCertificate(
                              implicit.n, written_out(entries, implicit.identity_columns),
                              implicit.declared_m))


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_extra_entry_in_identity_row_agrees(cell, data):
    # move half of an entry (y, x) into an identity row j: columns stay
    # stochastic and the image counts are the table's own row sums, so only
    # the support bound and the residue guard can fail
    implicit, _, _ = build(cell)
    identity = list(implicit.identity_columns)
    assume(identity)
    j = identity[data.draw(st.integers(0, len(identity) - 1))]
    keys = sorted(implicit.entries)
    y, x = keys[data.draw(st.integers(0, len(keys) - 1))]
    entries = dict(implicit.entries)
    half = entries[(y, x)] / 2
    entries[(y, x)] = half
    entries[(j, x)] = entries.get((j, x), 0) + half
    row_j = 1 + sum(1 for (i, _) in entries if i == j)
    declared = data.draw(st.integers(max(1, row_j - 2), row_j))
    a = table_with_entries(implicit, entries)
    sums = {}
    for i, b in zip(a.rows.tolist(), a.flows.tolist()):
        sums[i] = sums.get(i, 0) + b
    a = replace_pairs(a, a.cols, a.rows, a.flows, image=(sorted(sums), [sums[i] for i in sorted(sums)]))
    a.declared_m = declared
    assert_same_behaviour(a, SparseStochasticCertificate(implicit.n, written_out(entries, identity),
                                                         declared))
    ok, violation, _ = integer_view(a)[0]
    if declared < row_j:
        assert not ok and violation == "support-bound"


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_dropped_identity_column_agrees(cell, data):
    # j given a source count, 0 or 1, but no pair: it leaves the identity view
    # and holds no entries
    implicit, materialized, observed = build(cell)
    identity = list(implicit.identity_columns)
    assume(identity)
    j = identity[data.draw(st.integers(0, len(identity) - 1))]
    masses = dict(zip(implicit.columns.tolist(), implicit.masses.tolist()))
    masses[j] = data.draw(st.integers(0, 1))
    columns = sorted(observed | {j})
    a = replace_pairs(implicit, implicit.cols, implicit.rows, implicit.flows,
                      source=(columns, [masses[x] for x in columns]))
    entries = dict(materialized.entries)
    del entries[(j, j)]
    assert_same_behaviour(a, SparseStochasticCertificate(implicit.n, entries, implicit.declared_m))
    assert integer_view(a)[0] == (False, "stochastic-columns", f"column {j} has no entries")


@PROPERTY_SETTINGS
@given(block_cells(), st.data())
def test_entry_colliding_with_identity_column_raises(cell, data):
    implicit, _, _ = build(cell)
    identity = list(implicit.identity_columns)
    assume(identity)
    j = identity[data.draw(st.integers(0, len(identity) - 1))]
    entries = dict(implicit.entries)
    entries[(data.draw(st.integers(0, implicit.n - 1)), j)] = Fraction(1)
    with pytest.raises(ValueError, match="collide"):
        table_with_entries(implicit, entries)


# ------------------------------------------- small certificates of any origin

@st.composite
def probability_vectors(draw, n):
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    return ProbabilityVector(tuple(Fraction(w, sum(weights)) for w in weights))


@st.composite
def small_certificates(draw):
    """(rational entries, declared_m, pi, mu, solver-made certificate or None).

    Random sparse matrices, some columns a single 1 on the diagonal, half of
    them made column-stochastic with mu their exact image of pi, or exact
    solver witnesses and their reversals and compositions for pi -> mu, whose
    rational entries are taken as they are."""
    n = draw(st.integers(1, 4))
    pi, mu, nu = (draw(probability_vectors(n)) for _ in range(3))
    kind = draw(st.sampled_from(["random", "witness", "reverse", "compose"]))
    if kind != "random":
        made = {"witness": lambda: delta_exact(pi, mu).witness,
                "reverse": lambda: reverse_certificate(delta_exact(mu, pi).witness, mu, pi),
                "compose": lambda: compose_certificates(delta_exact(nu, mu).witness,
                                                        delta_exact(pi, nu).witness, pi, nu, mu)}[kind]()
        return dict(made.entries), made.declared_m, pi, mu, made
    explicit = draw(st.sets(st.integers(0, n - 1)))
    spare = sorted(set(range(n)) - explicit)
    identity = frozenset(draw(st.sets(st.sampled_from(spare)))) if spare else frozenset()
    entries = {}
    for j in sorted(explicit):
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            entries[(i, j)] = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    entries = written_out(entries, identity)
    if draw(st.booleans()):
        totals = {j: sum(v for (_, jj), v in entries.items() if jj == j) for _, j in entries}
        entries = {(i, j): v / totals[j] for (i, j), v in entries.items()}
        image = {}
        for (i, j), v in entries.items():
            image[i] = image.get(i, 0) + v * pi[j]
        mu = {i: v for i, v in image.items() if v}
    return entries, draw(st.integers(1, n)), pi, mu, None


def image_of(entries, pi):
    mu = [Fraction(0)] * len(pi.p)
    for (i, j), v in entries.items():
        mu[i] += v * pi[j]
    return ProbabilityVector(tuple(mu))


def stochastic(entries, identity, declared, pi):
    """The small_certificates tuple of a column-stochastic matrix, its identity
    columns written out, mu its image of pi."""
    entries = written_out(entries, identity)
    return entries, declared, pi, image_of(entries, pi), None


def through_identity_columns():
    """Reversal and composition of a certificate whose column 2 holds a single
    1 on the diagonal, as an identity column does."""
    entries = written_out({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2), (0, 1): Fraction(1)},
                          {2})
    pi = ProbabilityVector((Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)))
    mu = image_of(entries, pi)
    nu = image_of(entries, mu)
    cert = SparseStochasticCertificate(3, entries, 2)
    reverse = reverse_certificate(cert, pi, mu)
    compose = compose_certificates(cert, cert, pi, mu, nu)
    return [(dict(reverse.entries), reverse.declared_m, mu, pi, reverse),
            (dict(compose.entries), compose.declared_m, pi, nu, compose)]


HALVES = ProbabilityVector((Fraction(1, 2), Fraction(1, 2)))
EDGE_CERTIFICATES = [
    # a column over declared_m while every row keeps within it
    stochastic({(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 3), (2, 0): Fraction(1, 3),
                (3, 1): Fraction(1)}, {2, 3}, 2, ProbabilityVector((Fraction(1, 4),) * 4)),
    # masses and flows beyond int64 are held as Python ints
    stochastic({(0, 0): Fraction(1, 2 ** 70), (1, 0): Fraction(2 ** 70 - 1, 2 ** 70)}, {1}, 2,
               HALVES),
    # flows that fit int64 but whose column sum does not
    (written_out({(0, 0): Fraction(2 ** 62 + 1, 2 ** 63 - 1),
                  (1, 0): Fraction(2 ** 62 + 1, 2 ** 63 - 1)}, {1}), 2, HALVES, HALVES, None),
    *through_identity_columns(),
]


@PROPERTY_SETTINGS
@given(small_certificates(),
       st.sampled_from(["none", "flow", "mass", "extra", "dropped"]),
       st.sampled_from(["vector", "list", "dict"]), st.data())
@example(EDGE_CERTIFICATES[0], "none", "vector", None)
@example(EDGE_CERTIFICATES[1], "none", "vector", None)
@example(EDGE_CERTIFICATES[2], "none", "list", None)
@example(EDGE_CERTIFICATES[3], "none", "dict", None)
@example(EDGE_CERTIFICATES[4], "none", "vector", None)
def test_small_certificates_match_rational_reference(made, change, form, data):
    entries, declared, pi, mu, solved = made
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
        else:  # dropped
            del entries[(i, j)]
    cert = SparseStochasticCertificate(len(pi.p), entries, declared)
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


def own_marginals(table):
    """(pi, mu) of a table: its masses and its image counts over its block count."""
    return ({code: Fraction(c, table.blocks) for code, c in zip(codes.tolist(), counts.tolist())}
            for codes, counts in ((table.columns, table.masses),
                                  (table.image_codes, table.image_counts)))


def rational_view(table):
    """The reference check against the table's own marginals, and its degrees."""
    pi, mu = own_marginals(table)
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
    table = build_table(cell)
    assert integer_view(table) == rational_view(table)
    assert table.validate().ok


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
    assert set(table.identity_columns) == identity
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
def test_table_validator_agrees_on_image_code_counted_zero(cell, data):
    # a probability of 0 is no condition: an image code counted 0 breaks nothing
    table = build_table(cell)
    free = sorted(set(range(table.n)) - set(table.image_codes.tolist()))
    assume(free)
    image = dict(zip(table.image_codes.tolist(), table.image_counts.tolist()))
    image[data.draw(st.sampled_from(free))] = 0
    codes = sorted(image)
    zero = replace_pairs(table, table.cols, table.rows, table.flows,
                         image=(codes, [image[y] for y in codes]))
    assert integer_view(zero) == rational_view(zero) == integer_view(table)


def test_table_column_over_its_bound_agrees():
    # column 0 holds three pairs, and no row more than two entries with its identity 1
    table = BlockCoupling(Alphabet(2), 2, 1, 4, [0, 0, 0, 1], [0, 1, 2, 3], [1, 1, 1, 1],
                          [0, 1], [3, 1], [0, 1, 2, 3], [1, 1, 1, 1])
    table.declared_m = 2
    assert integer_view(table) == rational_view(table)
    assert integer_view(table)[0] == (False, "support-bound", "column 0 has 3 > 2 entries")


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
