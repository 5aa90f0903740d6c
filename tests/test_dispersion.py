import copy
import gc
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fsdim import (Alphabet, BlockDistribution, DigitSequence, InsufficientDigitsError,
                   ProbabilityVector, SparseStochasticCertificate, UnresolvedCarryError,
                   block_distribution_as_code_vector, build_banded_worst_case,
                   certificate_bound_bits, certificate_to_json_dict,
                   compose_certificates, delta_exact,
                   gen_champernowne, gen_rational_expansion, integer_multiple_certificate,
                   majorizes, reverse_certificate, shannon_entropy, validate_certificate)

import fsdim.dispersion
from fsdim.dispersion import (MAX_CERTIFICATE_DIMENSION, BlockCoupling, UnobservedColumns,
                              ValidationOutcome, _coupling_with_degree_bound, _reachable)
from oracles import (dispersion_m_bruteforce, dispersion_m_unpruned, reachable_by_accumulate,
                     validate_certificate_rational, written_certificate_record)

F = Fraction
CHAMPERNOWNE_100 = gen_champernowne(Alphabet(10), 100)


def code_counts(dist):
    """{block code: count} of a block distribution."""
    return dict(zip(dist.values.tolist(), dist.counts.tolist()))


def vec(*entries):
    return ProbabilityVector(tuple(F(e) for e in entries))


def random_vector(rng, n):
    d = rng.randint(1, 64)
    cuts = sorted(rng.sample(range(d + n - 1), n - 1)) if n > 1 else []
    parts, prev = [], -1
    for c in cuts:
        parts.append(c - prev - 1)
        prev = c
    parts.append(d + n - 2 - prev if n > 1 else d)
    return ProbabilityVector(tuple(F(x, d) for x in parts))


# a witness is integer flows {(row, col): B} over column masses {col: c}, entries B / c
IDENTITY_2 = SparseStochasticCertificate(2, {(0, 0): 1, (1, 1): 1}, {0: 1, 1: 1}, 1)
HALVES = vec(F(1, 2), F(1, 2))


class TestProbabilityVector:
    def test_validates(self):
        vec(F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            vec(F(1, 2), F(1, 3))
        with pytest.raises(ValueError):
            vec(F(3, 2), F(-1, 2))


# every reader of a probability vector, given the bad vector in one argument
VECTOR_READERS = {
    "ProbabilityVector": ProbabilityVector,
    "shannon_entropy": shannon_entropy,
    "validate_certificate": lambda v: validate_certificate(IDENTITY_2, HALVES, v),
    "delta_exact": lambda v: delta_exact(v, HALVES),
    "majorizes": lambda v: majorizes(HALVES, v),
    "apply": lambda v: IDENTITY_2.apply(v),
    "reverse_certificate": lambda v: reverse_certificate(IDENTITY_2, v, HALVES),
    "compose_certificates": lambda v: compose_certificates(IDENTITY_2, IDENTITY_2, HALVES,
                                                           HALVES, v),
}


@pytest.mark.parametrize("read", VECTOR_READERS.values(), ids=VECTOR_READERS)
@pytest.mark.parametrize("vector,message", [
    ((0.5, 0.5), "probabilities must be exact rationals"),
    ((F(3, 2), F(-1, 2)), "negative probability"),
    ((F(1, 2), F(1, 4)), "probabilities sum to 3/4, expected exactly 1"),
    ({0: F(1, 2), 1: F(1, 2)}, "probabilities must be a sequence, not a dict"),
], ids=["float", "negative", "not-summing-to-1", "sparse-dict"])
def test_one_validity_rule(read, vector, message):
    # ProbabilityVector alone decides what a probability vector is
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(vector)


class TestValidateCertificate:
    def test_identity_on_any_vector(self):
        pi = vec(F(2, 3), F(1, 3))
        assert validate_certificate(IDENTITY_2, pi, pi).ok

    def test_permutation_gives_zero_bound(self):
        pi = vec(F(2, 3), F(1, 3))
        mu = vec(F(1, 3), F(2, 3))
        perm = SparseStochasticCertificate(2, {(1, 0): 1, (0, 1): 1}, {0: 1, 1: 1}, 1)
        out = validate_certificate(perm, pi, mu)
        assert out.ok  # certifies dispersion 0 although pi != mu

    def test_reports_first_violation(self):
        pi = vec(F(1, 2), F(1, 2))
        bad = SparseStochasticCertificate(2, {(0, 0): 1, (0, 1): 1}, {0: 2, 1: 1}, 2)
        out = validate_certificate(bad, pi, pi)
        assert not out.ok and out.violation == "stochastic-columns"

        not_marginal = SparseStochasticCertificate(2, {(0, 0): 1, (0, 1): 1}, {0: 1, 1: 1}, 2)
        out = validate_certificate(not_marginal, pi, vec(F(1, 2), F(1, 2)))
        assert not out.ok and out.violation == "marginal-map"

        overfull = SparseStochasticCertificate(
            2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, {0: 2, 1: 2}, 1)
        out = validate_certificate(overfull, pi, pi)
        assert not out.ok and out.violation == "support-bound"


class TestDeltaExact:
    def test_identity_is_zero(self):
        pi = vec(F(1, 2), F(1, 4), F(1, 4))
        res = delta_exact(pi, pi)
        assert res.m_star == 1 and res.delta_bits == 0.0
        assert res.method == "exact-search"

    def test_point_to_uniform(self):
        res = delta_exact(vec(1, 0), vec(F(1, 2), F(1, 2)))
        assert res.m_star == 2 and res.delta_bits == 1.0

    def test_three_dim_example(self):
        res = delta_exact(vec(F(1, 2), F(1, 2), 0), vec(F(1, 2), F(1, 4), F(1, 4)))
        assert res.m_star == 2 and res.delta_bits == 1.0

    def test_witness_always_validates(self):
        rng = random.Random(100)
        for i in range(60):
            n = 2 + i % 3
            pi, mu = random_vector(rng, n), random_vector(rng, n)
            res = delta_exact(pi, mu)
            out = validate_certificate(res.witness, pi, mu)
            assert out.ok, out.detail
            assert max(res.witness.max_degrees()) <= res.witness.declared_m

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(200)
        for i in range(25):
            n = 2 + i % 2  # oracle is exponential; keep it tiny
            pi, mu = random_vector(rng, n), random_vector(rng, n)
            res = delta_exact(pi, mu)
            expected = dispersion_m_bruteforce([pi[j] for j in range(n)],
                                               [mu[i2] for i2 in range(n)])
            assert res.m_star == expected, (pi.p, mu.p)

    def test_matches_bruteforce_oracle_n4(self):
        rng = random.Random(300)
        for _ in range(3):
            pi, mu = random_vector(rng, 4), random_vector(rng, 4)
            res = delta_exact(pi, mu)
            expected = dispersion_m_bruteforce([pi[j] for j in range(4)],
                                               [mu[i] for i in range(4)])
            assert res.m_star == expected

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension 7 exceeds exact-solver cap 6"):
            delta_exact(vec(*([F(1, 7)] * 7)), vec(*([F(1, 7)] * 7)))

    def test_budget_fallback_is_flagged_upper_bound(self, monkeypatch):
        pi = vec(F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6))
        mu = vec(F(1, 2), F(1, 10), F(1, 10), F(1, 10), F(1, 10), F(1, 10))
        exact = delta_exact(pi, mu)
        assert exact.method == "exact-search"
        monkeypatch.setattr(fsdim.dispersion, "SEARCH_NODE_BUDGET", 0)
        res = delta_exact(pi, mu)
        assert res.method == "certificate-upper-bound"
        assert res.witness.declared_m == res.m_star == max(res.witness.max_degrees())
        assert validate_certificate_rational(res.witness, pi, mu).ok
        assert exact.m_star <= res.m_star

    def test_result_does_not_depend_on_the_clock(self, monkeypatch):
        """The heavy n = 6 pair of scripts/report_bytes.sh solves exactly however
        much time seems to pass: the search counts nodes, not seconds."""
        pi = vec(F(2, 15), F(1, 5), F(2, 15), F(1, 15), F(1, 5), F(4, 15))
        mu = vec(0, F(4, 13), F(5, 13), F(1, 13), F(3, 13), 0)
        expected = delta_exact(pi, mu)
        clock = iter(range(0, 10 ** 9, 100))
        monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
        res = delta_exact(pi, mu)
        assert res.method == expected.method == "exact-search"
        assert res.m_star == expected.m_star


@st.composite
def vector_pairs(draw):
    """Two probability vectors of one dimension n <= 6, denominators <= 12."""
    n = draw(st.integers(2, 6))

    def vector():
        d = draw(st.integers(1, 12))
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
        return vec(*(F(b - a, d) for a, b in zip([0] + cuts, cuts + [d])))

    return vector(), vector()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(vector_pairs())
def test_pruned_search_matches_unpruned_search(pair):
    """The reachability pruning loses no coupling: the least m equals the
    search that prunes only nodes with no edges left, the witness is valid
    at that m, and for n <= 4 every m the search refuses is infeasible by
    exhaustive enumeration."""
    pi, mu = pair
    res = delta_exact(pi, mu)
    assert res.method == "exact-search"
    assert res.m_star == dispersion_m_unpruned(pi.p, mu.p), (pi.p, mu.p)
    assert res.witness.declared_m == res.m_star
    assert validate_certificate_rational(res.witness, pi, mu).ok
    if pi.n <= 4:
        least = dispersion_m_bruteforce(pi.p, mu.p)
        scale = math.lcm(*(x.denominator for x in pi.p + mu.p))
        col_mass = [int(x * scale) for x in pi.p if x]
        row_mass = [int(x * scale) for x in mu.p if x]
        for m in range(1, pi.n + 1):
            found = _coupling_with_degree_bound(col_mass, row_mass, m, None, [0])
            assert (found is None) == (m < least), (pi.p, mu.p, m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vector_pairs(), st.integers(0, 96))
def test_node_budget_changes_nothing_it_does_not_cut(monkeypatch, pair, share):
    """With SEARCH_NODE_BUDGET = B, a search that stays within B returns the
    unbudgeted result, witness bytes and node count included; one that needs
    more below m = n returns the m = n witness, flagged as an upper bound and
    valid at its declared m* >= the exact one.  Only the searches below m = n
    count against B, so an exact m* = n may also be reached with B below the
    unbudgeted node count.  B is drawn in [0, 1.5 * nodes], and the two
    budgets either side of the node count are checked every time."""
    pi, mu = pair
    exact = delta_exact(pi, mu)  # the default budget is far above these searches
    for budget in (share * exact.nodes // 64, exact.nodes - 1, exact.nodes):
        with monkeypatch.context() as patch:
            patch.setattr(fsdim.dispersion, "SEARCH_NODE_BUDGET", budget)
            res = delta_exact(pi, mu)
        if res.method == "exact-search":
            assert budget >= exact.nodes or exact.m_star == pi.n, (pi.p, mu.p, budget)
            assert (res.m_star, res.nodes) == (exact.m_star, exact.nodes)
            assert (certificate_to_json_dict(res.witness)
                    == certificate_to_json_dict(exact.witness))
        else:
            assert res.method == "certificate-upper-bound"
            assert budget < exact.nodes, (pi.p, mu.p, budget)
            assert res.witness.declared_m == res.m_star >= exact.m_star
            assert validate_certificate_rational(res.witness, pi, mu).ok


# the n = 5 pair with a zero entry and the heavy n = 6 pair (delta-solve pool
# triple 114, mu -> pi) that scripts/report_bytes.sh solves
ZERO_ENTRY_5 = (vec(F(1, 4), 0, F(1, 4), F(1, 3), F(1, 6)),
                vec(F(1, 5), F(1, 10), F(3, 10), F(1, 4), F(3, 20)))
HEAVY_6 = (vec(F(2, 15), F(1, 5), F(2, 15), F(1, 15), F(1, 5), F(4, 15)),
           vec(0, F(4, 13), F(5, 13), F(1, 13), F(3, 13), 0))


def test_search_traversal_is_pinned():
    """m*, method, node count and witness bytes of fixed pairs: one per n = 2..4
    from random.Random(1), then the two pairs above.  A change to the search
    order or to its pruning changes these on purpose."""
    rng = random.Random(1)
    pairs = [(random_vector(rng, n), random_vector(rng, n)) for n in (2, 3, 4)]
    pairs += [ZERO_ENTRY_5, HEAVY_6]
    pinned = [
        (2, 4, [[0, 0, "4/9"], [0, 1, "1/1"], [1, 0, "5/9"]]),
        (3, 7, [[0, 0, "192/427"], [0, 1, "1/1"], [1, 0, "67/427"], [1, 2, "1/1"],
                [2, 0, "24/61"]]),
        (3, 341, [[0, 1, "1/1"], [0, 2, "86/275"], [0, 3, "457/700"], [1, 0, "1/1"],
                  [1, 2, "27/55"], [2, 3, "243/700"], [3, 2, "54/275"]]),
        (2, 122, [[0, 0, "4/5"], [0, 1, "1/1"], [1, 2, "2/5"], [2, 3, "2/5"], [2, 4, "1/1"],
                  [3, 0, "1/5"], [3, 3, "3/5"], [4, 2, "3/5"]]),
        (3, 9747, [[1, 0, "1/1"], [1, 4, "34/39"], [2, 1, "1/1"], [2, 2, "11/26"],
                   [2, 5, "25/52"], [3, 2, "15/26"], [4, 3, "1/1"], [4, 4, "5/39"],
                   [4, 5, "27/52"]]),
    ]
    for (pi, mu), (m_star, nodes, entries) in zip(pairs, pinned):
        res = delta_exact(pi, mu)
        assert (res.m_star, res.method, res.nodes) == (m_star, "exact-search", nodes), pi.p
        assert json.dumps(certificate_to_json_dict(res.witness)) == json.dumps(
            {"n": pi.n, "declared_m": m_star, "entries": entries, "identity_columns": []})


def test_search_leaves_no_cyclic_garbage():
    # the search's memo and profiles go when it returns, not at the next collection
    gc.collect()
    gc.disable()
    try:
        delta_exact(*HEAVY_6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reversal_and_composition_leave_no_cyclic_garbage():
    # a reversal or a composition leaves nothing for the cyclic collector
    pi, mu = HEAVY_6
    forward, backward = delta_exact(pi, mu).witness, delta_exact(mu, pi).witness
    gc.collect()
    gc.disable()
    try:
        reverse_certificate(backward, mu, pi)
        assert gc.collect() == 0
        compose_certificates(backward, forward, pi, mu, pi)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_entries_are_a_read_view_of_either_certificate():
    # perfbench's reference and self-test read and corrupt `entries` on deep
    # copies: a write shows in the view and leaves the integer check alone
    pi, mu = vec(F(1, 2), F(1, 3), F(1, 6)), vec(F(1, 3), F(1, 3), F(1, 3))
    table = integer_multiple_certificate(gen_champernowne(Alphabet(10), 3000), 3, 2, 400)[0]
    cases = [(delta_exact(pi, mu).witness, pi, mu), (table, None, None)]
    for cert, src, dst in cases:
        check = cert.validate if cert is table else lambda: validate_certificate(cert, src, dst)
        assert check().ok
        bad = copy.deepcopy(cert)
        (i, j), v = next(iter(bad.entries.items()))
        bad.entries[(i, j)] = v / 2
        assert dict(bad.entries)[(i, j)] == v / 2 and dict(cert.entries)[(i, j)] == v
        assert (bad.validate() if cert is table else validate_certificate(bad, src, dst)).ok


profiles = st.lists(st.tuples(st.integers(1, 40), st.integers(0, 8)), max_size=6).map(
    lambda p: tuple(sorted(p)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(profiles, profiles)
@example((), ())
@example(((5, 0),), ())
@example(((5, 3),), ((2, 1), (3, 1)))
@example(((6, 3),), ((2, 1), (3, 1)))
def test_dead_state_test_matches_reference(side, other):
    """Open (mass, degrees-left) profiles, ascending as the search keys them:
    d = 0, d past the other side's length and an empty other side included."""
    assert _reachable(side, other) == reachable_by_accumulate(side, other)


@st.composite
def vector_triples(draw):
    """Three probability vectors of one dimension n <= 5, denominators <= 12."""
    n = draw(st.integers(1, 5))

    def vector():
        d = draw(st.integers(1, 12))
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
        return vec(*(F(b - a, d) for a, b in zip([0] + cuts, cuts + [d])))

    return vector(), vector(), vector()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vector_triples())
@example((vec(F(1, 2), F(1, 2)), vec(F(1, 3), F(2, 3)), vec(F(1, 4), F(3, 4))))
def test_solver_is_symmetric_submultiplicative_and_forest_at_n(triple):
    """m(pi, mu) = m(mu, pi) and m(pi, nu) <= m(pi, mu) * m(mu, nu); the reversal
    and the composition of solver witnesses validate at their declared bounds;
    a witness with m* = n is a support forest on its positive-mass columns."""
    pi, mu, nu = triple
    pm, mp, mn, pn = (delta_exact(a, b)
                      for a, b in ((pi, mu), (mu, pi), (mu, nu), (pi, nu)))
    assert pm.m_star == mp.m_star
    assert pn.m_star <= pm.m_star * mn.m_star
    rev = reverse_certificate(pm.witness, pi, mu)
    assert rev.declared_m == pm.m_star
    assert validate_certificate_rational(rev, mu, pi).ok
    comp = compose_certificates(mn.witness, pm.witness, pi, mu, nu)
    assert comp.declared_m == pm.m_star * mn.m_star
    assert validate_certificate_rational(comp, pi, nu).ok
    for res, src, dst in ((pm, pi, mu), (mp, mu, pi), (mn, mu, nu), (pn, pi, nu)):
        assert res.method == "exact-search"
        if res.m_star == pi.n:
            edges = sum(1 for _, j in res.witness.entries if src[j] > 0)
            assert edges <= sum(x > 0 for x in src.p) + sum(x > 0 for x in dst.p) - 1


class TestPseudometricAxioms:
    def test_axioms_on_random_small_vectors(self):
        rng = random.Random(400)
        for i in range(40):
            n = 2 + i % 3
            pi, mu, nu = (random_vector(rng, n) for _ in range(3))
            d_pm = delta_exact(pi, mu).m_star
            d_mp = delta_exact(mu, pi).m_star
            d_mn = delta_exact(mu, nu).m_star
            d_pn = delta_exact(pi, nu).m_star
            assert d_pm == d_mp
            assert d_pn <= d_pm * d_mn
            assert delta_exact(pi, pi).m_star == 1

    def test_contractivity_on_random_small_vectors(self):
        rng = random.Random(500)
        for i in range(40):
            n = 2 + i % 3
            pi, mu = random_vector(rng, n), random_vector(rng, n)
            res = delta_exact(pi, mu)
            assert abs(shannon_entropy(pi) - shannon_entropy(mu)) <= res.delta_bits + 2 ** -30

    def test_point_mass_versus_uniform_is_tight(self):
        pi = vec(1, 0)
        mu = vec(F(1, 2), F(1, 2))
        res = delta_exact(pi, mu)
        assert res.delta_bits == 1.0
        assert abs(shannon_entropy(pi) - shannon_entropy(mu)) == 1.0


class TestReverseCertificate:
    def test_identity_reverses_to_identity(self):
        rev = reverse_certificate(IDENTITY_2, HALVES, HALVES)
        assert rev.entries == {(0, 0): F(1), (1, 1): F(1)}

    def test_worked_example(self):
        pi = vec(F(1, 2), F(1, 2))
        mu = vec(1, 0)
        cert = SparseStochasticCertificate(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1}, {0: 2, 1: 1}, 2)
        assert validate_certificate(cert, mu, pi).ok
        rev = reverse_certificate(cert, mu, pi)
        assert rev.entries == {(0, 0): F(1), (0, 1): F(1)}
        assert validate_certificate(rev, pi, mu).ok

    def test_sparsity_preserved_on_random_witnesses(self):
        rng = random.Random(600)
        for i in range(30):
            n = 2 + i % 3
            pi, mu = random_vector(rng, n), random_vector(rng, n)
            res = delta_exact(mu, pi)  # witness maps mu -> pi
            rev = reverse_certificate(res.witness, mu, pi)
            assert validate_certificate(rev, pi, mu).ok
            assert max(rev.max_degrees()) <= res.witness.declared_m

    def test_rejects_invalid_input(self):
        bad = SparseStochasticCertificate(2, {(0, 0): 1, (1, 1): 1}, {0: 2, 1: 1}, 1)
        with pytest.raises(ValueError):
            reverse_certificate(bad, HALVES, HALVES)


class TestComposeCertificates:
    def test_identity_composition(self):
        pi = vec(F(1, 3), F(2, 3))
        comp = compose_certificates(IDENTITY_2, IDENTITY_2, pi, pi, pi)
        assert comp.declared_m == 1
        assert validate_certificate(comp, pi, pi).ok

    def test_permutations_compose_to_permutation(self):
        pi = vec(F(1, 2), F(1, 3), F(1, 6))
        ones = {0: 1, 1: 1, 2: 1}
        swap01 = SparseStochasticCertificate(3, {(1, 0): 1, (0, 1): 1, (2, 2): 1}, ones, 1)
        mu = vec(F(1, 3), F(1, 2), F(1, 6))
        swap12 = SparseStochasticCertificate(3, {(0, 0): 1, (2, 1): 1, (1, 2): 1}, ones, 1)
        nu = vec(F(1, 3), F(1, 6), F(1, 2))
        comp = compose_certificates(swap12, swap01, pi, mu, nu)
        assert comp.declared_m == 1
        assert validate_certificate(comp, pi, nu).ok

    def test_random_composition_validates_with_product_bound(self):
        rng = random.Random(700)
        for i in range(20):
            n = 2 + i % 3
            pi, mu, nu = (random_vector(rng, n) for _ in range(3))
            r1 = delta_exact(pi, mu)
            r2 = delta_exact(mu, nu)
            comp = compose_certificates(r2.witness, r1.witness, pi, mu, nu)
            assert validate_certificate(comp, pi, nu).ok
            assert max(comp.max_degrees()) <= r1.m_star * r2.m_star


class TestBandedWorstCase:
    def test_shape_n4_m2(self):
        banded = build_banded_worst_case(4, 2)
        assert sorted(banded.entries) == [(0, 0), (0, 1), (1, 2), (1, 3)]

    def test_block_sums(self):
        banded = build_banded_worst_case(4, 2)
        out = banded.apply([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
        assert out == (F(7, 10), F(3, 10), 0, 0)

    def test_m1_is_identity(self):
        banded = build_banded_worst_case(3, 1)
        assert sorted(banded.entries) == [(0, 0), (1, 1), (2, 2)]

    def test_majorization_chain_on_random_pairs(self):
        # the spread of the sorted source majorizes the sorted image, and
        # entropies fall accordingly, for every exact-solver witness
        rng = random.Random(800)
        for i in range(30):
            n = 2 + i % 3
            pi, mu = random_vector(rng, n), random_vector(rng, n)
            res = delta_exact(pi, mu)
            banded = build_banded_worst_case(n, res.m_star)
            spread = banded.apply(sorted(pi.p, reverse=True))
            assert majorizes(spread, mu)
            assert shannon_entropy(spread) <= shannon_entropy(mu) + 2 ** -30
            assert shannon_entropy(pi) <= shannon_entropy(spread) + math.log2(res.m_star) + 2 ** -30


class TestMajorizes:
    def test_examples(self):
        assert majorizes([F(1), F(0)], [F(1, 2), F(1, 2)])
        assert not majorizes([F(1, 2), F(1, 2)], [F(3, 5), F(2, 5)])
        assert majorizes([F(1, 3), F(1, 3), F(1, 3)], [F(1, 3), F(1, 3), F(1, 3)])

    def test_sorts_internally(self):
        assert majorizes([F(0), F(1)], [F(1, 2), F(1, 2)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
            majorizes([F(1)], [F(1, 2), F(1, 2)])


TABLE_100 = integer_multiple_certificate(CHAMPERNOWNE_100, 3, 2, 10)[0]  # base 10, l = 2
TABLE_REFUSED = (r"validate_certificate takes solver certificates; "
                 r"a block table checks itself: BlockCoupling\.validate\(\)")


@pytest.mark.parametrize("call,message", [
    (lambda: UnobservedColumns(4, [1, 4]), r"observed code outside range\(4\)"),
    (lambda: UnobservedColumns(4, [2, 1]), "observed codes are not strictly ascending"),
    (lambda: UnobservedColumns(4, [1, 1, 2]), "observed codes are not strictly ascending"),
    (lambda: SparseStochasticCertificate(0, {}, {}, 1), "dimension and declared_m must be positive"),
    (lambda: SparseStochasticCertificate(2, {(0, 0): 1}, {0: 1}, 0),
     "dimension and declared_m must be positive"),
    (lambda: SparseStochasticCertificate(2, {(0, 2): 1}, {0: 1}, 1),
     r"entry outside range\(2\) or flow not positive"),
    (lambda: SparseStochasticCertificate(2, {(0, 0): 0}, {0: 1}, 1),
     r"entry outside range\(2\) or flow not positive"),
    (lambda: SparseStochasticCertificate(2, {}, {2: 1}, 1),
     r"mass outside range\(2\) or not positive"),
    (lambda: SparseStochasticCertificate(2, {(0, 0): 1}, {0: 0}, 1),
     r"mass outside range\(2\) or not positive"),
    (lambda: validate_certificate(IDENTITY_2, vec(F(1, 3), F(1, 3), F(1, 3)), HALVES),
     "dimension mismatch: 2 vs 3"),
    (lambda: validate_certificate(TABLE_100, HALVES, HALVES), TABLE_REFUSED),
    (lambda: validate_certificate_rational(IDENTITY_2, {0: F(1, 2), 7: F(1, 2)}, {0: F(1, 2)}),
     r"vector index outside range\(2\)"),
    (lambda: validate_certificate_rational(TABLE_100, {0: F(1, 2), 10 ** 6: F(1, 2)}, {0: F(1)}),
     r"vector index outside range\(100\)"),
    (lambda: delta_exact(HALVES, vec(1, 0, 0)), "dimension mismatch: 2 vs 3"),
    (lambda: compose_certificates(IDENTITY_2, SparseStochasticCertificate(
        3, {(i, i): 1 for i in range(3)}, dict.fromkeys(range(3), 1), 1), HALVES, HALVES, HALVES),
     "inner dimension mismatch"),
    (lambda: compose_certificates(IDENTITY_2, IDENTITY_2, HALVES, vec(1, 0), HALVES),
     r"inner certificate invalid: marginal-map \(\(A\*pi\)\[0\] = 1/2 != 1\)"),
    (lambda: reverse_certificate(TABLE_100, HALVES, HALVES), TABLE_REFUSED),
    (lambda: compose_certificates(TABLE_100, TABLE_100, HALVES, HALVES, HALVES), TABLE_REFUSED),
    (lambda: build_banded_worst_case(3, 4), "need 1 <= m <= n"),
    (lambda: build_banded_worst_case(3, 0), "need 1 <= m <= n"),
], ids=["observed-code", "unsorted-observed", "repeated-observed", "zero-dimension",
        "zero-declared-m", "entry-outside", "flow-zero", "mass-outside", "mass-zero",
        "vector-dimension", "validate-table", "reference-witness-vector-index",
        "reference-table-vector-index",
        "solver-dimensions", "compose-dimensions", "compose-invalid-inner", "reverse-table",
        "compose-table", "banded-m-above-n", "banded-m-zero"])
def test_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("build,message", [
    (lambda: delta_exact(HALVES, HALVES), "solver produced invalid witness: planted"),
    (lambda: reverse_certificate(IDENTITY_2, HALVES, HALVES),
     "reversed certificate invalid: planted"),
    (lambda: compose_certificates(IDENTITY_2, IDENTITY_2, HALVES, HALVES, HALVES),
     "composed certificate invalid: planted"),
], ids=["solver-witness", "reversed", "composed"])
def test_invalid_constructed_certificate_is_an_internal_error(monkeypatch, build, message):
    # the inputs validate as usual; only the check of the constructed output fails
    real = fsdim.dispersion.validate_certificate

    def fail_on_output(cert, pi, mu):
        if cert is IDENTITY_2:
            return real(cert, pi, mu)
        return ValidationOutcome(False, "marginal-map", "planted")

    monkeypatch.setattr(fsdim.dispersion, "validate_certificate", fail_on_output)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        build()


def test_unobserved_columns_print_their_size():
    view = UnobservedColumns(5, [1, 3])
    assert repr(view) == "UnobservedColumns(n=5, observed=2 codes)"


class TestIntegerMultipleCertificate:
    def test_point_mass_stream(self):
        seq = gen_rational_expansion(F(1, 3), Alphabet(10), 300)
        cert, da, db = integer_multiple_certificate(seq, 2, 1, 100)
        assert code_counts(da) == {3: 100}
        assert code_counts(db) == {6: 100}
        assert cert.entries == {(6, 3): F(1)}
        assert 3 not in cert.identity_columns and 6 in cert.identity_columns

    def test_identity_multiplier_is_subpermutation(self):
        seq = gen_champernowne(Alphabet(2), 1000)
        cert, da, db = integer_multiple_certificate(seq, 1, 3, 200)
        assert code_counts(da) == code_counts(db)
        assert cert.max_degrees() == (1, 1)
        assert certificate_bound_bits(1, 2, 3) == 1.0  # log2(1*(1+1)*1)

    def test_champernowne_supports_within_bounds(self):
        seq = gen_champernowne(Alphabet(2), 4300)
        cert, da, db = integer_multiple_certificate(seq, 3, 4, 1000)
        assert cert.validate().ok
        rows, cols = cert.max_degrees()
        assert cols <= 9   # (s+1)*m = 3*3
        assert rows <= 9   # g*(s+1)*m with g = gcd(3, 16) = 1

    def test_entropy_gap_within_bound_and_constant_in_l_and_n(self):
        seq = gen_champernowne(Alphabet(2), 9000)
        bounds = set()
        for l in (1, 2, 3):
            bound = certificate_bound_bits(5, 2, l)
            assert bound <= math.log2(5 * 5 * (2 + 1))  # log2(m^2 (s+1))
            bounds.add(round(bound, 12))
            for n in (500, 1500):
                cert, da, db = integer_multiple_certificate(seq, 5, l, n)
                gap = abs(da.bits - db.bits)
                assert gap <= bound + 2 ** -30
        assert len(bounds) == 1  # gcd(5, 2^l) = 1 for every l: bound constant

    def test_precomputed_product_matches(self):
        from fsdim import mul_int_mod1
        seq = gen_champernowne(Alphabet(10), 2000)
        product = mul_int_mod1(seq, 7, 1500)
        c1, da1, db1 = integer_multiple_certificate(seq, 7, 2, 700)
        c2, da2, db2 = integer_multiple_certificate(seq, 7, 2, 700,
                                                    product_digits=product.digits)
        assert c1.entries == c2.entries
        assert code_counts(da1) == code_counts(da2) and code_counts(db1) == code_counts(db2)

    @pytest.mark.parametrize("seq,m,l,n,product,error,message", [
        (CHAMPERNOWNE_100, 0, 2, 10, None, ValueError, "m must be a positive integer"),
        (CHAMPERNOWNE_100, 3, 0, 10, None, ValueError, "need l >= 1 and n >= 1"),
        (CHAMPERNOWNE_100, 3, 2, 0, None, ValueError, "need l >= 1 and n >= 1"),
        (CHAMPERNOWNE_100, 3, 8, 10, None, ValueError,
         f"block space k^l = 100000000 exceeds the certificate cap {MAX_CERTIFICATE_DIMENSION}"),
        (CHAMPERNOWNE_100, 3, 2, 10, 19, UnresolvedCarryError,
         "precomputed product covers 19 of 20 digits"),
        (DigitSequence(Alphabet(10), bytes([1, 2, 3])), 12, 2, 5, None, InsufficientDigitsError,
         "requested 10 result digits but the stream has only 3"),
        # 3 times 0.333... straddles 1 at every lookahead: no digit is certified
        (DigitSequence(Alphabet(10), bytes([3] * 200)), 3, 2, 10, None, UnresolvedCarryError,
         "only 0 of 20 product digits certified"),
    ])
    def test_refuses_bad_inputs(self, seq, m, l, n, product, error, message):
        digits = None if product is None else gen_champernowne(Alphabet(10), product)
        with pytest.raises(error) as excinfo:
            integer_multiple_certificate(seq, m, l, n, product_digits=digits)
        assert type(excinfo.value) is error and str(excinfo.value) == message

    def test_worked_example_residues(self):
        # 12 * 0.345 = 4.14: block 34 maps to 14, and (14 - 12*34) mod 100 = 6
        # is the carry 1 plus the shift-in digit 5 times m_1 = 1
        seq = gen_rational_expansion(F(345, 1000), Alphabet(10), 40)
        cert = integer_multiple_certificate(seq, 12, 2, 3)[0]
        assert sorted(zip(cert.cols.tolist(), cert.rows.tolist(), cert.flows.tolist())) == [
            (0, 0, 1), (34, 14, 1), (50, 0, 1)]

    def test_carry_bound_m9(self):
        # r = 0: the residue (y - m*x) mod k^l is the carry alone, at most s = 9
        cert = integer_multiple_certificate(gen_champernowne(Alphabet(10), 800), 9, 3, 200)[0]
        residues = [(y - 9 * x) % 1000 for x, y in zip(cert.cols.tolist(), cert.rows.tolist())]
        assert 0 <= min(residues) and max(residues) <= 9

    @pytest.mark.parametrize("m", [12, 345])  # r = 1 and r = 2
    def test_stream_and_exact_tables_agree(self, m):
        exact = gen_rational_expansion(F(22, 7 ** 3), Alphabet(10), 400)
        stream = DigitSequence(Alphabet(10), exact.prefix(400))
        assert integer_multiple_certificate(exact, m, 3, 40)[0].entries == \
            integer_multiple_certificate(stream, m, 3, 40)[0].entries

    def test_refuses_product_in_another_base(self):
        with pytest.raises(ValueError, match="^product digits are base 10, alpha is base 2$"):
            integer_multiple_certificate(gen_champernowne(Alphabet(2), 20000), 3, 3, 1000,
                                         product_digits=gen_champernowne(Alphabet(10), 20000))


def test_certificate_soundness_bounds_exact_solution():
    # any validating certificate upper-bounds the exact least m: check on
    # solver witnesses, their reversals, and compositions
    rng = random.Random(900)
    for i in range(20):
        n = 2 + i % 3
        pi, mu, nu = (random_vector(rng, n) for _ in range(3))
        direct = delta_exact(pi, mu)
        assert direct.m_star <= direct.witness.declared_m
        rev_input = delta_exact(mu, pi)
        rev = reverse_certificate(rev_input.witness, mu, pi)
        assert validate_certificate(rev, pi, mu).ok
        assert direct.m_star <= rev.declared_m
        comp = compose_certificates(delta_exact(mu, nu).witness, direct.witness,
                                    pi, mu, nu)
        assert validate_certificate(comp, pi, nu).ok
        assert delta_exact(pi, nu).m_star <= comp.declared_m


def _solver_certificates():
    pi, mu, nu = vec(F(1, 2), F(0), F(1, 2)), vec(F(1, 3), F(1, 3), F(1, 3)), vec(F(1, 6), F(1, 2), F(1, 3))
    witness = delta_exact(pi, mu).witness
    assert [v for (_, j), v in witness.entries.items() if j == 1] == [1]  # the zero-mass column
    pi2, mu2 = vec(F(1, 3), F(2, 3)), vec(F(1, 2), F(1, 2))
    return {
        "witness-zero-mass-column": (witness, pi, mu),
        "witness-m-equals-n": (delta_exact(pi2, mu2).witness, pi2, mu2),
        "reversal": (reverse_certificate(delta_exact(mu, pi).witness, mu, pi), pi, mu),
        "composition": (compose_certificates(delta_exact(mu, nu).witness, witness, pi, mu, nu),
                        pi, nu),
        "identity-wrong-marginal": (IDENTITY_2, HALVES, vec(1, 0)),
    }


def _block_table_case(name):
    if name == "block-table-unobserved":  # base 10, l = 2: most columns unobserved
        cert, da, db = integer_multiple_certificate(CHAMPERNOWNE_100, 3, 2, 10)
    else:  # base 2, l = 3: every column observed
        cert, da, db = integer_multiple_certificate(gen_champernowne(Alphabet(2), 2000), 3, 3, 600)
    return cert, block_distribution_as_code_vector(da), block_distribution_as_code_vector(db)


WRITTEN_CASES = ["witness-zero-mass-column", "witness-m-equals-n", "reversal", "composition",
                 "identity-wrong-marginal", "block-table-unobserved", "block-table-observed"]


def written_case(name):
    if name.startswith("block-table"):
        return _block_table_case(name)
    return _solver_certificates()[name]


@pytest.mark.parametrize("name", WRITTEN_CASES)
def test_written_certificate_is_its_matrix(name):
    # the file lists every entry once, as [row, col, "num/den"] in order, and
    # the identity columns apart: only a block table has any
    cert = written_case(name)[0]
    text = json.dumps(certificate_to_json_dict(cert), indent=2)
    data = json.loads(text)
    assert type(data["n"]) is int and type(data["declared_m"]) is int
    assert all(type(i) is int and type(j) is int and type(v) is str and "/" in v
               for i, j, v in data["entries"])
    cells = [(i, j) for i, j, _ in data["entries"]]
    assert cells == sorted(set(cells))
    assert data["identity_columns"] == sorted(set(data["identity_columns"]))
    assert not set(data["identity_columns"]) & {j for _, j in cells}
    assert bool(data["identity_columns"]) == (name == "block-table-unobserved")
    record = written_certificate_record(data)
    assert (record.n, record.declared_m) == (cert.n, cert.declared_m)
    assert record.entries == cert.entries
    assert record.identity_columns == set(cert.identity_columns)
    assert json.dumps(data, indent=2) == text


@pytest.mark.parametrize("name", WRITTEN_CASES)
def test_written_certificate_validates_like_the_certificate(name):
    cert, pi, mu = written_case(name)
    record = written_certificate_record(json.loads(json.dumps(certificate_to_json_dict(cert))))
    # a block table checks itself against the distributions it was built from
    outcome = cert.validate() if isinstance(cert, BlockCoupling) else validate_certificate(cert, pi, mu)
    reference = validate_certificate_rational(record, pi, mu)
    assert (reference.ok, reference.violation, reference.detail) == \
        (outcome.ok, outcome.violation, outcome.detail)
    assert outcome.ok == (name != "identity-wrong-marginal")


def test_unobserved_columns_keep_their_own_codes():
    observed = np.array([1, 2])
    view = UnobservedColumns(4, observed)
    observed[0] = 3
    assert sorted(view) == [0, 3]


def test_block_table_cannot_change_through_its_cells():
    # the table keeps the cells' observed codes and counts: they are read-only
    seq = gen_champernowne(Alphabet(10), 5000)
    table, source, image = integer_multiple_certificate(seq, 3, 2, 400)
    for array in (source.values, source.counts, image.values, image.counts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99
    assert table.validate().ok


def test_block_table_cannot_change_through_its_pairs():
    # the table counts its pairs from the cells' codes into arrays of its own: they are read-only
    table = integer_multiple_certificate(gen_champernowne(Alphabet(10), 5000), 3, 2, 400)[0]
    for array in (table.rows, table.cols, table.flows):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert table.validate().ok


def hand_cell(codes, values, counts) -> BlockDistribution:
    """A cell holding `codes` and the marginal `values`, `counts` (its entropy is not read)."""
    return BlockDistribution(*(np.asarray(a, dtype=np.int64) for a in (codes, values, counts)),
                             0.0)


PAIRED = hand_cell([0, 1, 1], [0, 1], [1, 2])


@pytest.mark.parametrize("source, image, message", [
    (hand_cell([0, 1], [0, 1], [1]), hand_cell([0, 1], [0, 1], [1, 1]),
     "block codes and their counts differ in length"),
    (hand_cell([0, 1], [0, 1], [1, 1]), hand_cell([0, 1], [0, 1], [2]),
     "block codes and their counts differ in length"),
    # code 1 counted 2 and code 0 counted 1, listed in that order: the masses
    # would land on the wrong columns
    (hand_cell([1, 0, 1], [1, 0], [2, 1]), PAIRED, "observed codes are not strictly ascending"),
    (hand_cell([0, 1, 1], [0, 1, 1], [1, 1, 1]), PAIRED,
     "observed codes are not strictly ascending"),
    (hand_cell([0, 2, 1], [0, 1, 2], [1, 1, 1]), PAIRED, r"block code outside range\(2\)"),
    (PAIRED, hand_cell([0, -1, 1], [-1, 0, 1], [1, 1, 1]), r"block code outside range\(2\)"),
    (PAIRED, hand_cell([0, 1], [0, 1], [1, 1]),
     "source and image cells count different numbers of blocks"),
    # no blocks: validate() would divide by the block count, or pass a table of nothing
    (hand_cell([], [], []), hand_cell([], [0], [1]), "cells of no blocks certify nothing"),
    (hand_cell([], [], []), hand_cell([], [], []), "cells of no blocks certify nothing"),
], ids=["source-counts", "image-counts", "unsorted-observed", "repeated-observed",
        "source-code", "image-code", "block-counts", "no-blocks-image-counted", "no-blocks"])
def test_block_table_refuses_malformed_cells(source, image, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BlockCoupling(Alphabet(2), 1, 1, source, image)


def test_column_with_entries_but_no_mass_is_named():
    # flows in a column without a mass are refused by name, not with a KeyError
    with pytest.raises(ValueError, match="column 1 has entries but no mass"):
        SparseStochasticCertificate(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1}, {0: 1}, 1)
