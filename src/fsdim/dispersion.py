"""Logarithmic dispersion between probability vectors, with certificates.

The dispersion between pi and mu is log2 of the least m admitting a
column-stochastic nonnegative matrix A with A*pi = mu and at most m nonzero
entries in every row and column.  Any valid matrix certifies an upper bound;
the exact solver proves minimality by exhausting m-1.

The solver reduces the problem to coupling feasibility: scaling column j of
A by pi(j) turns conditions (i)+(ii) into "nonnegative matrix with column
sums pi and row sums mu" (a transportation plan) whose support degrees match
A's on positive-mass columns.  Every feasible plan has a vertex of its
support polytope whose support is a forest, so it suffices to search acyclic
support structures; values on a forest are forced by leaf peeling, making
feasibility an exact integer check.  Columns with pi(j) = 0 never constrain
feasibility (a single free entry placed in any row with slack keeps the
bound; enough slack always exists), so they are completed greedily.

Everything is exact rational arithmetic; entropies alone are floats.  Block
certificates between alpha and m*alpha are held as integer joint-count
tables (:class:`BlockCoupling`), on which every condition is an equality or
comparison of integer sums; they become rational matrices only on request
(:meth:`BlockCoupling.to_certificate`), for files and for the solver's
reversal and composition.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter, defaultdict
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .blockstats import BlockDistribution, _BlockCounts
from .digitseq import Alphabet, DigitSequence
from .realarith import (DEFAULT_LOOKAHEAD_CAP, UnresolvedCarryError, mul_int_mod1,
                        _multiplier_shape)

# block certificates index blocks by integer code; their unobserved columns
# are implicit, so memory grows with the observed blocks, not with k^l; the
# cap keeps pair codes x * k^l + y within int64
MAX_CERTIFICATE_DIMENSION = 16_777_216


@dataclass(frozen=True)
class ProbabilityVector:
    """Exact rational probability vector: entries >= 0 summing to exactly 1."""

    p: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(Fraction(x) for x in self.p))
        if any(x < 0 for x in self.p):
            raise ValueError("negative probability")
        if sum(self.p) != 1:
            raise ValueError(f"entries sum to {sum(self.p)}, expected exactly 1")

    @property
    def n(self) -> int:
        return len(self.p)

    def __getitem__(self, j: int) -> Fraction:
        return self.p[j]


_ROW, _COL = itemgetter(0), itemgetter(1)


class UnobservedColumns(Set):
    """The codes in range(n) outside `observed`, without listing them.

    Identity columns of a block certificate are the block codes that never
    occur in the source; this set answers membership, length and iteration
    from the observed codes alone, so it costs O(observed) memory whatever n
    is.  It compares equal to any set with the same members.
    """

    __slots__ = ("n", "observed")

    def __init__(self, n: int, observed: Iterable[int]):
        self.n = n
        self.observed = frozenset(observed)
        if any(not 0 <= j < n for j in self.observed):
            raise ValueError(f"observed code outside range({n})")

    def __contains__(self, j) -> bool:
        return 0 <= j < self.n and j not in self.observed

    def __len__(self) -> int:
        return self.n - len(self.observed)

    def __iter__(self):
        return itertools.filterfalse(self.observed.__contains__, range(self.n))

    def __eq__(self, other) -> bool:
        if isinstance(other, UnobservedColumns):
            return self.n == other.n and self.observed == other.observed
        if not isinstance(other, Set):
            return NotImplemented
        return len(self) == len(other) and all(j in other for j in self)

    @classmethod
    def _from_iterable(cls, it):
        # results of set operators are plain frozensets
        return frozenset(it)

    def __repr__(self) -> str:
        return f"UnobservedColumns(n={self.n}, observed={len(self.observed)} codes)"


@dataclass
class SparseStochasticCertificate:
    """Column-stochastic nonnegative matrix in sparse (row, col) -> value form.

    `identity_columns` holds the columns with a single 1 on the diagonal;
    they are disjoint from the columns of explicit entries.  Block
    certificates pass an :class:`UnobservedColumns`, so their zero-mass
    columns stay implicit and every check costs O(explicit entries) rather
    than O(k^l); small certificates pass a frozenset.  `declared_m` is the
    sparsity bound the certificate claims for every row and column.
    """

    n: int
    entries: Dict[Tuple[int, int], Fraction]
    declared_m: int
    identity_columns: Set = frozenset()

    def __post_init__(self):
        if self.n < 1 or self.declared_m < 1:
            raise ValueError("dimension and declared_m must be positive")
        identity = self.identity_columns
        if identity and any(j in identity for (_, j) in self.entries):
            raise ValueError("identity columns collide with explicit entries")
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"entry index ({i}, {j}) outside dimension {self.n}")
            if v <= 0:
                raise ValueError(f"entry ({i}, {j}) must be positive, got {v}")
        if identity:
            if isinstance(identity, UnobservedColumns):
                in_range = identity.n <= self.n  # its codes lie in range(identity.n)
            else:
                in_range = 0 <= min(identity) and max(identity) < self.n
            if not in_range:
                raise ValueError("identity column outside dimension")

    def triples(self) -> Iterable[Tuple[int, int, Fraction]]:
        """All nonzero entries as (row, col, value), identity columns included."""
        one = Fraction(1)
        for (i, j), v in self.entries.items():
            yield i, j, v
        for j in self.identity_columns:
            yield j, j, one

    def explicit_column_sums(self) -> Dict[int, Fraction]:
        """Column sums over explicit entries; identity columns sum to 1."""
        sums: Dict[int, Fraction] = defaultdict(Fraction)
        for (_, j), v in self.entries.items():
            sums[j] += v
        return dict(sums)

    def support_counts(self) -> Tuple[Counter, Counter]:
        """Entries per row and per column, identity columns included (O(n) for those)."""
        rows: Counter = Counter()
        cols: Counter = Counter()
        rows.update(i for (i, _) in self.entries)
        cols.update(j for (_, j) in self.entries)
        if self.identity_columns:
            rows.update(self.identity_columns)
            cols.update(self.identity_columns)
        return rows, cols

    def max_degrees(self) -> Tuple[int, int]:
        """(largest row support, largest column support) from the explicit entries.

        An identity column j is a column of degree 1 and adds 1 to row j; a
        row holding only its identity entry has degree 1.
        """
        rows = Counter(map(_ROW, self.entries))
        cols = Counter(map(_COL, self.entries))
        col_max = max(cols.values(), default=0)
        identity = self.identity_columns
        if not identity:
            return max(rows.values(), default=0), col_max
        row_max = max((c + (i in identity) for i, c in rows.items()), default=0)
        return max(row_max, 1), max(col_max, 1)

    def max_support(self) -> int:
        return max(self.max_degrees())

    def apply(self, pi) -> Dict[int, Fraction]:
        """Sparse product A*pi as {row: value}, zero rows omitted."""
        out: Dict[int, Fraction] = defaultdict(Fraction)
        for (i, j), v in self.entries.items():
            pj = _vec_get(pi, j)
            if pj:
                out[i] += v * pj
        identity = self.identity_columns
        if identity:
            if isinstance(pi, dict):
                hits = ((j, pj) for j, pj in pi.items() if j in identity)
            else:
                hits = ((j, _vec_get(pi, j)) for j in identity)
            for j, pj in hits:
                if pj:
                    out[j] += pj
        return {i: v for i, v in out.items() if v != 0}


@dataclass
class ValidationOutcome:
    ok: bool
    # "stochastic-columns" | "marginal-map" | "support-bound", and for block
    # tables also "residue-identity"
    violation: Optional[str] = None
    detail: str = ""


@dataclass
class DispersionResult:
    m_star: int
    delta_bits: float
    witness: SparseStochasticCertificate
    method: str  # "exact-search" | "certificate-upper-bound"


_ZERO = Fraction(0)


def _vec_get(vec, j: int) -> Fraction:
    if isinstance(vec, dict):
        return vec.get(j, _ZERO)
    return vec[j] if isinstance(vec, ProbabilityVector) else Fraction(vec[j])


def _vec_items(vec, n: int):
    if isinstance(vec, dict):
        return vec.items()
    return ((j, Fraction(vec[j])) for j in range(n))


def validate_certificate(cert: SparseStochasticCertificate, pi, mu) -> ValidationOutcome:
    """Check conditions (i) columns stochastic, (ii) A*pi = mu, (iii) sparsity.

    `pi` and `mu` may be :class:`ProbabilityVector` or sparse {index: value}
    dicts (missing indices are zero).  A passing outcome certifies
    dispersion(pi, mu) <= log2(declared_m).  The first violated condition is
    reported; structurally malformed certificates raise instead.
    """
    n = cert.n
    for vec in (pi, mu):
        if not isinstance(vec, dict) and len(vec.p if hasattr(vec, "p") else vec) != n:
            raise ValueError("vector dimension does not match certificate")

    sums = cert.explicit_column_sums()
    # identity columns sum to 1 by construction and are disjoint from
    # explicit columns, so coverage is a counting argument
    if len(sums) + len(cert.identity_columns) != n:
        missing = next(j for j in range(n)
                       if j not in sums and j not in cert.identity_columns)
        return ValidationOutcome(False, "stochastic-columns",
                                 f"column {missing} has no entries")
    for j, total in sums.items():
        if total != 1:
            return ValidationOutcome(False, "stochastic-columns",
                                     f"column {j} sums to {total}")

    product = cert.apply(pi)
    target = {j: v for j, v in _vec_items(mu, n) if v != 0}
    if product != target:
        bad = next(iter(set(product) ^ set(target)), None)
        if bad is None:
            bad = next(i for i in product if product[i] != target[i])
        return ValidationOutcome(False, "marginal-map",
                                 f"(A*pi)[{bad}] = {product.get(bad, 0)} != {target.get(bad, 0)}")

    if max(cert.max_degrees()) <= cert.declared_m:
        return ValidationOutcome(True)
    # a violation is rare: name its first row or column as the full counts order them
    rows, cols = cert.support_counts()
    for i, c in rows.items():
        if c > cert.declared_m:
            return ValidationOutcome(False, "support-bound",
                                     f"row {i} has {c} > {cert.declared_m} entries")
    for j, c in cols.items():
        if c > cert.declared_m:
            return ValidationOutcome(False, "support-bound",
                                     f"column {j} has {c} > {cert.declared_m} entries")
    raise AssertionError("max_degrees and support_counts disagree")


class _BudgetExceeded(Exception):
    pass


def _coupling_with_degree_bound(col_mass: List[int], row_mass: List[int], m: int,
                                deadline: Optional[float]) -> Optional[Dict[Tuple[int, int], int]]:
    """A coupling of positive integer masses with support degrees <= m, or None.

    Runs leaf peeling forward: every support forest can be built by
    repeatedly picking an edge (col j, row i) carrying the smaller
    endpoint's full remaining mass, which closes that endpoint (both on a
    tie: a tied partner with other positive edges is impossible in a
    support forest).  Depth-first search over those moves with per-node
    degree budgets is therefore complete.  Failures memoize on the
    canonical state (sorted multisets of open (mass, remaining degree)
    profiles) and branching collapses nodes with identical profiles, which
    keeps dimension-6 instances tractable.
    """
    open_cols = {j: (col_mass[j], m) for j in range(len(col_mass))}
    open_rows = {i: (row_mass[i], m) for i in range(len(row_mass))}
    edges: Dict[Tuple[int, int], int] = {}
    failed: set = set()

    def canonical():
        return (tuple(sorted(open_cols.values())), tuple(sorted(open_rows.values())))

    def rec() -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExceeded
        if not open_cols and not open_rows:
            return True
        if not open_cols or not open_rows:
            return False  # leftover mass with no partners
        # a node that may take no more edges but still has mass is stuck
        if any(d == 0 for (_, d) in open_cols.values()) or \
           any(d == 0 for (_, d) in open_rows.values()):
            return False
        key = canonical()
        if key in failed:
            return False
        # branch on one representative per (mass, degrees-left) profile
        col_reps = {}
        for j, prof in open_cols.items():
            col_reps.setdefault(prof, j)
        row_reps = {}
        for i, prof in open_rows.items():
            row_reps.setdefault(prof, i)
        for (cmass, cdeg), j in col_reps.items():
            for (rmass, rdeg), i in row_reps.items():
                flow = min(cmass, rmass)
                edges[(j, i)] = flow
                del open_cols[j]
                del open_rows[i]
                if cmass > rmass:
                    open_cols[j] = (cmass - flow, cdeg - 1)
                elif rmass > cmass:
                    open_rows[i] = (rmass - flow, rdeg - 1)
                if rec():
                    return True
                open_cols[j] = (cmass, cdeg)
                open_rows[i] = (rmass, rdeg)
                del edges[(j, i)]
        failed.add(key)
        return False

    if rec():
        return dict(edges)
    return None


def _staircase_coupling(col_mass: List[int], row_mass: List[int]) -> Dict[Tuple[int, int], int]:
    """Northwest-corner transportation plan; always feasible, support acyclic."""
    coupling: Dict[Tuple[int, int], int] = {}
    rc, rr = list(col_mass), list(row_mass)
    ci = ri = 0
    while ci < len(rc) and ri < len(rr):
        f = min(rc[ci], rr[ri])
        if f > 0:
            coupling[(ci, ri)] = f
        rc[ci] -= f
        rr[ri] -= f
        if rc[ci] == 0:
            ci += 1
        if ri < len(rr) and rr[ri] == 0:
            ri += 1
    return coupling


def _certificate_from_coupling(coupling: Dict[Tuple[int, int], int], scale: int,
                               pi: ProbabilityVector, declared_m: Optional[int]) -> SparseStochasticCertificate:
    """Turn an integer coupling (column j -> row i flows over `scale`) into A.

    Columns with positive mass get a_ij = b_ij / pi(j); zero-mass columns
    each get a single 1 in a row with minimal current support.
    """
    n = pi.n
    entries: Dict[Tuple[int, int], Fraction] = {}
    for (j, i), flow in coupling.items():
        if flow:
            entries[(i, j)] = Fraction(flow, pi[j].numerator * (scale // pi[j].denominator))
    row_support = Counter(i for (i, _) in entries)
    for j in range(n):
        if pi[j] == 0:
            target = min(range(n), key=lambda i: row_support[i])
            entries[(target, j)] = Fraction(1)
            row_support[target] += 1
    if declared_m is None:
        rows = Counter(i for (i, _) in entries)
        cols = Counter(j for (_, j) in entries)
        declared_m = max(max(rows.values()), max(cols.values()))
    return SparseStochasticCertificate(n, entries, declared_m)


def delta_exact(pi, mu, n_cap: int = 6, time_budget: float = 10.0) -> DispersionResult:
    """Exact log-dispersion with a validating witness.

    Searches m = 1, 2, ... for a coupling with support degrees <= m; the
    first hit gives delta = log2(m) with the derived matrix as witness.
    m = n is always feasible (the product coupling), so the search ends.
    If the time budget runs out first, the northwest-corner staircase gives
    an upper-bound certificate and the result is flagged accordingly.  A
    budget of 0 means no limit; a negative one is refused.
    """
    if time_budget < 0:
        raise ValueError(f"time budget must be nonnegative, got {time_budget}")
    pi = pi if isinstance(pi, ProbabilityVector) else ProbabilityVector(tuple(pi))
    mu = mu if isinstance(mu, ProbabilityVector) else ProbabilityVector(tuple(mu))
    if pi.n != mu.n:
        raise ValueError(f"dimension mismatch: {pi.n} vs {mu.n}")
    n = pi.n
    if n > n_cap:
        raise ValueError(f"dimension {n} exceeds exact-solver cap {n_cap}")
    deadline = time.monotonic() + time_budget if time_budget else None

    scale = math.lcm(*(x.denominator for x in pi.p), *(x.denominator for x in mu.p))
    cols_pos = [j for j in range(n) if pi[j] > 0]
    rows_pos = [i for i in range(n) if mu[i] > 0]
    col_mass = [int(pi[j] * scale) for j in cols_pos]
    row_mass = [int(mu[i] * scale) for i in rows_pos]

    for m in range(1, n + 1):
        if m == n:
            # the product coupling b_ij = mu_i * pi_j always works; reaching
            # this branch means no sparser coupling exists, so its support
            # degree equals n
            flows = {(j, i): col_mass[j] * row_mass[i]
                     for j in range(len(cols_pos)) for i in range(len(rows_pos))}
            coupling = {(cols_pos[j], rows_pos[i]): f for (j, i), f in flows.items()}
            witness = _certificate_from_coupling(coupling, scale * scale, pi, None)
            witness.declared_m = max(witness.declared_m, witness.max_support())
            outcome = validate_certificate(witness, pi, mu)
            if not outcome.ok:
                raise AssertionError(f"solver produced invalid witness: {outcome.detail}")
            return DispersionResult(m, math.log2(m), witness, "exact-search")
        try:
            flows = _coupling_with_degree_bound(col_mass, row_mass, m, deadline)
        except _BudgetExceeded:
            coupling = {(cols_pos[j], rows_pos[i]): f
                        for (j, i), f in _staircase_coupling(col_mass, row_mass).items()}
            witness = _certificate_from_coupling(coupling, scale, pi, None)
            m_ub = witness.max_support()
            witness.declared_m = m_ub
            return DispersionResult(m_ub, math.log2(m_ub), witness, "certificate-upper-bound")
        if flows is not None:
            coupling = {(cols_pos[j], rows_pos[i]): f for (j, i), f in flows.items()}
            witness = _certificate_from_coupling(coupling, scale, pi, m)
            outcome = validate_certificate(witness, pi, mu)
            if not outcome.ok:
                raise AssertionError(f"solver produced invalid witness: {outcome.detail}")
            return DispersionResult(m, math.log2(m), witness, "exact-search")
    raise AssertionError("unreachable: m = n is always feasible")


def reverse_certificate(cert: SparseStochasticCertificate, mu, pi) -> SparseStochasticCertificate:
    """Certificate for (pi -> mu) from one for (mu -> pi), same sparsity bound.

    Entries transpose with reweighting: a'_ij = a_ji * mu(i) / pi(j) where
    pi(j) > 0, and a'_ij = a_ji / (row j sum of A) where pi(j) = 0.  A
    zero row of A (possible only when pi(j) = 0) leaves column j of A'
    empty; it is completed with a single 1 in a row with slack, which always
    exists within the bound.
    """
    outcome = validate_certificate(cert, mu, pi)
    if not outcome.ok:
        raise ValueError(f"input certificate invalid: {outcome.violation} ({outcome.detail})")
    n = cert.n
    row_sums: Dict[int, Fraction] = defaultdict(Fraction)
    for i, j, v in cert.triples():
        row_sums[i] += v
    entries: Dict[Tuple[int, int], Fraction] = {}
    for i, j, v in cert.triples():
        # A entry a_ij contributes to A' entry a'_{ji}
        pj = _vec_get(pi, i)
        w = v * _vec_get(mu, j) / pj if pj > 0 else v / row_sums[i]
        if w != 0:
            entries[(j, i)] = entries.get((j, i), Fraction(0)) + w
    covered = {j for (_, j) in entries}
    row_support = Counter(i for (i, _) in entries)
    for j in range(n):
        if j not in covered:
            target = min(range(n), key=lambda i: row_support[i])
            entries[(target, j)] = Fraction(1)
            row_support[target] += 1
    reversed_cert = SparseStochasticCertificate(n, entries, cert.declared_m)
    check = validate_certificate(reversed_cert, pi, mu)
    if not check.ok:
        raise AssertionError(f"reversed certificate invalid: {check.detail}")
    return reversed_cert


def compose_certificates(outer: SparseStochasticCertificate, inner: SparseStochasticCertificate,
                         pi, mu, nu) -> SparseStochasticCertificate:
    """Matrix product outer*inner as a certificate pi -> nu, bound m1*m2.

    `inner` must validate pi -> mu and `outer` mu -> nu; the product's
    support can be smaller than the declared m1*m2 but never larger.
    """
    if inner.n != outer.n:
        raise ValueError("inner dimension mismatch")
    for cert, src, dst, name in ((inner, pi, mu, "inner"), (outer, mu, nu, "outer")):
        outcome = validate_certificate(cert, src, dst)
        if not outcome.ok:
            raise ValueError(f"{name} certificate invalid: {outcome.violation} ({outcome.detail})")
    by_col: Dict[int, List[Tuple[int, Fraction]]] = defaultdict(list)
    for i, j, v in outer.triples():
        by_col[j].append((i, v))
    entries: Dict[Tuple[int, int], Fraction] = defaultdict(Fraction)
    for t, j, v1 in inner.triples():
        for i, v2 in by_col.get(t, ()):
            entries[(i, j)] += v2 * v1
    entries = {key: v for key, v in entries.items() if v != 0}
    product = SparseStochasticCertificate(inner.n, entries,
                                          inner.declared_m * outer.declared_m)
    check = validate_certificate(product, pi, nu)
    if not check.ok:
        raise AssertionError(f"composed certificate invalid: {check.detail}")
    return product


def build_banded_worst_case(n: int, m: int) -> SparseStochasticCertificate:
    """The banded 0/1 matrix spreading mass as unevenly as m-sparsity allows.

    Row i (0-based) holds 1s in columns i*m .. min((i+1)m, n)-1: applied to a
    nonincreasing vector it concentrates mass fastest among all matrices with
    at most m nonzero entries per row and column, which is what makes it the
    extremal case in the entropy-contractivity argument.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    one = Fraction(1)
    entries = {}
    for i in range(n):
        for j in range(i * m, min((i + 1) * m, n)):
            entries[(i, j)] = one
    return SparseStochasticCertificate(n, entries, m)


def majorizes(x, y) -> bool:
    """True iff sorted-descending x weakly dominates y with equal totals."""
    xs = sorted((Fraction(v) for v in x), reverse=True)
    ys = sorted((Fraction(v) for v in y), reverse=True)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if sum(xs) != sum(ys):
        return False
    total_x = Fraction(0)
    total_y = Fraction(0)
    for a, b in zip(xs, ys):
        total_x += a
        total_y += b
        if total_x < total_y:
            return False
    return True


def certificate_bound_bits(m: int, k: int, l: int) -> float:
    """log2(g*(s+1)*m) with g = gcd(m, k^l) and s the base-k digit sum of m."""
    _, _, s = _multiplier_shape(m, k)
    g = math.gcd(m, k ** l)
    return math.log2(g * (s + 1) * m)


def certificate_to_json_dict(cert: SparseStochasticCertificate) -> Dict:
    """JSON-ready form: sparse [row, col, "num/den"] triplets.

    Identity columns are listed separately to keep block-indexed
    certificates compact.
    """
    return {
        "n": cert.n,
        "declared_m": cert.declared_m,
        "entries": [[i, j, f"{v.numerator}/{v.denominator}"]
                    for (i, j), v in sorted(cert.entries.items())],
        "identity_columns": sorted(cert.identity_columns),
    }


def certificate_from_json_dict(data: Dict) -> SparseStochasticCertificate:
    entries = {(int(i), int(j)): Fraction(v) for i, j, v in data["entries"]}
    return SparseStochasticCertificate(
        int(data["n"]), entries, int(data["declared_m"]),
        frozenset(int(j) for j in data.get("identity_columns", ())))


def block_distribution_as_code_vector(dist: BlockDistribution) -> Dict[int, Fraction]:
    """Sparse {block code: probability} view of a block distribution."""
    return {code: Fraction(c, dist.n) for code, c in dist.counts.items()}


def _certificate_dimension(k: int, l: int) -> int:
    dimension = k ** l
    if dimension > MAX_CERTIFICATE_DIMENSION:
        raise ValueError(f"block space k^l = {dimension} exceeds the certificate cap "
                         f"{MAX_CERTIFICATE_DIMENSION}")
    return dimension


def _runs(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(start, length) of each run of equal values in nonempty `codes`."""
    bounds = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1], [True])))
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _grouped(codes: np.ndarray, counts: np.ndarray):
    """Distinct codes ascending, with the summed counts and the number of pairs of
    each; codes already ascending (a table's x) are grouped without a sort."""
    if not len(codes):
        return codes, counts, counts
    if (codes[1:] < codes[:-1]).any():
        order = np.argsort(codes, kind="stable")
        codes, counts = codes[order], counts[order]
    starts, lengths = _runs(codes)
    return codes[starts], np.add.reduceat(counts, starts), lengths


def _in_sorted(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which of `values` occur in the ascending array `codes`."""
    if not len(codes):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(codes, values), len(codes) - 1)
    return codes[at] == values


def _sparse(codes: np.ndarray, values: np.ndarray) -> Dict[int, int]:
    return dict(zip(codes.tolist(), values.tolist()))


def _first_difference(a: Dict[int, int], b: Dict[int, int]) -> int:
    """Least code whose value differs between two sparse integer vectors (absent = 0)."""
    return min(c for c in a.keys() | b.keys() if a.get(c, 0) != b.get(c, 0))


@dataclass(frozen=True)
class BlockCoupling:
    """The aligned l-block pairs of alpha and m*alpha as an integer joint-count table.

    Pair t is the source block code x[t], the image block code y[t] and
    count[t] = #{j < n : block_j(alpha) = x[t], block_j(m*alpha) = y[t]},
    listed in ascending (x, y) order (the checks accept any order).  The
    source and image block counts are counted from each code stream on its
    own, never from the pairs, so the column and row checks compare two
    independent counts.  The coupling is
    the certificate matrix a_{y,x} = count / (source count of x), with an
    identity column for every unobserved source block, scaled by the source
    counts and by n: every condition of :func:`validate_certificate` is then
    an equality or comparison of integer sums (:meth:`validate`), and
    :meth:`to_certificate` gives the rational matrix.
    """

    alphabet: Alphabet
    l: int
    n: int
    m: int
    declared_m: int
    x: np.ndarray
    y: np.ndarray
    count: np.ndarray
    source_codes: np.ndarray
    source_counts: np.ndarray
    image_codes: np.ndarray
    image_counts: np.ndarray

    def __post_init__(self):
        dimension = self.dimension
        if not len(self.x) == len(self.y) == len(self.count):
            raise ValueError("pair arrays differ in length")
        if len(self.x) and (self.count.min() < 1 or min(self.x.min(), self.y.min()) < 0
                            or max(self.x.max(), self.y.max()) >= dimension):
            raise ValueError(f"pair outside range({dimension}) or count not positive")
        # a pair in an unobserved column collides with that column's identity entry
        if not _in_sorted(self._columns[0], self.source_codes).all():
            raise ValueError("identity columns collide with explicit entries")

    @classmethod
    def from_codes(cls, alphabet: Alphabet, l: int, m: int, source: _BlockCounts,
                   image: _BlockCounts, n: int) -> "BlockCoupling":
        """Count the aligned pairs of the first n blocks of two counted code
        streams by one in-place sort of the keys x*k^l + y; the marginals are
        the streams' own block counts."""
        dimension = _certificate_dimension(alphabet.k, l)
        keys = source.codes[:n].astype(np.int64)
        keys *= dimension
        keys += image.codes[:n]
        keys.sort()
        starts, counts = _runs(keys)
        x = keys[starts]
        del keys, starts  # free the keys before the table groups its pairs
        y = x % dimension
        x //= dimension
        _, _, s = _multiplier_shape(m, alphabet.k)
        declared = min(math.gcd(m, dimension) * (s + 1) * m, dimension)
        return cls(alphabet, l, n, m, declared, x, y, counts, *source.at(n)[0], *image.at(n)[0])

    @property
    def dimension(self) -> int:
        return self.alphabet.k ** self.l

    @cached_property
    def _columns(self):
        return _grouped(self.x, self.count)

    @cached_property
    def _rows(self):
        return _grouped(self.y, self.count)

    @cached_property
    def _row_degrees(self) -> np.ndarray:
        """Entries per row: its pairs, plus 1 where the row's block is unobserved
        in the source (the 1 of that block's identity column)."""
        row_codes, _, degrees = self._rows
        return degrees + ~_in_sorted(row_codes, self.source_codes)

    def max_degrees(self) -> Tuple[int, int]:
        """(largest row support, largest column support), identity columns included.

        Same as :meth:`SparseStochasticCertificate.max_degrees` of
        :meth:`to_certificate`; rows and columns holding only an identity
        entry have degree 1.
        """
        row_max = int(self._row_degrees.max(initial=0))
        col_max = int(self._columns[2].max(initial=0))
        if len(self.source_codes) == self.dimension:
            return row_max, col_max
        return max(row_max, 1), max(col_max, 1)

    def validate(self) -> ValidationOutcome:
        """:func:`validate_certificate` of :meth:`to_certificate`, in integers.

        (i) columns stochastic: the pairs of each observed source block x
        count exactly its count_alpha[x] blocks; (ii) A*pi = mu, times n: the
        pairs of each image block y count exactly its count_image[y] blocks;
        (iii) no row or column holds more than `declared_m` entries.  Outcomes
        and violation names agree with the rational check.  One extra guard
        follows, from how multiplication acts on blocks: block j of m*alpha is
        (m*x + floor(m*tau_j)) mod k^l with tau_j in [0, 1) the tail after
        block j of alpha, so every pair has (y - m*x) mod k^l <= m - 1; a
        pair that breaks it fails as "residue-identity".
        """
        col_codes, col_sums, col_degrees = self._columns
        if not (np.array_equal(col_codes, self.source_codes)
                and np.array_equal(col_sums, self.source_counts)):
            got, want = _sparse(col_codes, col_sums), _sparse(self.source_codes, self.source_counts)
            x = _first_difference(got, want)
            detail = (f"column {x} sums to {Fraction(got[x], want[x])}" if x in got
                      else f"column {x} has no entries")
            return ValidationOutcome(False, "stochastic-columns", detail)

        row_codes, row_sums, _ = self._rows
        if not (np.array_equal(row_codes, self.image_codes)
                and np.array_equal(row_sums, self.image_counts)):
            got, want = _sparse(row_codes, row_sums), _sparse(self.image_codes, self.image_counts)
            y = _first_difference(got, want)
            return ValidationOutcome(False, "marginal-map",
                                     f"(A*pi)[{y}] = {Fraction(got.get(y, 0), self.n)} "
                                     f"!= {Fraction(want.get(y, 0), self.n)}")

        if max(self.max_degrees()) > self.declared_m:
            declared = self.declared_m
            rows = self._row_degrees
            if rows.max() > declared:
                i = int(np.argmax(rows > declared))
                return ValidationOutcome(False, "support-bound",
                                         f"row {row_codes[i]} has {rows[i]} > {declared} entries")
            j = int(np.argmax(col_degrees > declared))
            return ValidationOutcome(False, "support-bound",
                                     f"column {col_codes[j]} has {col_degrees[j]} > {declared} entries")

        dimension = self.dimension
        residue = (self.y - (self.m % dimension) * self.x) % dimension
        if (residue >= self.m).any():
            t = int(np.argmax(residue >= self.m))
            return ValidationOutcome(False, "residue-identity",
                                     f"pair ({self.x[t]}, {self.y[t]}): (y - m*x) mod k^l = "
                                     f"{residue[t]} > m - 1 = {self.m - 1}")
        return ValidationOutcome(True)

    def distributions(self) -> Tuple[BlockDistribution, BlockDistribution]:
        """Block distributions of alpha and of m*alpha."""
        return (BlockDistribution(self.alphabet, self.l, self.n,
                                  _sparse(self.source_codes, self.source_counts)),
                BlockDistribution(self.alphabet, self.l, self.n,
                                  _sparse(self.image_codes, self.image_counts)))

    def to_certificate(self) -> SparseStochasticCertificate:
        """The rational certificate: entries a_{y,x} in the order of the pairs,
        unobserved source blocks as implicit identity columns."""
        totals = self.source_counts[np.searchsorted(self.source_codes, self.x)]
        entries = {(y, x): Fraction(c, d) for x, y, c, d in
                   zip(self.x.tolist(), self.y.tolist(), self.count.tolist(), totals.tolist())}
        return SparseStochasticCertificate(self.dimension, entries, self.declared_m,
                                           UnobservedColumns(self.dimension,
                                                             self.source_codes.tolist()))


def block_coupling(seq: DigitSequence, m: int, l: int, n: int,
                   lookahead_cap: int = DEFAULT_LOOKAHEAD_CAP,
                   product_digits: Optional[DigitSequence] = None) -> BlockCoupling:
    """Joint-count table of the first n aligned l-blocks of alpha and frac(m*alpha).

    `product_digits` may pass a precomputed certified stream of frac(m*alpha)
    covering at least n*l digits, saving the multiplication when many (l, n)
    cells are built from one stream.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if l < 1 or n < 1:
        raise ValueError("need l >= 1 and n >= 1")
    _certificate_dimension(seq.alphabet.k, l)
    if product_digits is None:
        product = mul_int_mod1(seq, m, n * l, lookahead_cap)
        if product.certified_count < n * l:
            raise UnresolvedCarryError(
                f"only {product.certified_count} of {n * l} product digits certified")
        product_digits = product.digits
    elif product_digits.length_available < n * l:
        raise UnresolvedCarryError(
            f"precomputed product covers {product_digits.length_available} "
            f"of {n * l} digits")
    return BlockCoupling.from_codes(seq.alphabet, l, m, _BlockCounts(seq, l, [n]),
                                    _BlockCounts(product_digits, l, [n]), n)


def integer_multiple_certificate(seq: DigitSequence, m: int, l: int, n: int,
                                 lookahead_cap: int = DEFAULT_LOOKAHEAD_CAP,
                                 product_digits: Optional[DigitSequence] = None):
    """Coupling certificate between block statistics of alpha and m*alpha.

    The rational form of :func:`block_coupling`: the k^l x k^l matrix whose
    column x distributes the observed l-blocks of alpha equal to x over the
    aligned blocks of frac(m*alpha) they produce, a_{y,x} = #{j < n :
    block_j(alpha) = x, block_j(m*alpha) = y} / #{j < n : block_j(alpha) = x},
    with identity columns where x never occurs (kept implicit as
    :class:`UnobservedColumns`, so it costs O(n), not O(k^l)).  The result
    is stochastic, maps the block distribution of alpha exactly onto that of
    m*alpha, and has column support at most (s+1)*m and row support at most
    g*(s+1)*m for g = gcd(m, k^l), so it certifies a dispersion bound
    independent of l and n.  Checking the table itself
    (:meth:`BlockCoupling.validate`) gives the same verdict in integers.

    Returns (certificate, block distribution of alpha, of m*alpha).
    """
    table = block_coupling(seq, m, l, n, lookahead_cap, product_digits)
    return (table.to_certificate(), *table.distributions())
