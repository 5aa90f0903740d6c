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

Everything is exact; entropies alone are floats.  A certificate is itself a
transportation plan: positive integer flows B_ij and one positive integer
mass c_j per explicit column, with a_ij = B_ij / c_j.  The solver's
witnesses are its integer couplings, and block certificates between alpha
and m*alpha (:class:`BlockCoupling`) are joint-count tables whose masses are
the source block counts.  Every condition is checked as an equality or
comparison of integer sums.  Fractions appear only where rational entries
come in or go out: the constructor, reversal and composition, and files.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .blockstats import BlockDistribution, _Blocks, _prefix_blocks
from .digitseq import Alphabet, DigitSequence
from .realarith import DEFAULT_LOOKAHEAD_CAP, UnresolvedCarryError, mul_int_mod1

# block certificates index blocks by integer code; their unobserved columns
# are implicit, so memory grows with the observed blocks, not with k^l; the
# cap keeps pair codes x * k^l + y within int64
MAX_CERTIFICATE_DIMENSION = 16_777_216

# the exact solver takes vectors of at most this dimension, and its searches
# below m = n together take at most this many nodes before it settles for an
# upper bound: a count, so the same inputs give the same result under any load
MAX_EXACT_DIMENSION = 6
SEARCH_NODE_BUDGET = 1_000_000


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


class UnobservedColumns(Set):
    """The codes in range(n) outside `observed`, without listing them.

    Identity columns of a block certificate are the block codes that never
    occur in the source; this set answers membership, length and iteration
    from the observed codes alone, kept as an ascending array, so it costs
    O(observed) memory whatever n is.  It compares equal to any set with the
    same members.
    """

    __slots__ = ("n", "observed")

    def __init__(self, n: int, observed: Iterable[int]):
        self.n = n
        observed = np.asarray(observed if isinstance(observed, np.ndarray) else list(observed),
                              dtype=np.int64)
        if np.count_nonzero(observed[1:] <= observed[:-1]):  # block tables pass them ascending
            observed = np.unique(observed)
        self.observed = observed
        if len(self.observed) and not (self.observed[0] >= 0 and self.observed[-1] < n):
            raise ValueError(f"observed code outside range({n})")

    def __contains__(self, j) -> bool:
        # as in a frozenset of ints: a member is any hashable equal to one of them
        hash(j)
        try:
            i = int(j.real)
        except (AttributeError, TypeError, ValueError, OverflowError):
            return False
        return i == j and 0 <= i < self.n and not _in_sorted(np.array([i]), self.observed)[0]

    def __len__(self) -> int:
        return self.n - len(self.observed)

    def __iter__(self):
        # the runs of codes before, between and after the observed ones
        observed = self.observed.tolist()
        return itertools.chain.from_iterable(
            map(range, [0] + [c + 1 for c in observed], observed + [self.n]))

    def __eq__(self, other) -> bool:
        if isinstance(other, UnobservedColumns):
            return self.n == other.n and np.array_equal(self.observed, other.observed)
        if not isinstance(other, Set):
            return NotImplemented
        return len(self) == len(other) and all(j in other for j in self)

    @classmethod
    def _from_iterable(cls, it):
        # results of set operators are plain frozensets
        return frozenset(it)

    def __repr__(self) -> str:
        return f"UnobservedColumns(n={self.n}, observed={len(self.observed)} codes)"


def _identity_mask(identity: Set, codes: np.ndarray) -> np.ndarray:
    """Which of `codes`, all nonnegative, are identity columns."""
    if isinstance(identity, UnobservedColumns):
        return (codes < identity.n) & ~_in_sorted(codes, identity.observed)
    return np.fromiter(map(identity.__contains__, codes.tolist()), dtype=bool, count=len(codes))


def _any_identity(identity: Set, codes: np.ndarray) -> bool:
    """Whether any of `codes`, ascending, distinct and nonnegative, is an identity column."""
    if (isinstance(identity, UnobservedColumns) and 0 < len(identity.observed) <= len(codes)
            and codes[-1] < identity.n):
        # distinct codes in range(identity.n) that are no identity columns are
        # observed codes; as many as those or more, they are the observed codes
        return not _same(codes, identity.observed)
    return bool(np.count_nonzero(_identity_mask(identity, codes)))


def _int_array(values) -> np.ndarray:
    """Exact integers: int64 where they fit, Python ints otherwise."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return len(a) == len(b) and not np.count_nonzero(a != b)


class SparseStochasticCertificate:
    """Column-stochastic nonnegative matrix held as integer flows over column masses.

    Explicit column j has a positive integer mass c_j (`columns` ascending,
    `masses`) and its entries positive integer flows B_ij (`rows`, `cols`,
    `flows`, in column order), so a_ij = B_ij / c_j.  `identity_columns`
    holds the columns with a single 1 on the diagonal, disjoint from the
    explicit ones: an :class:`UnobservedColumns` for block certificates, so
    every check costs O(explicit entries) rather than O(k^l), else a
    frozenset.  `declared_m` is the sparsity bound claimed for every row and
    column.  The constructor converts rational entries {(row, col): value},
    column j taking the least common multiple of its denominators as its
    mass.  The arrays do not change once set: setting them checks their
    structure and caches the groupings and largest degrees every check reads.
    """

    __slots__ = ("n", "declared_m", "identity_columns", "rows", "cols", "flows", "columns",
                 "masses", "_col_bounds", "_row_order", "_row_bounds", "_row_codes", "_maxima",
                 "_entries")

    def __init__(self, n: int, entries: Dict[Tuple[int, int], Fraction], declared_m: int,
                 identity_columns: Set = frozenset()):
        values = {key: v if type(v) is Fraction else Fraction(v)  # in column order
                  for key, v in sorted(entries.items(), key=lambda item: item[0][1])}
        mass: Dict[int, int] = {}
        for (_, j), v in values.items():
            mass[j] = math.lcm(mass.get(j, 1), v.denominator)
        columns = sorted(mass)
        self._set(n, declared_m, identity_columns, [i for i, _ in values], [j for _, j in values],
                  [v.numerator * (mass[j] // v.denominator) for (_, j), v in values.items()],
                  columns, [mass[j] for j in columns])

    def _set(self, n: int, declared_m: int, identity: Set, rows, cols, flows, columns, masses):
        """Hold the flows, in column order (`cols` ascending), over the masses
        of `columns` (ascending) after checking their structure."""
        if n < 1 or declared_m < 1:
            raise ValueError("dimension and declared_m must be positive")
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        flows = _int_array(flows)
        self.n, self.declared_m, self.identity_columns = n, declared_m, identity
        self.rows, self.cols, self.flows = rows, cols, flows
        self.columns, self.masses = np.asarray(columns, dtype=np.int64), _int_array(masses)
        self._col_bounds = col_bounds = _bounds(cols)
        self._row_order = rows.argsort(kind="stable")
        by_row = rows[self._row_order]
        self._row_bounds = row_bounds = _bounds(by_row)
        self._row_codes = row_codes = by_row[row_bounds[:-1]]
        if len(cols) and (min(cols[0], row_codes[0]) < 0 or max(cols[-1], row_codes[-1]) >= n
                          or flows.min() < 1):
            raise ValueError(f"entry outside range({n}) or flow not positive")
        if flows.dtype == np.int64 and len(flows) and int(flows.max()) * len(flows) >= 2 ** 63:
            self.flows = flows.astype(object)  # column sums must not overflow
        row_degrees = row_bounds[1:] - row_bounds[:-1]
        row_max = int(row_degrees.max(initial=0))
        col_max = int((col_bounds[1:] - col_bounds[:-1]).max(initial=0))
        if identity:
            if not (identity.n <= n if isinstance(identity, UnobservedColumns)
                    else 0 <= min(identity) and max(identity) < n):
                raise ValueError("identity column outside dimension")
            if _any_identity(identity, cols[col_bounds[:-1]]):
                raise ValueError("identity columns collide with explicit entries")
            # an identity 1 raises the largest degree only in a row of that degree
            row_max = max(row_max + _any_identity(identity, row_codes[row_degrees == row_max]), 1)
            col_max = max(col_max, 1)
        self._maxima = row_max, col_max
        self._entries = None

    def _degrees(self) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """(codes, entries) of the rows and columns holding entries; rows count their identity 1."""
        rows, cols = self._row_bounds, self._col_bounds
        row_degrees = rows[1:] - rows[:-1]
        if self.identity_columns:
            row_degrees = row_degrees + _identity_mask(self.identity_columns, self._row_codes)
        return (self._row_codes, row_degrees), (self.cols[cols[:-1]], cols[1:] - cols[:-1])

    @property
    def entries(self) -> Dict[Tuple[int, int], Fraction]:
        """{(row, col): a_ij} of the explicit entries, made from the flows on first
        use.  A view for reading: writing to it changes no flow and no check."""
        if self._entries is None:
            masses = self.masses[np.searchsorted(self.columns, self.cols)]
            self._entries = {(i, j): Fraction(b, c) for i, j, b, c in zip(
                self.rows.tolist(), self.cols.tolist(), self.flows.tolist(), masses.tolist())}
        return self._entries

    def triples(self) -> Iterable[Tuple[int, int, Fraction]]:
        """All nonzero entries as (row, col, value), identity columns included."""
        one = Fraction(1)
        for (i, j), v in self.entries.items():
            yield i, j, v
        for j in self.identity_columns:
            yield j, j, one

    def support_counts(self) -> Tuple[Counter, Counter]:
        """Entries per row and per column, identity columns included (O(n) for those)."""
        row_degrees, col_degrees = self._degrees()
        rows = Counter(dict.fromkeys(self.identity_columns, 1))
        cols = Counter(rows)
        dict.update(rows, _sparse(*row_degrees))  # row degrees already count the identity 1
        cols.update(_sparse(*col_degrees))
        return rows, cols

    def max_degrees(self) -> Tuple[int, int]:
        """(largest row support, largest column support), identity columns included.

        An identity column j is a column of degree 1 and adds 1 to row j; a
        row holding only its identity entry has degree 1.
        """
        return self._maxima

    def apply(self, pi) -> Dict[int, Fraction]:
        """Sparse product A*pi as {row: value}, zero rows omitted."""
        weights, scale, hits, _ = _scaled(self, pi, {})
        # no column check precedes: products in Python ints cannot overflow
        weights = weights.astype(object)[np.searchsorted(self.columns, self.cols)]
        codes, values = self._image(weights, hits)
        return {i: Fraction(v, scale) for i, v in zip(codes.tolist(), values.tolist())}

    def _image(self, weights, hits: Dict[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        """(rows ascending, values) of the nonzero entries of L*A*pi, from each entry's
        column weight w_j * L (None: all 1) and `hits` as in :meth:`_check`."""
        codes = self._row_codes
        values = (self.flows if weights is None else self.flows * weights)[self._row_order]
        if len(codes) < len(values):  # some row holds several entries
            values = np.add.reduceat(values, self._row_bounds[:-1])
        if hits:
            codes = np.concatenate((codes, np.fromiter(hits, dtype=np.int64, count=len(hits))))
            values = np.concatenate((values, _int_array(list(hits.values()))))
            order = codes.argsort(kind="stable")
            starts = _bounds(codes[order])[:-1]
            codes, values = codes[order][starts], np.add.reduceat(values[order], starts)
        if np.count_nonzero(values) < len(values):
            codes, values = codes[values != 0], values[values != 0]
        return codes, values

    def _check(self, weights: Optional[np.ndarray], scale: int, hits: Dict[int, int],
               target: Tuple[np.ndarray, np.ndarray]) -> "ValidationOutcome":
        """Conditions (i)-(iii) of :func:`validate_certificate` in integers, all
        scaled by L = `scale`, from the output of :func:`_scaled` (`weights`,
        w_j * L per explicit column or None where all are 1, is int64 only where
        no sum of its products with the flows can overflow once the columns
        check).  Where several rows or columns break a condition, the least
        index is reported."""
        bounds, codes, sums = self._col_bounds, self.cols, self.flows
        if len(bounds) <= len(codes):  # some column holds several entries
            codes, sums = codes[bounds[:-1]], np.add.reduceat(sums, bounds[:-1])
        # mass columns and identity columns are disjoint, so coverage is a count
        covered = len(self.columns) + len(self.identity_columns) == self.n
        if not (covered and _same(codes, self.columns) and _same(sums, self.masses)):
            got, want = _sparse(codes, sums), _sparse(self.columns, self.masses)
            bad = [j for j in got.keys() | want.keys() if got.get(j) != want.get(j)]
            if not covered:
                bad.append(next(j for j in range(self.n)
                                if j not in want and j not in self.identity_columns))
            j = min(bad)
            detail = (f"column {j} sums to {Fraction(got[j], want[j])}" if j in got
                      else f"column {j} has no entries")
            return ValidationOutcome(False, "stochastic-columns", detail)

        # the columns now hold entries in the order of `columns`
        image_codes, image = self._image(
            None if weights is None else np.repeat(weights, bounds[1:] - bounds[:-1]), hits)
        if not (_same(image_codes, target[0]) and _same(image, target[1])):
            got, want = _sparse(image_codes, image), _sparse(*target)
            i = min(c for c in got.keys() | want.keys() if got.get(c, 0) != want.get(c, 0))
            return ValidationOutcome(False, "marginal-map",
                                     f"(A*pi)[{i}] = {Fraction(got.get(i, 0), scale)} "
                                     f"!= {Fraction(want.get(i, 0), scale)}")

        declared = self.declared_m
        if max(self._maxima) > declared:
            for name, (codes, degrees) in zip(("row", "column"), self._degrees()):
                if degrees.max() > declared:
                    i = int(np.argmax(degrees > declared))
                    detail = f"{name} {codes[i]} has {degrees[i]} > {declared} entries"
                    return ValidationOutcome(False, "support-bound", detail)
        return ValidationOutcome(True)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.n}, declared_m={self.declared_m}, "
                f"rows={self.rows.tolist()}, cols={self.cols.tolist()}, "
                f"flows={self.flows.tolist()}, columns={self.columns.tolist()}, "
                f"masses={self.masses.tolist()}, identity_columns={self.identity_columns!r})")


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
    nodes: int  # search calls summed over every m tried; not part of any report


def _as_dict(vec, n: int) -> Dict:
    """{index: value} of the nonzero entries of a sparse dict, a ProbabilityVector
    or a sequence of length n."""
    if not isinstance(vec, dict):
        values = vec.p if isinstance(vec, ProbabilityVector) else [Fraction(v) for v in vec]
        if len(values) != n:
            raise ValueError("vector dimension does not match certificate")
        vec = dict(enumerate(values))
    return {j: v for j, v in vec.items() if v}


def _scaled(cert: SparseStochasticCertificate, pi, mu):
    """`pi` and `mu` as the integers :meth:`SparseStochasticCertificate._check` takes:
    w_j = pi_j / c_j in lowest terms on each explicit column, pi_j on each
    identity column, and L the least common multiple of their denominators
    and those of mu.  Returns (w_j * L for each explicit column, L,
    {identity column j: pi_j * L}, (rows ascending, mu_i * L)), nonzero only.
    """
    n = cert.n
    pi, mu = _as_dict(pi, n), _as_dict(mu, n)
    masses = cert.masses.tolist()
    w = []
    for j, c in zip(cert.columns.tolist(), masses):
        v = pi.get(j, 0)
        num, den = v.numerator, v.denominator * c
        g = math.gcd(num, den)
        w.append((num // g, den // g))
    hits = {}
    if cert.identity_columns:
        keys = np.array([j for j in pi if j >= 0], dtype=np.int64)
        hits = {j: pi[j] for j in keys[_identity_mask(cert.identity_columns, keys)].tolist()}
    scale = math.lcm(*{d for _, d in w}, *[v.denominator for v in hits.values()],
                     *{v.denominator for v in mu.values()})
    hits = {j: v.numerator * (scale // v.denominator) for j, v in hits.items()}
    weights = [a * (scale // d) for a, d in w]
    # with stochastic columns no product B_ij * w_j * L and no partial row sum exceeds this
    bound = sum(abs(x) * c for x, c in zip(weights, masses)) + sum(map(abs, hits.values()))
    rows = sorted(mu)
    return (np.array(weights, dtype=np.int64 if bound.bit_length() < 63 else object), scale, hits,
            (np.array(rows, dtype=np.int64),
             _int_array([mu[i].numerator * (scale // mu[i].denominator) for i in rows])))


def validate_certificate(cert: SparseStochasticCertificate, pi, mu) -> ValidationOutcome:
    """Check conditions (i) columns stochastic, (ii) A*pi = mu, (iii) sparsity.

    `pi` and `mu` may be :class:`ProbabilityVector`, sequences, or sparse
    {index: value} dicts (missing indices are zero).  A passing outcome
    certifies dispersion(pi, mu) <= log2(declared_m).  The first violated
    condition is reported, at its least row or column index; structurally
    malformed certificates raise instead.  All three are integer checks
    (:meth:`SparseStochasticCertificate._check`).
    """
    return cert._check(*_scaled(cert, pi, mu))


class _BudgetExceeded(Exception):
    pass


def _coupling_with_degree_bound(col_mass: List[int], row_mass: List[int], m: int,
                                budget: Optional[int],
                                nodes: List[int]) -> Optional[Dict[Tuple[int, int], int]]:
    """A coupling of positive integer masses with support degrees <= m, or None.

    Runs leaf peeling forward: every support forest can be built by
    repeatedly picking an edge (col j, row i) carrying the smaller
    endpoint's full remaining mass, which closes that endpoint (both on a
    tie: a tied partner with other positive edges is impossible in a
    support forest).  Depth-first search over those moves with per-node
    degree budgets is therefore complete.

    A state is dead when an open node with mass x and d edges left has x
    above the sum of the d largest open masses on the other side: its
    later edges go to d distinct open partners (a forest joins no pair
    twice), each carrying at most the partner's current mass (a flow is
    the min of its ends' masses, and masses only fall).  d = 0 is the
    plain degree test; at the root it rejects every m below the
    majorization bound.  Failures memoize on the canonical state (sorted
    multisets of open (mass, remaining degree) profiles), whose sorted
    profiles also give the masses the bound reads, and branching collapses
    nodes with identical profiles, which keeps dimension-6 instances
    tractable.  Each call of the search adds one to `nodes[0]`; a call that
    takes it above `budget` raises :class:`_BudgetExceeded` (None: no limit).
    """
    open_cols = {j: (col_mass[j], m) for j in range(len(col_mass))}
    open_rows = {i: (row_mass[i], m) for i in range(len(row_mass))}
    edges: Dict[Tuple[int, int], int] = {}
    failed: set = set()

    def reachable(side, other) -> bool:
        # `other` ascends by mass, so reversed it gives the largest masses first
        top = [0, *itertools.accumulate(x for x, _ in reversed(other))]
        return all(x <= top[min(d, len(top) - 1)] for x, d in side)

    def rec() -> bool:
        nodes[0] += 1
        if budget is not None and nodes[0] > budget:
            raise _BudgetExceeded
        if not open_cols and not open_rows:
            return True
        key = cols, rows = (tuple(sorted(open_cols.values())), tuple(sorted(open_rows.values())))
        if key in failed or not (reachable(cols, rows) and reachable(rows, cols)):
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


def _complete_columns(entries: Dict, empty: Iterable[int], n: int) -> None:
    """Give each column of `empty` in turn a single 1, in the row with the least
    entries so far (the least such row on a tie)."""
    support = Counter(i for i, _ in entries)
    for j in empty:
        target = min(range(n), key=support.__getitem__)
        entries[(target, j)] = 1
        support[target] += 1


def delta_exact(pi, mu) -> DispersionResult:
    """Exact log-dispersion with a validating witness.

    Searches m = 1, 2, ... for a coupling with support degrees <= m; the
    first hit gives delta = log2(m) with the derived matrix, a support forest
    on the positive-mass columns, as witness.  Vectors of dimension above
    MAX_EXACT_DIMENSION are refused.  The searches below m = n share
    SEARCH_NODE_BUDGET nodes (read at each call); at m = n every open node
    keeps an edge for each open partner, so the search takes its first path
    (at most 2n calls), unbudgeted.  If the budget runs out, the m = n
    search still gives a witness: the result is flagged
    "certificate-upper-bound" and its m_star is the witness's largest degree.
    """
    pi = pi if isinstance(pi, ProbabilityVector) else ProbabilityVector(tuple(pi))
    mu = mu if isinstance(mu, ProbabilityVector) else ProbabilityVector(tuple(mu))
    if pi.n != mu.n:
        raise ValueError(f"dimension mismatch: {pi.n} vs {mu.n}")
    n = pi.n
    if n > MAX_EXACT_DIMENSION:
        raise ValueError(f"dimension {n} exceeds exact-solver cap {MAX_EXACT_DIMENSION}")

    scale = math.lcm(*(x.denominator for x in pi.p), *(x.denominator for x in mu.p))
    cols_pos = [j for j in range(n) if pi[j] > 0]
    rows_pos = [i for i in range(n) if mu[i] > 0]
    col_mass = [int(pi[j] * scale) for j in cols_pos]
    row_mass = [int(mu[i] * scale) for i in rows_pos]
    nodes = [0]

    method = "exact-search"
    for m in range(1, n + 1):
        try:
            flows = _coupling_with_degree_bound(col_mass, row_mass, m,
                                                SEARCH_NODE_BUDGET if m < n else None, nodes)
        except _BudgetExceeded:
            # the m = n search always succeeds; its witness declares its largest degree
            method, m = "certificate-upper-bound", None
            flows = _coupling_with_degree_bound(col_mass, row_mass, n, None, nodes)
        if flows is not None:
            break
    # column j holds its flows over the mass pi(j) * scale; a zero-mass column
    # gets a single 1 in a row with minimal current support
    flows = {(rows_pos[i], cols_pos[j]): f for (j, i), f in flows.items() if f}
    _complete_columns(flows, [j for j in range(n) if pi[j] == 0], n)
    witness = SparseStochasticCertificate(
        n, {(i, j): Fraction(f, int(pi[j] * scale) or 1) for (i, j), f in flows.items()}, m or 1)
    if m is None:
        witness.declared_m = max(witness.max_degrees())
    outcome = validate_certificate(witness, pi, mu)
    if not outcome.ok:
        raise AssertionError(f"solver produced invalid witness: {outcome.detail}")
    m_star = witness.declared_m
    return DispersionResult(m_star, math.log2(m_star), witness, method, nodes[0])


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
    pi, mu = _as_dict(pi, n), _as_dict(mu, n)
    row_sums: Dict[int, Fraction] = defaultdict(Fraction)
    for i, j, v in cert.triples():
        row_sums[i] += v
    entries: Dict[Tuple[int, int], Fraction] = {}
    for i, j, v in cert.triples():
        # A entry a_ij contributes to A' entry a'_{ji}
        pj = pi.get(i, 0)
        w = v * mu.get(j, 0) / pj if pj > 0 else v / row_sums[i]
        if w != 0:
            entries[(j, i)] = entries.get((j, i), Fraction(0)) + w
    covered = {j for (_, j) in entries}
    _complete_columns(entries, [j for j in range(n) if j not in covered], n)
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


def _coupling_bounds(m: int, k: int, l: int) -> Tuple[int, int]:
    """The column and row support bounds (s+1)*m and g*(s+1)*m of the l-block
    coupling of alpha and m*alpha, s the base-k digit sum of m, g = gcd(m, k^l)."""
    s, rest = 0, m
    while rest:
        rest, digit = divmod(rest, k)
        s += digit
    return (s + 1) * m, math.gcd(m, k ** l) * (s + 1) * m


def certificate_bound_bits(m: int, k: int, l: int) -> float:
    """log2 of the row bound of :func:`_coupling_bounds`."""
    return math.log2(_coupling_bounds(m, k, l)[1])


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
    """Inverse of :func:`certificate_to_json_dict`; refuses a repeated entry or identity
    column, any size or index that is not a JSON integer (bool included) and any
    entry value that is not a JSON string of a rational."""
    triples = data["entries"]
    listed = data.get("identity_columns", [])
    ints = [data["n"], data["declared_m"], *listed, *(x for t in triples for x in t[:2])]
    if any(type(x) is not int for x in ints):
        raise ValueError("n, declared_m and every row and column index must be JSON integers")
    if any(type(v) is not str for t in triples for v in t[2:]):
        raise ValueError('every entry value must be a JSON string "num/den"')
    try:
        entries = {(i, j): Fraction(v) for i, j, v in triples}
    except ZeroDivisionError:
        raise ValueError("an entry value has denominator 0") from None
    identity = frozenset(listed)
    if len(entries) < len(triples) or len(identity) < len(listed):
        raise ValueError("certificate lists an entry or an identity column twice")
    return SparseStochasticCertificate(data["n"], entries, data["declared_m"], identity)


def block_distribution_as_code_vector(dist: BlockDistribution) -> Dict[int, Fraction]:
    """Sparse {block code: probability} view of a block distribution."""
    return {code: Fraction(c, dist.n) for code, c in dist.counts.items()}


def _certificate_dimension(k: int, l: int) -> int:
    dimension = k ** l
    if dimension > MAX_CERTIFICATE_DIMENSION:
        raise ValueError(f"block space k^l = {dimension} exceeds the certificate cap "
                         f"{MAX_CERTIFICATE_DIMENSION}")
    return dimension


def _bounds(codes: np.ndarray) -> np.ndarray:
    """Where each run of equal values in `codes` starts, then len(codes)."""
    edges = np.empty(len(codes) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    return edges.nonzero()[0]


def _in_sorted(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which of `values` occur in the ascending array `codes`."""
    if not len(codes):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(codes, values), len(codes) - 1)
    return codes[at] == values


def _sparse(codes: np.ndarray, values: np.ndarray) -> Dict[int, int]:
    return dict(zip(codes.tolist(), values.tolist()))


class BlockCoupling(SparseStochasticCertificate):
    """The aligned l-block pairs of alpha and m*alpha as a certificate of integer flows.

    Column x is a block code among the first `blocks` l-blocks of alpha, its
    mass the number of those blocks equal to x; its flow into row y counts
    the blocks j < `blocks` with block_j(alpha) = x and block_j(m*alpha) = y,
    pairs in ascending (x, y) order.  Block codes absent from alpha are the
    implicit identity columns.  The masses and the image block counts are
    counted from each code stream on its own, never from the pairs, so the
    column and row checks compare two independent counts.  Against the block
    distributions every w_x * L of :func:`validate_certificate` is 1 for
    L = `blocks` and mu_y * L is the image count of y, the integers
    :meth:`validate` checks.  `declared_m` is `row_bound` capped at k^l.
    """

    __slots__ = ("alphabet", "l", "m", "blocks", "image_codes", "image_counts", "col_bound",
                 "row_bound")

    def __init__(self, alphabet: Alphabet, l: int, m: int, blocks: int, x, y, count,
                 source_codes, source_counts, image_codes, image_counts):
        self.alphabet, self.l, self.m, self.blocks = alphabet, l, m, blocks
        self.image_codes, self.image_counts = image_codes, image_counts
        dimension = _certificate_dimension(alphabet.k, l)
        self.col_bound, self.row_bound = _coupling_bounds(m, alphabet.k, l)
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        if (np.count_nonzero(x[1:] < x[:-1])
                or np.count_nonzero((x[1:] == x[:-1]) & (y[1:] <= y[:-1]))):
            order = np.lexsort((y, x))
            x, y, count = x[order], y[order], _int_array(count)[order]
        identity = UnobservedColumns(dimension, source_codes)  # its int64 codes are the columns
        self._set(dimension, min(self.row_bound, dimension), identity, y, x, count,
                  identity.observed, source_counts)

    @classmethod
    def from_codes(cls, alphabet: Alphabet, l: int, m: int, source: _Blocks,
                   image: _Blocks) -> "BlockCoupling":
        """The table of two counted cells of n = len(source.codes) blocks: the
        aligned pairs are counted by one in-place sort of the keys x*k^l + y of
        the cells' codes, and the masses and the image counts are the cells'
        own values and counts."""
        dimension = _certificate_dimension(alphabet.k, l)
        keys = source.codes.astype(np.int64)
        keys *= dimension
        keys += image.codes
        keys.sort()
        bounds = _bounds(keys)
        y, counts = keys[bounds[:-1]], bounds[1:] - bounds[:-1]
        del keys, bounds  # free the keys before the table groups its pairs
        x = y // dimension  # numpy divides by a scalar faster than it takes a remainder
        y -= x * dimension
        return cls(alphabet, l, m, len(source.codes), x, y, counts, source.values, source.counts,
                   image.values, image.counts)

    def validate(self) -> ValidationOutcome:
        """:func:`validate_certificate` against the two block distributions, then a
        guard from how multiplication acts on blocks: block j of m*alpha is
        (m*x + floor(m*tau_j)) mod k^l with tau_j in [0, 1) the tail after
        block j of alpha, so a pair with (y - m*x) mod k^l > m - 1 fails as
        "residue-identity".  Multiplication is thus finite-state on blocks:
        floor(m*tau_j) is a carry in [0, s], s the base-k digit sum of m, plus
        what the next floor(log_k m) digits of alpha contribute, so each
        output block is a function of the input block, that carry and those
        digits."""
        outcome = self._check(None, self.blocks, {}, (self.image_codes, self.image_counts))
        if not outcome.ok:
            return outcome
        residue = self.rows - (self.m % self.n) * self.cols
        residue -= residue // self.n * self.n
        if residue.max(initial=0) >= self.m:
            t = int(np.argmax(residue >= self.m))
            return ValidationOutcome(False, "residue-identity",
                                     f"pair ({self.cols[t]}, {self.rows[t]}): (y - m*x) mod k^l = "
                                     f"{residue[t]} > m - 1 = {self.m - 1}")
        return ValidationOutcome(True)

    def distributions(self) -> Tuple[BlockDistribution, BlockDistribution]:
        """Block distributions of alpha and of m*alpha."""
        return tuple(BlockDistribution(self.alphabet, self.l, self.blocks, _sparse(codes, counts))
                     for codes, counts in ((self.columns, self.masses),
                                           (self.image_codes, self.image_counts)))


def integer_multiple_certificate(seq: DigitSequence, m: int, l: int, n: int,
                                 lookahead_cap: int = DEFAULT_LOOKAHEAD_CAP,
                                 product_digits: Optional[DigitSequence] = None):
    """Coupling certificate between block statistics of alpha and m*alpha.

    The joint-count table of the first n aligned l-blocks of alpha and
    frac(m*alpha) (see :class:`BlockCoupling`): it is stochastic, maps the
    block distribution of alpha exactly onto that of m*alpha, and has column
    support at most (s+1)*m and row support at most g*(s+1)*m for
    g = gcd(m, k^l), so it certifies a dispersion bound independent of l
    and n.  `product_digits` may pass a precomputed certified stream of
    frac(m*alpha), in alpha's base and covering at least n*l digits, saving
    the multiplication when many (l, n) cells are built from one stream.

    Returns (certificate, block distribution of alpha, of m*alpha).
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
    elif product_digits.alphabet != seq.alphabet:
        raise ValueError(f"product digits are base {product_digits.alphabet.k}, "
                         f"alpha is base {seq.alphabet.k}")
    elif product_digits.length_available < n * l:
        raise UnresolvedCarryError(
            f"precomputed product covers {product_digits.length_available} "
            f"of {n * l} digits")
    (source,), (image,) = _prefix_blocks(seq, l, [n]), _prefix_blocks(product_digits, l, [n])
    table = BlockCoupling.from_codes(seq.alphabet, l, m, source, image)
    return (table, *table.distributions())
