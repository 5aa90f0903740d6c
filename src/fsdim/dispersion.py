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
mass c_j per explicit column, with a_ij = B_ij / c_j.  Two types hold one,
each in its natural form and each checking itself: a
:class:`SparseStochasticCertificate` (solver witnesses, reversals and
compositions, n <= MAX_EXACT_DIMENSION) in plain-Python dicts of integers,
checked against any pi and mu by :func:`validate_certificate`, and a
:class:`BlockCoupling` (a joint-count table of alpha and m*alpha) in int64
arrays, its identity columns implicit, checked against the two block counts
it was built from.  Every check compares integer sums; Fractions appear only
where rational entries come in or go out: the constructor, `entries` and files.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .blockstats import BlockDistribution, _prefix_blocks
from .digitseq import Alphabet, DigitSequence
from .realarith import UnresolvedCarryError, mul_int_mod1

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


class UnobservedColumns:
    """The codes in range(n) outside `observed`, without listing them: a block
    table's identity columns, the block codes that never occur in the source,
    counted and iterated ascending from the observed codes alone (kept as an
    ascending array), so in O(observed) memory whatever n is."""

    __slots__ = ("n", "observed")

    def __init__(self, n: int, observed: Sequence[int]):
        self.n = n
        observed = np.array(observed, dtype=np.int64)  # a copy: the caller's array may change
        if np.count_nonzero(observed[1:] <= observed[:-1]):  # block tables pass them ascending
            observed = np.unique(observed)
        self.observed = observed
        if len(self.observed) and not (self.observed[0] >= 0 and self.observed[-1] < n):
            raise ValueError(f"observed code outside range({n})")

    def __len__(self) -> int:
        return self.n - len(self.observed)

    def __iter__(self):
        # the runs of codes before, between and after the observed ones
        observed = self.observed.tolist()
        return itertools.chain.from_iterable(
            map(range, [0] + [c + 1 for c in observed], observed + [self.n]))

    def __repr__(self) -> str:
        return f"UnobservedColumns(n={self.n}, observed={len(self.observed)} codes)"


class SparseStochasticCertificate:
    """Column-stochastic nonnegative matrix held as integer flows over column masses.

    Explicit column j has a positive integer mass c_j (`masses`, {j: c_j})
    and its entries positive integer flows B_ij (`flows`, {(i, j): B_ij}), so
    a_ij = B_ij / c_j with each column in lowest terms.  Every column is
    explicit, so `identity_columns` is always empty; only a block table has
    any.  `declared_m` is the sparsity bound claimed for every row and column.
    The constructor converts rational entries {(row, col): value}, column j
    taking the least common multiple of its denominators as its mass; the
    solver builds its witnesses, reversals and compositions from integer flows
    instead.  Plain Python throughout, for the solver's dimensions
    (n <= MAX_EXACT_DIMENSION); block tables are :class:`BlockCoupling`.
    """

    __slots__ = ("n", "declared_m", "flows", "masses", "_maxima", "_entries")
    identity_columns = frozenset()

    def __init__(self, n: int, entries: Dict[Tuple[int, int], Fraction], declared_m: int):
        values = {key: v if type(v) is Fraction else Fraction(v) for key, v in entries.items()}
        mass: Dict[int, int] = {}
        for (_, j), v in values.items():
            mass[j] = math.lcm(mass.get(j, 1), v.denominator)
        self._set(n, declared_m,
                  {key: v.numerator * (mass[key[1]] // v.denominator) for key, v in values.items()},
                  mass)
        self._entries = values

    @classmethod
    def _from_flows(cls, n: int, flows: Dict[Tuple[int, int], int], masses: Dict[int, int],
                    declared_m: int) -> "SparseStochasticCertificate":
        """The certificate of positive integer flows over positive masses."""
        cert = cls.__new__(cls)
        cert._set(n, declared_m, flows, masses)
        return cert

    def _set(self, n: int, declared_m: int, flows: Dict[Tuple[int, int], int],
             masses: Dict[int, int]) -> None:
        """Hold the flows over the masses of their columns after checking their
        structure, each column divided by the gcd of its mass and flows, so that
        equal entries are equal flows and masses however they were made."""
        if n < 1 or declared_m < 1:
            raise ValueError("dimension and declared_m must be positive")
        rows: Dict[int, int] = {}
        cols: Dict[int, int] = {}
        g = dict(masses)
        try:
            for (i, j), b in flows.items():
                if not (0 <= i < n and 0 <= j < n and b > 0):
                    raise ValueError(f"entry outside range({n}) or flow not positive")
                rows[i] = rows.get(i, 0) + 1
                cols[j] = cols.get(j, 0) + 1
                g[j] = math.gcd(g[j], b)
        except KeyError:
            j = min(j for _, j in flows if j not in masses)
            raise ValueError(f"column {j} has entries but no mass") from None
        if any(d > 1 for d in g.values()):
            flows = {key: b // g[key[1]] for key, b in flows.items()}
            masses = {j: c // g[j] for j, c in masses.items()}
        self.n, self.declared_m = n, declared_m
        self.flows, self.masses, self._entries = flows, masses, None
        self._maxima = max(rows.values(), default=0), max(cols.values(), default=0)

    @property
    def entries(self) -> Dict[Tuple[int, int], Fraction]:
        """{(row, col): a_ij} of the explicit entries, kept from the constructor or
        made from the flows on first use.  A view for reading: writing to it
        changes no flow and no check."""
        if self._entries is None:
            self._entries = {key: Fraction(b, self.masses[key[1]])
                             for key, b in self.flows.items()}
        return self._entries

    def support_counts(self) -> Tuple[Counter, Counter]:
        """Entries per row and per column."""
        return Counter(i for i, _ in self.flows), Counter(j for _, j in self.flows)

    def max_degrees(self) -> Tuple[int, int]:
        """(largest row support, largest column support); a block table's
        identity column j counts as a column of degree 1 and adds 1 to row j."""
        return self._maxima

    def _columns(self) -> Dict[int, Tuple[int, List[Tuple[int, int]]]]:
        """{column j: (c_j, [(row i, B_ij), ...])}."""
        columns: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {
            j: (c, []) for j, c in self.masses.items()}
        for (i, j), b in self.flows.items():
            columns[j][1].append((i, b))
        return columns

    def apply(self, pi) -> Dict[int, Fraction]:
        """Sparse product A*pi as {row: value}, rows ascending, zero rows omitted."""
        image, scale = self._image(_as_dict(pi, self.n), ())
        return {i: Fraction(image[i], scale) for i in sorted(image)}

    def _image(self, pi: Dict, denominators) -> Tuple[Dict[int, int], int]:
        """({row i: (A*pi)_i * L} of the nonzero rows, L), L the least common
        multiple of the denominators of every pi_j / c_j and of `denominators`."""
        masses, image = self.masses, {}
        weights = {j: (v.numerator, v.denominator * masses[j]) for j, v in pi.items()
                   if j in masses}
        scale = math.lcm(*[d for _, d in weights.values()], *denominators)
        weights = {j: a * (scale // d) for j, (a, d) in weights.items()}
        for (i, j), b in self.flows.items():
            if j in weights:
                image[i] = image.get(i, 0) + b * weights[j]
        return {i: v for i, v in image.items() if v}, scale

    def _check(self, pi, mu) -> "ValidationOutcome":
        """Conditions (i)-(iii) of :func:`validate_certificate` in Python integers:
        each column's flows against its mass, then A*pi against mu with both
        scaled by the L of :meth:`_image`.  Where several rows or columns break
        a condition, the least index is reported."""
        n, masses = self.n, self.masses
        sums: Dict[int, int] = {}
        for (_, j), b in self.flows.items():
            sums[j] = sums.get(j, 0) + b
        # every mass column is in range(n), so coverage is a count
        covered = len(masses) == n
        if not covered or sums != masses:
            bad = [j for j, c in masses.items() if sums.get(j) != c]
            if not covered:
                bad.append(next(j for j in range(n) if j not in masses))
            j = min(bad)
            return ValidationOutcome(False, "stochastic-columns",
                                     f"column {j} sums to {Fraction(sums[j], masses[j])}"
                                     if j in sums else f"column {j} has no entries")

        mu = _as_dict(mu, n)
        got, scale = self._image(_as_dict(pi, n), [v.denominator for v in mu.values()])
        want = {i: v.numerator * (scale // v.denominator) for i, v in mu.items()}
        if got != want:
            i = min(c for c in got.keys() | want.keys() if got.get(c, 0) != want.get(c, 0))
            return ValidationOutcome(False, "marginal-map",
                                     f"(A*pi)[{i}] = {Fraction(got.get(i, 0), scale)} "
                                     f"!= {Fraction(want.get(i, 0), scale)}")

        declared = self.declared_m
        if max(self._maxima) > declared:
            for name, counts in zip(("row", "column"), self.support_counts()):
                over = [i for i, d in counts.items() if d > declared]
                if over:
                    i = min(over)
                    return ValidationOutcome(False, "support-bound",
                                             f"{name} {i} has {counts[i]} > {declared} entries")
        return ValidationOutcome(True)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.n}, declared_m={self.declared_m}, "
                f"flows={self.flows}, masses={self.masses})")


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
    """{index: value} of the nonzero entries of a sparse dict with keys in
    range(n), a ProbabilityVector or a sequence of length n."""
    if not isinstance(vec, dict):
        values = vec.p if isinstance(vec, ProbabilityVector) else [Fraction(v) for v in vec]
        if len(values) != n:
            raise ValueError("vector dimension does not match certificate")
        vec = dict(enumerate(values))
    elif not all(0 <= j < n for j in vec):
        raise ValueError(f"vector index outside range({n})")
    return {j: v for j, v in vec.items() if v}


def validate_certificate(cert: SparseStochasticCertificate, pi, mu) -> ValidationOutcome:
    """Check conditions (i) columns stochastic, (ii) A*pi = mu, (iii) sparsity.

    `cert` is a :class:`SparseStochasticCertificate`; `pi` and `mu` may be
    :class:`ProbabilityVector`, sequences, or sparse {index: value} dicts
    (missing indices are zero).  A passing outcome certifies
    dispersion(pi, mu) <= log2(declared_m).  The first violated condition is
    reported, at its least row or column index; structurally malformed
    certificates, and vectors of another dimension or with an index outside
    range(n), raise instead, and so does a block table, which checks itself
    against the block counts it was built from (:meth:`BlockCoupling.validate`).
    """
    if not isinstance(cert, SparseStochasticCertificate):
        raise ValueError("validate_certificate takes solver certificates; "
                         "a block table checks itself: BlockCoupling.validate()")
    return cert._check(pi, mu)


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

    A state is dead (:func:`_reachable`) when an open node with mass x and d
    edges left has x above the sum of the d largest open masses on the other
    side: its later edges go to d distinct open partners (a forest joins no
    pair twice), each carrying at most the partner's current mass (a flow is
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

    def rec() -> bool:
        nodes[0] += 1
        if budget is not None and nodes[0] > budget:
            raise _BudgetExceeded
        if not open_cols and not open_rows:
            return True
        key = cols, rows = (tuple(sorted(open_cols.values())), tuple(sorted(open_rows.values())))
        if key in failed or not (_reachable(cols, rows) and _reachable(rows, cols)):
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

    try:
        return dict(edges) if rec() else None
    finally:
        del rec  # rec holds itself through its closure: free the memo without the cyclic collector


def _reachable(side: Tuple[Tuple[int, int], ...], other: Tuple[Tuple[int, int], ...]) -> bool:
    """Whether every open (mass, degrees-left) profile x, d of `side` has x at
    most the sum of the d largest masses of `other`, which ascends by mass
    (d past its length: all of them)."""
    top = [0]
    total = 0
    for x, _ in reversed(other):
        total += x
        top.append(total)
    last = len(other)
    for x, d in side:
        if x > top[d if d < last else last]:
            return False
    return True


def _complete_columns(flows: Dict[Tuple[int, int], int], masses: Dict[int, int], n: int) -> None:
    """Give each column without a mass in turn, ascending, a single flow 1 over
    mass 1, in the row with the least entries so far (the least such row on a tie)."""
    support = Counter(i for i, _ in flows)
    for j in range(n):
        if j not in masses:
            target = min(range(n), key=support.__getitem__)
            flows[target, j] = masses[j] = 1
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
    pi_mass, mu_mass = ([x.numerator * (scale // x.denominator) for x in v.p] for v in (pi, mu))
    cols_pos = [j for j in range(n) if pi_mass[j]]
    rows_pos = [i for i in range(n) if mu_mass[i]]
    col_mass = [pi_mass[j] for j in cols_pos]
    row_mass = [mu_mass[i] for i in rows_pos]
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
    masses = {j: pi_mass[j] for j in cols_pos}
    _complete_columns(flows, masses, n)
    witness = SparseStochasticCertificate._from_flows(n, flows, masses, m or 1)
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
    rows: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
    for j, (c, col) in cert._columns().items():
        for i, b in col:
            rows[i].append((j, b, c))
    # column i of A' holds row i of A, as flows over a mass
    flows: Dict[Tuple[int, int], int] = {}
    masses: Dict[int, int] = {}
    for i, row in rows.items():
        p = pi.get(i, 0)
        if p > 0:  # B_ij * mu(j) * L / c_j over pi(i) * L, entries with mu(j) = 0 dropped
            row = [(j, b * mu[j].numerator, c * mu[j].denominator) for j, b, c in row if j in mu]
            scale = math.lcm(p.denominator, *[d for _, _, d in row])
            masses[i] = p.numerator * (scale // p.denominator)
        else:  # B_ij * L / c_j over their sum
            scale = math.lcm(*[c for _, _, c in row])
            masses[i] = sum(b * (scale // c) for _, b, c in row)
        for j, b, d in row:
            flows[j, i] = b * (scale // d)
    _complete_columns(flows, masses, n)
    reversed_cert = SparseStochasticCertificate._from_flows(n, flows, masses, cert.declared_m)
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
    # column j of the product: sum over t of B_tj / c_j times outer's column t,
    # B'_it / c'_t, as flows over c_j * L for L the lcm of those c'_t
    by_col = outer._columns()
    flows: Dict[Tuple[int, int], int] = {}
    masses: Dict[int, int] = {}
    for j, (c, col) in inner._columns().items():
        scale = math.lcm(*[by_col[t][0] for t, _ in col])
        masses[j] = c * scale
        for t, b in col:
            c_t, outer_col = by_col[t]
            b *= scale // c_t
            for i, b_t in outer_col:
                flows[i, j] = flows.get((i, j), 0) + b * b_t
    product = SparseStochasticCertificate._from_flows(inner.n, flows, masses,
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

    Identity columns, which only block tables have, are listed separately
    to keep those compact.
    """
    return {
        "n": cert.n,
        "declared_m": cert.declared_m,
        "entries": [[i, j, f"{v.numerator}/{v.denominator}"]
                    for (i, j), v in sorted(cert.entries.items())],
        "identity_columns": sorted(cert.identity_columns),
    }


def block_distribution_as_code_vector(dist: BlockDistribution) -> Dict[int, Fraction]:
    """Sparse {block code: probability} view of a block distribution."""
    return {code: Fraction(c, dist.n)
            for code, c in zip(dist.values.tolist(), dist.counts.tolist())}


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


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return len(a) == len(b) and not np.count_nonzero(a != b)


def _all_in(codes: np.ndarray, columns: np.ndarray) -> bool:
    """Whether the ascending, distinct `codes` all occur in the ascending `columns`,
    both in range(n): as many codes as columns or more, they must be the columns."""
    return _same(codes, columns) if len(codes) >= len(columns) else bool(
        _in_sorted(codes, columns).all())


def _spread(keys: np.ndarray, codes: np.ndarray, values) -> np.ndarray:
    """`values` of the `codes` at their places among the ascending `keys`, 0 elsewhere."""
    out = np.zeros(len(keys), dtype=np.int64)
    out[np.searchsorted(keys, codes)] = values
    return out


def _frozen(a) -> np.ndarray:
    """`a` as a read-only int64 array, as the cells' arrays are: the caller's
    own array where it is one, else a copy (a view's base would stay writable)."""
    a = np.asarray(a, dtype=np.int64)
    a = a if a.flags.owndata else a.copy()
    a.flags.writeable = False
    return a


class BlockCoupling:
    """The aligned l-block pairs of alpha and m*alpha as a certificate of integer flows.

    Column x is a block code among the first `blocks` l-blocks of alpha, its
    mass the number of those blocks equal to x; its flow into row y counts
    the blocks j < `blocks` with block_j(alpha) = x and block_j(m*alpha) = y.
    Block codes absent from alpha are the implicit identity columns
    (`identity_columns`, an :class:`UnobservedColumns`), so every check costs
    O(pairs) rather than O(k^l).  `declared_m` is `row_bound` capped at k^l.

    Everything is a read-only int64 array: the pairs `cols` (x), `rows` (y)
    and `flows` (their counts) in ascending (x, y) order, the observed source
    codes `columns` (ascending) with their `masses`, and the `image_codes`
    with their `image_counts`.  The marginals are counted from each code
    stream on its own, never from the pairs, so :meth:`validate` compares two
    independent counts.  `entries` gives the matrix as Fractions for reading.
    """

    __slots__ = ("alphabet", "l", "m", "blocks", "image_codes", "image_counts", "col_bound",
                 "row_bound", "n", "declared_m", "identity_columns", "rows", "cols", "flows",
                 "columns", "masses", "_col_bounds", "_row_order", "_row_bounds", "_row_codes",
                 "_maxima", "_entries")

    def __init__(self, alphabet: Alphabet, l: int, m: int, blocks: int, x, y, count,
                 source_codes, source_counts, image_codes, image_counts):
        if len(source_codes) != len(source_counts) or len(image_codes) != len(image_counts):
            raise ValueError("block codes and their counts differ in length")
        self.alphabet, self.l, self.m, self.blocks = alphabet, l, m, blocks
        self.image_codes, self.image_counts = _frozen(image_codes), _frozen(image_counts)
        self.n = n = _certificate_dimension(alphabet.k, l)
        self.col_bound, self.row_bound = _coupling_bounds(m, alphabet.k, l)
        self.declared_m = min(self.row_bound, n)
        x, y, count = (np.asarray(a, dtype=np.int64) for a in (x, y, count))
        if (np.count_nonzero(x[1:] < x[:-1])
                or np.count_nonzero((x[1:] == x[:-1]) & (y[1:] <= y[:-1]))):
            order = np.lexsort((y, x))
            x, y, count = x[order], y[order], count[order]
        x, y, count = (_frozen(a) for a in (x, y, count))
        self.rows, self.cols, self.flows = y, x, count
        self.identity_columns = identity = UnobservedColumns(n, source_codes)
        self.columns, self.masses = identity.observed, _frozen(source_counts)
        self._col_bounds = col_bounds = _bounds(x)
        self._row_order = y.argsort(kind="stable")
        by_row = y[self._row_order]
        self._row_bounds = row_bounds = _bounds(by_row)
        self._row_codes = row_codes = by_row[row_bounds[:-1]]
        if len(x) and (min(x[0], row_codes[0]) < 0 or max(x[-1], row_codes[-1]) >= n
                       or count.min() < 1):
            raise ValueError(f"entry outside range({n}) or flow not positive")
        if not _all_in(x[col_bounds[:-1]], self.columns):  # a code not observed is an identity
            raise ValueError("identity columns collide with explicit entries")
        row_degrees = row_bounds[1:] - row_bounds[:-1]
        row_max = int(row_degrees.max(initial=0))
        col_max = int((col_bounds[1:] - col_bounds[:-1]).max(initial=0))
        if identity:
            # an identity 1 raises the largest degree only in a row of that degree
            row_max = max(row_max + (not _all_in(row_codes[row_degrees == row_max], self.columns)),
                          1)
            col_max = max(col_max, 1)
        self._maxima = row_max, col_max
        self._entries = None

    @classmethod
    def from_codes(cls, alphabet: Alphabet, l: int, m: int, source: BlockDistribution,
                   image: BlockDistribution) -> "BlockCoupling":
        """The table of two counted cells of n = source.n blocks: the
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
        return cls(alphabet, l, m, source.n, x, y, counts, source.values, source.counts,
                   image.values, image.counts)

    @property
    def entries(self) -> Dict[Tuple[int, int], Fraction]:
        """{(row, col): a_ij} of the explicit entries, made from the flows and
        masses on first use.  A view for reading: writing to it changes no flow
        and no check."""
        if self._entries is None:
            masses = self.masses[np.searchsorted(self.columns, self.cols)].tolist()
            self._entries = {key: Fraction(b, c) for key, b, c in zip(
                zip(self.rows.tolist(), self.cols.tolist()), self.flows.tolist(), masses)}
        return self._entries

    max_degrees = SparseStochasticCertificate.max_degrees

    def validate(self) -> ValidationOutcome:
        """Conditions (i)-(iii) of :func:`validate_certificate` against the two
        block distributions, where every w_x * L is 1 for L = `blocks` and
        mu_y * L is the image count of y: (i) column sums against the masses,
        (ii) row sums against the image counts, (iii) row degrees, 1 more in an
        unobserved row, then column degrees against `declared_m`; each decided
        and reported on the arrays, at its least failing code.  Then a guard
        from how multiplication acts on blocks: block j of m*alpha is
        (m*x + floor(m*tau_j)) mod k^l with tau_j in [0, 1) the tail after
        block j of alpha, so a pair with (y - m*x) mod k^l > m - 1 fails as
        "residue-identity".  Multiplication is thus finite-state on blocks:
        floor(m*tau_j) is a carry in [0, s], s the base-k digit sum of m, plus
        what the next floor(log_k m) digits of alpha contribute, so each output
        block is a function of the input block, that carry and those digits."""
        bounds, codes, sums = self._col_bounds, self.cols, self.flows
        if len(bounds) <= len(codes):  # some column holds several entries
            codes, sums = codes[bounds[:-1]], np.add.reduceat(sums, bounds[:-1])
        columns, masses = self.columns, self.masses
        if not (_same(codes, columns) and _same(sums, masses)):
            # every pair's column is observed, and a column without pairs sums to 0
            total = _spread(columns, codes, sums)
            t = int(np.argmax((total != masses) | (total == 0)))
            return ValidationOutcome(False, "stochastic-columns", f"column {columns[t]} " + (
                f"sums to {Fraction(int(total[t]), int(masses[t]))}" if total[t]
                else "has no entries"))

        row_codes, image = self._row_codes, self.flows[self._row_order]
        if len(row_codes) < len(image):  # some row holds several entries
            image = np.add.reduceat(image, self._row_bounds[:-1])
        if not (_same(row_codes, self.image_codes) and _same(image, self.image_counts)):
            keys = np.union1d(row_codes, self.image_codes)
            got, want = _spread(keys, row_codes, image), _spread(keys, self.image_codes,
                                                                 self.image_counts)
            t = int(np.argmax(got != want))
            if got[t] != want[t]:  # else the codes differ only where a count is 0
                return ValidationOutcome(False, "marginal-map", f"(A*pi)[{keys[t]}] = "
                                         f"{Fraction(int(got[t]), self.blocks)} != "
                                         f"{Fraction(int(want[t]), self.blocks)}")

        declared = self.declared_m
        if max(self._maxima) > declared:
            rows = self._row_bounds[1:] - self._row_bounds[:-1] + ~_in_sorted(row_codes, columns)
            for name, keys, degrees in (("row", row_codes, rows),
                                        ("column", codes, bounds[1:] - bounds[:-1])):
                t = int(np.argmax(degrees > declared))
                if degrees[t] > declared:
                    return ValidationOutcome(False, "support-bound", f"{name} {keys[t]} has "
                                             f"{degrees[t]} > {declared} entries")

        residue = self.rows - (self.m % self.n) * self.cols
        residue -= residue // self.n * self.n
        if residue.max(initial=0) >= self.m:
            t = int(np.argmax(residue >= self.m))
            return ValidationOutcome(False, "residue-identity",
                                     f"pair ({self.cols[t]}, {self.rows[t]}): (y - m*x) mod k^l = "
                                     f"{residue[t]} > m - 1 = {self.m - 1}")
        return ValidationOutcome(True)


def integer_multiple_certificate(seq: DigitSequence, m: int, l: int, n: int,
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

    Returns (table, source, image): the table and the two counted
    :class:`BlockDistribution` cells of alpha and of m*alpha it was built from.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if l < 1 or n < 1:
        raise ValueError("need l >= 1 and n >= 1")
    _certificate_dimension(seq.alphabet.k, l)
    if product_digits is None:
        product = mul_int_mod1(seq, m, n * l)
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
    return BlockCoupling.from_codes(seq.alphabet, l, m, source, image), source, image
