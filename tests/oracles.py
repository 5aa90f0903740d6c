"""Independent reference implementations the tests check the library against.

Everything here deliberately avoids the library's own algorithms: digit
expansion by per-digit long division, block counting by naive slicing,
dispersion by support-pattern enumeration plus exact-rational max-flow,
certificate checks in Fractions over the rational entries.  Two
exceptions: dispersion_m_unpruned, the solver's leaf-peeling search with
only the plain degree test, reaches n = 6, where enumeration cannot, and
checks the solver's pruning; reachable_by_accumulate states the pruning's
dead-state test by prefix sums in one expression, to check the solver's loops.
Slow is fine; these only run at small sizes.
"""

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

from fsdim import (DigitSequence, InsufficientDigitsError, SparseStochasticCertificate,
                   UnresolvedCarryError, ValidationOutcome, add_rational_mod1, mul_int_mod1,
                   mul_rational_mod1)
from fsdim.realarith import LOOKAHEAD_CAP
from fsdim.verify import ENTROPY_SLACK, VerificationReport


def long_division_digits(q: Fraction, k: int, count: int):
    """Base-k digits of q in [0, 1) by schoolbook long division."""
    assert 0 <= q < 1
    digits = []
    num, den = q.numerator, q.denominator
    for _ in range(count):
        num *= k
        d, num = divmod(num, den)
        digits.append(d)
    return bytes(digits)


def _numeral(digits, k: int) -> int:
    value = 0
    for d in digits:
        value = value * k + d
    return value


def _width_digits(value: int, k: int, width: int) -> bytes:
    out = bytearray(width)
    for i in range(width - 1, -1, -1):
        value, out[i] = divmod(value, k)
    assert value == 0
    return bytes(out)


def _rational_prefix_digits(value: Fraction, k: int, count: int) -> bytes:
    # canonical (terminating) expansion: digits of floor(value * k^count)
    assert 0 <= value < 1
    return _width_digits((value.numerator * k ** count) // value.denominator, k, count)


def _common_prefix_len(a: int, b: int, k: int, count: int) -> int:
    # largest t <= count with a // k^(count-t) == b // k^(count-t);
    # the predicate is monotone in t so binary search applies
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a // k ** (count - mid) == b // k ** (count - mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def certified_affine(seq, coef: Fraction, offset: Fraction, count: int, lookahead_cap: int):
    """Certified digits of frac(coef * alpha + offset), the enclosure in Fractions.

    Returns (digits, certified_count, lookahead_used, unresolved,
    exact_value).  The rational interval enclosure over k^N-sized integers: an N-digit
    prefix pins alpha inside [P/k^N, (P+1)/k^N], the affine image of that
    interval is computed in Fractions, and digits are kept where both ends
    agree; N grows by doubling the guard digits up to the lookahead cap (0
    reads no guard digit).  A request for no digit on a stream without an
    exact value reads nothing and is resolved.  Raises what the library
    raises for the same input.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if coef == 0:
        raise ValueError("coefficient must be nonzero")
    k = seq.alphabet.k

    if seq.exact_value is not None:
        value = coef * seq.exact_value + offset
        frac_part = value - math.floor(value)
        return _rational_prefix_digits(frac_part, k, count), count, 0, False, frac_part

    avail = seq.length_available
    if count > avail:
        raise InsufficientDigitsError(
            f"requested {count} result digits but the stream has only {avail}")
    if count == 0:
        return b"", 0, 0, False, None
    kc = k ** count
    max_read = min(count + lookahead_cap, avail)
    guard = 8
    while True:
        n_read = min(count + guard, max_read)
        prefix_value = _numeral(seq.prefix(n_read), k)
        scale = k ** n_read
        e1 = coef * Fraction(prefix_value, scale) + offset
        e2 = coef * Fraction(prefix_value + 1, scale) + offset
        lo, hi = (e1, e2) if coef > 0 else (e2, e1)
        a = math.floor(lo * kc)
        b = math.floor(hi * kc)
        if a == b:
            return _width_digits(a % kc, k, count), count, n_read - count, False, None
        if n_read >= max_read:
            certified = _common_prefix_len(a, b, k, count)
            value = (a // k ** (count - certified)) % (k ** certified)
            return (_width_digits(value, k, certified), certified, n_read - count, True, None)
        guard *= 2


def lookahead_window(seq, count: int, lookahead: int):
    """The stream the library's arithmetic reads as if its lookahead cap were
    `lookahead` (at most fsdim.realarith.LOOKAHEAD_CAP) for `count` result
    digits: a stream without an exact value cut to min(available, count +
    lookahead) digits.  A stream with an exact value stays whole; its digits
    come from the value, not from a lookahead."""
    if seq.exact_value is not None:
        return seq
    return DigitSequence(seq.alphabet, seq.prefix(min(seq.length_available, count + lookahead)))


def carry_after(seq, m: int, position: int, lookahead_cap: int) -> int:
    """Carry into the block ending at `position` under *m, from a Fraction window.

    The carry is the floor of sum_i m_i * (tail of alpha after position + i
    digits), for m = sum_i m_i k^i in base k.  With an exact value each tail
    is a residue mod the denominator; otherwise the tails are enclosed from
    a window of digits that doubles until both ends of the enclosure share
    a floor, reading at most `lookahead_cap` digits past position + r.
    Raises UnresolvedCarryError when they never do.
    """
    k = seq.alphabet.k
    m_digits = []
    while m:
        m, digit = divmod(m, k)
        m_digits.append(digit)
    if seq.exact_value is not None:
        num, den = seq.exact_value.numerator, seq.exact_value.denominator
        total = sum(mi * ((pow(k, position + i, den) * num) % den)
                    for i, mi in enumerate(m_digits))
        return total // den
    r = len(m_digits) - 1
    max_read = min(position + r + lookahead_cap, seq.length_available)
    window = 16
    while True:
        n_read = max(min(position + r + window, max_read), position + r)
        text = seq.prefix(n_read)
        lo = width = Fraction(0)
        for i, mi in enumerate(m_digits):
            tail = text[position + i:n_read]
            lo += mi * Fraction(_numeral(tail, k), k ** len(tail))
            width += mi * Fraction(1, k ** len(tail))
        if math.floor(lo) == math.floor(lo + width):
            return math.floor(lo)
        if n_read >= max_read:
            raise UnresolvedCarryError(
                f"carry at position {position} unresolved after {n_read - position} digits")
        window *= 2


def shift_in_sum(digits, m: int, k: int) -> int:
    """sum_i m_i * value(digits[:i]) for m = sum_i m_i k^i: what the r digits after
    a block add to floor(m * tail) beside the carry of :func:`carry_after`."""
    return sum((m // k ** i) % k * _numeral(digits[:i], k) for i in range(1, len(digits) + 1))


def frac_digits(value: Fraction, k: int, count: int):
    """Digits of value mod 1, terminating expansion."""
    frac_part = value - (value.numerator // value.denominator)
    return long_division_digits(frac_part, k, count)


DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def champernowne_digits(k: int, count: int, order: str) -> bytes:
    """First `count` Champernowne digits by concatenating whole words.

    Shortlex takes the words of each length from itertools.product; the
    integers order spells 1, 2, 3, ... as numeral strings (numpy.base_repr)
    and reads each character back as a digit value.
    """
    out = bytearray()
    if order == "shortlex":
        words = itertools.chain.from_iterable(
            itertools.product(range(k), repeat=w) for w in itertools.count(1))
    else:
        words = ([DIGIT_CHARS.index(ch) for ch in np.base_repr(v, k)]
                 for v in itertools.count(1))
    while len(out) < count:
        out.extend(next(words))
    return bytes(out[:count])


def oscillating_digits(count: int, ratio: int = 4, dense_first: bool = True) -> bytes:
    """`count` base-10 digits of alternating segments, the next Champernowne
    digits and zeros, Champernowne's first unless `dense_first` is false, the
    segment lengths growing `ratio`-fold from 64.  With ratio 4, after a
    Champernowne segment about 4/5 of the digits are Champernowne's, after a
    run of zeros about 1/5, so the sequence has dimension 1/5 and strong
    dimension 4/5: its lower and upper estimates stay far apart."""
    champ = champernowne_digits(10, count, "shortlex")
    out, used, length, dense = bytearray(), 0, 64, dense_first
    while len(out) < count:
        if dense:
            out += champ[used:used + length]
            used += length
        else:
            out += bytes(length)
        length, dense = ratio * length, not dense
    return bytes(out[:count])


def entropy_from_counts(counts, n: int) -> float:
    """Entropy in bits of a count vector, equal counts grouped by a Counter."""
    if n <= 0:
        raise ValueError("empty distribution")
    groups = Counter(int(c) for c in counts if c > 0)
    if sum(c * mult for c, mult in groups.items()) != n:
        raise ValueError("counts do not sum to n")
    log_n = math.log2(n)
    h = math.fsum((mult * c / n) * (log_n - math.log2(c)) for c, mult in groups.items())
    return max(h, 0.0)


def parse_digit_file(path):
    """(k, digits) of a digit file, parsed one character at a time.

    A malformed file raises ValueError with the message the library's
    reader gives for it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError("digit file is not ASCII") from None
    header, _, body = text.partition("\n")
    header = header.strip()
    if not header.startswith("k="):
        raise ValueError(f"malformed header {header!r}, expected 'k=<base>'")
    try:
        k = int(header[2:])
    except ValueError:
        raise ValueError(f"malformed base in header {header!r}") from None
    if not 2 <= k <= 36:
        raise ValueError(f"unsupported base {k} in digit file")
    digits = bytearray()
    for ch in body:
        if ch.isspace():
            continue
        d = DIGIT_CHARS.find(ch.upper())
        if d < 0 or d >= k:
            raise ValueError(f"character {ch!r} is not a base-{k} digit")
        digits.append(d)
    return k, bytes(digits)


def naive_block_counts(digits: bytes, l: int, n: int):
    counts = {}
    for j in range(n):
        w = digits[j * l:(j + 1) * l]
        counts[w] = counts.get(w, 0) + 1
    return counts


def numpy_block_counts(digits, k: int, l: int, n: int):
    """{block code: count} of the first n aligned l-blocks: the digits as an
    n x l matrix times the powers of k, then one np.unique."""
    blocks = np.frombuffer(bytes(digits[:n * l]), np.uint8).astype(np.int64).reshape(n, l)
    codes = blocks @ k ** np.arange(l - 1, -1, -1, dtype=np.int64)
    return dict(zip(*(a.tolist() for a in np.unique(codes, return_counts=True))))


def sliding_normality_deviation(digits: bytes, k: int, w_max_len: int, n: int) -> Fraction:
    """max_w |freq(w) - k^(-|w|)| over |w| <= w_max_len, sliding blocks as byte slices."""
    worst = Fraction(0)
    text = digits[:n + w_max_len]
    for l in range(1, w_max_len + 1):
        target = Fraction(1, k ** l)
        counts = Counter(text[i:i + l] for i in range(n))
        for c in counts.values():
            worst = max(worst, abs(Fraction(c, n) - target))
        if len(counts) < k ** l:
            worst = max(worst, target)
    return worst


def product_prefix_digits(digits: bytes, k: int, m: int, count: int):
    """Digits of frac(m * 0.d1d2...dN) from the prefix as one big integer.

    Uses guard digits: valid as long as the unused tail cannot carry into
    the reported prefix, which the caller ensures by supplying enough
    digits (the check below raises if the margin is too thin).
    """
    n = len(digits)
    assert n > count
    prefix = 0
    for d in digits:
        prefix = prefix * k + d
    product = m * prefix  # = m * alpha * k^n, up to m * tail
    frac_scaled = product % (k ** n)
    reported, remainder = divmod(frac_scaled, k ** (n - count))
    if remainder > k ** (n - count) - 1 - m:
        raise AssertionError("guard digits too thin for a carry-safe oracle")
    out = []
    for _ in range(count):
        reported, d = divmod(reported, k)
        out.append(d)
    return bytes(reversed(out))


def _maxflow_feasible(pattern, col_mass, row_mass):
    """Transportation feasibility on a fixed support via Edmonds-Karp.

    Source -> col j (capacity pi_j), col -> row over pattern edges
    (unbounded), row i -> sink (capacity mu_i); feasible iff the max flow
    saturates the source, all in exact rationals.
    """
    p, r = len(col_mass), len(row_mass)
    source, sink = 0, 1 + p + r
    size = sink + 1
    cap = [[Fraction(0)] * size for _ in range(size)]
    total = Fraction(0)
    for j, mass in enumerate(col_mass):
        cap[source][1 + j] = Fraction(mass)
        total += mass
    for (j, i) in pattern:
        cap[1 + j][1 + p + i] = total + 1
    for i, mass in enumerate(row_mass):
        cap[1 + p + i][sink] = Fraction(mass)
    flow = Fraction(0)
    while True:
        prev = [-1] * size
        prev[source] = source
        queue = [source]
        while queue:
            u = queue.pop(0)
            for v in range(size):
                if prev[v] < 0 and cap[u][v] > 0:
                    prev[v] = u
                    queue.append(v)
        if prev[sink] < 0:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = prev[v]
            bottleneck = cap[u][v] if bottleneck is None else min(bottleneck, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = prev[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow += bottleneck
    return flow == total


def dispersion_m_bruteforce(pi, mu):
    """Least sparsity bound by exhausting support patterns (tiny n only).

    Enumerates every subset of the positive-mass bipartite edge set, keeps
    those with row/column degrees <= m, and tests transportation
    feasibility by max flow.  Zero-mass columns never bind (a single entry
    fits in any row with slack), so they are ignored, matching the
    reduction the solver uses but through an unrelated search.
    """
    n = len(pi)
    cols = [j for j in range(n) if pi[j] > 0]
    rows = [i for i in range(n) if mu[i] > 0]
    col_mass = [pi[j] for j in cols]
    row_mass = [mu[i] for i in rows]
    edges = [(j, i) for j in range(len(cols)) for i in range(len(rows))]
    assert len(edges) <= 20, "brute force oracle is for tiny instances"
    for m in range(1, n + 1):
        for size in range(1, len(edges) + 1):
            for pattern in itertools.combinations(edges, size):
                cdeg = {}
                rdeg = {}
                for (j, i) in pattern:
                    cdeg[j] = cdeg.get(j, 0) + 1
                    rdeg[i] = rdeg.get(i, 0) + 1
                if max(cdeg.values()) > m or max(rdeg.values()) > m:
                    continue
                if len(cdeg) < len(cols) or len(rdeg) < len(rows):
                    continue
                if _maxflow_feasible(pattern, col_mass, row_mass):
                    return m
    return n


def dispersion_m_unpruned(pi, mu):
    """Least sparsity bound by leaf-peeling search that prunes a state only
    when an open node with mass left has no edges left (n <= 6).

    Every support forest is built by repeatedly joining an open column and
    an open row with the smaller one's remaining mass, which closes it (both
    on a tie).  States memoize on their sorted (mass, degrees left)
    profiles, and one node per profile is tried.  m = n always admits the
    product coupling, so it is not searched.
    """
    n = len(pi)
    scale = math.lcm(*(Fraction(x).denominator for x in (*pi, *mu)))
    col_mass = [int(x * scale) for x in pi if x > 0]
    row_mass = [int(x * scale) for x in mu if x > 0]

    def feasible(m):
        failed = set()

        def rec(cols, rows):
            if not cols and not rows:
                return True
            if any(d == 0 for _, d in cols + rows):
                return False
            key = (tuple(sorted(cols)), tuple(sorted(rows)))
            if key in failed:
                return False
            for a, (cmass, cdeg) in enumerate(cols):
                if (cmass, cdeg) in cols[:a]:
                    continue
                for b, (rmass, rdeg) in enumerate(rows):
                    if (rmass, rdeg) in rows[:b]:
                        continue
                    flow = min(cmass, rmass)
                    rest_cols = cols[:a] + cols[a + 1:]
                    rest_rows = rows[:b] + rows[b + 1:]
                    if cmass > flow:
                        rest_cols.append((cmass - flow, cdeg - 1))
                    if rmass > flow:
                        rest_rows.append((rmass - flow, rdeg - 1))
                    if rec(rest_cols, rest_rows):
                        return True
            failed.add(key)
            return False

        return rec([(x, m) for x in col_mass], [(x, m) for x in row_mass])

    return next((m for m in range(1, n) if feasible(m)), n)


def reachable_by_accumulate(side, other):
    """The search's dead-state test in one expression, the reference for
    dispersion._reachable: every (mass, degrees left) profile x, d of `side`
    has x at most the sum of the d largest masses of `other`, which ascends
    by mass."""
    top = [0, *itertools.accumulate(x for x, _ in reversed(other))]
    return all(x <= top[min(d, len(top) - 1)] for x, d in side)


def rational_support_counts(cert):
    """(entries per row, entries per column) of a certificate's rational entries,
    every identity column adding one entry to its column and to its row."""
    rows = Counter(i for (i, _) in cert.entries)
    cols = Counter(j for (_, j) in cert.entries)
    for j in cert.identity_columns:
        rows[j] += 1
        cols[j] += 1
    return rows, cols


def validate_certificate_rational(cert, pi, mu):
    """validate_certificate in Fractions over `cert.entries`: the reference the
    library's integer check is compared with.

    (i) every column is an identity column or its entries sum to 1, (ii) A*pi
    equals mu entry by entry, (iii) no row or column holds more than
    declared_m entries.  The first condition broken is reported; where several
    columns or rows break it, the least index.
    """
    n = cert.n
    vectors = []
    for vec in (pi, mu):
        if not isinstance(vec, dict):
            vec = vec.p if hasattr(vec, "p") else vec
            if len(vec) != n:
                raise ValueError("vector dimension does not match certificate")
            vec = dict(enumerate(vec))
        vectors.append({j: Fraction(v) for j, v in vec.items() if v})
    pi, mu = vectors
    identity = cert.identity_columns

    sums = defaultdict(Fraction)
    for (_, j), v in cert.entries.items():
        sums[j] += v
    bad = [j for j, total in sums.items() if total != 1]
    if len(sums) + len(identity) != n:  # identity columns hold no entries
        bad.append(next(j for j in range(n) if j not in sums and j not in identity))
    if bad:
        j = min(bad)
        return ValidationOutcome(False, "stochastic-columns",
                                 f"column {j} sums to {sums[j]}" if j in sums
                                 else f"column {j} has no entries")

    product = defaultdict(Fraction)
    for (i, j), v in cert.entries.items():
        product[i] += v * pi.get(j, 0)
    for j, v in pi.items():
        if j in identity:
            product[j] += v
    product = {i: v for i, v in product.items() if v}
    if product != mu:
        i = min(i for i in product.keys() | mu.keys() if product.get(i, 0) != mu.get(i, 0))
        return ValidationOutcome(False, "marginal-map",
                                 f"(A*pi)[{i}] = {product.get(i, 0)} != {mu.get(i, 0)}")

    rows, cols = rational_support_counts(cert)
    for name, counts in (("row", rows), ("column", cols)):
        over = sorted(i for i, c in counts.items() if c > cert.declared_m)
        if over:
            return ValidationOutcome(False, "support-bound", f"{name} {over[0]} has "
                                     f"{counts[over[0]]} > {cert.declared_m} entries")
    return ValidationOutcome(True)


def block_certificate(seq, product_digits, m: int, l: int, n: int):
    """(entries, identity columns, declared_m) of the rational block certificate.

    The rational builder by naive slicing: entry (y, x) is
    #{j < n : block_j(alpha) = x, block_j(m*alpha) = y} / #{j < n : block_j(alpha) = x},
    in the order the pairs first occur; identity columns are the source
    blocks that never occur; the declared bound is min(g*(s+1)*m, k^l) with
    s the base-k digit sum of m and g = gcd(m, k^l).
    """
    k = seq.alphabet.k
    src, dst = seq.prefix(n * l), product_digits.prefix(n * l)
    xs = [_numeral(src[j * l:(j + 1) * l], k) for j in range(n)]
    ys = [_numeral(dst[j * l:(j + 1) * l], k) for j in range(n)]
    x_count = Counter(xs)
    entries = {(y, x): Fraction(c, x_count[x]) for (x, y), c in Counter(zip(xs, ys)).items()}
    declared = min(math.gcd(m, k ** l) * (_digit_sum(m, k) + 1) * m, k ** l)
    return entries, frozenset(range(k ** l)) - set(xs), declared


def _digit_sum(m: int, k: int) -> int:
    s = 0
    while m:
        m, digit = divmod(m, k)
        s += digit
    return s


def _naive_code_counts(digits: bytes, k: int, l: int, n: int):
    return {_numeral(block, k): c for block, c in naive_block_counts(digits, l, n).items()}


def _naive_dim_estimates(entries, max_block_len: int, tail_fraction: float):
    lower = upper = math.inf
    for l in range(1, max_block_len + 1):
        row = [h for ll, _, h in entries if ll == l]  # ascending n
        if row:
            tail = row[-max(1, int(len(row) * tail_fraction)):]
            lower, upper = min(lower, min(tail)), min(upper, max(tail))
    return lower, upper


def rational_arithmetic_report(seq, q: Fraction, max_block_len: int, n_schedule,
                               tail_fraction: float = 0.5, lookahead: int = LOOKAHEAD_CAP,
                               normality_w_len: int = 3):
    """The report of verify_rational_arithmetic, built cell by cell.

    The certified streams come from the library's arithmetic, which
    tests/test_arith_properties.py checks against certified_affine above,
    each fed its input through lookahead_window.
    Everything counted from them is naive: each cell is the rational
    certificate of block_certificate, checked by validate_certificate_rational
    against block distributions from naive_block_counts, with entropies from
    entropy_from_counts; every grid entry recounts its blocks the same way.
    """
    k = seq.alphabet.k
    schedule = sorted(set(n_schedule))
    a, b = q.numerator, q.denominator
    target = min(max_block_len * schedule[-1] + 256, seq.length_available)
    sum_result = add_rational_mod1(lookahead_window(seq, target, lookahead), q, target)
    prod_result = mul_rational_mod1(lookahead_window(seq, target, lookahead), q, target)
    report = VerificationReport(
        scenario="rational-arithmetic-preservation",
        inputs={"k": k, "q": f"{a}/{b}", "max_block_len": max_block_len, "n_schedule": schedule,
                "tail_fraction": tail_fraction, "digits_used": target})
    if sum_result.unresolved:
        report.details["sum_certified"] = sum_result.certified_count
    if prod_result.unresolved:
        report.details["product_certified"] = prod_result.certified_count

    streams = {"alpha": seq, "q-alpha": prod_result.digits, "q-plus-alpha": sum_result.digits}
    legs = [("alpha-times-|a|", "alpha", abs(a)), ("q-alpha-times-b", "q-alpha", b),
            ("alpha-times-b", "alpha", b), ("q-plus-alpha-times-b", "q-plus-alpha", b)]
    products = {}
    skipped = []
    for leg, name, m in legs:
        stream = streams[name]
        count = min(max_block_len * schedule[-1], stream.length_available)
        product = mul_int_mod1(lookahead_window(stream, count, lookahead), m, count)
        products[leg] = product
        s = _digit_sum(m, k)
        for l in range(1, max_block_len + 1):
            g = math.gcd(m, k ** l)
            bound = math.log2(g * (s + 1) * m)
            for n in schedule:
                if n * l > product.certified_count:
                    skipped.append({"leg": leg, "l": l, "n": n,
                                    "reason": "insufficient certified digits"})
                    continue
                entries, identity, declared = block_certificate(stream, product.digits, m, l, n)
                cert = SparseStochasticCertificate(k ** l, entries, declared, identity)
                source = _naive_code_counts(stream.prefix(n * l), k, l, n)
                image = _naive_code_counts(product.digits.prefix(n * l), k, l, n)
                outcome = validate_certificate_rational(
                    cert, {x: Fraction(c, n) for x, c in source.items()},
                    {y: Fraction(c, n) for y, c in image.items()})
                rows, cols = rational_support_counts(cert)
                row_support, col_support = max(rows.values()), max(cols.values())
                h_a = entropy_from_counts(source.values(), n)
                h_b = entropy_from_counts(image.values(), n)
                delta_h = abs(h_a - h_b)
                ok = (outcome.ok and delta_h <= bound + ENTROPY_SLACK
                      and col_support <= (s + 1) * m and row_support <= g * (s + 1) * m)
                report.records.append({
                    "leg": leg, "m": m, "l": l, "n": n,
                    "h_source": h_a, "h_image": h_b, "delta_h": delta_h, "bound_bits": bound,
                    "col_support": col_support, "col_bound": (s + 1) * m,
                    "row_support": row_support, "row_bound": g * (s + 1) * m,
                    "valid": outcome.ok, "passed": ok})
                if not ok:
                    detail = outcome.detail if not outcome.ok else f"|dH|={delta_h} > {bound}"
                    report.violations.append(f"{leg} l={l} n={n}: {detail}")
    for leg_a, leg_b in (("alpha-times-|a|", "q-alpha-times-b"),
                         ("alpha-times-b", "q-plus-alpha-times-b")):
        common = min(products[leg_a].certified_count, products[leg_b].certified_count)
        da, db = products[leg_a].digits.prefix(common), products[leg_b].digits.prefix(common)
        first = next((i for i in range(common) if da[i] != db[i]), None)
        if first is not None:
            report.violations.append(f"{leg_a} and {leg_b} images differ at digit {first} "
                                     f"of {common}")
    if skipped:
        report.details["skipped_cells"] = skipped

    estimates = {}
    for name, stream in streams.items():
        avail = stream.length_available
        entries = [(l, n, min(entropy_from_counts(
                        _naive_code_counts(stream.prefix(n * l), k, l, n).values(), n)
                        / (l * math.log2(k)), 1.0))
                   for l in range(1, max_block_len + 1) for n in schedule if n * l <= avail]
        if not entries and name != "alpha":
            report.violations.append(f"{name}: {avail} certified digits fit no grid cell")
            continue
        if not entries:
            raise InsufficientDigitsError("sequence too short for any grid cell")
        lower, upper = _naive_dim_estimates(entries, max_block_len, tail_fraction)
        estimates[name] = {"lower": lower, "upper": upper,
                           "clipped": schedule[-1] * max_block_len > avail}
    report.details["estimates"] = estimates
    report.details["estimate_gaps"] = {
        name: {"lower": abs(estimates["alpha"]["lower"] - estimates[name]["lower"]),
               "upper": abs(estimates["alpha"]["upper"] - estimates[name]["upper"])}
        for name in ("q-alpha", "q-plus-alpha") if name in estimates}

    norm_n = min(10_000, target - normality_w_len)
    if norm_n >= 1:
        deviations = {}
        for name, stream in streams.items():
            if stream.length_available < normality_w_len:
                continue  # a derived stream with too few certified digits
            window = max(1, min(norm_n, stream.length_available - normality_w_len + 1))
            need = window + normality_w_len - 1
            if stream.length_available < need:
                raise InsufficientDigitsError(f"requested {need} digits but only "
                                              f"{stream.length_available} are available")
            deviations[name] = float(sliding_normality_deviation(
                stream.prefix(need), k, normality_w_len, window))
        report.details["normality_deviation"] = deviations

    if b == 1:
        n_cmp = sum_result.certified_count
        identical = sum_result.digits.prefix(n_cmp) == seq.prefix(n_cmp)
        report.details["sum_digits_identical"] = identical
        if not identical:
            report.violations.append("integer addition changed fractional digits")
    return report
