"""Independent reference implementations the tests check the library against.

Everything here deliberately avoids the library's own algorithms: digit
expansion by per-digit long division, block counting by naive slicing,
dispersion by support-pattern enumeration plus exact-rational max-flow.
Slow is fine; these only run at small sizes.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations


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


def frac_digits(value: Fraction, k: int, count: int):
    """Digits of value mod 1, terminating expansion."""
    frac_part = value - (value.numerator // value.denominator)
    return long_division_digits(frac_part, k, count)


DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def parse_digit_file(path):
    """(k, digits) of a digit file, parsed one character or byte at a time.

    A malformed file raises ValueError with the message the library's
    reader gives for it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == b"FSD1":
        if len(raw) < 5:
            raise ValueError("truncated binary digit file: missing base byte")
        k = raw[4]
        if not 2 <= k <= 36:
            raise ValueError(f"binary digit file declares unsupported base {k}")
        for d in raw[5:]:
            if d >= k:
                raise ValueError(f"binary digit file contains digit {d} >= base {k}")
        return k, raw[5:]
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError("digit file is neither FSD1 binary nor ASCII") from None
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
            for pattern in combinations(edges, size):
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
