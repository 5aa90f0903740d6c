"""Independent reference computations and the output checks built on them.

Nothing here reuses the fsdim algorithm it checks.  Digits of arithmetic
results come from digit-serial schoolbook arithmetic (right-to-left carries
for a product, left-to-right long division with the remainder kept below the
divisor), block statistics from naive slicing, entropies from a plain sum
over exact counts, and certificates are validated by an exact checker
written here.  Every check returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

ENTROPY_TOL = 2.0 ** -40   # the grid's stated error budget per entry
ENTROPY_SLACK = 2.0 ** -30  # slack the verification layer allows on entropy comparisons
GAP_LIMIT = 0.1
DENSE_FLOOR = 0.80
DILUTED_BAND = (0.40, 0.65)


# ---------------------------------------------------------------- digit-serial arithmetic
#
# A reference result is a pair (digits, slack): the true value T of the
# result and the value V of the N-digit numeral satisfy V <= T < V + slack
# units in the last place.  The first c digits of T are then known exactly
# when adding `slack` units to V cannot carry into position c.

def mul_digits(digits, k: int, m: int):
    """(integer part, fractional digits) of m * 0.d1...dN by schoolbook carries."""
    out = bytearray(len(digits))
    carry = 0
    for i in range(len(digits) - 1, -1, -1):
        carry, out[i] = divmod(digits[i] * m + carry, k)
    return carry, bytes(out)


def div_digits(digits, k: int, b: int, rem: int = 0) -> bytes:
    """Digits of (rem + 0.d1...dN) / b, truncated, by long division (rem < b)."""
    out = bytearray(len(digits))
    for i, d in enumerate(digits):
        out[i], rem = divmod(rem * k + d, b)
    return bytes(out)


def add_digits(x, y, k: int) -> bytes:
    """Fractional digits of 0.x + 0.y, carry into the integer part dropped."""
    out = bytearray(len(x))
    carry = 0
    for i in range(len(x) - 1, -1, -1):
        carry, out[i] = divmod(x[i] + y[i] + carry, k)
    return bytes(out)


def fraction_digits(q: Fraction, k: int, count: int) -> bytes:
    """Truncated digits of frac(q) by long division."""
    num, den = q.numerator % q.denominator, q.denominator
    out = bytearray(count)
    for i in range(count):
        out[i], num = divmod(num * k, den)
    return bytes(out)


def ref_mul_int(x, m: int, k: int):
    digits, slack = x
    return mul_digits(digits, k, m)[1], m * slack


def ref_div_int(x, b: int, k: int):
    digits, slack = x
    return div_digits(digits, k, b), slack // b + 2


def ref_add_q(x, q: Fraction, k: int):
    digits, slack = x
    return add_digits(digits, fraction_digits(q, k, len(digits)), k), slack + 1


def ref_mul_q(x, q: Fraction, k: int):
    # frac(a*x/b) = ((a*x mod b) + frac(a*x)) / b: the integer part of a*x
    # enters the division as its starting remainder
    digits, slack = x
    a, b = abs(q.numerator), q.denominator
    carry, prod = mul_digits(digits, k, a)
    return div_digits(prod, k, b, carry % b), (a * slack) // b + 2


REF_OPS = {"mul_int_mod1": ref_mul_int, "div_int": ref_div_int,
           "add_rational_mod1": ref_add_q, "mul_rational_mod1": ref_mul_q}


def settled_prefix(ref, k: int, count: int) -> bytes | None:
    """The first `count` digits of the true value, or None if the slack could carry."""
    digits, slack = ref
    tail = digits[count:]
    value = 0
    for d in tail:
        value = value * k + d
    if len(tail) < 1 or value + slack > k ** len(tail):
        return None
    return digits[:count]


def exact_affine(op: str, x: Fraction, param) -> Fraction:
    """The exact rational result of an arithmetic operation on an exact stream value."""
    if op == "mul_int_mod1":
        return param * x
    if op == "div_int":
        return x / param
    if op == "add_rational_mod1":
        return x + param
    return abs(param) * x


# ---------------------------------------------------------------- block statistics

def champernowne_digits(k: int, count: int) -> bytes:
    """Every string over {0, ..., k-1} in shortlex order, concatenated."""
    out = bytearray()
    length = 1
    while len(out) < count:
        for word in itertools.product(range(k), repeat=length):
            out.extend(word)
            if len(out) >= count:
                break
        length += 1
    return bytes(out[:count])


def naive_blocks(digits, l: int, n: int):
    return [bytes(digits[j * l:(j + 1) * l]) for j in range(n)]


def entropy_of_counts(counts, n: int) -> float:
    return max(math.fsum(c / n * math.log2(n / c) for c in counts if c), 0.0)


def block_code(block, k: int) -> int:
    v = 0
    for d in block:
        v = v * k + d
    return v


def normalized_entropy(digits, k: int, l: int, n: int) -> float:
    counts = Counter(naive_blocks(digits, l, n)).values()
    return min(entropy_of_counts(counts, n) / (l * math.log2(k)), 1.0)


def estimates_from_entries(entries, tail_fraction: float = 0.5):
    """(lower, upper) estimates recomputed from (l, n, h) cells."""
    rows = defaultdict(list)
    for l, n, h in entries:
        rows[l].append((n, h))
    lower = upper = math.inf
    for l in sorted(rows):
        row = [h for _, h in sorted(rows[l])]
        tail = row[-max(1, int(len(row) * tail_fraction)):]
        lower = min(lower, min(tail))
        upper = min(upper, max(tail))
    return lower, upper


def sliding_deviation(digits, k: int, w_max: int, n: int) -> Fraction:
    """max over blocks w, |w| <= w_max, of |freq(w) - k^-|w||, counted with numpy."""
    arr = np.frombuffer(bytes(digits[:n + w_max]), dtype=np.uint8).astype(np.int64)
    worst = Fraction(0)
    for l in range(1, w_max + 1):
        codes = np.zeros(n, dtype=np.int64)
        for j in range(l):
            codes = codes * k + arr[j:j + n]
        counts = np.bincount(codes, minlength=k ** l)
        space = k ** l
        dev = int(np.max(np.abs(counts * space - n)))
        worst = max(worst, Fraction(dev, n * space))
    return worst


def digit_sum(m: int, k: int) -> int:
    s = 0
    while m:
        m, d = divmod(m, k)
        s += d
    return s


# ---------------------------------------------------------------- certificates

def certificate_failures(cert, pi, mu, bound: int) -> list:
    """Exact check of a SparseStochasticCertificate for pi -> mu with sparsity `bound`.

    Columns must sum to exactly 1 with positive entries, A*pi must equal mu
    entry by entry, and no row or column may hold more than `bound` entries.
    `pi` and `mu` are sequences of Fractions indexed like the certificate.
    """
    n = cert.n
    entries = dict(cert.entries)
    if {j for (_, j) in entries} & set(cert.identity_columns):
        return ["identity columns collide with explicit entries"]
    entries.update(((j, j), Fraction(1)) for j in cert.identity_columns)
    col_sum = defaultdict(Fraction)
    image = defaultdict(Fraction)
    rows, cols = Counter(), Counter()
    for (i, j), v in entries.items():
        if not (0 <= i < n and 0 <= j < n) or v <= 0:
            return [f"entry ({i}, {j}) = {v} is out of range or not positive"]
        col_sum[j] += v
        image[i] += v * pi[j]
        rows[i] += 1
        cols[j] += 1
    failures = []
    bad_cols = [j for j in range(n) if col_sum.get(j, 0) != 1]
    if bad_cols:
        failures.append(f"column {bad_cols[0]} sums to {col_sum.get(bad_cols[0], 0)}")
    bad_rows = [i for i in range(n) if image.get(i, 0) != mu[i]]
    if bad_rows:
        i = bad_rows[0]
        failures.append(f"(A*pi)[{i}] = {image.get(i, 0)} != {mu[i]}")
    degree = max(max(rows.values(), default=0), max(cols.values(), default=0))
    if degree > bound:
        failures.append(f"support degree {degree} exceeds {bound}")
    return failures


def block_certificate_failures(cert, src: bytes, dst: bytes, k: int, l: int, n: int) -> list:
    """Compare a block coupling certificate with pair counts taken by naive slicing."""
    xs, ys = naive_blocks(src, l, n), naive_blocks(dst, l, n)
    x_count = Counter(xs)
    expected = {(block_code(y, k), block_code(x, k)): Fraction(c, x_count[x])
                for (x, y), c in Counter(zip(xs, ys)).items()}
    observed = {block_code(x, k) for x in x_count}
    failures = []
    if cert.n != k ** l:
        failures.append(f"certificate dimension {cert.n} != {k ** l}")
    if dict(cert.entries) != expected:
        diff = set(cert.entries.items()) ^ set(expected.items())
        failures.append(f"{len(diff)} certificate entries differ from naive pair counts")
    if set(cert.identity_columns) != set(range(k ** l)) - observed:
        failures.append("identity columns are not exactly the unobserved source blocks")
    return failures


def cell_support(src: bytes, dst: bytes, l: int, n: int):
    """(column support, row support) of the block coupling, identity columns included.

    An identity column puts a single 1 in the row of its own (unobserved)
    block, so such a row holds one entry more than its observed pairs.
    """
    pairs = set(zip(naive_blocks(src, l, n), naive_blocks(dst, l, n)))
    col_deg = Counter(x for x, _ in pairs)
    row_deg = Counter(y for _, y in pairs)
    return (max(col_deg.values()),
            max(d + (y not in col_deg) for y, d in row_deg.items()))
