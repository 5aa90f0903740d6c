"""Certified arithmetic on digit streams: q + alpha, q * alpha, alpha / b.

An N-digit prefix encloses the unknown real in [P/k^N, (P+1)/k^N]; mapping
that interval exactly through the affine operation and emitting only digits
both endpoints agree on makes every emitted digit provably correct.  When
the result sits exactly on a k-adic point that no finite prefix can decide,
the result is flagged unresolved instead of guessed.

Run:  python demos/03_certified_arithmetic.py
"""

from fractions import Fraction

from fsdim import (Alphabet, DigitSequence, add_rational_mod1, div_int, gen_champernowne,
                   gen_rational_expansion, integer_multiple_certificate, mul_int_mod1,
                   mul_rational_mod1)

alphabet = Alphabet(10)
champ = gen_champernowne(alphabet, 400)

res = mul_int_mod1(champ, 7, 60)
print("7 * champernowne  :", res.digits.prefix_str(60))
print("  certified", res.certified_count, "digits using", res.lookahead_used, "lookahead")

res = add_rational_mod1(champ, Fraction(1, 7), 60)
print("1/7 + champernowne:", res.digits.prefix_str(60))

res = mul_rational_mod1(champ, Fraction(3, 2), 60)
print("3/2 * champernowne:", res.digits.prefix_str(60))

res = div_int(champ, 7, 60)
print("champernowne / 7  :", res.digits.prefix_str(60))

# A stream of 3s could be 1/3 exactly, or could deviate later; 3 * it
# straddles 1.0 forever, so nothing can be certified from digits alone.
threes = DigitSequence(alphabet, bytes([3] * 3000))
res = mul_int_mod1(threes, 3, 10)
print("3 * (3333...)     : certified", res.certified_count, "digits; unresolved:", res.unresolved)

# The same computation with the exact value attached resolves instantly.
third = gen_rational_expansion(Fraction(1, 3), alphabet, 50)
res = mul_int_mod1(third, 3, 10)
print("3 * (1/3 exact)   :", res.digits.prefix_str(10), "(frac(1) = 0, terminating form)")

# Multiplication by m is finite-state friendly: block j of m*alpha is
# (m*x + floor(m*tau_j)) mod k^l for the input block x and the tail tau_j
# after it, so every aligned pair of a block table has (y - m*x) mod k^l at
# most m - 1: a carry bounded by the digit sum of m plus what the next
# floor(log_k m) digits shift in. With m = 123 two digits shift in per block.
m, l = 123, 3
table, _, _ = integer_multiple_certificate(champ, m, l, 100)
residues = (table.rows - m * table.cols) % alphabet.k ** l
print(f"x{m} table over 100 blocks of {l}: largest (y - m*x) mod k^l = {residues.max()}"
      f" <= m - 1 = {m - 1}; validates: {table.validate().ok}")
rows, cols = table.max_degrees()
print(f"  largest column support {cols} <= {table.col_bound},"
      f" largest row support {rows} <= {table.row_bound}")
