"""Certified arithmetic on digit streams: q + alpha, q * alpha, alpha / b.

An N-digit prefix encloses the unknown real in [P/k^N, (P+1)/k^N]; mapping
that interval exactly through the affine operation and emitting only digits
both endpoints agree on makes every emitted digit provably correct.  When
the result sits exactly on a k-adic point that no finite prefix can decide,
the result is flagged unresolved instead of guessed.

Run:  python demos/03_certified_arithmetic.py
"""

from fractions import Fraction

from fsdim import (Alphabet, DigitSequence, add_rational_mod1, carry_advice_trace,
                   div_int, gen_champernowne, gen_rational_expansion, mul_int_mod1,
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
res = mul_int_mod1(threes, 3, 10, lookahead_cap=1024)
print("3 * (3333...)     : certified", res.certified_count, "digits; unresolved:", res.unresolved)

# The same computation with the exact value attached resolves instantly.
third = gen_rational_expansion(Fraction(1, 3), alphabet, 50)
res = mul_int_mod1(third, 3, 10)
print("3 * (1/3 exact)   :", res.digits.prefix_str(10), "(frac(1) = 0, terminating form)")

# Multiplication by m is finite-state friendly: each output block depends
# only on the matching input block, a carry bounded by the digit sum of m,
# and the next floor(log_k m) digits. The trace makes that visible.
trace = carry_advice_trace(gen_rational_expansion(Fraction(345, 1000), alphabet, 60), 12, 2, 4)
print(f"x12 trace (r={trace.r}, carry bound s={trace.s}):")
for entry in trace.entries:
    print(f"  block {entry.j}: in={entry.block.hex()} carry={entry.carry}"
          f" shift_in={entry.shift_in.hex()} out={entry.out_block.hex()}")

# With m = 123 two digits shift in per block. The trace's output blocks
# joined together are the certified product's digits.
trace = carry_advice_trace(champ, 123, 3, 100)
product = mul_int_mod1(champ, 123, 300)
assert b"".join(entry.out_block for entry in trace.entries) == product.digits.prefix(300)
print(f"x123 trace (r={trace.r}, s={trace.s}): 100 blocks of 3 match the product;"
      f" carries used {sorted({entry.carry for entry in trace.entries})}")
