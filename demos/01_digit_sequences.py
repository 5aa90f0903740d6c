"""Generating and storing base-k digit sequences.

Run:  python demos/01_digit_sequences.py
"""

import os
from fractions import Fraction
from tempfile import TemporaryDirectory

from fsdim import (Alphabet, gen_champernowne, gen_dilution, gen_rational_expansion,
                   read_digit_file, write_digit_file)

# The binary Champernowne sequence: every string over {0,1} concatenated in
# shortlex order. It is Borel normal, so its finite-state dimension is 1.
champ2 = gen_champernowne(Alphabet(2), 40)
print("Champernowne base 2 :", champ2.prefix_str(40))

# The classical decimal variant concatenates the numerals of 1, 2, 3, ...
champ10 = gen_champernowne(Alphabet(10), 40, order="integers")
print("Champernowne base 10:", champ10.prefix_str(40))

# Rational expansions are computed by exact long division and remember
# their value, which arithmetic later uses as an exact fast path.
third = gen_rational_expansion(Fraction(22, 101), Alphabet(10), 24)
print("22/101 in base 10   :", third.prefix_str(24), "... exact:", third.exact_value)

# Interleaving a sequence with zeros halves its information density:
# position 2i carries the source digit i, odd positions are 0.
diluted = gen_dilution(champ2, 40)
print("diluted Champernowne:", diluted.prefix_str(40))

# Digit files are ASCII: a one-line header k=<base>, then the digit
# characters 0-9A-Z wrapped at 80 columns. Round trips are exact.
with TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "champ2.txt")
    write_digit_file(champ2, 40, path)
    back = read_digit_file(path)
    print("file round trip ok  :", back.prefix(40) == champ2.prefix(40))
    with open(path) as handle:
        print(handle.read().splitlines()[0], "<- file header")
