"""The logarithmic dispersion pseudometric and its certificates.

dispersion(pi, mu) = log2 of the least m admitting a column-stochastic
matrix A with A pi = mu and at most m nonzero entries per row and column.
It is a pseudometric, and Shannon entropy is contractive with respect to
it: |H(pi) - H(mu)| <= dispersion(pi, mu).

Run:  python demos/04_log_dispersion.py
"""

from fractions import Fraction as F

from fsdim import (ProbabilityVector, build_banded_worst_case, compose_certificates,
                   delta_exact, majorizes, reverse_certificate, shannon_entropy,
                   validate_certificate)

point = ProbabilityVector((F(1), F(0)))
uniform = ProbabilityVector((F(1, 2), F(1, 2)))

res = delta_exact(point, uniform)
print("delta(point mass, uniform) = log2", res.m_star, "=", res.delta_bits, "bits")
print("entropy gap |0 - 1| = 1.0 <= delta: contractivity is tight here")

# A permutation of values has dispersion 0 although the vectors differ:
# only a pseudometric, not a metric.
pi = ProbabilityVector((F(2, 3), F(1, 6), F(1, 6)))
mu = ProbabilityVector((F(1, 6), F(2, 3), F(1, 6)))
print("delta(pi, permuted pi)     =", delta_exact(pi, mu).delta_bits)

# Every solve returns a validating witness; reversal and composition give
# certificates for the symmetric and triangle directions.
nu = ProbabilityVector((F(1, 2), F(1, 4), F(1, 4)))
res_pm = delta_exact(pi, mu)
res_mn = delta_exact(mu, nu)
rev = reverse_certificate(res_pm.witness, pi, mu)      # witness maps pi->mu; reversed maps mu->pi
print("reversed witness validates :", validate_certificate(rev, mu, pi).ok)
comp = compose_certificates(res_mn.witness, res_pm.witness, pi, mu, nu)
print("composed witness validates :", validate_certificate(comp, pi, nu).ok,
      "with bound", comp.declared_m)

# The banded matrix is the extremal m-sparse spreader: applied to the
# sorted source it majorizes any m-sparse image, forcing the entropy chain.
p4 = ProbabilityVector((F(2, 5), F(3, 10), F(1, 5), F(1, 10)))  # sorted descending
spread = build_banded_worst_case(4, 2).apply(p4)
print("banded spread of p         :", [str(x) for x in spread])
print("spread majorizes uniform-ish images:",
      majorizes(spread, (F(3, 10), F(3, 10), F(1, 5), F(1, 5))))
print("H(p) =", round(shannon_entropy(p4), 4),
      "<= H(spread) + log2(2) =", round(shannon_entropy(spread) + 1, 4),
      "(the sparse spreader can lower entropy by at most 1 bit)")
