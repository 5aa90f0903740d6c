"""fsdim: finite-state dimension estimation and exact digit-stream arithmetic.

The package estimates the finite-state dimension and strong dimension of
base-k digit sequences through normalized block-entropy grids, performs
certified exact arithmetic on digit streams (q + alpha and q * alpha for
rational q), and computes the logarithmic-dispersion pseudometric between
probability vectors together with the sparse stochastic certificates that
make dimension preservation under rational arithmetic checkable at finite
scale.
"""

from .blockstats import (BlockDistribution, DimensionEstimateGrid, GridEntry,
                         block_frequencies, dim_estimates, entropy_rate_grid,
                         normality_deviation, shannon_entropy)
from .digitseq import (Alphabet, DigitFileError, DigitSequence, InsufficientDigitsError,
                       gen_champernowne, gen_dilution, gen_rational_expansion,
                       read_digit_file, select_progression, write_digit_file)
from .dispersion import (BlockCoupling, DispersionResult, ProbabilityVector,
                         SparseStochasticCertificate, UnobservedColumns, ValidationOutcome,
                         block_distribution_as_code_vector,
                         build_banded_worst_case, certificate_bound_bits,
                         certificate_to_json_dict,
                         compose_certificates, delta_exact, integer_multiple_certificate,
                         majorizes, reverse_certificate, validate_certificate)
from .realarith import (CertifiedDigitResult, UnresolvedCarryError, add_rational_mod1, div_int,
                        mul_int_mod1, mul_rational_mod1)
from .verify import (VerificationReport, verify_contractivity_suite,
                     verify_dilution_counterexample, verify_pseudometric_suite,
                     verify_rational_arithmetic)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BlockCoupling", "BlockDistribution", "CertifiedDigitResult",
    "DigitFileError", "DigitSequence", "DimensionEstimateGrid", "DispersionResult",
    "GridEntry", "InsufficientDigitsError", "ProbabilityVector",
    "SparseStochasticCertificate", "UnobservedColumns",
    "UnresolvedCarryError", "ValidationOutcome", "VerificationReport", "add_rational_mod1",
    "block_distribution_as_code_vector", "block_frequencies", "build_banded_worst_case",
    "certificate_bound_bits", "certificate_to_json_dict", "compose_certificates",
    "delta_exact", "dim_estimates", "div_int", "entropy_rate_grid", "gen_champernowne",
    "gen_dilution", "gen_rational_expansion", "integer_multiple_certificate",
    "majorizes", "mul_int_mod1", "mul_rational_mod1",
    "normality_deviation", "read_digit_file", "reverse_certificate",
    "select_progression", "shannon_entropy",
    "validate_certificate", "verify_contractivity_suite",
    "verify_dilution_counterexample", "verify_pseudometric_suite",
    "verify_rational_arithmetic", "write_digit_file",
]
