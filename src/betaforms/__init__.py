"""Exact rational linear forms in even values of the alternating
odd-power zeta series (Dirichlet beta), with certified arithmetic
verification and rigorous asymptotics.

The pipeline: build a rational function as a product of linear factors
(``rationalfn``), expand it into an exact partial-fraction table, resum
the alternating series into a linear form a_0 + sum a_i beta(i)
(``decomposition``), verify every divisibility claim after normalizing
by the prime-power factor (``numtheory``), cross-check the form's value
against independent series evaluation (``numerics``), and certify the
exponential rates that make the scaled integer forms tend to zero
(``asymptotics``).
"""

__version__ = "0.1.0"

from .balls import BallReal, working_precision
from .decomposition import (ArithmeticFactors, DecompositionResult,
                            InclusionReport, beta_coefficients,
                            integer_linear_form,
                            verify_coefficient_inclusions,
                            verify_form_inclusions)
from .asymptotics import (ExponentLedger, Lemma3Data, exponent_ledger,
                          lemma3_solve, phi_exponent, r_exponent)
from .numerics import beta_value, consistency_check, r_n_series
from .numtheory import (FactoredInteger, StepFunction, capital_phi,
                        carry_min_table, lcm_up_to, phi_exponent_sieved,
                        sieve_primes)
from .profiles import (Profile, ProfileError, THEOREM1_ETA, general,
                       preset, profile_violations, section2)
from .rationalfn import (LinearProductRep, PartialFractionTable,
                         build_general, build_section2, partial_fractions)

__all__ = [
    "ArithmeticFactors", "BallReal", "DecompositionResult",
    "ExponentLedger", "FactoredInteger", "InclusionReport", "Lemma3Data",
    "LinearProductRep", "PartialFractionTable", "Profile", "ProfileError",
    "StepFunction", "THEOREM1_ETA", "beta_coefficients", "beta_value",
    "build_general", "build_section2", "capital_phi", "carry_min_table",
    "consistency_check", "exponent_ledger", "general",
    "integer_linear_form", "lcm_up_to", "lemma3_solve",
    "partial_fractions", "preset", "phi_exponent", "phi_exponent_sieved",
    "profile_violations", "r_exponent", "r_n_series", "section2",
    "sieve_primes", "verify_coefficient_inclusions", "verify_form_inclusions",
    "working_precision",
]
