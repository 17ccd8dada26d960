"""Number-field invariants, Dedekind zeta zeros, and explicit-formula
height and discriminant bounds."""

__version__ = "0.1.0"

from .algebra import (HeightProfile, IntPolynomial, RootSet, complex_roots,
                      cyclotomic_polynomial, discriminant, height_profile,
                      is_root_of_unity, mahler_inequality_margin,
                      parse_polynomial)
from .config import RunConfig, default_config, load_config
from .explicit import (archimedean_integrals, aux_functions, gaussian,
                       hsw_window, identity_exponential, identity_gaussian,
                       prime_side, EXPONENTIAL)
from .fields import (DirichletCoefficients, NumberField, PrimeSplitting,
                     SplittingTable, build_number_field, bz_disc_lower_bound,
                     dirichlet_coefficients, irreducibility_certificate,
                     norm_counts, prime_splitting, splitting_table,
                     variance_profile)
from .bounds import (corollary_S_check, disc_bound2_report, lehmer_grh_report,
                     northcott_report, uncond_membership,
                     zeros_theorem_report)
from .reports import BoundReport, SMembership
from .towers import (FamilyConstants, PsiEstimates, Tower, build_tower,
                     bz_sum, family_constants, monotone_prime_sums,
                     psi_estimates, tower_corollary_report)
from .zeta import (GammaFactor, ZeroList, ZetaEvaluator, direct_series,
                   get_evaluator, locate_zeros, zero_statistics)

__all__ = [name for name in dir() if not name.startswith("_")]
