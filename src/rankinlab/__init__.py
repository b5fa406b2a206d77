"""rankin-local-lab: exact non-archimedean local computations for second-moment
analysis of Rankin-Selberg L-functions.

The package pairs every closed form with an independent oracle: local zeta
integrals against Bruhat-stratum sums, Whittaker integrals against truncated
series, the bivariate residue-cancellation mechanism against fuzzed
counterexample controls, and the degenerate-term cubic against its coefficient
formula.
"""

from .degenerate import (CorrectionReport, DegenerateReport, GlobalZetaData, build_G, build_h,
                         correction_sum_factor, degenerate_limit, symmetry_residuals,
                         taylor_bound_report)
from .exactalg import (PoleError, Poly2, RationalFunction2, poly_div_exact, power_of_p,
                       rf_equal)
from .laurent import (CubicPolynomial, LambdaPoly, LaurentSeries2, ls_from_rational,
                      ls_inverse_regular)
from .localdata import (IdealFactorization, PlaceData, Shift, inv_volume_Kq, is_prime_power,
                        norm, omega, volume_K, zeta_local, zeta_value)
from .scalars import Scalar, format_scalar, parse_exact
from .specweight import JqLowerReport, WeightReport, jq_lower, local_weight_lower, plancherel_mass
from .whittaker import (SatakeParams, satake_sum, weighted_integral_closed,
                        weighted_integral_oracle, whittaker_norm_sq,
                        whittaker_norm_sq_oracle, whittaker_value)
from .zetaint import (BruhatPoint, LocalZetaResult, correction_factor_rf, f_eval, ftilde_eval,
                      psi_closed, psi_oracle, reg_local_bound, reg_local_closed,
                      reg_local_closed_s_form, reg_local_oracle, rs_local_oracle,
                      rs_local_value)

__version__ = "0.1.0"
