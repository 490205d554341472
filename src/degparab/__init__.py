"""Degenerate-in-time parabolic solves and the norm estimates they satisfy.

The equation is u_t = a^ij(t) u_{x^i x^j} + f on [0, T] x R^d (realized on
a large torus), where the coefficient matrix a(t) may touch zero: it is
only required to dominate delta(t) I for a nonnegative floor delta.  The
package provides the degeneracy bookkeeping (cumulative floor, its
generalized inverse, level-set fits), an exact Fourier propagator with
Duhamel forcing, Littlewood-Paley / Besov norms, weighted-norm estimate
checkers, and independent finite-difference / Monte Carlo oracles.
"""

from .degeneracy import (CoefficientPath, DegeneracyProfile, LevelsetFit,
                         accumulate_on, check_domination, compile_expr,
                         constant_matrix_path, constant_profile,
                         cumulative_delta, cumulative_delta_grid,
                         empirical_bound, expr_matrix_path, expr_profile,
                         fit_beta_exponent, inverse_cumulative,
                         levelset_measure, levelset_measure_scan,
                         oscillatory_profile, parse_coefficients,
                         parse_profile, piecewise_profile, power_profile,
                         scalar_path)
from .estimates import (CSV_HEADER, EstimateReport, KernelDecayFit,
                        check_classic, check_kernel_decay, check_thm1,
                        check_thm2, epsilon_sweep, reports_to_csv,
                        weighted_norm)
from .oracle import (MCEstimate, char_function_check, compare_fields,
                     convergence_orders, mc_solve, sample_increments)
from .quadrature import QuadratureError, integrate_to, integrate_windows
from .solver import (DegenerateKernelError, TimePartition, epsilon_regularize,
                     kernel, load_report, quadratic_form, save_report,
                     solve_duhamel, solve_final, weak_residual_profile)
from .spectral import (GridSpec, LPFamily, SpectralField, besov_norm,
                       bessel_norm, gaussian_bump, hessian_lp_norm,
                       inner_product, lowpass, lp_block, lp_norm, mode_field,
                       s0_block, second_derivatives, x_grids)
from .cli import (ConfigError, ExperimentConfig, build_forcing, build_initial,
                  parse_config, rough_field, run, validate_config)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
