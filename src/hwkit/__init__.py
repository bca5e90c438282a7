"""Numerics for the small-time distribution of the gBM time average.

Layered as: exact rational series algebra (series, tables) -> closed-form
root-finding oracles (roots, exact) -> coefficient asymptotics (asympt)
-> fast piecewise evaluators (evaluate) -> quadrature, Bessel and
Hartman-Watson building blocks -> Asian option benchmark pricing
(pricing) -> CLI (cli).
"""

from .series import (RationalSeries, SeriesError, revert_series, series_add,
                     series_compose, series_div, series_from_text, series_mul,
                     series_sqrt, series_to_text)
from .tables import (coeffs_F, coeffs_G, coeffs_h, coeffs_h_log, coeffs_jbs,
                     natural_table, table)
from .roots import (RootSolveError, solve_kappa, solve_lambda, solve_tan_eta,
                    solve_xi, solve_zeta)
from .exact import (CriticalPointTable, F_exact, G_exact, JBS_exact,
                    critical_points)
from .asympt import (AsymptoticConstants, PuiseuxData, asymptotic_constants,
                     diagnostic_epsilon, leading_term, puiseux_data)
from .evaluate import (PiecewiseEvaluator, make_evaluator,
                       truncation_error_profile)
from .quadrature import QuadratureError
from .bessel import bessel_k_scaled
from .hartman import (ThetaSmallTimeError, theta_asympt, theta_hw,
                      theta_hw_stability)
from .pricing import (PriceResult, ReducedParams, Scenario, SPECTRAL_BENCHMARKS,
                      TABLE3_SCENARIOS, exact_mean, f0_density,
                      joint_density_leading, norm_direct, norm_factor,
                      price_call_reduced, price_put_reduced, price_scenario,
                      price_scenarios, rate_I, rate_J, reduced_mean)

__version__ = "0.1.0"
