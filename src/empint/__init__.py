"""Tail bounds and experiments for multiple stochastic integrals of
empirical processes: Hoeffding decompositions, degenerate U-statistics,
Rademacher chaos enumeration, chaining schedules and Monte Carlo probes."""

__version__ = "0.1.0"

from .spaces import (InvalidArgument, ProbabilitySpace, finite_space,
                     uniform_space, draw_sample, signed_increment, stream_rng)
from .kernels import (KernelFunction, FunctionFamily, ExplicitFamily,
                      BoxRestrictionFamily, BudgetExceeded, epsilon_net,
                      interval_family, l2_norm, singleton_family, sup_norm)
from .decomposition import (canonicalize, hoeffding_decompose, is_canonical,
                            project_p, project_q)
from .statistics import (DegenerateSample, ResidualTooLarge, SampleDraw,
                         derive_expansion_coefficients, draw_bundle,
                         mirrored_contrast, multiple_integral_j, u_statistic,
                         validate_expansion)
from .chaos import (ChaosCoefficients, EnumerationRefused, chaos_moment_bound,
                    chaos_s, chaos_tail_bound, chaos_value,
                    chaos_values_all_signs, exact_chaos_moment,
                    exact_chaos_tail, optimal_q_tail,
                    symmetrized_s_bar_squared)
from .bounds import (BoundConstants, NotApplicable, chaining_schedule,
                     corollary2_bound, h_integral_level, induction_levels,
                     proposition_level, theorem_bound)
from .experiments import (TooFewQualifyingPoints, counterexample_experiment,
                          decoupling_experiment, exponent_fit, mc_sup_tail,
                          symmetrization_experiment, tail_curve,
                          wilson_interval)
