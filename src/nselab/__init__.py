"""Numerical laboratory for critical-space fluid analysis on periodic
spectral grids: Littlewood-Paley/Besov machinery, threshold splitting
of critical data, heat/Duhamel operators, Picard mild solvers, and
blow-up diagnostics."""

from .besov import (BesovIndex, DyadicPartition, NormReport, Trajectory,
                    besov_norm, build_partition, chi_profile,
                    critical_exponent, default_partition, energy_norm,
                    interpolation_check, kato_norm, lp_block, low_freq,
                    paraproduct, paraproduct_estimate_check, phi_profile,
                    timespace_besov_norm)
from .calderon import (SplitConfig, SplitResult, SweepReport, exponent_sweep,
                       find_lambda_for_small_part, split)
from .diagnostics import (DiagnosticsReport, ExperimentConfig, LedgerReport,
                          critical_norm_series, energy_ledger, leray_monitor,
                          rescale, rescale_trajectory, run_experiment,
                          vanishing_test)
from .errors import (ConfigError, ExponentError, GridError, NseLabError,
                     PartitionError, PicardDivergenceError, QuadratureError,
                     RankError, SymbolError)
from .families import (abc_flow, critical_random, critical_spike_field,
                       random_block_field, random_power_law, single_mode,
                       sparse_spike_block, taylor_green,
                       taylor_green_decay_rate)
from .heat import (duhamel_integral, duhamel_trajectory, heat_evolve,
                   heat_trajectory, oseen_apply, projected_divergence,
                   time_schedule, verify_kato_estimate,
                   verify_smoothing_derivatives)
from .picard import (FixedPointReport, PicardProblem, estimate_constants,
                     propagation_check, solve_picard)
from .solver import (ContinuationResult, MildSolution, SolverConfig,
                     mild_solve_nse, mild_solve_perturbed, mollified_solve,
                     solve_with_continuation)
from .spectral import (Grid, Mollifier, SpectralField, apply_multiplier, curl,
                       dealias_product, divergence, divergence_residual,
                       gradient, leray_project, make_grid, mollify,
                       pressure_from_velocity, read_clf1, write_clf1)

__version__ = "0.1.0"
