"""Mild Navier-Stokes solvers built on the abstract Picard engine:
the direct solver u = e^{tL}u0 - B(u,u), the perturbed solver around a
precomputed background, and the Leray-mollified energy solver.

Solver state is the stack of Fourier coefficients at every sample
time in the real-FFT half-spectrum layout, shape (M, dim, N, ...,
N//2+1) (see ``spectral``); the bilinear operator forms the dealiased
tensor product per sample and runs the exact-exponential Duhamel
recursion over the schedule.  Data and backgrounds enter through
``half_spectrum`` and solutions leave through ``stack_to_trajectory``,
so ``SpectralField`` and ``Trajectory`` stay full-spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .besov import (BesovIndex, DyadicPartition, Trajectory, besov_norm,
                    critical_exponent, weighted_sup)
from .errors import ConfigError, GridError, PicardDivergenceError, QuadratureError
from .families import random_power_law
from .heat import duhamel_stack, heat_stack, time_schedule
from .picard import (FixedPointReport, PicardProblem, estimate_constants,
                     solve_picard)
from .spectral import (Grid, Mollifier, SpectralField, dealiased_tensor,
                       divergence_residual, divergence_residuals,
                       full_spectrum, half_spectrum,
                       interpolate_stack, inverse_transform, map_samples,
                       projected_divergence_coeffs, symmetric_tensor)

DEFAULT_KAPPA = 0.17  # existence-time smallness constant, calibrated empirically
HORIZON_CAP = 10.0  # existence time returned for zero data


@dataclass
class SolverConfig:
    """Shared solver configuration.

    The contraction norm X is the Kato norm K_p (sup of
    t^{-s_p/2}||u(t)||_p); time samples are geometric near zero and
    uniform after T/8.
    """

    grid: Grid
    horizon: float
    n_geometric: int = 24
    n_uniform: int = 24
    first_exponent: int = 20
    times: np.ndarray | None = None
    kato_p: float = 4.0
    picard_tol: float = 1e-10
    max_iter: int = 60
    measure_probes: int = 20
    probe_seed: int = 0

    def schedule(self) -> np.ndarray:
        if self.times is not None:
            return np.asarray(self.times, dtype=float)
        return time_schedule(self.horizon, self.n_geometric, self.n_uniform,
                             self.first_exponent)


@dataclass
class MildSolution:
    """Trajectory plus the Picard iteration record and residual checks.

    ``report.solution`` is the solver's half-spectrum stack; the
    trajectory holds the same samples as full-spectrum fields.
    """

    trajectory: Trajectory
    report: FixedPointReport
    residual_doubled: float = float("nan")
    max_div_residual: float = 0.0
    config: SolverConfig | None = None


# ---------------------------------------------------------------------
# Stack helpers
# ---------------------------------------------------------------------

def _forcing_stack(grid: Grid, v_stack: np.ndarray, w_stack: np.ndarray,
                   w_multiplier: np.ndarray | None = None) -> np.ndarray:
    """G = P div dealias(v (x) w), per sample; w may be premultiplied
    (mollification).  Runs as ``map_samples`` jobs of 4 samples on
    ``FFT_WORKERS`` threads, each job's FFTs on one thread, so the tensor
    temporaries do not grow with the schedule and the result is
    bit-identical to a serial run."""
    out = np.empty_like(v_stack)

    def job(part):
        v = v_stack[part]
        w = v if w_stack is v_stack else w_stack[part]
        if w_multiplier is not None:
            w = w * w_multiplier
        out[part] = projected_divergence_coeffs(
            grid, dealiased_tensor(grid, v, w))

    map_samples(job, len(v_stack))
    return out


def _heat_stack(grid: Grid, u0: SpectralField, times: np.ndarray) -> np.ndarray:
    return heat_stack(grid, half_spectrum(grid, u0.coeffs), times)


def kato_stack_norm(grid: Grid, times: np.ndarray, stack: np.ndarray,
                    p: float) -> float:
    """Kato K_p norm of a coefficient stack (t = 0 sample skipped)."""
    return weighted_sup(grid, times, stack, -critical_exponent(p) / 2.0, p)


def stack_to_trajectory(grid: Grid, times: np.ndarray,
                        stack: np.ndarray) -> Trajectory:
    """Full-spectrum trajectory of a half-spectrum solver stack."""
    return Trajectory._from_stack(grid, times, "vector",
                                  full_spectrum(grid, stack))


def half_stack(traj: Trajectory) -> np.ndarray:
    """Half-spectrum view (M, ...) of a trajectory's stack."""
    return half_spectrum(traj.grid, traj.coeffs)


def _prepare_data(u0: SpectralField, grid: Grid) -> SpectralField:
    if u0.grid != grid:
        raise GridError("data grid does not match solver grid")
    if u0.rank != "vector":
        raise GridError("initial data must be a vector field")
    if divergence_residual(u0) > 1e-10:
        raise GridError("initial data is not divergence-free")
    # keep solver states in the dealias band so product identities are exact
    c = u0.coeffs * grid.dealias_mask
    f = SpectralField(grid, "vector", c, check_hermitian=False).zero_mean()
    return f


def _make_probe(grid: Grid, times: np.ndarray):
    """Heat flows of random divergence-free data as probe elements."""

    def probe(rng):
        seed = int(rng.integers(0, 2**31 - 1))
        w = random_power_law(grid, alpha=2.0, seed=seed, amplitude=1.0)
        return _heat_stack(grid, w, times)

    return probe


# ---------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------

def _picard_solution(u0: SpectralField, config: SolverConfig,
                     times: np.ndarray, linear, w_multiplier=None,
                     linear_refined=None,
                     doubled_residual: bool = True) -> MildSolution:
    """Solve x = e^{tL}u0 + L(x) - B(x, x) on the schedule, B with the
    advected factor premultiplied by ``w_multiplier``: measure the
    constants, iterate, and check the solution (the doubled-schedule
    residual adds ``linear_refined`` on the refined schedule)."""
    grid = config.grid
    u0 = _prepare_data(u0, grid)

    def norm(stack):
        return kato_stack_norm(grid, times, stack, config.kato_p)

    problem = PicardProblem(a=_heat_stack(grid, u0, times), linear=linear,
                            bilinear=_nse_bilinear(grid, times, w_multiplier),
                            norm=norm, probe=_make_probe(grid, times))
    if config.measure_probes > 0:
        estimate_constants(problem, n_probes=config.measure_probes,
                           seed=config.probe_seed)
    else:
        problem.gamma = 0.0
        problem.l_norm = 0.0
    report = solve_picard(problem, tol=config.picard_tol,
                          max_iter=config.max_iter)
    stack = report.solution
    rd = float("nan")
    if doubled_residual:
        rd = _doubled_residual(grid, times, stack, u0, linear_refined, config,
                               w_multiplier)
    divs = divergence_residuals(grid, stack, batch_axes=1)
    return MildSolution(trajectory=stack_to_trajectory(grid, times, stack),
                        report=report, residual_doubled=rd,
                        max_div_residual=float(np.max(divs)), config=config)


def _nse_bilinear(grid: Grid, times: np.ndarray,
                  w_multiplier: np.ndarray | None = None):
    xi_sq = grid.layout(grid.n_half).xi_sq

    def bilinear(x, y):
        out = duhamel_stack(times, _forcing_stack(grid, x, y, w_multiplier),
                            xi_sq)
        return np.negative(out, out=out)

    return bilinear


def cross_forcing_stack(grid: Grid, pv: np.ndarray,
                        w_stack: np.ndarray) -> np.ndarray:
    """P div dealias(w (x) v + v (x) w) per sample, one forcing of the
    symmetric tensor, for v given by its physical samples ``pv``."""
    out = np.empty_like(w_stack)

    def job(part):
        tensor = symmetric_tensor(grid, pv[part],
                                  inverse_transform(grid, w_stack[part]),
                                  w_stack.shape[-1])
        out[part] = projected_divergence_coeffs(grid, tensor)

    map_samples(job, len(w_stack))
    return out


def _cross_linear(grid: Grid, times: np.ndarray, v_stack: np.ndarray):
    """w -> B(w, v) + B(v, w) for a fixed v; v is transformed once."""
    xi_sq = grid.layout(grid.n_half).xi_sq
    pv = inverse_transform(grid, v_stack)

    def linear(w):
        out = duhamel_stack(times, cross_forcing_stack(grid, pv, w), xi_sq)
        return np.negative(out, out=out)

    return linear


def _doubled_residual(grid: Grid, times: np.ndarray, stack: np.ndarray,
                      u0: SpectralField, linear_refined, config: SolverConfig,
                      w_multiplier=None) -> float:
    """Integral-equation residual recomputed on a midpoint-refined
    schedule (independent doubled quadrature)."""
    fine_times = np.sort(np.concatenate(
        [times, 0.5 * (times[:-1] + times[1:])]))
    # linear interpolation of the solution onto the refined schedule
    fine = interpolate_stack(times, stack, fine_times)
    rhs = _nse_bilinear(grid, fine_times, w_multiplier)(fine, fine)
    rhs += _heat_stack(grid, u0, fine_times)
    if linear_refined is not None:
        rhs += linear_refined(fine_times, fine)
    resid = np.subtract(fine, rhs, out=rhs)
    # compare at the original samples only
    keep = np.isin(fine_times, times)
    return kato_stack_norm(grid, fine_times[keep], resid[keep], config.kato_p)


def mild_solve_nse(u0: SpectralField, config: SolverConfig) -> MildSolution:
    """Picard solution of u(t) = e^{tL}u0 - B(u, u)(t) on the schedule."""
    return _picard_solution(u0, config, config.schedule(), None)


def mild_solve_perturbed(u0_large: SpectralField, background: Trajectory,
                         config: SolverConfig) -> MildSolution:
    """Solve W = e^{tL}U0 - B(W,W) - B(W,V) - B(V,W) around background V.

    The background must be sampled on the solver schedule.
    """
    grid = config.grid
    times = config.schedule()
    v_stack = _background_stack(grid, times, background)

    def linear_refined(fine_times, fine):
        vf = interpolate_stack(times, v_stack, fine_times)
        return _cross_linear(grid, fine_times, vf)(fine)

    return _picard_solution(u0_large, config, times,
                            _cross_linear(grid, times, v_stack),
                            linear_refined=linear_refined)


def _background_stack(grid: Grid, times: np.ndarray, bg) -> np.ndarray | None:
    if bg is None:
        return None
    if isinstance(bg, Trajectory):
        if len(bg) != times.size or \
                not np.allclose(bg.times, times, rtol=1e-12, atol=0):
            raise QuadratureError("background trajectory must share the "
                                  "solver schedule")
        return half_stack(bg)
    if isinstance(bg, SpectralField):
        half = half_spectrum(grid, bg.coeffs)
        return np.broadcast_to(half[None], (times.size,) + half.shape).copy()
    raise ConfigError("background must be a Trajectory, SpectralField, or None")


def mollified_solve(u0: SpectralField, a_bg, b_bg, rho: float,
                    config: SolverConfig) -> MildSolution:
    """Leray-mollified perturbed solver:
    U = e^{tL}U0 - B_rho(U, U) - L(U), with the advected factor
    mollified, B_rho(v,w) = Duhamel(P div v (x) (w)_rho) and
    L(w) = Duhamel(P div (a (x) w + w (x) b)); requires div b = 0.
    """
    grid = config.grid
    times = config.schedule()
    m_rho = Mollifier(grid.dim, rho).symbol(grid, grid.n_half)

    a_stack_bg = _background_stack(grid, times, a_bg)
    b_stack_bg = _background_stack(grid, times, b_bg)
    if b_stack_bg is not None and \
            divergence_residuals(grid, b_stack_bg) > 1e-10:
        raise GridError("background b must be divergence-free")

    linear = None
    if a_stack_bg is not None or b_stack_bg is not None:
        plain = _nse_bilinear(grid, times)

        def linear(w):
            out = None
            if a_stack_bg is not None:
                out = plain(a_stack_bg, w)
            if b_stack_bg is not None:
                term = plain(w, b_stack_bg)
                out = term if out is None else out + term
            return out

    return _picard_solution(u0, config, times, linear, w_multiplier=m_rho,
                            doubled_residual=linear is None)


# ---------------------------------------------------------------------
# Subcritical existence time and continuation
# ---------------------------------------------------------------------

def subcritical_existence_time(v0: SpectralField, q: float, eps: float,
                               partition: DyadicPartition) -> float:
    """Existence-time rule T = (kappa/M)^{2/eps} with
    M = ||V0||_{B^{s_q+eps}_{q,q}}, capped at HORIZON_CAP (the value for
    M = 0).

    kappa = DEFAULT_KAPPA is calibrated against solver success, not a
    theoretical constant.
    """
    if not (eps > 0 and eps < -critical_exponent(q)):
        raise ConfigError(f"need 0 < eps < -s_q, got eps={eps}")
    s = critical_exponent(q) + eps
    m = besov_norm(v0, BesovIndex(s, q, q), partition).value
    if m == 0:
        return HORIZON_CAP
    return min(HORIZON_CAP, (DEFAULT_KAPPA / m) ** (2.0 / eps))


@dataclass
class ContinuationResult:
    trajectory: Trajectory
    status: str                       # 'completed' | 'blow-up suspected'
    segment_horizons: list = dc_field(default_factory=list)
    reports: list = dc_field(default_factory=list)


def solve_with_continuation(u0: SpectralField, config: SolverConfig,
                            step_floor: float = 1e-4) -> ContinuationResult:
    """Re-seeded continuation: solve on shrinking steps while Picard
    converges; a segment that diverges or stops at ``max_iter`` without
    converging halves the step.  Declares 'blow-up suspected' when the
    step falls below the floor (an explicitly heuristic surrogate for
    T*)."""
    grid = config.grid
    t0 = 0.0
    step = config.horizon
    current = u0
    all_times = [np.array([0.0])]
    stacks = [_prepare_data(u0, grid).coeffs[None]]
    segments = []
    reports = []

    def result(status):
        traj = Trajectory._from_stack(grid, np.concatenate(all_times),
                                      "vector", np.concatenate(stacks))
        return ContinuationResult(traj, status, segments, reports)

    while t0 < config.horizon - 1e-12:
        step = min(step, config.horizon - t0)
        sub = replace(config, horizon=step, times=None)
        try:
            sol = mild_solve_nse(current, sub)
            converged = sol.report.converged
        except PicardDivergenceError:
            converged = False
        if not converged:
            step *= 0.5
            if step < step_floor:
                return result("blow-up suspected")
            continue
        segments.append(step)
        reports.append(sol.report)
        all_times.append(sol.trajectory.times[1:] + t0)
        stacks.append(sol.trajectory.coeffs[1:])
        current = sol.trajectory.fields[-1]
        t0 += step
    return result("completed")
