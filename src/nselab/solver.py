"""Mild Navier-Stokes solvers built on the abstract Picard engine:
the direct solver u = e^{tL}u0 - B(u,u), the perturbed solver around a
precomputed background, and the Leray-mollified energy solver.

Solver state is the stack of Fourier coefficients at every sample
time, shape (M, dim, N, ..., N//2+1); the bilinear operator forms the
dealiased tensor product per sample and runs the exact-exponential
Duhamel recursion over the schedule.  A solution's trajectory is that
stack itself.

The bilinear constant gamma depends only on the grid, the schedule,
the Kato p, the mollifier and the probe count and seed, never on the
data.  It is measured once per key (grid, schedule bytes, ``KATO_P``,
mollifier symbol bytes or None, ``measure_probes``, ``probe_seed``)
and the last (key, gamma) pair is kept in process, so a perturbed solve
after a direct solve on the same configuration runs no B(x, y) probe;
||L|| depends on the background and is always measured.  One pair is
enough: every caller meets its keys in order and never returns to an
older one (continuation only shrinks its step).

Every solve is one call of ``_picard_checked`` with an optional
divergence-free background v and mollifier symbol.  One forcing,
``_step_forcing``, defines its nonlinearity, P div dealias(w (x) (w)_rho
+ w (x) v + v (x) w): the Picard step, the doubled-schedule residual
and the energy ledger all take it from there.  It, the probe B(x, y)
and the resolvent's L(w) are each one ``_forcing_stack`` job: x is
transformed once per sample and the caller builds the tensor from it.

The doubled-schedule residual streams over its refined schedule in
chunks of whole ``map_samples`` jobs, so its memory does not grow with
the schedule, and continuation writes its segments into one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .besov import (BesovIndex, DyadicPartition, Trajectory, besov_norm,
                    critical_exponent, weighted_sup)
from .errors import ConfigError, GridError, PicardDivergenceError, QuadratureError
from .families import random_power_law
from .heat import check_schedule, duhamel_stack, heat_stack, time_schedule
from .picard import (FixedPointReport, PicardProblem, estimate_constants,
                     solve_picard)
from . import spectral
from .spectral import (Grid, Mollifier, SpectralField, dealiased_tensor,
                       divergence_residual, divergence_residuals,
                       interpolate_stack, inverse_transform, map_samples,
                       projected_divergence_coeffs, symmetric_tensor)

DEFAULT_KAPPA = 0.17  # existence-time smallness constant, calibrated empirically
HORIZON_CAP = 10.0  # existence time returned for zero data
KATO_P = 4.0  # p of the Kato norm K_p that the Picard iteration contracts in
PICARD_TOL = 1e-10  # Picard increment tolerance

_last_gamma: tuple = (None, None)  # (key, gamma) of the last measurement


@dataclass
class SolverConfig:
    """Shared solver configuration.

    The contraction norm X is the Kato norm K_p, p = KATO_P (sup of
    t^{-s_p/2}||u(t)||_p); time samples are geometric near zero and
    uniform after T/8.  Explicit ``times`` must pass ``check_schedule``.
    """

    grid: Grid
    horizon: float
    n_geometric: int = 24
    n_uniform: int = 24
    first_exponent: int = 20
    times: np.ndarray | None = None
    max_iter: int = 60
    measure_probes: int = 20
    probe_seed: int = 0

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got "
                              f"{self.horizon}")
        if self.measure_probes < 0:
            raise ConfigError(f"measure_probes must be >= 0, got "
                              f"{self.measure_probes}")

    def schedule(self) -> np.ndarray:
        return check_schedule(self.times if self.times is not None else
                              time_schedule(self.horizon, self.n_geometric,
                                            self.n_uniform,
                                            self.first_exponent))


@dataclass
class MildSolution:
    """Trajectory plus the Picard iteration record and residual checks.

    The trajectory is a view of ``report.solution``, the solver's
    stack; both are read-only.
    """

    trajectory: Trajectory
    report: FixedPointReport
    residual_doubled: float = float("nan")
    max_div_residual: float = 0.0
    config: SolverConfig | None = None


# ---------------------------------------------------------------------
# Stack helpers
# ---------------------------------------------------------------------

def _forcing_stack(grid: Grid, x: np.ndarray, tensor) -> np.ndarray:
    """P div T per sample, T = ``tensor(part, px)`` the dealiased tensor
    coefficients built from the physical samples ``px`` of ``x[part]``:
    the one forcing job of every solve, probe and resolvent.  Runs as
    ``map_samples`` jobs of 4 samples on ``FFT_WORKERS`` threads, each
    job's FFTs on one thread, so the tensor temporaries do not grow with
    the schedule and the result is bit-identical to a serial run."""
    return map_samples(lambda part: projected_divergence_coeffs(
        grid, tensor(part, inverse_transform(grid, x[part]))),
        np.empty_like(x))


def kato_stack_norm(grid: Grid, times: np.ndarray, stack: np.ndarray,
                    p: float) -> float:
    """Kato K_p norm of a coefficient stack (t = 0 sample skipped)."""
    return weighted_sup(grid, times, stack, -critical_exponent(p) / 2.0, p)


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

    def probe(seed):
        w = random_power_law(grid, alpha=2.0, seed=seed, amplitude=1.0)
        return heat_stack(grid, w.coeffs, times)

    return probe


# ---------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------

def _measure_constants(problem: PicardProblem, config: SolverConfig,
                       times: np.ndarray, w_multiplier) -> None:
    """``estimate_constants`` with gamma reused when the last measurement
    had the same key; the measured gamma is remembered."""
    global _last_gamma
    grid = config.grid
    key = ((grid.dim, grid.n, grid.box_length), times.tobytes(), KATO_P,
           None if w_multiplier is None else w_multiplier.tobytes(),
           config.measure_probes, config.probe_seed)
    known = _last_gamma[1] if _last_gamma[0] == key else None
    estimate_constants(problem, n_probes=config.measure_probes,
                       seed=config.probe_seed, gamma=known)
    _last_gamma = (key, problem.gamma)


def _picard_checked(u0: SpectralField, config: SolverConfig,
                    times: np.ndarray, background=None,
                    w_multiplier=None) -> MildSolution:
    """The one solve path: x = e^{tL}u0 - B(x, x) - B(x, v) - B(v, x)
    around a divergence-free background v (none when None), the advected
    factor of B(x, x) premultiplied by ``w_multiplier``.  The Picard step
    and the doubled residual take their forcing from ``_step_forcing``;
    constant probing and the resolvent use L = -B(., v) - B(v, .) and B
    apart.  The trajectory is the solver's stack, made read-only."""
    grid = config.grid
    u0 = _prepare_data(u0, grid)
    v_stack = _background_stack(grid, times, background)
    pv = linear = None
    if v_stack is not None:
        if np.max(divergence_residuals(grid, v_stack, batch_axes=1)) > 1e-10:
            raise GridError("background must be divergence-free")
        pv = inverse_transform(grid, v_stack)
        linear = _cross_linear(grid, times, pv)

    def norm(stack):
        return kato_stack_norm(grid, times, stack, KATO_P)

    def step(x):
        return _minus_duhamel(grid, times,
                              _step_forcing(grid, x, pv, w_multiplier))

    def forcing(fine_times, fine):
        pvf = None if v_stack is None else inverse_transform(
            grid, interpolate_stack(times, v_stack, fine_times))
        return _step_forcing(grid, fine, pvf, w_multiplier)

    problem = PicardProblem(a=heat_stack(grid, u0.coeffs, times),
                            linear=linear,
                            bilinear=_nse_bilinear(grid, times, w_multiplier),
                            norm=norm, probe=_make_probe(grid, times),
                            step=step)
    if config.measure_probes > 0:
        _measure_constants(problem, config, times, w_multiplier)
    else:
        problem.gamma = 0.0
        problem.l_norm = 0.0
    report = solve_picard(problem, tol=PICARD_TOL,
                          max_iter=config.max_iter)
    stack = report.solution
    rd = _doubled_residual(grid, times, stack, u0, forcing)
    divs = divergence_residuals(grid, stack, batch_axes=1)
    stack.flags.writeable = False
    return MildSolution(Trajectory._from_stack(grid, times, "vector", stack),
                        report, rd, float(np.max(divs)), config)


def _minus_duhamel(grid: Grid, times: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-Duhamel(g) on the schedule, written over the recursion's output."""
    out = duhamel_stack(times, g, grid.xi_sq)
    return np.negative(out, out=out)


def _nse_bilinear(grid: Grid, times: np.ndarray,
                  w_multiplier: np.ndarray | None = None):
    """(x, y) -> B(x, y) = -Duhamel(P div dealias(x (x) (y)_rho))."""
    m = 1.0 if w_multiplier is None else w_multiplier

    def bilinear(x, y):
        return _minus_duhamel(grid, times, _forcing_stack(
            grid, x, lambda part, px: dealiased_tensor(
                grid, px, inverse_transform(grid, y[part] * m))))

    return bilinear


def _step_forcing(grid: Grid, x: np.ndarray, pv: np.ndarray | None,
                  w_multiplier: np.ndarray | None) -> np.ndarray:
    """The nonlinearity of every solve, per sample: P div dealias(x (x)
    (x)_rho), (x)_rho being x premultiplied by ``w_multiplier``, plus
    x (x) v + v (x) x around a background v given by its physical
    samples ``pv``.  Unmollified it is one symmetric tensor, of x alone
    or of x and x/2 + v; mollified, the two tensors are summed before
    the one P div."""
    def tensor(part, px):
        if w_multiplier is None:
            return symmetric_tensor(
                grid, px, None if pv is None else 0.5 * px + pv[part])
        t = dealiased_tensor(
            grid, px, inverse_transform(grid, x[part] * w_multiplier))
        if pv is not None:
            t += symmetric_tensor(grid, pv[part], px)
        return t

    return _forcing_stack(grid, x, tensor)


def _cross_linear(grid: Grid, times: np.ndarray, pv: np.ndarray):
    """w -> B(w, v) + B(v, w) for a fixed v given by its physical samples
    ``pv``: one forcing of the symmetric tensor of v and w."""
    def linear(w):
        return _minus_duhamel(grid, times, _forcing_stack(
            grid, w, lambda part, pw: symmetric_tensor(grid, pv[part], pw)))

    return linear


def _doubled_residual(grid: Grid, times: np.ndarray, stack: np.ndarray,
                      u0: SpectralField, forcing) -> float:
    """Integral-equation residual recomputed on a midpoint-refined
    schedule (independent doubled quadrature): the Kato norm, at the
    original samples, of x - e^{tL}u0 + Duhamel(forcing(x)) with x
    interpolated linearly onto the refined schedule.

    ``forcing(fine_times, fine)`` gives the forcing at refined samples.
    The refined schedule is streamed in chunks of ``FFT_WORKERS``
    ``map_samples`` jobs: each chunk is interpolated, forced, carried on
    through the Duhamel recursion from the previous chunk's last sample
    and forcing, and reduced to its largest weighted norm.  So memory
    does not grow with the schedule, and the value equals that of one
    pass over the whole refined stack.  The schedule must start at 0.
    """
    fine_times = np.empty(2 * times.size - 1)
    fine_times[0::2] = times
    fine_times[1::2] = 0.5 * (times[:-1] + times[1:])
    chunk = spectral.SAMPLE_CHUNK * spectral.FFT_WORKERS
    worst = 0.0
    for s in range(0, fine_times.size, chunk):
        ft = fine_times[s:s + chunk]
        fine = interpolate_stack(times, stack, ft)
        g = forcing(ft, fine)
        if s == 0:
            duh = duhamel_stack(ft, g, grid.xi_sq)
        else:
            duh = duhamel_stack(fine_times[s - 1:s + chunk],
                                np.concatenate([g_last, g]), grid.xi_sq,
                                start=duh[-1])[1:]
        g_last = g[-1:]
        # the original samples are the even refined ones
        keep = slice(s % 2, None, 2)
        rhs = np.negative(duh[keep])
        rhs += heat_stack(grid, u0.coeffs, ft[keep])
        resid = np.subtract(fine[keep], rhs, out=rhs)
        worst = max(worst, kato_stack_norm(grid, ft[keep], resid, KATO_P))
    return worst


def mild_solve_nse(u0: SpectralField, config: SolverConfig) -> MildSolution:
    """Picard solution of u(t) = e^{tL}u0 - B(u, u)(t) on the schedule."""
    return _picard_checked(u0, config, config.schedule())


def mild_solve_perturbed(u0_large: SpectralField, background,
                         config: SolverConfig) -> MildSolution:
    """Solve W = e^{tL}U0 - B(W,W) - B(W,V) - B(V,W) around a
    divergence-free background V, a ``Trajectory`` sampled on the solver
    schedule or a ``SpectralField`` held constant in time."""
    return _picard_checked(u0_large, config, config.schedule(), background)


def _background_stack(grid: Grid, times: np.ndarray, bg) -> np.ndarray | None:
    """The coefficient stack of a background on the schedule (None for
    None): a trajectory's own stack, or a field at every sample as a
    read-only view of its coefficients."""
    if bg is None:
        return None
    if not isinstance(bg, (Trajectory, SpectralField)):
        raise ConfigError("background must be a Trajectory, SpectralField, "
                          "or None")
    if bg.grid != grid or bg.rank != "vector":
        raise GridError("background must be a vector field on the grid")
    if isinstance(bg, SpectralField):
        return np.broadcast_to(bg.coeffs, (times.size,) + bg.coeffs.shape)
    if len(bg) != times.size or \
            not np.allclose(bg.times, times, rtol=1e-12, atol=0):
        raise QuadratureError("background trajectory must share the "
                              "solver schedule")
    return bg.coeffs


def mollified_solve(u0: SpectralField, background, rho: float,
                    config: SolverConfig) -> MildSolution:
    """Leray-mollified solver around a divergence-free background V (or
    None), taken as in ``mild_solve_perturbed``:
    U = e^{tL}U0 - B_rho(U, U) - B(U, V) - B(V, U), with the advected
    factor mollified, B_rho(v, w) = Duhamel(P div v (x) (w)_rho).
    """
    m_rho = Mollifier(config.grid.dim, rho).symbol(config.grid)
    return _picard_checked(u0, config, config.schedule(), background, m_rho)


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
    residual_doubled: float = float("nan")  # largest over the segments


def solve_with_continuation(u0: SpectralField, config: SolverConfig,
                            step_floor: float = 1e-4) -> ContinuationResult:
    """Re-seeded continuation: solve on shrinking steps while Picard
    converges; a segment that diverges or stops at ``max_iter`` without
    converging halves the step.  Declares 'blow-up suspected' when the
    step falls below the floor (an explicitly heuristic surrogate for
    T*).

    The trajectory is one stack: the prepared data, then each segment's
    samples after its first (one segment's stack is taken as it is);
    each report's ``solution`` becomes a read-only view of its segment
    there, from the previous segment's last sample on.  The largest
    doubled-schedule residual of the accepted segments is
    ``residual_doubled`` (NaN when none was accepted).
    """
    grid = config.grid
    first = _prepare_data(u0, grid).coeffs
    t0 = 0.0
    step = config.horizon
    current = u0
    all_times = [np.array([0.0])]
    segments = []
    reports = []
    residuals = []

    def result(status):
        coeffs = reports[0].solution if len(reports) == 1 else np.concatenate(
            [first[None]] + [rep.solution[1:] for rep in reports])
        traj = Trajectory._from_stack(grid, np.concatenate(all_times),
                                      "vector", coeffs)
        start = 0
        for rep in reports:
            rep.solution = traj.coeffs[start:start + len(rep.solution)]
            start += len(rep.solution) - 1
        return ContinuationResult(traj, status, segments, reports,
                                  max(residuals, default=float("nan")))

    while t0 < config.horizon * (1.0 - 1e-12):
        step = min(step, config.horizon - t0)
        sub = replace(config, horizon=step, times=None)
        times = sub.schedule()
        try:
            sol = _picard_checked(current, sub, times)
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
        residuals.append(sol.residual_doubled)
        all_times.append(times[1:] + t0)
        current = SpectralField(grid, "vector", sol.report.solution[-1],
                                check_hermitian=False)
        t0 += step
    return result("completed")
