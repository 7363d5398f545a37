"""Mild Navier-Stokes solvers built on the abstract Picard engine:
the direct solver u = e^{tL}u0 - B(u,u), the perturbed solver around a
precomputed background, and the Leray-mollified energy solver.

Solver state is the stack of Fourier coefficients at every sample
time.  Every state, probe, forcing and Duhamel output of a solve lies in
the 2/3 dealias band, so each stack holds only the band block
(``Grid.band``), shape (M, dim) + ``grid.band.xi_sq.shape``; the
bilinear operator forms the dealiased tensor product per sample and runs
the exact-exponential Duhamel recursion over the schedule.  A solution's
``report.solution`` and trajectory are that block too (the trajectory's
``layout`` is the band), and so are a continuation's stitched stack and
the split-perturbed sum v + w: the diagnostics and the archive read the
band, and only a field handed out (``traj[i]``, ``Trajectory.fields``,
an archived CLF1 sample) is scattered to the half spectrum, one sample
at a time.

The bilinear constant gamma depends only on the grid, the schedule,
the Kato p, the mollifier and the probe count and seed, never on the
data.  It is measured once per key (grid, schedule bytes, ``KATO_P``,
the mollifier's rho or None, ``measure_probes``, ``probe_seed``)
and the last (key, gamma) pair is kept in process, so a perturbed solve
after a direct solve on the same configuration runs no B(x, y) probe;
||L|| depends on the background and is always measured.  One pair is
enough: every caller meets its keys in order and never returns to an
older one (continuation only shrinks its step).

Every solve is one call of ``_picard_checked`` with an optional
divergence-free background v and mollifier radius rho, which
``_forcing_factors`` alone turns into physical samples and a symbol.
One forcing, ``_step_forcing``, defines its nonlinearity, P div
dealias(w (x) (w)_rho + w (x) v + v (x) w): the Picard step, the
doubled-schedule residual and the energy ledger (``nonlinear_forcing``)
all take it from there.  It, the probe B(x, y) and the resolvent's L(w)
are each one ``_forcing_stack`` job: x is transformed once per sample
and the caller builds the tensor from it.

The Kato norm of every Picard iterate and probe comes from the forcing
that transforms it: a job given a series writes the L^KATO_P norms of
the physical samples it made, which ``_kato`` weights as
``kato_stack_norm`` does, bit for bit.  The Picard step gives
(L(x) + B(x, x), ||x||), the probe B(x, y) gives ||x|| and ||y|| (under
a mollifier it transforms (y)_rho, so y is transformed once more), and
L(w) gives ||w||.  Increments, B(x, y) itself and the residuals are
normed by ``kato_stack_norm``.

The doubled-schedule residual streams over its refined schedule in
chunks of whole ``map_samples`` jobs, so its memory does not grow with
the schedule, and continuation writes its segments into one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .besov import (Trajectory, critical_exponent, series_weighted_sup,
                    weighted_sup)
from .errors import ConfigError, PicardDivergenceError, QuadratureError
from .families import random_power_law
from .heat import check_schedule, duhamel_stack, heat_stack, time_schedule
from .picard import (FixedPointReport, PicardProblem, estimate_constants,
                     solve_picard)
from . import spectral
from .spectral import (Band, Grid, Mollifier, SpectralField, check_flow,
                       dealiased_tensor, interpolate_stack, inverse_transform,
                       magnitude_lp_norms, map_samples,
                       projected_divergence_coeffs, symmetric_tensor)

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
    """Trajectory plus the Picard iteration record and its residual check.

    The trajectory is a view of ``report.solution``, the solver's stack
    of dealias band blocks (its ``layout`` is ``grid.band``); both are
    read-only.
    """

    trajectory: Trajectory
    report: FixedPointReport
    residual_doubled: float = float("nan")


# ---------------------------------------------------------------------
# Stack helpers
# ---------------------------------------------------------------------

def _forcing_stack(band: Band, x: np.ndarray, tensor,
                   series: np.ndarray | None = None) -> np.ndarray:
    """P div T per sample, T = ``tensor(part, px)`` the dealiased tensor
    coefficients built from the physical samples ``px`` of ``x[part]``:
    the one forcing job of every solve, probe and resolvent.  Runs as
    ``map_samples`` jobs of 4 samples on ``FFT_WORKERS`` threads, each
    job's FFTs on one thread, so the tensor temporaries do not grow with
    the schedule and the result is bit-identical to a serial run.

    With ``series`` (one entry per sample) each job also writes there the
    ``_sample_norms`` of the ``px`` it made.  ``kato_stack_norm`` reads
    the same transform, kernel and jobs, so ``_kato(times, series)`` is
    the Kato norm of x bit for bit, and x is not transformed again.

    Products that overflow are formed with no warning, as inf or NaN: the
    Picard iteration's check for a norm that is not finite ends the run."""
    def job(part):
        px = inverse_transform(band, x[part])
        if series is not None:
            series[part] = _sample_norms(band, px)
        with np.errstate(over="ignore", invalid="ignore"):
            t = tensor(part, px)
            del px  # not held through P div, where the job's memory peaks
            return projected_divergence_coeffs(band, t)

    return map_samples(job, np.empty_like(x))


def _sample_norms(band: Band, samples: np.ndarray) -> np.ndarray:
    """L^KATO_P norm of each physical sample of a stack (chunk)."""
    return magnitude_lp_norms(band, samples, KATO_P, 1)


def kato_stack_norm(grid: Grid | Band, times: np.ndarray, stack: np.ndarray,
                    p: float) -> float:
    """Kato K_p norm of a coefficient stack (t = 0 sample skipped)."""
    return weighted_sup(grid, times, stack, -critical_exponent(p) / 2.0, p)


def _kato(times: np.ndarray, series: np.ndarray) -> float:
    """The Kato K_p norm, p = KATO_P, of a stack given by its per-sample
    L^p norms ``series``: the weighting of ``kato_stack_norm``."""
    return series_weighted_sup(times, series, -critical_exponent(KATO_P) / 2.0)


def _prepare_data(u0: SpectralField, grid: Grid) -> np.ndarray:
    """The checked data as a zero-mean block of the dealias band."""
    check_flow(grid, u0, "initial data")
    c = grid.band.gather(u0.coeffs)
    c[(Ellipsis,) + (0,) * grid.dim] = 0.0
    return c


def _make_probe(grid: Grid, times: np.ndarray):
    """Heat flows of random divergence-free data as probe elements, in
    the band (where the data lie)."""

    def probe(seed):
        w = random_power_law(grid, alpha=2.0, seed=seed, amplitude=1.0)
        return heat_stack(grid.band, grid.band.gather(w.coeffs), times)

    return probe


# ---------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------

def _measure_constants(problem: PicardProblem, config: SolverConfig,
                       times: np.ndarray, rho: float | None) -> None:
    """``estimate_constants`` with gamma reused when the last measurement
    had the same key; the measured gamma is remembered."""
    global _last_gamma
    grid = config.grid
    key = ((grid.dim, grid.n, grid.box_length), times.tobytes(), KATO_P,
           rho, config.measure_probes, config.probe_seed)
    known = _last_gamma[1] if _last_gamma[0] == key else None
    estimate_constants(problem, n_probes=config.measure_probes,
                       seed=config.probe_seed, gamma=known)
    _last_gamma = (key, problem.gamma)


def _forcing_factors(grid: Grid, times: np.ndarray, background,
                     rho: float | None):
    """A run's background as physical samples on the schedule, after the
    one input check, and the mollifier symbol of rho on the band; each
    None for None.  A ``Trajectory`` on the schedule is transformed once
    from its own layout (the half spectrum or the band); a
    ``SpectralField`` is checked and transformed once and held constant
    in time as a read-only view of that one sample."""
    m_rho = None if rho is None else grid.band.gather(
        Mollifier(grid.dim, rho).symbol(grid))
    if background is None:
        return None, m_rho
    if not isinstance(background, (Trajectory, SpectralField)):
        raise ConfigError("background must be a Trajectory, SpectralField, "
                          "or None")
    check_flow(grid, background, "background")
    if isinstance(background, SpectralField):
        one = background.to_physical()
        return np.broadcast_to(one, (times.size,) + one.shape), m_rho
    if len(background) != times.size or not np.allclose(
            background.times, times, rtol=1e-12, atol=0):
        raise QuadratureError("background trajectory must share the "
                              "solver schedule")
    return inverse_transform(background.layout, background.coeffs), m_rho


def nonlinear_forcing(traj: Trajectory, background=None,
                      rho: float | None = None) -> np.ndarray:
    """The forcing g of u' = Lap u + g along ``traj``: minus the solvers'
    ``_step_forcing`` around a background taken as the perturbed solver
    takes it, mollified by rho (None: none of either).  It is the
    forcing of the trajectory's dealias band, where solver states lie,
    formed and returned there, as a band block; a half-spectrum
    trajectory is gathered onto the band first."""
    band = traj.grid.band
    x = traj.coeffs if traj.layout == band else band.gather(traj.coeffs)
    pv, m_rho = _forcing_factors(traj.grid, traj.times, background, rho)
    g = _step_forcing(band, x, pv, m_rho)
    return np.negative(g, out=g)


def _picard_checked(c0: np.ndarray, config: SolverConfig,
                    times: np.ndarray, background=None,
                    rho: float | None = None) -> MildSolution:
    """The one solve path: x = e^{tL}u0 - B(x, x) - B(x, v) - B(v, x)
    from ``c0``, u0 as ``_prepare_data`` makes it, around a
    divergence-free background v (none when None), the advected factor of
    B(x, x) mollified by rho (none when None).  The Picard step and the
    doubled residual take their forcing from ``_step_forcing``; constant
    probing and the resolvent use L = -B(., v) - B(v, .) and B apart.  The
    step, B and L also return the Kato norms of their arguments from their
    own transforms.  Every stack of the solve is a band block, and the
    trajectory is the solution's, made read-only."""
    grid = config.grid
    band = grid.band
    pv, m_rho = _forcing_factors(grid, times, background, rho)
    linear = None if pv is None else _cross_linear(band, times, pv)
    bilinear = _nse_bilinear(band, times, m_rho)

    def norm(stack):
        return kato_stack_norm(band, times, stack, KATO_P)

    def step(x):
        series = np.empty(times.size)
        g = _step_forcing(band, x, pv, m_rho, series)
        return _minus_duhamel(band, times, g), _kato(times, series)

    def bilinear_with_norms(x, y):
        series = np.empty((2, times.size))
        bxy = bilinear(x, y, series)
        return bxy, _kato(times, series[0]), _kato(times, series[1])

    def linear_with_norm(w):
        series = np.empty(times.size)
        return linear(w, series), _kato(times, series)

    def forcing(fine_times, fine):
        pvf = None if pv is None else interpolate_stack(times, pv, fine_times)
        return _step_forcing(band, fine, pvf, m_rho)

    problem = PicardProblem(a=heat_stack(band, c0, times),
                            linear=linear, bilinear=bilinear, norm=norm,
                            probe=_make_probe(grid, times), step=step,
                            bilinear_with_norms=bilinear_with_norms,
                            linear_with_norm=None if linear is None
                            else linear_with_norm)
    if config.measure_probes > 0:
        _measure_constants(problem, config, times, rho)
    else:
        problem.gamma = 0.0
        problem.l_norm = 0.0
    report = solve_picard(problem, tol=PICARD_TOL,
                          max_iter=config.max_iter)
    rd = _doubled_residual(band, times, report.solution, problem.a, forcing)
    report.solution.flags.writeable = False
    return MildSolution(Trajectory._from_stack(grid, times, "vector",
                                               report.solution, band),
                        report, rd)


def _minus_duhamel(band: Band, times: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """-Duhamel(g) on the schedule, written over the recursion's output."""
    out = duhamel_stack(times, g, band)
    return np.negative(out, out=out)


def _nse_bilinear(band: Band, times: np.ndarray,
                  m_rho: np.ndarray | None = None):
    """(x, y) -> B(x, y) = -Duhamel(P div dealias(x (x) (y)_rho)).

    With ``series`` of shape (2, M) its rows get the ``_sample_norms`` of
    x and of y from their transforms in the forcing; under a mollifier
    the transform is of (y)_rho, so y is transformed once more."""
    def bilinear(x, y, series=None):
        def tensor(part, px):
            py = inverse_transform(band, y[part] if m_rho is None
                                   else y[part] * m_rho)
            if series is not None:
                own = py if m_rho is None else inverse_transform(band, y[part])
                series[1, part] = _sample_norms(band, own)
            return dealiased_tensor(band, px, py)

        return _minus_duhamel(band, times, _forcing_stack(
            band, x, tensor, None if series is None else series[0]))

    return bilinear


def _step_forcing(band: Band, x: np.ndarray, pv: np.ndarray | None,
                  m_rho: np.ndarray | None,
                  series: np.ndarray | None = None) -> np.ndarray:
    """The nonlinearity of every solve, per sample: P div dealias(x (x)
    (x)_rho), (x)_rho being x premultiplied by the symbol ``m_rho``, plus
    x (x) v + v (x) x around a background v given by its physical
    samples ``pv``.  Unmollified it is one symmetric tensor, of x alone
    or of x and x/2 + v; mollified, the two tensors are summed before
    the one P div.  ``series`` is as in ``_forcing_stack``."""
    def tensor(part, px):
        if m_rho is None:
            return symmetric_tensor(
                band, px, None if pv is None else 0.5 * px + pv[part])
        t = dealiased_tensor(
            band, px, inverse_transform(band, x[part] * m_rho))
        if pv is not None:
            t += symmetric_tensor(band, pv[part], px)
        return t

    return _forcing_stack(band, x, tensor, series)


def _cross_linear(band: Band, times: np.ndarray, pv: np.ndarray):
    """w -> B(w, v) + B(v, w) for a fixed v given by its physical samples
    ``pv``: one forcing of the symmetric tensor of v and w.  ``series``
    is as in ``_forcing_stack``."""
    def linear(w, series=None):
        return _minus_duhamel(band, times, _forcing_stack(
            band, w, lambda part, pw: symmetric_tensor(band, pv[part], pw),
            series))

    return linear


def _doubled_residual(band: Band, times: np.ndarray, stack: np.ndarray,
                      a: np.ndarray, forcing) -> float:
    """Integral-equation residual recomputed on a midpoint-refined
    schedule (independent doubled quadrature): the Kato norm, at the
    original samples, of x - a + Duhamel(forcing(x)), a = e^{tL}u0 the
    solve's seed, with x interpolated linearly onto the refined schedule.

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
            duh = duhamel_stack(ft, g, band)
        else:
            duh = duhamel_stack(fine_times[s - 1:s + chunk],
                                np.concatenate([g_last, g]), band,
                                start=duh[-1])[1:]
        g_last = g[-1:]
        # the original samples are the even refined ones, from (s + 1) // 2
        keep = slice(s % 2, None, 2)
        rhs = np.negative(duh[keep])
        rhs += a[(s + 1) // 2:][:len(rhs)]
        resid = np.subtract(fine[keep], rhs, out=rhs)
        worst = max(worst, kato_stack_norm(band, ft[keep], resid, KATO_P))
    return worst


def mild_solve_nse(u0: SpectralField, config: SolverConfig) -> MildSolution:
    """Picard solution of u(t) = e^{tL}u0 - B(u, u)(t) on the schedule."""
    return _picard_checked(_prepare_data(u0, config.grid), config,
                           config.schedule())


def mild_solve_perturbed(u0_large: SpectralField, background,
                         config: SolverConfig) -> MildSolution:
    """Solve W = e^{tL}U0 - B(W,W) - B(W,V) - B(V,W) around a
    divergence-free background V, a ``Trajectory`` sampled on the solver
    schedule or a ``SpectralField`` held constant in time."""
    return _picard_checked(_prepare_data(u0_large, config.grid), config,
                           config.schedule(), background)


def mollified_solve(u0: SpectralField, background, rho: float,
                    config: SolverConfig) -> MildSolution:
    """Leray-mollified solver around a divergence-free background V (or
    None), taken as in ``mild_solve_perturbed``:
    U = e^{tL}U0 - B_rho(U, U) - B(U, V) - B(V, U), with the advected
    factor mollified, B_rho(v, w) = Duhamel(P div v (x) (w)_rho).
    """
    return _picard_checked(_prepare_data(u0, config.grid), config,
                           config.schedule(), background, rho)


# ---------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------

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
    T*).  Each segment makes its own schedule, so ``config.times`` must
    be None (``ConfigError``).

    The trajectory is one stack of band blocks: the data, checked once,
    then each segment's samples after its first (one segment's stack is
    taken as it is); each report's ``solution`` becomes a read-only view
    of its segment there, from the previous segment's last sample on,
    the band block it restarted from.  The largest doubled-schedule
    residual of the accepted segments is ``residual_doubled`` (NaN when
    none was accepted).
    """
    if config.times is not None:
        raise ConfigError("continuation takes no explicit times")
    grid = config.grid
    first = current = _prepare_data(u0, grid)
    t0 = 0.0
    step = config.horizon
    all_times = [np.array([0.0])]
    segments = []
    reports = []
    residuals = []

    def result(status):
        coeffs = reports[0].solution if len(reports) == 1 else np.concatenate(
            [first[None]] + [rep.solution[1:] for rep in reports])
        traj = Trajectory._from_stack(grid, np.concatenate(all_times),
                                      "vector", coeffs, grid.band)
        start = 0
        for rep in reports:
            rep.solution = traj.coeffs[start:start + len(rep.solution)]
            start += len(rep.solution) - 1
        return ContinuationResult(traj, status, segments, reports,
                                  max(residuals, default=float("nan")))

    while t0 < config.horizon * (1.0 - 1e-12):
        step = min(step, config.horizon - t0)
        sub = replace(config, horizon=step)
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
        current = sol.report.solution[-1]
        t0 += step
    return result("completed")
