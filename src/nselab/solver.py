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

Kato's fixed-point argument is checked after the fact: a solve's
report holds the solution, the Picard history (norms, increments,
contraction ratios), the residual and whether it converged.  The one
constant a solve measures is ||L||, where it has a linear part, since
||L|| >= 1 refuses a perturbed solve: that solve builds the probes x
and their L(x), and the direct and mollified solves probe nothing.

Every solve is one call of ``_picard_checked`` on its config's
schedule, with an optional divergence-free background v and mollifier
radius rho, which ``_forcing_factors`` alone turns into physical
samples and a symbol.  One forcing, ``_step_forcing``, defines its
nonlinearity, P div dealias(w (x) (w)_rho + w (x) v + v (x) w): the
Picard step, the doubled-schedule residual and the energy ledger
(``nonlinear_forcing``) all take it from there.  It, B(x, y) and the
linear part's L(w) are each one ``_forcing_stack`` job: x is
transformed once per sample and the caller builds the tensor from it.

The Kato norm of every Picard iterate and probe comes from the forcing
that transforms it: a job given a series writes the L^KATO_P norms of
the physical samples it made, which ``_kato`` weights as
``kato_stack_norm`` does, bit for bit.  The Picard step gives
(L(x) + B(x, x), ||x||) and L(w) gives ||w||.  Increments, L(w) itself
and the residuals are normed by ``kato_stack_norm``.

The doubled-schedule residual streams over its refined schedule in
chunks of whole ``map_samples`` jobs and forms only what the solve does
not hold: it interpolates and forces the refined midpoints, and reads
the original samples and their forcing from the solution and its last
step.  So its memory does not grow with the schedule.  Continuation
writes its segments into one stack.
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
from .picard import (MAX_ITER, PICARD_TOL, FixedPointReport, PicardProblem,
                     estimate_constants, solve_picard)
from . import spectral
from .spectral import (Band, Grid, Mollifier, SpectralField, check_flow,
                       dealiased_tensor, interpolate_stack, inverse_transform,
                       magnitude_lp_norms, map_samples,
                       projected_divergence_coeffs, symmetric_tensor)

KATO_P = 4.0  # p of the Kato norm K_p that the Picard iteration contracts in
PROBE_SEED = 0  # seed of the constant-probing random stream
STEP_FLOOR = 1e-4  # continuation step below which blow-up is suspected


@dataclass
class SolverConfig:
    """Shared solver configuration.

    The contraction norm X is the Kato norm K_p, p = KATO_P (sup of
    t^{-s_p/2}||u(t)||_p); time samples are geometric near zero and
    uniform after T/8.  Explicit ``times`` must pass ``check_schedule``.
    ``measure_probes`` is the number of probes by which a perturbed
    solve measures ||L||; the direct and mollified solves probe nothing.
    The counts ``n_geometric``, ``n_uniform`` and ``measure_probes`` must
    be integers (not bool); ``ConfigError`` otherwise.
    """

    grid: Grid
    horizon: float
    n_geometric: int = 24
    n_uniform: int = 24
    times: np.ndarray | None = None
    measure_probes: int = 20

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got "
                              f"{self.horizon}")
        for name in ("n_geometric", "n_uniform", "measure_probes"):
            value = getattr(self, name)
            integral = isinstance(value, (int, np.integer))
            if not integral or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.measure_probes < 0:
            raise ConfigError(f"measure_probes must be >= 0, got "
                              f"{self.measure_probes}")

    def schedule(self) -> np.ndarray:
        return check_schedule(self.times if self.times is not None else
                              time_schedule(self.horizon, self.n_geometric,
                                            self.n_uniform))


@dataclass
class MildSolution:
    """Trajectory plus the Picard iteration record and its residual check.

    ``report.converged`` is False when the iteration stopped at
    ``MAX_ITER`` iterations without meeting ``PICARD_TOL``.  The
    trajectory is a view of ``report.solution``, the solver's stack of
    dealias band blocks (its ``layout`` is ``grid.band``); both are
    read-only.  ``forcing`` is the trajectory's forcing g of u' = Lap u
    + g, bit for bit ``nonlinear_forcing`` of it (with the solve's
    background and rho), a read-only band stack that the last Picard
    step formed.
    """

    trajectory: Trajectory
    report: FixedPointReport
    residual_doubled: float = float("nan")
    forcing: np.ndarray | None = None


# ---------------------------------------------------------------------
# Stack helpers
# ---------------------------------------------------------------------

def _forcing_stack(band: Band, x: np.ndarray, tensor,
                   series: np.ndarray | None = None) -> np.ndarray:
    """P div T per sample, T = ``tensor(part, px)`` the dealiased tensor
    coefficients built from the physical samples ``px`` of ``x[part]``:
    the one forcing job of every solve, probe and L(w).  Runs as
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
                    p: float = KATO_P) -> float:
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


def _picard_checked(c0: np.ndarray, config: SolverConfig, background=None,
                    rho: float | None = None) -> MildSolution:
    """The one solve path: x = e^{tL}u0 - B(x, x) - B(x, v) - B(v, x)
    on ``config.schedule()`` from ``c0``, u0 as ``_prepare_data`` makes
    it, around a divergence-free background v (none when None), the
    advected factor of B(x, x) mollified by rho (none when None).  The
    Picard step and the doubled residual take their forcing from
    ``_step_forcing``; ||L|| is probed on L = -B(., v) - B(v, .) apart.
    The step and L also return the Kato norms of their arguments from
    their own transforms.  The last step is that of the solution, so its
    forcing is kept for the doubled residual and the solution's
    ``forcing``.  Every stack of the solve is a band
    block, and the trajectory is the solution's, made read-only."""
    grid = config.grid
    band = grid.band
    times = config.schedule()
    pv, m_rho = _forcing_factors(grid, times, background, rho)
    linear = None if pv is None else _cross_linear(band, times, pv)
    bilinear = _nse_bilinear(band, times, m_rho)

    def norm(stack):
        return kato_stack_norm(band, times, stack)

    last_forcing = [None]  # that of the last step

    def step(x):
        last_forcing[0] = None  # not held through this step's own
        series = np.empty(times.size)
        g = last_forcing[0] = _step_forcing(band, x, pv, m_rho, series)
        return _minus_duhamel(band, times, g), _kato(times, series)

    def linear_with_norm(w):
        series = np.empty(times.size)
        return linear(w, series), _kato(times, series)

    def forcing(fine_times, fine):
        pvf = None if pv is None else interpolate_stack(times, pv, fine_times)
        return _step_forcing(band, fine, pvf, m_rho)

    problem = PicardProblem(a=heat_stack(band, c0, times),
                            linear=linear, bilinear=bilinear, norm=norm,
                            l_norm=0.0, probe=_make_probe(grid, times),
                            step=step, linear_with_norm=None if linear is None
                            else linear_with_norm)
    if linear is not None:  # ||L|| >= 1 refuses the solve
        estimate_constants(problem, n_probes=config.measure_probes,
                           seed=PROBE_SEED)
    report = solve_picard(problem, tol=PICARD_TOL, max_iter=MAX_ITER)
    g = last_forcing[0]  # solve_picard's last step is the solution's
    rd = _doubled_residual(band, times, report.solution, problem.a, g,
                           forcing)
    report.solution.flags.writeable = False
    g = np.negative(g, out=g)
    g.flags.writeable = False
    return MildSolution(Trajectory._from_stack(grid, times, "vector",
                                               report.solution, band),
                        report, rd, g)


def _minus_duhamel(band: Band, times: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """-Duhamel(g) on the schedule, written over the recursion's output."""
    out = duhamel_stack(times, g, band)
    return np.negative(out, out=out)


def _nse_bilinear(band: Band, times: np.ndarray,
                  m_rho: np.ndarray | None = None):
    """(x, y) -> B(x, y) = -Duhamel(P div dealias(x (x) (y)_rho))."""
    def bilinear(x, y):
        def tensor(part, px):
            return dealiased_tensor(band, px, inverse_transform(
                band, y[part] if m_rho is None else y[part] * m_rho))

        return _minus_duhamel(band, times, _forcing_stack(band, x, tensor))

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
                      a: np.ndarray, g: np.ndarray, forcing) -> float:
    """Integral-equation residual recomputed on a midpoint-refined
    schedule (independent doubled quadrature): the Kato norm, at the
    original samples, of x - a + Duhamel(forcing(x)), a = e^{tL}u0 the
    solve's seed, with x interpolated linearly onto the refined schedule.

    Only the refined midpoints are interpolated, and
    ``forcing(fine_times, fine)`` gives the forcing there.  At the
    original samples, the even refined ones, the interpolation would
    give x back up to the sign of zeros, which no norm sees, so x is
    read there from ``stack`` itself and its forcing is ``g``, that of
    the whole stack.  The refined schedule is streamed in chunks whose
    midpoints fill ``FFT_WORKERS`` ``map_samples`` jobs: each chunk's
    forcing is laid out after the previous chunk's last one, carried in
    its first slot, and run on through the Duhamel recursion from the
    previous chunk's last value, then reduced to its largest weighted
    norm.  So memory does not grow with the schedule, and the value
    equals that of one pass over the whole refined stack.  The schedule
    must start at 0.
    """
    fine_times = np.empty(2 * times.size - 1)
    fine_times[0::2] = times
    fine_times[1::2] = 0.5 * (times[:-1] + times[1:])
    chunk = 2 * spectral.SAMPLE_CHUNK * spectral.FFT_WORKERS  # even
    worst = 0.0
    for s in range(0, fine_times.size, chunk):
        # after the first chunk, slot 0 carries the previous chunk's last
        # sample, from which the Duhamel recursion runs on
        first = max(s - 1, 0)
        ft = fine_times[first:s + chunk]
        node = s - first  # slot of the chunk's first original sample
        # the even refined samples are the original ones from s // 2 on
        nodes = slice(s // 2, s // 2 + len(ft[node::2]))
        mids = ft[node + 1::2]
        gf = np.empty((len(ft),) + g.shape[1:], dtype=g.dtype)
        if s > 0:
            gf[0] = g_last
        gf[node::2] = g[nodes]
        gf[node + 1::2] = forcing(mids, interpolate_stack(times, stack, mids))
        duh = duhamel_stack(ft, gf, band, start=None if s == 0 else d_last)
        g_last, d_last = gf[-1].copy(), duh[-1].copy()
        resid = np.negative(duh[node::2])
        del gf, duh  # not held through the next chunk
        resid += a[nodes]
        np.subtract(stack[nodes], resid, out=resid)
        worst = max(worst, kato_stack_norm(band, times[nodes], resid))
        del resid  # nor this
    return worst


def mild_solve_nse(u0: SpectralField, config: SolverConfig) -> MildSolution:
    """Picard solution of u(t) = e^{tL}u0 - B(u, u)(t) on the schedule."""
    return _picard_checked(_prepare_data(u0, config.grid), config)


def mild_solve_perturbed(u0_large: SpectralField, background,
                         config: SolverConfig) -> MildSolution:
    """Solve W = e^{tL}U0 - B(W,W) - B(W,V) - B(V,W) around a
    divergence-free background V, a ``Trajectory`` sampled on the solver
    schedule or a ``SpectralField`` held constant in time."""
    return _picard_checked(_prepare_data(u0_large, config.grid), config,
                           background)


def mollified_solve(u0: SpectralField, background, rho: float,
                    config: SolverConfig) -> MildSolution:
    """Leray-mollified solver around a divergence-free background V (or
    None), taken as in ``mild_solve_perturbed``:
    U = e^{tL}U0 - B_rho(U, U) - B(U, V) - B(V, U), with the advected
    factor mollified, B_rho(v, w) = Duhamel(P div v (x) (w)_rho).
    """
    return _picard_checked(_prepare_data(u0, config.grid), config,
                           background, rho)


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
    forcing: np.ndarray | None = None  # the trajectory's, if one segment


def solve_with_continuation(u0: SpectralField,
                            config: SolverConfig) -> ContinuationResult:
    """Re-seeded continuation: solve on shrinking steps while Picard
    converges; a segment that diverges or stops at ``MAX_ITER`` without
    converging halves the step.  Declares 'blow-up suspected' when the
    step falls below ``STEP_FLOOR`` (an explicitly heuristic surrogate
    for T*).  Each segment makes its own schedule, so ``config.times``
    must be None (``ConfigError``).

    The trajectory is one stack of band blocks: the data, checked once,
    then each segment's samples after its first (one segment's stack is
    taken as it is); each report's ``solution`` becomes a read-only view
    of its segment there, from the previous segment's last sample on,
    the band block it restarted from.  A one-segment trajectory keeps
    that segment's ``forcing``; with several, ``forcing`` is None (as
    with none), since holding every segment's forcing would add a stack
    the size of the trajectory to the run's peak.  The largest
    doubled-schedule residual of the accepted segments is
    ``residual_doubled`` (NaN when none was accepted).
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
    forcing = None  # the first segment's, while it is the only one

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
                                  max(residuals, default=float("nan")),
                                  forcing)

    while t0 < config.horizon * (1.0 - 1e-12):
        step = min(step, config.horizon - t0)
        try:
            sol = _picard_checked(current, replace(config, horizon=step))
            converged = sol.report.converged
        except PicardDivergenceError:
            converged = False
        if not converged:
            step *= 0.5
            if step < STEP_FLOOR:
                return result("blow-up suspected")
            continue
        segments.append(step)
        reports.append(sol.report)
        residuals.append(sol.residual_doubled)
        forcing = sol.forcing if len(reports) == 1 else None
        all_times.append(sol.trajectory.times[1:] + t0)
        current = sol.report.solution[-1]
        t0 += step
    return result("completed")
