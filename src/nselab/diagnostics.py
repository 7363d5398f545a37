"""Blow-up diagnostics and the experiment runner: scaling-symmetry
rescaling, the small-scale vanishing pairing, compensated lower-bound
monitors, energy ledgers, and archived experiment runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, asdict, fields

import numpy as np

from .besov import (BesovIndex, DyadicPartition, Trajectory, _dyadic_sum,
                    block_lp_norms, critical_exponent, default_partition)
from . import families
from .calderon import SplitConfig, split
from .errors import ConfigError, GridError
from .heat import exponential_weights
from .solver import (SolverConfig, mild_solve_nse, mild_solve_perturbed,
                     mollified_solve, nonlinear_forcing,
                     solve_with_continuation)
from .spectral import (Band, Grid, Mollifier, SpectralField,
                       atomic_write_bytes, divergence_residuals, finite_json,
                       read_clf1, write_clf1)

CONFIG_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------
# Rescaling:  u'(x, t) = lam * u(lam x + x0, t0 + lam^2 t)
# ---------------------------------------------------------------------

def _power_of_two_exponent(lam: float) -> int:
    m = round(math.log2(lam))
    if abs(lam - 2.0**m) > 1e-12 * lam:
        raise ConfigError(f"scaling factor must be a power of 2, got {lam}")
    return m


def rescale(field: SpectralField, lam: float,
            x0=None) -> SpectralField:
    """Scaling symmetry on a field: u' = lam u(lam x + x0).

    Realized without resampling by shrinking the box to L/lam: the
    coefficient at integer index k keeps its index but its physical
    frequency becomes lam * xi_k, and is multiplied by
    lam * exp(i xi_k . x0).  lam must be a power of 2 and x0 a
    grid-point shift.  In 3D the critical Besov norm is exactly
    invariant; in 2D it scales by lam^{1/p} (the volume factor).
    """
    one = Trajectory(field.grid, [0.0], [field])
    return rescale_trajectory(one, lam, x0)[0]


def rescale_trajectory(traj: Trajectory, lam: float, x0=None,
                       t0: float = 0.0) -> Trajectory:
    """Rescale a trajectory (see ``rescale``): samples with t >= t0 map
    to (t - t0)/lam^2.  The result keeps the trajectory's layout, on the
    rescaled grid."""
    keep = traj.times >= t0 - 1e-15
    if not np.any(keep):
        raise ConfigError(f"no samples at or after t0 = {t0}")
    times = (traj.times[keep] - t0) / lam**2
    times = np.maximum(times, 0.0)
    grid = traj.grid
    _power_of_two_exponent(lam)
    phase = 1.0
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (grid.dim,):
            raise ConfigError("x0 must have one entry per axis")
        h = grid.box_length / grid.n
        if np.max(np.abs(x0 / h - np.round(x0 / h))) > 1e-9:
            raise ConfigError("x0 must be a grid-point shift")
        phase = np.exp(1j * np.einsum("i...,i->...",
                                      traj.layout.wavevectors, x0))
    new_grid = Grid(grid.dim, grid.n, grid.box_length / lam)
    layout = new_grid.band if isinstance(traj.layout, Band) else new_grid
    return Trajectory._from_stack(new_grid, times, traj.rank,
                                  lam * traj.coeffs[keep] * phase, layout)


# ---------------------------------------------------------------------
# Vanishing pairing  <u, lam^{-2} phi(./lam)>
# ---------------------------------------------------------------------

def vanishing_test(field: SpectralField, lambdas,
                   profile=None) -> np.ndarray:
    """Pairing series int u(x) . lam^{-2} phi(x/lam) dx by direct
    grid quadrature, phi centered at the origin (periodic distance).

    ``lambdas`` must be powers of 2 between twice the grid spacing and
    half the box.  For fixed smooth u the series decays as lam drops
    (like lam^{dim-2} once phi(./lam) concentrates).  Returns the
    Euclidean magnitude of the componentwise pairings per lam.
    """
    grid = field.grid
    if profile is None:
        profile = Mollifier(grid.dim, 1.0).profile
    h = grid.box_length / grid.n
    lambdas = np.asarray(lambdas, dtype=float)
    for lam in lambdas:
        _power_of_two_exponent(lam)
        if lam < 2.0 * h:
            raise GridError(f"lambda {lam} below grid resolution {h}")
        if lam > grid.box_length / 2.0:
            raise GridError(f"lambda {lam} exceeds half the box")
    mesh = grid.physical_mesh()
    centered = [np.where(x > grid.box_length / 2.0, x - grid.box_length, x)
                for x in mesh]
    r = np.sqrt(sum(c**2 for c in centered))
    phys = field.to_physical()
    if field.rank == "scalar":
        phys = phys[None]
    out = np.empty(lambdas.size)
    for i, lam in enumerate(lambdas):
        w = profile(r / lam) / lam**2
        pair = grid.cell_volume * np.sum(phys * w, axis=tuple(range(1, phys.ndim)))
        out[i] = float(np.sqrt(np.sum(pair**2)))
    return out


# ---------------------------------------------------------------------
# Compensated lower-bound monitor
# ---------------------------------------------------------------------

def leray_monitor(traj: Trajectory, ps, t_end: float) -> dict:
    """Series ||u(t)||_p * (t_end - t)^{(1 - 3/p)/2} per exponent p.

    Requires 3 < p <= inf for every entry; a profile saturating the
    lower bound gives a constant series, decay rules blow-up out at
    t_end.
    """
    for p in ps:
        if not p > 3.0:
            raise ConfigError(f"monitor exponents must satisfy p > 3, got {p}")
    if traj.times[-1] > t_end + 1e-12:
        raise ConfigError("trajectory extends past t_end")
    gap = np.maximum(t_end - traj.times, 0.0)
    return {p: gap ** (-critical_exponent(p) / 2.0) * traj.lp_series(p)
            for p in ps}


# ---------------------------------------------------------------------
# Energy ledger
# ---------------------------------------------------------------------

@dataclass
class LedgerReport:
    """Interval-by-interval energy balance of a sampled solution.

    slack[i] = E(t_i) - E(t_{i+1}) - D_i + W_i where E = ||u||_2^2 / 2,
    D_i the dissipation integral and W_i the forcing work over the
    interval; exact balances give slack ~ 0, and the energy inequality
    requires slack >= -tolerance.
    """

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    work: np.ndarray
    slacks: np.ndarray
    scale: float

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slacks))

    @property
    def max_abs_slack(self) -> float:
        return float(np.max(np.abs(self.slacks)))


def energy_ledger(traj: Trajectory, background=None,
                  rho: float | None = None, substeps: int = 32,
                  g_stack: np.ndarray | None = None) -> LedgerReport:
    """Energy balance of a trajectory produced by the exponential
    piecewise-linear-forcing quadrature.

    Within each sample interval the solution is reconstructed exactly
    from the quadrature model u' = Lap u + g with g linear in time, so
    the only ledger error is the composite Simpson rule on ``substeps``
    subintervals (even, >= 2): residuals shrink like substeps^{-4}.
    Unless ``g_stack`` is given, g is the solvers' own nonlinearity
    (``solver.nonlinear_forcing``): the NSE forcing, mollified by ``rho``
    and coupled to a divergence-free ``background`` on the schedule when
    given.  ``g_stack`` is in the trajectory's ``layout``; a heat-flow
    ledger passes ``g_stack=np.zeros_like(traj.coeffs)``.  A trajectory
    of one sample has no interval and only its energy is taken, so its
    forcing is not formed (nor its background read).

    The reconstruction is u(t_i + tau) = c_a u_i + c_0 g_i + c_1 g_{i+1}
    with weights that depend on a mode only through |xi|^2, so the
    dissipation and work at every node are quadratic forms in the Gram
    matrices of (u_i, g_i, g_{i+1}) per |xi|^2 shell, summed with
    Hermitian weights (the full-spectrum sum for real fields).

    The sums run over the trajectory's ``layout``: the dealias band
    (``Grid.band``) of a solver trajectory, the whole half spectrum
    otherwise.  A half-spectrum trajectory that is zero outside the band
    gives the same per-shell sums as its band block, and sums over the
    shells that agree to rounding.
    """
    if substeps < 2 or substeps % 2 != 0:
        raise ConfigError("substeps must be even and >= 2")
    times, layout, u = traj.times, traj.layout, traj.coeffs
    if g_stack is not None:
        g = g_stack
    elif len(traj) == 1:
        g = np.zeros_like(u)
    else:
        # the solvers' forcing, a band block
        g = nonlinear_forcing(traj, background, rho)
        if layout != traj.grid.band:
            g = traj.grid.band.scatter(g)
    fracs = np.linspace(0.0, 1.0, substeps + 1)
    dt = np.diff(times)
    tau = np.multiply.outer(dt, fracs)  # (interval, node)
    decay, alpha, beta = exponential_weights(layout, tau)
    values, shell = layout.xi_sq_shells
    weight = layout.volume * layout.hermitian_weight
    bins = shell.ravel() + values.size * np.arange(len(u))[:, None]
    field_shape = (u[0].size // shell.size,) + layout.xi_sq.shape

    def gram(x, y):
        """sum of volume * Hermitian weight * Re(x conj y) over the
        components and each shell, per sample: (samples, shells)."""
        x, y = (a.reshape(a.shape[:1] + field_shape) for a in (x, y))
        xy = (np.einsum("mc...,mc...->m...", x.real, y.real)
              + np.einsum("mc...,mc...->m...", x.imag, y.imag)) * weight
        return np.bincount(bins[:len(xy)].ravel(), weights=xy.ravel(),
                           minlength=len(xy) * values.size
                           ).reshape(len(xy), values.size)

    uu, gg, ug = gram(u, u), gram(g, g), gram(u, g)
    ug1, gg1 = gram(u[:-1], g[1:]), gram(g[:-1], g[1:])
    energy = 0.5 * uu.sum(axis=1)
    moments = np.array([[uu[:-1], ug[:-1], ug1],
                        [ug[:-1], gg[:-1], gg1],
                        [ug1, gg1, gg[1:]]])  # (3, 3, interval, shell)
    # u(tau) and g(tau) in the basis (u_i, g_i, g_{i+1})
    coef = np.array([decay,
                     tau[..., None] * (alpha + beta * (1.0 - fracs)[:, None]),
                     tau[..., None] * beta * fracs[:, None]])
    forcing = np.array([np.zeros_like(fracs), 1.0 - fracs, fracs])
    # composite Simpson weights of the uniform nodes on a unit interval
    simpson = np.r_[1.0, np.tile([4.0, 2.0], substeps // 2)[:-1], 1.0] \
        / (3.0 * substeps)
    diss = np.einsum("jirs,kirs,jkis,s->ir", coef, coef, moments,
                     values) @ simpson * dt
    work = np.einsum("jr,kirs,jkis->ir", forcing, coef, moments) @ simpson * dt
    slacks = energy[:-1] - energy[1:] - diss + work
    scale = float(np.max(energy) + np.sum(diss))
    return LedgerReport(times=times, energy=energy, dissipation=diss,
                        work=work, slacks=slacks, scale=max(scale, 1e-300))


def critical_norm_series(traj: Trajectory, p: float,
                         partition: DyadicPartition | None = None) -> np.ndarray:
    """Critical Besov norm of every sample, as sample jobs (the mean mode
    is not seen, since phi_j(0) = 0)."""
    partition = partition or default_partition(traj.grid)
    idx = BesovIndex(critical_exponent(p), p, p)
    norms = block_lp_norms(traj.layout, traj.coeffs, partition, p, 1)
    return _dyadic_sum(norms, partition, idx.s, idx.q)[1]


# ---------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------

def _is_number(v) -> bool:
    """An int or a float that a float can hold; a bool is not a number."""
    return type(v) is float or (type(v) is int
                                and abs(v) <= sys.float_info.max)


# JSON type rules by annotation
_JSON_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number within the float range", _is_number),
    "str": ("a string", lambda v: type(v) is str),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str),
    "tuple": ("a list of numbers",
              lambda v: type(v) is list and all(map(_is_number, v))),
    "dict": ("an object with a string family",
             lambda v: type(v) is dict and type(v.get("family")) is str),
}
# the parameters each data family takes, by JSON type
_RECIPE_PARAMS = {
    "taylor-green": {"amplitude": "float"},
    "abc": {"a": "float", "b": "float", "c": "float", "amplitude": "float"},
    "random": {"alpha": "float", "seed": "int", "amplitude": "float"},
    "zero": {},
    "file": {"path": "str"},
}


def _check_json_types(what: str, values: dict, types: dict) -> None:
    """ConfigError unless every key of ``values`` is in ``types`` and its
    value is of that key's JSON type."""
    for key, value in values.items():
        if key not in types:
            raise ConfigError(f"{what} takes no {key!r}")
        rule, ok = _JSON_TYPES[types[key]]
        if not ok(value):
            raise ConfigError(f"{what} {key!r} must be {rule}, got {value!r}")


@dataclass
class ExperimentConfig:
    """One archived run: data recipe, grid, horizon, solver, diagnostics.

    ``recipe`` is a dict: {"family": "taylor-green" | "abc" | "random"
    | "file", ...parameters}.  ``solver`` is "direct",
    "split-perturbed", or "mollified".
    """

    dim: int
    n: int
    box_length: float
    horizon: float
    recipe: dict
    solver: str = "direct"
    out_dir: str | None = None
    monitor_ps: tuple = (4.0,)
    besov_p: float = 4.0
    rho: float = 0.5
    split_p: float = 4.0
    split_q: float = 8.0
    split_lambda: float = 1.0
    seed: int = 0
    n_geometric: int = 24
    n_uniform: int = 24
    measure_probes: int = 8

    def __post_init__(self):
        # the energy ledger integrates squared time steps, whatever the data
        if not (self.horizon > 0
                and math.isfinite(self.horizon * self.horizon)):
            raise ConfigError(f"horizon must be positive with a finite "
                              f"square, got {self.horizon}")

    def to_json(self) -> str:
        d = {"clab_config": CONFIG_SCHEMA_VERSION}
        d.update(asdict(self))
        d["monitor_ps"] = list(self.monitor_ps)
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        if not isinstance(d, dict) or \
                d.pop("clab_config", None) != CONFIG_SCHEMA_VERSION:
            raise ConfigError("missing or unsupported clab_config version")
        _check_json_types("the config", d,
                          {f.name: f.type for f in fields(cls)})
        d["monitor_ps"] = tuple(d.get("monitor_ps", (4.0,)))
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc


@dataclass
class DiagnosticsReport:
    """Per-sample diagnostic series of one run, all on shared timestamps."""

    times: np.ndarray
    status: str
    lp_series: dict = dc_field(default_factory=dict)
    besov_series: np.ndarray | None = None
    leray_series: dict = dc_field(default_factory=dict)
    energy_slacks: np.ndarray | None = None
    div_residuals: np.ndarray | None = None
    t_end: float = float("nan")
    meta: dict = dc_field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "status": self.status,
            "t_end": self.t_end,
            "n_samples": int(self.times.size),
            "max_div_residual": (float(np.max(self.div_residuals))
                                 if self.div_residuals is not None else None),
            "min_energy_slack": (float(np.min(self.energy_slacks))
                                 if self.energy_slacks is not None
                                 and self.energy_slacks.size else None),
            **self.meta,
        }


def _resolve_recipe(grid: Grid, recipe: dict, seed: int) -> SpectralField:
    kind = recipe.get("family")
    if kind not in _RECIPE_PARAMS:
        raise ConfigError(f"unknown data family {kind!r}")
    params = {k: v for k, v in recipe.items() if k != "family"}
    _check_json_types(f"the {kind} recipe", params, _RECIPE_PARAMS[kind])
    if kind == "taylor-green":
        return families.taylor_green(grid, **params)
    if kind == "abc":
        return families.abc_flow(grid, **params)
    if kind == "random":
        params.setdefault("alpha", 2.0)
        params.setdefault("seed", seed)
        params.setdefault("amplitude", 1.0)
        return families.random_power_law(grid, **params)
    if kind == "zero":
        return SpectralField.zero(grid, "vector")
    if "path" not in params:  # the file family
        raise ConfigError("the file recipe needs a string 'path'")
    f = read_clf1(params["path"])
    if f.grid != grid:
        raise ConfigError("field file grid does not match the config")
    return f


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _series_csv(times: np.ndarray, columns: dict) -> str:
    names = ["time"] + list(columns)
    lines = [",".join(names)]
    for i, t in enumerate(times):
        row = [repr(float(t))] + [repr(float(columns[c][i])) for c in columns]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _status(*solutions) -> str:
    """'completed' if every Picard solve converged, else 'numerical
    failure' (a fixed point that was not reached is not a solution)."""
    if all(sol.report.converged for sol in solutions):
        return "completed"
    return "numerical failure"


def _run_solver(config: ExperimentConfig, grid: Grid,
                u0: SpectralField):
    """Returns (trajectory, status, the ledger's rho or None, meta)."""
    sc = SolverConfig(grid=grid, horizon=config.horizon,
                      n_geometric=config.n_geometric,
                      n_uniform=config.n_uniform,
                      measure_probes=config.measure_probes)
    meta = {}
    if config.solver == "direct":
        res = solve_with_continuation(u0, sc)
        meta["segments"] = [float(s) for s in res.segment_horizons]
        meta["residual_doubled"] = res.residual_doubled
        return res.trajectory, res.status, None, meta
    if config.solver == "mollified":
        sol = mollified_solve(u0, None, config.rho, sc)
        meta["picard_iterations"] = sol.report.iterations
        meta["residual_doubled"] = sol.residual_doubled
        return sol.trajectory, _status(sol), config.rho, meta
    if config.solver == "split-perturbed":
        partition = default_partition(grid)
        scfg = SplitConfig(config.split_p, config.split_q, config.split_lambda)
        parts = split(u0, scfg, partition)
        v_sol = mild_solve_nse(parts.small, sc)
        w_sol = mild_solve_perturbed(parts.large, v_sol.trajectory, sc)
        v, w = v_sol.trajectory, w_sol.trajectory
        traj = Trajectory._from_stack(grid, v.times, "vector",
                                      v.coeffs + w.coeffs, v.layout)
        meta["l2_large"] = parts.l2_large
        meta["besov_small"] = parts.besov_small
        # NaN-propagating, so that a failed residual is not hidden
        meta["residual_doubled"] = float(np.maximum(v_sol.residual_doubled,
                                                    w_sol.residual_doubled))
        return traj, _status(v_sol, w_sol), None, meta
    raise ConfigError(f"unknown solver {config.solver!r}")


def run_experiment(config: ExperimentConfig) -> DiagnosticsReport:
    """Run one solver experiment, compute diagnostics, archive results.

    Status is 'completed', 'blow-up suspected', or 'numerical failure'
    (residual gates: divergence-free and energy-slack checks, and every
    archived series finite).  When ``out_dir`` is set the archive holds
    manifest.json, per-series CSV files, and the sampled fields as CLF1.
    """
    grid = Grid(config.dim, config.n, config.box_length)
    u0 = _resolve_recipe(grid, config.recipe, config.seed)
    traj, status, rho, meta = _run_solver(config, grid, u0)

    t_end = float(traj.times[-1]) if status != "completed" else config.horizon
    report = DiagnosticsReport(times=traj.times, status=status, t_end=t_end,
                               meta=meta)
    for p in config.monitor_ps:
        report.lp_series[p] = traj.lp_series(p)
    report.besov_series = critical_norm_series(traj, config.besov_p)
    report.leray_series = leray_monitor(traj, config.monitor_ps, t_end)
    ledger = energy_ledger(traj, rho=rho)
    report.energy_slacks = ledger.slacks
    report.div_residuals = divergence_residuals(traj.layout, traj.coeffs,
                                                batch_axes=1)
    # residual gates: a run is never silently wrong, and every archived
    # series must be finite
    archived = (*report.lp_series.values(), report.besov_series,
                *report.leray_series.values(), report.div_residuals,
                ledger.energy, ledger.dissipation, ledger.work, ledger.slacks)
    if not (all(np.all(np.isfinite(s)) for s in archived)
            and np.max(report.div_residuals) <= 1e-8
            and np.all(ledger.slacks >= -1e-5 * ledger.scale)):
        report.status = "numerical failure"
    report.meta["energy_scale"] = ledger.scale

    if config.out_dir is not None:
        _archive(config, report, traj, ledger)
    return report


def _archive(config: ExperimentConfig, report: DiagnosticsReport,
             traj: Trajectory, ledger: LedgerReport) -> None:
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    manifest = {
        "config": json.loads(config.to_json()),
        "summary": report.summary(),
        "series_files": [],
        "field_files": [],
    }
    cols = {f"lp_{p:g}": s for p, s in report.lp_series.items()}
    cols[f"besov_crit_{config.besov_p:g}"] = report.besov_series
    for p, s in report.leray_series.items():
        cols[f"leray_{p:g}"] = s
    cols["div_residual"] = report.div_residuals
    atomic_write_text(os.path.join(out, "series.csv"),
                      _series_csv(report.times, cols))
    manifest["series_files"].append("series.csv")
    lcols = {"energy_start": ledger.energy[:-1],
             "energy_end": ledger.energy[1:],
             "dissipation": ledger.dissipation,
             "work": ledger.work, "slack": ledger.slacks}
    atomic_write_text(os.path.join(out, "ledger.csv"),
                      _series_csv(report.times[:-1], lcols))
    manifest["series_files"].append("ledger.csv")
    for i, (t, f) in enumerate(traj):
        name = f"sample_{i:04d}.clf1"
        write_clf1(os.path.join(out, name), f)
        manifest["field_files"].append({"file": name, "time": float(t)})
    atomic_write_text(os.path.join(out, "manifest.json"),
                      json.dumps(finite_json(manifest), indent=2,
                                 sort_keys=True, allow_nan=False))
