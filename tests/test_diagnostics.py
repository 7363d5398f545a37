import json
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from nselab import (BesovIndex, ConfigError, DiagnosticsReport,
                    ExperimentConfig, GridError, QuadratureError,
                    SolverConfig, Trajectory, besov_norm, critical_exponent,
                    default_partition, energy_ledger, gradient,
                    heat_trajectory, leray_monitor, make_grid,
                    mild_solve_nse, mild_solve_perturbed, rescale,
                    rescale_trajectory, run_experiment, time_schedule,
                    vanishing_test, write_clf1)
from nselab.families import critical_random, random_power_law, taylor_green


def test_rescale_identity_and_group_law(grid16):
    f = random_power_law(grid16, alpha=1.0, seed=0)
    same = rescale(f, 1.0)
    assert same.grid == grid16
    assert np.array_equal(same.coeffs, f.coeffs)
    twice = rescale(rescale(f, 2.0), 2.0)
    once = rescale(f, 4.0)
    assert twice.grid == once.grid
    assert np.max(np.abs(twice.coeffs - once.coeffs)) \
        < 1e-14 * np.max(np.abs(once.coeffs))


def test_rescale_preserves_critical_norm(grid16, part16):
    u = critical_random(grid16, 4.0, part16, seed=1)
    idx = BesovIndex(critical_exponent(4.0), 4.0, 4.0)
    before = besov_norm(u, idx, part16).value
    v = rescale(u, 2.0)
    after = besov_norm(v.zero_mean(), idx, default_partition(v.grid)).value
    assert after == pytest.approx(before, rel=1e-8)


def test_rescale_validation(grid16):
    f = random_power_law(grid16, alpha=1.0, seed=2)
    with pytest.raises(ConfigError):
        rescale(f, 3.0)
    with pytest.raises(ConfigError):
        rescale(f, 2.0, x0=(0.1, 0.0, 0.0))
    with pytest.raises(ConfigError):
        rescale(f, 2.0, x0=(0.0, 0.0))
    # a grid-point shift is accepted and preserves norms
    h = grid16.box_length / grid16.n
    g = rescale(f, 2.0, x0=(h, 2 * h, 0.0))
    # L^2 scales by lam^{1 - dim/2}; the shift is an isometry
    assert g.l2_norm() == pytest.approx(2.0 ** (-0.5) * f.l2_norm(),
                                        rel=1e-10)


def test_rescale_trajectory_times(grid16):
    times = np.array([0.0, 0.1, 0.2, 0.3])
    u = random_power_law(grid16, alpha=1.0, seed=3)
    traj = heat_trajectory(u, times)
    out = rescale_trajectory(traj, 2.0, t0=0.1)
    assert np.allclose(out.times, [0.0, 0.025, 0.05])
    assert len(out) == 3
    with pytest.raises(ConfigError):
        rescale_trajectory(traj, 2.0, t0=1.0)


def test_vanishing_series(grid32):
    from nselab import SpectralField
    zero = SpectralField.zero(grid32, "vector")
    assert np.all(vanishing_test(zero, [2.0, 1.0]) == 0.0)
    u = random_power_law(grid32, alpha=2.0, seed=4)
    series = vanishing_test(u, [2.0, 1.0, 0.5])
    assert series[0] > series[1] > series[2] > 0.0
    with pytest.raises(GridError):
        vanishing_test(u, [0.25])          # below twice the grid spacing
    with pytest.raises(GridError):
        vanishing_test(u, [8.0])           # above half the box
    with pytest.raises(ConfigError):
        vanishing_test(u, [3.0])           # not a power of 2


def test_leray_monitor_saturating_profile(grid16):
    # u(t) = (T - t)^{-(1 - 3/p)/2} u0 makes the compensated series flat
    p = 4.0
    T = 1.0
    u0 = random_power_law(grid16, alpha=1.0, seed=5)
    times = np.linspace(0.0, 0.9, 10)
    fields = [u0 * float((T - t) ** (-(1.0 - 3.0 / p) / 2.0)) for t in times]
    traj = Trajectory(grid16, times, fields)
    out = leray_monitor(traj, [p], T)
    series = out[p]
    assert np.std(series) / np.mean(series) < 1e-10
    with pytest.raises(ConfigError):
        leray_monitor(traj, [3.0], T)
    with pytest.raises(ConfigError):
        leray_monitor(traj, [p], 0.5)


def test_energy_ledger_heat_flow(grid16):
    u = random_power_law(grid16, alpha=1.5, seed=6)
    times = np.linspace(0.0, 0.5, 11)
    traj = heat_trajectory(u, times)
    zero = np.zeros_like(traj.coeffs)
    rep = energy_ledger(traj, substeps=32, g_stack=zero)
    assert rep.max_abs_slack < 1e-6 * rep.scale
    assert rep.min_slack > -1e-6 * rep.scale
    # residuals shrink with substep refinement (Simpson, order 4)
    coarse = energy_ledger(traj, substeps=2, g_stack=zero)
    mid = energy_ledger(traj, substeps=4, g_stack=zero)
    assert mid.max_abs_slack < 0.2 * coarse.max_abs_slack
    assert rep.max_abs_slack < 0.2 * mid.max_abs_slack



def test_energy_ledger_single_sample(grid16):
    # a direct run that suspects blow-up before any segment converged
    # archives its one data sample: no intervals, only the energy
    u = random_power_law(grid16, alpha=1.5, seed=8, amplitude=0.3)
    rep = energy_ledger(Trajectory(grid16, [0.0], [u]))
    assert rep.energy == pytest.approx([0.5 * u.l2_norm() ** 2], rel=1e-13)
    for series in (rep.dissipation, rep.work, rep.slacks):
        assert series.shape == (0,)
    assert rep.scale == rep.energy[0]


def test_energy_ledger_peak_is_below_twice_the_trajectory(grid16):
    # a solver trajectory is ledgered on the dealias band, a third of the
    # half spectrum at 16^3, so the forcing and the per-shell temporaries
    # stay below twice the trajectory's half-spectrum bytes (3.4 times if
    # the ledger ran on the half spectrum)
    u0 = random_power_law(grid16, alpha=2.0, seed=1, amplitude=0.3)
    traj = mild_solve_nse(u0, SolverConfig(grid=grid16, horizon=0.3,
                                           measure_probes=0)).trajectory
    assert len(traj) == 49
    half_nbytes = len(traj) * traj.fields[0].coeffs.nbytes
    tracemalloc.start()
    try:
        energy_ledger(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * half_nbytes


def test_energy_ledger_validation(grid16):
    u = random_power_law(grid16, alpha=1.5, seed=7)
    traj = heat_trajectory(u, np.linspace(0.0, 0.2, 5))
    with pytest.raises(ConfigError):
        energy_ledger(traj, substeps=3, g_stack=np.zeros_like(traj.coeffs))


def test_energy_ledger_checks_the_schedule_as_the_solver_does(grid16):
    u = random_power_law(grid16, alpha=2.0, seed=7, amplitude=0.1)
    times = time_schedule(0.3, 4, 4)
    traj = heat_trajectory(u, times)
    assert energy_ledger(traj, background=traj).slacks.size == 8
    # 5e-9 is 1.7% of the first positive sample, 0.3 * 2^-20
    shifted = Trajectory._from_stack(grid16, times + 5e-9, "vector",
                                     traj.coeffs)
    with pytest.raises(QuadratureError):
        energy_ledger(traj, background=shifted)
    with pytest.raises(QuadratureError):
        mild_solve_perturbed(u, shifted, SolverConfig(
            grid=grid16, horizon=0.3, times=times, measure_probes=0))


def test_energy_ledger_background_is_divergence_free_as_the_solvers(grid16):
    # the solvers' own check (test_every_solver_background_is_divergence_free)
    times = time_schedule(0.3, 4, 4)
    traj = heat_trajectory(random_power_law(grid16, alpha=2.0, seed=7,
                                            amplitude=0.1), times)
    bad = gradient(random_power_law(grid16, alpha=1.0, seed=5, rank="scalar"))
    for bg in (bad, Trajectory(grid16, times, [bad] * times.size)):
        with pytest.raises(GridError, match="divergence-free"):
            energy_ledger(traj, background=bg)


def test_experiment_config_roundtrip():
    cfg = ExperimentConfig(dim=2, n=32, box_length=2 * np.pi, horizon=0.4,
                           recipe={"family": "taylor-green"},
                           monitor_ps=(4.0, np.inf))
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(json.dumps({"dim": 2}))
    bad = json.loads(cfg.to_json())
    bad["clab_config"] = 99
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(json.dumps(bad))


def _tg_config(out_dir):
    return ExperimentConfig(dim=2, n=32, box_length=2 * np.pi, horizon=0.4,
                            recipe={"family": "taylor-green"},
                            solver="direct", out_dir=out_dir,
                            n_geometric=8, n_uniform=8, measure_probes=0)


def test_run_experiment_taylor_green_archive(tmp_path):
    out = str(tmp_path / "run1")
    report = run_experiment(_tg_config(out))
    assert report.status == "completed"
    assert np.max(report.div_residuals) < 1e-10
    for name in ("manifest.json", "series.csv", "ledger.csv"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["summary"]["status"] == "completed"
    # the continuation's doubled-schedule residual reaches the manifest
    assert 0 <= manifest["summary"]["residual_doubled"] < 1e-10
    assert len(manifest["field_files"]) == report.times.size
    for entry in manifest["field_files"]:
        assert os.path.exists(os.path.join(out, entry["file"]))
    # determinism: an identical config reproduces the series byte for byte
    out2 = str(tmp_path / "run2")
    run_experiment(_tg_config(out2))
    with open(os.path.join(out, "series.csv"), "rb") as fh:
        a = fh.read()
    with open(os.path.join(out2, "series.csv"), "rb") as fh:
        b = fh.read()
    assert a == b


def test_run_experiment_zero_recipe(tmp_path):
    cfg = ExperimentConfig(dim=3, n=16, box_length=2 * np.pi, horizon=0.1,
                           recipe={"family": "zero"}, solver="direct",
                           n_geometric=6, n_uniform=6, measure_probes=0)
    report = run_experiment(cfg)
    assert report.status == "completed"
    assert np.all(report.besov_series == 0.0)
    assert isinstance(report, DiagnosticsReport)
    assert report.summary()["n_samples"] == report.times.size


def test_file_recipe_equals_the_random_recipe(tmp_path):
    # the benchmark's input path: a CLF1 file of random data runs as the
    # same data drawn in process
    grid = make_grid(3, 16, 2 * np.pi)
    path = str(tmp_path / "u0.clf1")
    write_clf1(path, random_power_law(grid, alpha=2.0, seed=5,
                                      amplitude=0.3))
    archives = []
    for recipe in ({"family": "file", "path": path},
                   {"family": "random", "amplitude": 0.3}):
        out = str(tmp_path / recipe["family"])
        report = run_experiment(ExperimentConfig(
            dim=3, n=16, box_length=2 * np.pi, horizon=0.1, recipe=recipe,
            seed=5, n_geometric=6, n_uniform=6, measure_probes=2,
            out_dir=out))
        assert report.status == "completed"
        archives.append([pathlib.Path(out, name).read_bytes()
                         for name in ("series.csv", "ledger.csv")])
    assert archives[0] == archives[1]


def test_split_perturbed_summary_holds_the_doubled_residual(monkeypatch):
    from nselab import diagnostics

    residuals = []

    def recorded(solve):
        def run(*args):
            sol = solve(*args)
            residuals.append(sol.residual_doubled)
            return sol
        return run

    for name in ("mild_solve_nse", "mild_solve_perturbed"):
        monkeypatch.setattr(diagnostics, name,
                            recorded(getattr(diagnostics, name)))
    report = run_experiment(ExperimentConfig(
        dim=3, n=16, box_length=2 * np.pi, horizon=0.2,
        recipe={"family": "random", "amplitude": 0.3},
        solver="split-perturbed", split_lambda=0.01, n_geometric=4,
        n_uniform=4, measure_probes=0))
    assert report.status == "completed"
    assert len(residuals) == 2  # the v solve and the w solve
    assert report.summary()["residual_doubled"] == max(residuals)
    assert np.isfinite(max(residuals))


def test_run_experiment_rejects_unknown_family():
    cfg = ExperimentConfig(dim=2, n=16, box_length=2 * np.pi, horizon=0.1,
                           recipe={"family": "nonsense"})
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_run_experiment_passes_divergence_through(monkeypatch):
    from nselab import PicardDivergenceError, diagnostics

    err = PicardDivergenceError("iterates grew", norms=[1.0, 10.0])

    def diverge(*args):
        raise err

    monkeypatch.setattr(diagnostics, "_run_solver", diverge)
    cfg = ExperimentConfig(dim=2, n=16, box_length=2 * np.pi, horizon=0.1,
                           recipe={"family": "zero"})
    with pytest.raises(PicardDivergenceError) as info:
        run_experiment(cfg)
    assert info.value is err
