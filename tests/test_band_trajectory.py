"""Solver trajectories held as dealias band blocks: every diagnostic,
background and archive reads the band block as it reads its copy
scattered to the half spectrum."""

import math
import tracemalloc

import numpy as np
import pytest

from nselab import (BesovIndex, ExperimentConfig, GridError, SolverConfig,
                    Trajectory, critical_norm_series, default_partition,
                    diagnostics, energy_ledger, energy_norm, leray_monitor,
                    make_grid, mild_solve_nse, mild_solve_perturbed,
                    mollified_solve, rescale_trajectory, run_experiment,
                    timespace_besov_norm, write_clf1)
from nselab.families import random_power_law
from nselab.spectral import divergence_residuals


def _config(grid, probes=0):
    return SolverConfig(grid=grid, horizon=0.2, n_geometric=6, n_uniform=6,
                        measure_probes=probes)


def _scattered(traj):
    """The same trajectory in the half spectrum."""
    return Trajectory._from_stack(traj.grid, traj.times, traj.rank,
                                  traj.grid.band.scatter(traj.coeffs))


@pytest.fixture(scope="module")
def solved(grid16):
    """A 16^3 solver trajectory (band layout) and its half-spectrum copy."""
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    traj = mild_solve_nse(u0, _config(grid16)).trajectory
    return traj, _scattered(traj)


def test_solver_trajectory_is_a_band_block(grid16, solved):
    traj, half = solved
    assert traj.layout == grid16.band
    assert half.layout == grid16
    assert traj.coeffs.shape == (len(traj), 3) + grid16.band.xi_sq.shape
    # its fields are the half spectrum, scattered one sample at a time
    for f, want in zip(traj.fields, half.coeffs):
        assert np.array_equal(f.coeffs, want)
        assert not f.coeffs.flags.writeable


def test_indexing_scatters_one_sample(grid16, solved):
    traj, half = solved
    for i in (0, 3, -1):
        for t in (traj, half):
            f = t[i]
            assert np.array_equal(f.coeffs, half.coeffs[i])
            assert f.rank == "vector" and not f.coeffs.flags.writeable
    with pytest.raises(IndexError):
        traj[len(traj)]


def test_indexing_a_band_trajectory_does_not_scatter_the_stack():
    grid = make_grid(3, 24, 2.0 * np.pi)
    u0 = random_power_law(grid, alpha=2.0, seed=1, amplitude=0.3)
    traj = mild_solve_nse(u0, _config(grid)).trajectory
    field_nbytes = 3 * grid.xi_sq.size * 16
    tracemalloc.start()
    try:
        last = traj[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last.coeffs.nbytes == field_nbytes
    assert peak < 2 * field_nbytes < traj.coeffs.nbytes


def test_band_diagnostics_equal_the_half_spectrum_ones(grid16, solved,
                                                      tmp_path):
    traj, half = solved
    for p in (2.0, 3.0, 4.0, math.inf):
        assert np.array_equal(traj.lp_series(p), half.lp_series(p))
    for p in (3.0, 4.0):
        assert np.array_equal(critical_norm_series(traj, p),
                              critical_norm_series(half, p))
    on_band = leray_monitor(traj, (4.0, 6.0, math.inf), 0.3)
    on_half = leray_monitor(half, (4.0, 6.0, math.inf), 0.3)
    for p, series in on_band.items():
        assert np.array_equal(series, on_half[p])
    assert np.array_equal(
        divergence_residuals(traj.layout, traj.coeffs, batch_axes=1),
        divergence_residuals(grid16, half.coeffs, batch_axes=1))
    index, part = BesovIndex(-0.25, 4.0, 4.0), default_partition(grid16)
    assert timespace_besov_norm(traj, 4.0, index, part).value == \
        timespace_besov_norm(half, 4.0, index, part).value
    h = grid16.box_length / grid16.n
    for lam, x0, t0 in ((2.0, None, 0.0), (0.5, [h, 0.0, 3 * h], 0.05)):
        got = rescale_trajectory(traj, lam, x0, t0)
        want = rescale_trajectory(half, lam, x0, t0)
        assert got.layout == got.grid.band and got.grid == want.grid
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(_scattered(got).coeffs, want.coeffs)
    # sums over the band and over the half spectrum are grouped apart
    assert np.max(np.abs(traj.l2_series() / half.l2_series() - 1)) <= 1e-15
    assert energy_norm(traj) == pytest.approx(energy_norm(half), rel=1e-15)
    # every written sample is the same file, byte for byte
    for i, ((t, f), (s, g)) in enumerate(zip(traj, half)):
        assert t == s
        write_clf1(tmp_path / f"band_{i}.clf1", f)
        write_clf1(tmp_path / f"half_{i}.clf1", g)
        assert (tmp_path / f"band_{i}.clf1").read_bytes() == \
            (tmp_path / f"half_{i}.clf1").read_bytes()


def test_band_backgrounds_equal_their_half_spectrum_copies(grid16):
    cfg = _config(grid16, probes=2)
    v = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=4,
                                        amplitude=0.3), cfg).trajectory
    v_half = _scattered(v)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    for solve in (lambda bg: mild_solve_perturbed(u0, bg, cfg),
                  lambda bg: mollified_solve(u0, bg, 0.5, cfg)):
        got, want = solve(v), solve(v_half)
        assert got.report.converged
        assert got.report.norms == want.report.norms
        assert np.array_equal(got.report.solution, want.report.solution)
        assert got.residual_doubled == want.residual_doubled
    w = got.trajectory
    assert np.array_equal(energy_ledger(w, background=v, rho=0.5).slacks,
                          energy_ledger(w, background=v_half, rho=0.5).slacks)


def test_bad_band_backgrounds_are_refused(grid16, solved):
    traj, _ = solved
    cfg = _config(grid16)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    # a gradient part at k = (1, 0, 0), which the band holds at row 1
    c = traj.coeffs.copy()
    c[:, 0, 1, 0, 0] += 0.1
    not_solenoidal = Trajectory._from_stack(grid16, traj.times, "vector", c,
                                            grid16.band)
    huge = Trajectory._from_stack(grid16, traj.times, "vector",
                                  1e160 * traj.coeffs, grid16.band)
    for bg, reason in ((not_solenoidal, "divergence-free"),
                       (huge, "products would overflow")):
        with pytest.raises(GridError, match=reason):
            mild_solve_perturbed(u0, bg, cfg)
        with pytest.raises(GridError, match=reason):
            mollified_solve(u0, bg, 0.5, cfg)
        with pytest.raises(GridError, match=reason):
            energy_ledger(traj, background=bg)


def test_the_archive_never_holds_a_half_spectrum_stack(grid16, tmp_path,
                                                       monkeypatch):
    config = ExperimentConfig(
        dim=3, n=16, box_length=2.0 * np.pi, horizon=0.3,
        recipe={"family": "random", "amplitude": 0.3}, seed=1,
        measure_probes=2, out_dir=str(tmp_path))
    seen = {}
    archive = diagnostics._archive

    def traced(config, report, traj, ledger):
        tracemalloc.start()
        try:
            archive(config, report, traj, ledger)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen["traj"] = traj

    monkeypatch.setattr(diagnostics, "_archive", traced)
    assert run_experiment(config).status == "completed"
    traj = seen["traj"]
    assert len(traj) == 49
    band_nbytes = len(traj) * 3 * grid16.band.xi_sq.size * 16
    half_nbytes = len(traj) * 3 * grid16.xi_sq.size * 16
    assert traj.coeffs.nbytes == band_nbytes
    assert seen["peak"] < half_nbytes
