"""Acceptance battery: one test per release gate, each a single
pass/fail line under ``pytest -v``.  Constants marked FROZEN are
regression pins measured once on this implementation."""

import math

import numpy as np
import pytest

from nselab import (BesovIndex, ExponentError, PicardDivergenceError,
                    SolverConfig, SplitConfig, SpectralField, Trajectory,
                    besov_norm, critical_exponent, default_partition,
                    energy_ledger, exponent_sweep, heat_evolve,
                    heat_trajectory, kato_norm, make_grid, mild_solve_nse,
                    mild_solve_perturbed, mollified_solve, phi_profile,
                    rescale_trajectory, split, time_schedule, vanishing_test,
                    verify_kato_estimate)
from nselab.besov import ProductExponents, lp_block, paraproduct, \
    paraproduct_estimate_check
from nselab.picard import PicardProblem, solve_picard
from nselab.families import (critical_random, critical_spike_field,
                             random_power_law, taylor_green)
from nselab.spectral import dealias_product

# FROZEN: caloric/besov ratio envelope of the 100-field battery below
CALORIC_LO = 1.133926
CALORIC_HI = 1.400292


def test_criterion_01_partition_identity():
    grid = make_grid(3, 64, 2.0 * np.pi)
    part = default_partition(grid)
    assert part.partition_deviation() < 1e-10
    r = np.array([0.0, 0.5, 0.74, 2.67, 4.0])
    assert np.all(phi_profile(r) <= 1e-14)
    assert phi_profile(np.array([1.0]))[0] > 0.1


def test_criterion_02_caloric_characterization():
    grid = make_grid(3, 32, 2.0 * np.pi)
    part = default_partition(grid)
    idx = BesovIndex(critical_exponent(4.0), 4.0, 4.0)
    times = time_schedule(8.0, 32, 32)
    alphas = (1.0, 1.5, 2.0, 2.5)
    ratios = []
    for seed in range(100):
        u = random_power_law(grid, alpha=alphas[seed % 4], seed=seed)
        caloric = kato_norm(heat_trajectory(u, times), idx).value
        ratios.append(caloric / besov_norm(u, idx, part).value)
    assert min(ratios) > CALORIC_LO / 1.05
    assert max(ratios) < CALORIC_HI * 1.05
    # the envelope itself is pinned, not just bounded
    assert min(ratios) < CALORIC_LO * 1.05
    assert max(ratios) > CALORIC_HI / 1.05


def test_criterion_03_splitting_exponent_laws():
    grid = make_grid(3, 32, 2.0 * np.pi)
    part = default_partition(grid)
    u0 = critical_spike_field(grid, 4.0, part, seed=1)
    cfg = SplitConfig(4.0, 8.0, 1.0)
    lams = np.geomspace(1e-2, 1e2, 33)
    rep = exponent_sweep(u0, cfg, lams, part, fit_window=(0.1, 1.0))
    assert rep.slope_large == pytest.approx(-1.0, abs=0.1)
    assert rep.slope_small == pytest.approx(0.5, abs=0.1)
    res = split(u0, cfg, part)
    assert res.reassembly_residual(u0) < 1e-10


def test_criterion_04_heat_block_decay():
    grid = make_grid(3, 32, 2.0 * np.pi)
    part = default_partition(grid)
    u = random_power_law(grid, alpha=1.0, seed=0)
    checked = 0
    for j in part.j_range:
        blk = lp_block(u, j, part)
        if blk.l2_norm() < 1e-12:
            continue
        ts = np.linspace(0.0, 0.02 / 4.0 ** max(j, 0), 9)[1:]
        logs = [math.log(heat_evolve(blk, t).l2_norm()) for t in ts]
        slope = np.polyfit(ts, logs, 1)[0]
        assert -(8.0 / 3.0) ** 2 * 4.0**j <= slope <= -(0.75) ** 2 * 4.0**j
        checked += 1
    assert checked >= 4


def test_criterion_05_kato_estimate_battery():
    grid = make_grid(3, 16, 2.0 * np.pi)
    u = random_power_law(grid, alpha=2.0, seed=0)
    configs = [(-0.5, 2.0, 4.0), (-1.0, 2.0, 3.0), (-0.5, 3.0, 6.0)]

    def constants(n_samples):
        times = time_schedule(1.0, n_samples, n_samples)
        flows = heat_trajectory(u, times)
        F = Trajectory(grid, times,
                       [dealias_product(f, f) for f in flows.fields])
        return [verify_kato_estimate(F, *c)["constant"] for c in configs]

    coarse = constants(16)
    fine = constants(32)
    for a, b in zip(coarse, fine):
        assert np.isfinite(a) and a > 0
        assert abs(b - a) / a < 0.20
    times = time_schedule(1.0, 16, 16)
    flows = heat_trajectory(u, times)
    F = Trajectory(grid, times,
                   [dealias_product(f, f) for f in flows.fields])
    with pytest.raises(ExponentError):
        verify_kato_estimate(F, -2.5, 2.0, 4.0)
    with pytest.raises(ExponentError):
        verify_kato_estimate(F, -0.5, 2.0, 6.0)


def test_criterion_06_taylor_green_regression():
    grid = make_grid(2, 128, 2.0 * np.pi)
    tg = taylor_green(grid)
    cfg = SolverConfig(grid=grid, horizon=1.0, n_geometric=12, n_uniform=12,
                       measure_probes=0)
    sol = mild_solve_nse(tg, cfg)
    scale = tg.max_abs_coeff()
    for t, f in sol.trajectory:
        assert (f - heat_evolve(tg, t)).max_abs_coeff() < 1e-8 * scale
    # convergence order of the time quadrature on generic 2D data
    small = make_grid(2, 32, 2.0 * np.pi)
    u0 = random_power_law(small, alpha=1.5, seed=0, amplitude=0.3)
    finals = []
    for m in (8, 16, 32):
        c = SolverConfig(grid=small, horizon=0.5,
                         times=np.linspace(0.0, 0.5, m + 1),
                         measure_probes=0)
        finals.append(mild_solve_nse(u0, c).trajectory.fields[-1])
    e1 = (finals[0] - finals[1]).l2_norm()
    e2 = (finals[1] - finals[2]).l2_norm()
    order = math.log2(e1 / e2)
    assert order >= 1.8


def test_criterion_07_picard_contract():
    a, g = 0.1, 1.0
    problem = PicardProblem(a=a, bilinear=lambda x, y: g * x * y,
                            norm=abs, l_norm=0.0)
    report = solve_picard(problem, tol=1e-14)
    exact = (1.0 - math.sqrt(1.0 - 4.0 * a * g)) / (2.0 * g)
    assert abs(report.solution - exact) < 1e-12
    with pytest.raises(PicardDivergenceError):
        solve_picard(PicardProblem(a=0.5, bilinear=lambda x, y: x * y,
                                   norm=abs, l_norm=0.0))
    grid = make_grid(3, 16, 2.0 * np.pi)
    cfg = SolverConfig(grid=grid, horizon=0.3, n_geometric=8, n_uniform=8,
                       measure_probes=0)
    for seed in range(20):
        u0 = random_power_law(grid, alpha=2.0, seed=seed, amplitude=1e-3)
        sol = mild_solve_nse(u0, cfg)
        assert sol.report.converged
        assert sol.report.iterations <= 5
        assert all(r < 1.0 for r in sol.report.contraction_ratios)


def test_criterion_08_split_solve_agreement():
    grid = make_grid(3, 24, 2.0 * np.pi)
    part = default_partition(grid)
    cfg = SolverConfig(grid=grid, horizon=0.3, n_geometric=12, n_uniform=12,
                       measure_probes=0)
    scfg = SplitConfig(4.0, 8.0, 1e-3)
    for seed in range(10):
        u0 = critical_random(grid, 4.0, part, seed=seed) * 1e-2
        direct = mild_solve_nse(u0, cfg)
        parts = split(u0, scfg, part)
        v = mild_solve_nse(parts.small, cfg)
        w = mild_solve_perturbed(parts.large, v.trajectory, cfg)
        ref = max(f.l2_norm() for f in direct.trajectory.fields)
        dev = max((a + b - c).l2_norm()
                  for a, b, c in zip(v.trajectory.fields,
                                     w.trajectory.fields,
                                     direct.trajectory.fields))
        assert dev < 1e-6 * ref


def test_criterion_09_energy_ledgers():
    grid = make_grid(3, 16, 2.0 * np.pi)
    u0 = random_power_law(grid, alpha=2.0, seed=0, amplitude=0.1)
    cfg = SolverConfig(grid=grid, horizon=0.5, n_geometric=10, n_uniform=10,
                       measure_probes=0)
    moll = mollified_solve(u0, None, 0.5, cfg)
    ledgers = {m: energy_ledger(moll.trajectory, rho=0.5, substeps=m)
               for m in (2, 4, 32)}
    assert ledgers[32].max_abs_slack < 1e-6 * ledgers[32].scale
    assert ledgers[4].max_abs_slack < 0.5 * ledgers[2].max_abs_slack
    direct = mild_solve_nse(u0, cfg)
    led = energy_ledger(direct.trajectory, substeps=32)
    assert led.min_slack > -1e-6 * led.scale


def test_criterion_10_rescaling_invariance():
    grid = make_grid(3, 32, 2.0 * np.pi)
    part = default_partition(grid)
    idx = BesovIndex(critical_exponent(4.0), 4.0, 4.0)
    u = critical_random(grid, 4.0, part, seed=0)
    traj = heat_trajectory(u, np.linspace(0.0, 0.1, 4))
    base = [besov_norm(f.zero_mean(), idx, part).value for f in traj.fields]
    for lam in (2.0, 4.0):
        out = rescale_trajectory(traj, lam)
        p2 = default_partition(out.grid)
        vals = [besov_norm(f.zero_mean(), idx, p2).value for f in out.fields]
        for a, b in zip(base, vals):
            assert abs(a - b) < 1e-6 * a
    smooth = random_power_law(grid, alpha=2.0, seed=0)
    series = vanishing_test(smooth, [2.0, 1.0, 0.5])
    assert series[0] > series[1] > series[2] > 0.0


def _embed(field, big_grid):
    """Zero-pad a band-limited field's coefficients onto a finer grid:
    numpy's full spectrum, padded, sliced to the half spectrum."""
    n_small = field.grid.n
    dim = field.grid.dim
    lead = field.coeffs.ndim - dim
    axes = tuple(range(lead, lead + dim))
    full = np.fft.fftn(field.to_physical(), axes=axes) / n_small**dim
    shifted = np.fft.fftshift(full, axes=axes)
    out = np.zeros(field.coeffs.shape[:lead] + big_grid.shape,
                   dtype=np.complex128)
    c = big_grid.n // 2 - n_small // 2
    sl = (slice(None),) * lead + (slice(c, c + n_small),) * dim
    out[sl] = shifted
    out = np.fft.ifftshift(out, axes=axes)[..., :big_grid.n // 2 + 1]
    return SpectralField(big_grid, field.rank, out, check_hermitian=False)


def test_criterion_11_paraproduct_identity_and_estimates():
    grid = make_grid(3, 16, 2.0 * np.pi)
    part = default_partition(grid)
    for seed in range(50):
        u = random_power_law(grid, alpha=1.0, seed=seed, rank="scalar")
        v = random_power_law(grid, alpha=1.0, seed=seed + 500, rank="scalar")
        t_uv, t_vu, reso = paraproduct(u, v, part)
        full = dealias_product(u, v)
        dev = (t_uv + t_vu + reso - full).max_abs_coeff()
        assert dev < 1e-8 * full.max_abs_coeff()
    # estimate constants: finite, and stable under grid refinement when
    # the same band-limited data is re-analyzed on the finer grid
    exps = ProductExponents(-0.5, 1.0, 4.0, 4.0, 4.0, 4.0)
    big = make_grid(3, 32, 2.0 * np.pi)
    part_big = default_partition(big)
    # band-limit to |xi| <= 2.5 so the product stays inside the coarse
    # grid's dealias band and the two grids see identical data
    mask = grid.xi_abs <= 2.5
    u = random_power_law(grid, alpha=1.0, seed=7, rank="scalar")
    v = random_power_law(grid, alpha=1.0, seed=1007, rank="scalar")
    u = u.with_coeffs(u.coeffs * mask)
    v = v.with_coeffs(v.coeffs * mask)
    coarse = paraproduct_estimate_check(u, v, exps, part)
    fine = paraproduct_estimate_check(_embed(u, big), _embed(v, big),
                                      exps, part_big)
    for key in ("T", "R"):
        assert np.isfinite(coarse[key]) and coarse[key] > 0
        assert abs(fine[key] - coarse[key]) / coarse[key] < 0.20
