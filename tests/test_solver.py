import numpy as np
import pytest

from nselab import (GridError, Mollifier, QuadratureError, SolverConfig,
                    SpectralField, Trajectory, heat_evolve, mild_solve_nse,
                    mild_solve_perturbed, mollified_solve, spectral,
                    solve_with_continuation, subcritical_existence_time)
from nselab.errors import ConfigError
from nselab.families import (critical_random, random_power_law, taylor_green,
                             taylor_green_decay_rate)
from nselab.solver import _forcing_stack, cross_forcing_stack, kato_stack_norm
from nselab.spectral import gradient, half_spectrum, inverse_transform


def small_config(grid, horizon=0.3, **kw):
    kw.setdefault("n_geometric", 8)
    kw.setdefault("n_uniform", 8)
    kw.setdefault("measure_probes", 0)
    return SolverConfig(grid=grid, horizon=horizon, **kw)


def test_taylor_green_is_exact_heat_decay(grid2d):
    tg = taylor_green(grid2d)
    sol = mild_solve_nse(tg, small_config(grid2d, horizon=0.5))
    assert sol.report.converged
    scale = tg.max_abs_coeff()
    for t, f in sol.trajectory:
        dev = (f - heat_evolve(tg, t)).max_abs_coeff()
        assert dev < 1e-12 * scale
    # the decay of the fundamental mode matches the advertised rate
    rate = taylor_green_decay_rate(grid2d)
    l2 = sol.trajectory.lp_series(2.0)
    t = sol.trajectory.times
    assert np.allclose(l2, l2[0] * np.exp(-rate * t), rtol=1e-10)


def test_zero_data_stays_zero(grid16):
    sol = mild_solve_nse(SpectralField.zero(grid16, "vector"),
                         small_config(grid16))
    assert sol.report.converged
    for _, f in sol.trajectory:
        assert f.max_abs_coeff() == 0.0


def test_small_data_converges_fast(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=0, amplitude=1e-2)
    sol = mild_solve_nse(u0, small_config(grid16))
    assert sol.report.converged
    assert sol.report.iterations <= 5
    assert sol.max_div_residual < 1e-10
    assert sol.residual_doubled < 1e-7


def test_rejects_bad_initial_data(grid16):
    s = random_power_law(grid16, alpha=1.0, seed=1, rank="scalar")
    with pytest.raises(GridError):
        mild_solve_nse(gradient(s), small_config(grid16))


def test_perturbed_reduces_to_direct_for_zero_background(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=2, amplitude=5e-2)
    cfg = small_config(grid16)
    times = cfg.schedule()
    zero_bg = Trajectory(grid16, times,
                         [SpectralField.zero(grid16, "vector")] * times.size)
    direct = mild_solve_nse(u0, cfg)
    pert = mild_solve_perturbed(u0, zero_bg, cfg)
    scale = max(f.max_abs_coeff() for f in direct.trajectory.fields)
    for a, b in zip(direct.trajectory.fields, pert.trajectory.fields):
        assert (a - b).max_abs_coeff() < 1e-10 * scale


def test_perturbed_rejects_schedule_mismatch(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=1e-2)
    cfg = small_config(grid16)
    other = np.linspace(0.0, cfg.horizon, 7)
    bg = Trajectory(grid16, other,
                    [SpectralField.zero(grid16, "vector")] * 7)
    with pytest.raises(QuadratureError):
        mild_solve_perturbed(u0, bg, cfg)


def test_mollified_taylor_green_keeps_exact_decay(grid2d):
    # all active modes share |xi|, so mollification scales the advected
    # factor uniformly and the nonlinearity stays a pure gradient
    tg = taylor_green(grid2d)
    sol = mollified_solve(tg, None, None, 0.5, small_config(grid2d, 0.5))
    assert sol.report.converged
    scale = tg.max_abs_coeff()
    for t, f in sol.trajectory:
        assert (f - heat_evolve(tg, t)).max_abs_coeff() < 1e-12 * scale


def test_mollified_rejects_bad_background(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=4, amplitude=1e-2)
    s = random_power_law(grid16, alpha=1.0, seed=5, rank="scalar")
    with pytest.raises(GridError):
        mollified_solve(u0, None, gradient(s), 0.5, small_config(grid16))
    with pytest.raises(GridError):
        mollified_solve(u0, None, None, 10.0, small_config(grid16))


def test_subcritical_existence_time_scaling(grid16, part16):
    v0 = critical_random(grid16, 4.0, part16, seed=6) * 10.0
    eps = 0.25
    t1 = subcritical_existence_time(v0, 8.0, eps, part16)
    t2 = subcritical_existence_time(v0 * 2.0, 8.0, eps, part16)
    assert t1 < 10.0  # below the cap, so the power law is active
    assert t2 / t1 == pytest.approx(2.0 ** (-2.0 / eps), rel=1e-10)
    zero = SpectralField.zero(grid16, "vector")
    assert subcritical_existence_time(zero, 8.0, eps, part16) == 10.0
    with pytest.raises(ConfigError):
        subcritical_existence_time(v0, 8.0, 0.0, part16)
    with pytest.raises(ConfigError):
        subcritical_existence_time(v0, 8.0, 0.7, part16)  # >= -s_q = 5/8


def test_continuation_completes_on_small_data(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6)
    res = solve_with_continuation(u0, cfg)
    assert res.status == "completed"
    assert res.trajectory.times[-1] == pytest.approx(0.2)
    assert sum(res.segment_horizons) == pytest.approx(0.2)


def test_continuation_flags_violent_data(grid16):
    u0 = random_power_law(grid16, alpha=1.0, seed=8, amplitude=500.0)
    cfg = small_config(grid16, horizon=0.5, n_geometric=6, n_uniform=6,
                       first_exponent=10, max_iter=30)
    res = solve_with_continuation(u0, cfg, step_floor=0.2)
    assert res.status == "blow-up suspected"


def test_continuation_keeps_probe_seed(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=3, probe_seed=1)
    res = solve_with_continuation(u0, cfg)
    assert res.segment_horizons == [0.2]
    assert res.reports[0].gamma == mild_solve_nse(u0, cfg).report.gamma


@pytest.mark.parametrize("case", ["x_x", "x_y", "mollified", "cross", "kato"])
def test_sample_jobs_equal_a_serial_run(grid16, monkeypatch, case):
    # 13 samples: the last job has a partial chunk
    x, y = (np.stack([half_spectrum(grid16, random_power_law(
        grid16, alpha=2.0, seed=seed, amplitude=0.3).coeffs)
        for seed in range(first, first + 13)]) for first in (0, 20))
    times = np.linspace(0.0, 0.3, 13)
    m_rho = Mollifier(3, 0.5).symbol(grid16, grid16.n_half)
    call = {
        "x_x": lambda: _forcing_stack(grid16, x, x),
        "x_y": lambda: _forcing_stack(grid16, x, y),
        "mollified": lambda: _forcing_stack(grid16, x, x, m_rho),
        "cross": lambda: cross_forcing_stack(
            grid16, inverse_transform(grid16, x), y),
        "kato": lambda: kato_stack_norm(grid16, times, x, 4.0),
    }[case]
    monkeypatch.setattr(spectral, "FFT_WORKERS", 2)
    threaded = call()
    monkeypatch.setattr(spectral, "FFT_WORKERS", 1)
    assert np.array_equal(threaded, call())
