import ast
import math
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nselab import (GridError, Mollifier, QuadratureError, SolverConfig,
                    SpectralField, Trajectory, curl, default_partition,
                    divergence_residual, heat_evolve, make_grid,
                    mild_solve_nse, mild_solve_perturbed, mollified_solve,
                    solver, spectral, solve_with_continuation)
from nselab.errors import ConfigError, PicardDivergenceError
from nselab.families import (abc_flow, random_power_law, taylor_green,
                             taylor_green_decay_rate)
from nselab.besov import block_lp_norms
from nselab import heat, picard
from nselab.heat import duhamel_stack, heat_stack
from nselab.picard import PicardProblem, estimate_constants, solve_picard
from nselab.solver import (KATO_P, MAX_ITER, PICARD_TOL, PROBE_SEED,
                           _cross_linear, nonlinear_forcing,
                           _doubled_residual, _forcing_factors,
                           _forcing_stack, _nse_bilinear, _prepare_data,
                           _step_forcing, kato_stack_norm)
from nselab.spectral import (dealiased_tensor, divergence_residuals,
                             gradient, interpolate_stack, inverse_transform,
                             symmetric_tensor)


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


@pytest.mark.parametrize("box_length", [2.0 * np.pi, 3.0])
def test_abc_flow_is_beltrami_and_exact_heat_decay(box_length):
    # curl u = k u, so u . grad u = grad |u|^2/2 - u x curl u is a gradient,
    # which P removes: the mild solution is the heat flow of the data
    grid = make_grid(3, 16, box_length)
    k = 2.0 * np.pi / box_length
    u0 = abc_flow(grid, 1.0, 0.7, 0.4, amplitude=2.0)
    scale = u0.max_abs_coeff()
    assert divergence_residual(u0) < 1e-15
    assert np.max(np.abs(curl(u0).coeffs - k * u0.coeffs)) < 1e-14 * scale
    sol = mild_solve_nse(u0, small_config(grid, horizon=0.3))
    assert sol.report.converged and sol.report.iterations == 1
    for t, f in sol.trajectory:
        dev = np.max(np.abs(f.coeffs - np.exp(-k * k * t) * u0.coeffs))
        assert dev < 1e-14 * scale


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
    assert np.max(divergence_residuals(sol.trajectory.layout,
                                       sol.trajectory.coeffs, 1)) < 1e-10
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
    sol = mollified_solve(tg, None, 0.5, small_config(grid2d, 0.5))
    assert sol.report.converged
    scale = tg.max_abs_coeff()
    for t, f in sol.trajectory:
        assert (f - heat_evolve(tg, t)).max_abs_coeff() < 1e-12 * scale


def test_mollified_rejects_bad_background(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=4, amplitude=1e-2)
    s = random_power_law(grid16, alpha=1.0, seed=5, rank="scalar")
    with pytest.raises(GridError):
        mollified_solve(u0, gradient(s), 0.5, small_config(grid16))
    with pytest.raises(GridError):
        mollified_solve(u0, None, 10.0, small_config(grid16))


def test_continuation_completes_on_small_data(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6)
    res = solve_with_continuation(u0, cfg)
    assert res.status == "completed"
    assert res.trajectory.times[-1] == pytest.approx(0.2)
    assert sum(res.segment_horizons) == pytest.approx(0.2)


def test_continuation_flags_violent_data(grid16, monkeypatch):
    monkeypatch.setattr(heat, "FIRST_EXPONENT", 10)
    monkeypatch.setattr(solver, "MAX_ITER", 30)
    monkeypatch.setattr(solver, "STEP_FLOOR", 0.2)
    u0 = random_power_law(grid16, alpha=1.0, seed=8, amplitude=500.0)
    cfg = small_config(grid16, horizon=0.5, n_geometric=6, n_uniform=6)
    res = solve_with_continuation(u0, cfg)
    assert res.status == "blow-up suspected"


def test_continuation_keeps_probe_seed(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=3)
    res = solve_with_continuation(u0, cfg)
    assert res.segment_horizons == [0.2]
    # a direct solve probes nothing, so its segment is the one solve
    direct = mild_solve_nse(u0, cfg).report
    assert res.reports[0].norms == direct.norms
    assert res.reports[0].diffs == direct.diffs


def test_one_segment_continuation_holds_its_samples_once(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = small_config(grid16, horizon=0.2, n_geometric=12, n_uniform=12)
    tracemalloc.start()
    try:
        res = solve_with_continuation(u0, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    coeffs = res.trajectory.coeffs
    assert res.segment_horizons == [0.2]
    solution = res.reports[0].solution
    assert np.shares_memory(solution, coeffs)
    assert not solution.flags.writeable
    assert np.array_equal(solution, coeffs)
    # beside the samples, the result holds their forcing, once too
    assert res.forcing.shape == coeffs.shape
    assert coeffs.nbytes + res.forcing.nbytes < held \
        < 1.5 * coeffs.nbytes + res.forcing.nbytes


def test_continuation_reports_are_views_of_the_trajectory(grid16,
                                                         monkeypatch):
    solved = {}
    picard_checked = solver._picard_checked

    def recording(*args, **kwargs):
        out = picard_checked(*args, **kwargs)
        solved[id(out.report)] = out.report.solution.copy()
        return out

    monkeypatch.setattr(solver, "_picard_checked", recording)
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5.0)
    monkeypatch.setattr(solver, "MAX_ITER", 6)
    monkeypatch.setattr(solver, "STEP_FLOOR", 0.01)
    cfg = small_config(grid16, horizon=0.2, n_geometric=4, n_uniform=4)
    res = solve_with_continuation(u0, cfg)
    assert res.status == "completed" and len(res.segment_horizons) > 1
    coeffs = res.trajectory.coeffs
    start = 0
    for rep in res.reports:
        own = solved[id(rep)]
        # from the previous segment's last sample, which seeded this one
        assert np.array_equal(rep.solution, coeffs[start:start + len(own)])
        assert np.array_equal(rep.solution, own)
        assert np.shares_memory(rep.solution, coeffs)
        assert not rep.solution.flags.writeable
        start += len(own) - 1
    assert start == len(coeffs) - 1


def test_continuation_checks_data_once_and_restarts_on_the_band(
        monkeypatch):
    checked, scattered = [], []
    check_flow, scatter = solver.check_flow, spectral.Band.scatter

    def counting_check(grid, field, what):
        checked.append(what)
        return check_flow(grid, field, what)

    def counting_scatter(band, block):
        scattered.append(block.shape)
        return scatter(band, block)

    monkeypatch.setattr(solver, "check_flow", counting_check)
    monkeypatch.setattr(spectral.Band, "scatter", counting_scatter)
    grid = make_grid(2, 16, 2.0 * np.pi)
    u0 = random_power_law(grid, alpha=2.0, seed=3, amplitude=60.0)
    monkeypatch.setattr(solver, "STEP_FLOOR", 1e-3)
    cfg = small_config(grid, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=2)
    res = solve_with_continuation(u0, cfg)
    assert res.status == "completed" and len(res.segment_horizons) == 4
    assert checked == ["initial data"]
    assert scattered == []


def test_continuation_refuses_explicit_times(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=1, amplitude=1e-2)
    cfg = small_config(grid16, horizon=0.2, times=np.linspace(0.0, 0.2, 9))
    with pytest.raises(ConfigError, match="no explicit times"):
        solve_with_continuation(u0, cfg)


@pytest.mark.parametrize("case", ["x_x", "x_y", "mollified", "cross", "fused",
                                  "mollified_cross", "kato", "blocks"])
def test_sample_jobs_equal_a_serial_run(grid16, monkeypatch, case):
    # 13 samples: the last job has a partial chunk
    x, y = (np.stack([random_power_law(
        grid16, alpha=2.0, seed=seed, amplitude=0.3).coeffs
        for seed in range(first, first + 13)]) for first in (0, 20))
    times = np.linspace(0.0, 0.3, 13)
    band = grid16.band
    xb, yb = band.gather(x), band.gather(y)
    m_rho = band.gather(Mollifier(3, 0.5).symbol(grid16))
    px = inverse_transform(grid16, x)
    call = {
        "x_x": lambda: _step_forcing(band, xb, None, None),
        "x_y": lambda: _forcing_stack(band, xb, lambda part, p: (
            dealiased_tensor(band, p, inverse_transform(band, yb[part])))),
        "mollified": lambda: _step_forcing(band, xb, None, m_rho),
        "cross": lambda: _forcing_stack(band, yb, lambda part, py: (
            symmetric_tensor(band, px[part], py))),
        "fused": lambda: _step_forcing(band, yb, px, None),
        "mollified_cross": lambda: _step_forcing(band, yb, px, m_rho),
        "kato": lambda: kato_stack_norm(grid16, times, x, 4.0),
        "blocks": lambda: block_lp_norms(grid16, x, default_partition(grid16),
                                         4.0, 1),
    }[case]
    monkeypatch.setattr(spectral, "FFT_WORKERS", 2)
    threaded = call()
    monkeypatch.setattr(spectral, "FFT_WORKERS", 1)
    assert np.array_equal(threaded, call())


def test_one_forcing_job():
    # every forcing, the step's, the probe's and the resolvent's, is a
    # tensor handed to _forcing_stack, the solver's only sample job
    with open(solver.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    callers = [top.name for top in tree.body
               if isinstance(top, ast.FunctionDef)
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and ast.unparse(node.func).split(".")[-1] == "map_samples"]
    assert callers == ["_forcing_stack"]
    assert not hasattr(solver, "cross_forcing_stack")


def test_only_the_solver_builds_a_forcing():
    # a run's background, mollifier symbol and nonlinearity are resolved
    # in solver.py alone; the ledger asks it through nonlinear_forcing
    src = os.path.dirname(solver.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "solver.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            ref = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, ast.alias) else None
            if ref in ("_forcing_factors", "_step_forcing") or (
                    ref == "symbol" and name != "spectral.py"):
                offenders.append(f"{name}:{getattr(node, 'lineno', 0)} {ref}")
    assert offenders == []


def _logged_probes_and_bilinear(monkeypatch):
    """Log the seed of every probe built and, per B built, its schedule,
    mollifier symbol and number of B(x, y) calls."""
    log = {"seeds": [], "bilinear": []}
    make_probe, make_bilinear = solver._make_probe, solver._nse_bilinear

    def logged_probe(*args):
        probe = make_probe(*args)

        def call(seed):
            log["seeds"].append(seed)
            return probe(seed)

        return call

    def counted_bilinear(band, times, m_rho=None):
        bilinear = make_bilinear(band, times, m_rho)
        entry = {"times": times, "m_rho": m_rho, "calls": 0}
        log["bilinear"].append(entry)

        def call(x, y, series=None):
            entry["calls"] += 1
            return bilinear(x, y, series)

        return call

    monkeypatch.setattr(solver, "_make_probe", logged_probe)
    monkeypatch.setattr(solver, "_nse_bilinear", counted_bilinear)
    return log


def _bilinear_calls(log):
    return sum(entry["calls"] for entry in log["bilinear"])


def test_perturbed_solve_reuses_the_direct_gamma(grid16, monkeypatch):
    # no solve measures gamma, so a perturbed solve has none to reuse: the
    # direct and mollified solves build no probe, and a perturbed solve
    # builds the x of each probe pair (y's seed is drawn but not built)
    # and runs L(x), never B(x, y); a repeat gives the same bits
    cfg = small_config(grid16, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=3)
    log = _logged_probes_and_bilinear(monkeypatch)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    v = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=4,
                                        amplitude=0.05), cfg)
    mollified = mollified_solve(u0, None, 0.5, cfg)
    assert log["seeds"] == [] and _bilinear_calls(log) == 0
    w = mild_solve_perturbed(u0, v.trajectory, cfg)
    rng = np.random.default_rng(PROBE_SEED)
    pair_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(6)]
    assert log["seeds"] == pair_seeds[::2] and _bilinear_calls(log) == 0
    for sol in (v, mollified, w):
        assert sol.report.converged
    again = mild_solve_perturbed(u0, v.trajectory, cfg)
    assert again.report.norms == w.report.norms
    assert np.array_equal(again.report.solution, w.report.solution)
    # bilinear_constant probes each pair's x and y with one B(x, y)
    log["seeds"], log["bilinear"] = [], []
    assert solver.bilinear_constant(cfg) > 0
    assert log["seeds"] == pair_seeds and _bilinear_calls(log) == 3


def test_gamma_cache_key(grid16, monkeypatch):
    # gamma is kept nowhere: bilinear_constant measures it afresh on every
    # call from exactly what a cache key would hold (the probe count, the
    # schedule and rho), and equal keys give equal bits
    log = _logged_probes_and_bilinear(monkeypatch)
    base = dict(horizon=0.2, n_geometric=2, n_uniform=2, measure_probes=2)
    gamma = solver.bilinear_constant(small_config(grid16, **base))
    assert solver.bilinear_constant(small_config(grid16, **base)) == gamma
    assert [entry["calls"] for entry in log["bilinear"]] == [2, 2]
    moved = small_config(grid16, **base).schedule()
    moved[1:] = np.nextafter(moved[1:], 1.0)  # a schedule starts at 0
    variants = [dict(base, measure_probes=3),
                dict(base, n_uniform=3), dict(base, times=moved)]
    for kw in variants:
        log["bilinear"] = []
        cfg = small_config(grid16, **kw)
        solver.bilinear_constant(cfg)
        [entry] = log["bilinear"]
        assert entry["calls"] == cfg.measure_probes
        assert np.array_equal(entry["times"], cfg.schedule())
        assert entry["m_rho"] is None
    symbols = []
    for rho in (0.5, 0.25, 0.25):
        log["bilinear"] = []
        solver.bilinear_constant(small_config(grid16, **base), rho)
        [entry] = log["bilinear"]
        assert entry["calls"] == 2
        symbols.append(entry["m_rho"])
    assert not np.array_equal(symbols[0], symbols[1])
    assert np.array_equal(symbols[1], symbols[2])
    gammas = [solver.bilinear_constant(small_config(grid16, **base), 0.25)
              for _ in range(2)]
    assert gammas[0] == gammas[1] > 0


@pytest.mark.parametrize("horizon", [9.5e-4, 1e-3])
def test_bilinear_constant_of_probes_with_tiny_norms(monkeypatch, horizon):
    # on a 1e-5 box the heat flow leaves probe norms of about 1e-154
    # (1e-163 at the longer horizon), so the product of a pair's norms is
    # subnormal (0, once a ZeroDivisionError); gamma is the largest gain
    # all the same (inf where it exceeds the largest float)
    cfg = SolverConfig(grid=make_grid(2, 8, 1e-5), horizon=horizon,
                       n_geometric=4, n_uniform=4, measure_probes=2)
    logs = []
    gain = picard._gain

    def logged_gain(problem, value, *norms):
        logs.append(math.log(problem.norm(value))
                    - sum(math.log(n) for n in norms))
        return gain(problem, value, *norms)

    monkeypatch.setattr(picard, "_gain", logged_gain)
    gamma = solver.bilinear_constant(cfg)
    assert len(logs) == 2
    top = max(logs)
    if top < math.log(sys.float_info.max):
        assert gamma == pytest.approx(math.exp(top), rel=1e-13)
    else:
        assert gamma == math.inf


def test_perturbed_solve_with_a_large_linear_part_is_refused(grid16):
    # ||L|| >= 1 fails the resolvent bound, so the solve does not start
    cfg = small_config(grid16, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=2)
    v = random_power_law(grid16, alpha=2.0, seed=4, amplitude=300.0)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    with pytest.raises(ConfigError, match="linear operator norm"):
        mild_solve_perturbed(u0, v, cfg)


def test_fused_step_matches_linear_plus_bilinear(grid16):
    band = grid16.band
    v, x = (band.gather(np.stack([random_power_law(
        grid16, alpha=2.0, seed=seed, amplitude=0.3).coeffs
        for seed in range(first, first + 6)])) for first in (0, 10))
    times = np.array([0.0, 0.01, 0.03, 0.07, 0.15, 0.3])
    pv = inverse_transform(band, v)
    want = _cross_linear(band, times, pv)(x) \
        + _nse_bilinear(band, times)(x, x)
    got = -duhamel_stack(times, _step_forcing(band, x, pv, None), band)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _one_pass_residual(grid, times, stack, c0, forcing):
    """The doubled-schedule residual over the whole refined stack at once."""
    fine_times = np.sort(np.concatenate(
        [times, 0.5 * (times[:-1] + times[1:])]))
    fine = interpolate_stack(times, stack, fine_times)
    rhs = -duhamel_stack(fine_times, forcing(fine_times, fine), grid)
    rhs += heat_stack(grid, c0, fine_times)
    keep = np.isin(fine_times, times)
    return kato_stack_norm(grid, fine_times[keep], (fine - rhs)[keep], KATO_P)


@pytest.mark.parametrize("kind", ["direct", "perturbed"])
def test_streamed_residual_equals_one_pass(grid16, monkeypatch, kind):
    # 13 samples refine to 25, which is not a whole number of 8-sample chunks
    monkeypatch.setattr(spectral, "FFT_WORKERS", 2)
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=2)
    times = cfg.schedule()
    assert (2 * times.size - 1) % (spectral.SAMPLE_CHUNK * 2) != 0
    v0 = random_power_law(grid16, alpha=2.0, seed=4, amplitude=0.5)
    sol = mild_solve_nse(v0, cfg)
    band = grid16.band
    if kind == "direct":
        u0 = v0

        def forcing(fine_times, fine):
            return band.scatter(_step_forcing(band, band.gather(fine), None,
                                              None))
    else:
        u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.5)
        v_stack = band.scatter(sol.trajectory.coeffs)
        sol = mild_solve_perturbed(u0, sol.trajectory, cfg)

        def forcing(fine_times, fine):
            pv = inverse_transform(grid16, interpolate_stack(
                times, v_stack, fine_times))
            return band.scatter(_step_forcing(band, band.gather(fine), pv,
                                              None))
    want = _one_pass_residual(grid16, times,
                              band.scatter(sol.report.solution),
                              grid16.band.scatter(_prepare_data(u0, grid16)),
                              forcing)
    assert 0 < want < 1e-4
    assert abs(sol.residual_doubled - want) <= 1e-13 * want


def test_streamed_residual_memory_does_not_grow_with_the_schedule(
        grid16, monkeypatch):
    monkeypatch.setattr(spectral, "FFT_WORKERS", 2)
    band = grid16.band
    c0 = _prepare_data(
        random_power_law(grid16, alpha=2.0, seed=4, amplitude=0.5), grid16)

    def forcing(fine_times, fine):
        return _step_forcing(band, fine, None, None)

    peaks = []
    for n_samples in (25, 49):
        times = np.linspace(0.0, 0.2, n_samples)
        stack = heat_stack(band, c0, times)
        g = forcing(times, stack)
        tracemalloc.start()
        try:
            _doubled_residual(band, times, stack, stack, g, forcing)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0]


@pytest.mark.parametrize("kind", ["direct", "perturbed", "mollified"])
def test_solution_forcing_is_that_of_its_trajectory(grid16, kind):
    # the last Picard step's forcing is kept, bit for bit the one that
    # the ledger would form from the trajectory
    cfg = small_config(grid16, horizon=0.2, n_geometric=4, n_uniform=4)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    v = None if kind == "direct" else mild_solve_nse(random_power_law(
        grid16, alpha=2.0, seed=4, amplitude=0.3), cfg).trajectory
    rho = 0.5 if kind == "mollified" else None
    sol = mild_solve_nse(u0, cfg) if kind == "direct" else \
        mollified_solve(u0, v, rho, cfg) if rho else \
        mild_solve_perturbed(u0, v, cfg)
    assert sol.report.converged
    assert not sol.forcing.flags.writeable
    assert np.array_equal(sol.forcing,
                          nonlinear_forcing(sol.trajectory, v, rho))


@pytest.mark.parametrize("amplitude, n_segments", [(5.0, 1), (60.0, 4)],
                         ids=["one-segment", "several"])
def test_continuation_keeps_the_forcing_of_one_segment(amplitude, n_segments,
                                                       monkeypatch):
    # several segments' forcings are not held: the ledger forms theirs
    monkeypatch.setattr(solver, "STEP_FLOOR", 1e-3)
    grid = make_grid(2, 16, 2.0 * np.pi)
    u0 = random_power_law(grid, alpha=2.0, seed=3, amplitude=amplitude)
    cfg = small_config(grid, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=2)
    res = solve_with_continuation(u0, cfg)
    assert len(res.segment_horizons) == n_segments
    if n_segments > 1:
        assert res.forcing is None
    else:
        assert not res.forcing.flags.writeable
        assert np.array_equal(res.forcing,
                              nonlinear_forcing(res.trajectory))


@pytest.mark.parametrize("amplitude, n_segments", [(5.0, 1), (60.0, 4)],
                         ids=["one-segment", "several"])
def test_continuation_stitches_like_concatenation(amplitude, n_segments,
                                                  monkeypatch):
    monkeypatch.setattr(solver, "STEP_FLOOR", 1e-3)
    grid = make_grid(2, 16, 2.0 * np.pi)
    u0 = random_power_law(grid, alpha=2.0, seed=3, amplitude=amplitude)
    cfg = small_config(grid, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=2)
    res = solve_with_continuation(u0, cfg)
    assert res.status == "completed"
    assert len(res.segment_horizons) == n_segments
    # replay the converged segments and concatenate their trajectories
    times, stacks = [np.array([0.0])], [_prepare_data(u0, grid)[None]]
    residuals = []
    t0, current = 0.0, u0
    for step in res.segment_horizons:
        sol = mild_solve_nse(current, replace(cfg, horizon=step))
        times.append(sol.trajectory.times[1:] + t0)
        stacks.append(sol.trajectory.coeffs[1:])
        residuals.append(sol.residual_doubled)
        current = sol.trajectory[-1]
        t0 += step
    assert np.array_equal(res.trajectory.times, np.concatenate(times))
    assert np.array_equal(res.trajectory.coeffs, np.concatenate(stacks))
    # each segment's doubled residual is kept, and the largest reported
    assert res.residual_doubled == max(residuals)
    assert 0 < res.residual_doubled < np.inf


@pytest.mark.parametrize("times", [
    [0.0], [0.0, 0.1, np.nan], [0.0, 0.1, np.inf], [0.05, 0.1, 0.2],
    [0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [[0.0, 0.1]]],
    ids=["one-sample", "nan", "inf", "late-start", "decreasing", "repeated",
         "two-dimensional"])
def test_solver_schedule_is_checked(grid16, times):
    cfg = small_config(grid16, horizon=0.2, times=np.array(times))
    with pytest.raises(QuadratureError):
        mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=1), cfg)


@pytest.mark.parametrize("n_geometric, n_uniform", [(8, 0), (8, -1), (-1, 8)])
def test_generated_schedule_ends_at_the_horizon(grid16, n_geometric,
                                                n_uniform):
    with pytest.raises(QuadratureError):
        small_config(grid16, horizon=0.2, n_geometric=n_geometric,
                     n_uniform=n_uniform).schedule()


def _captured_problems(monkeypatch):
    """The PicardProblem of every solve, as ``solve_picard`` receives it."""
    problems = []
    solve = solver.solve_picard

    def capture(problem, **kw):
        problems.append(problem)
        return solve(problem, **kw)

    monkeypatch.setattr(solver, "solve_picard", capture)
    return problems


def test_mollified_solve_around_a_background(grid16, monkeypatch):
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=2)
    v = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=4,
                                        amplitude=0.3), cfg).trajectory
    problems = _captured_problems(monkeypatch)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    sol = mollified_solve(u0, v, 0.5, cfg)
    assert sol.report.converged
    assert 0 < sol.residual_doubled < 1e-5
    # its step is L + B_rho, the coupling unmollified
    problem, = problems
    x = sol.report.solution
    want = problem.linear(x) + problem.bilinear(x, x)
    assert np.max(np.abs(problem.step(x)[0] - want)) \
        <= 1e-13 * np.max(np.abs(want))
    band = grid16.band
    m_rho = band.gather(Mollifier(3, 0.5).symbol(grid16))
    pv = inverse_transform(band, v.coeffs)
    want = _cross_linear(band, cfg.schedule(), pv)(x) \
        + _nse_bilinear(band, cfg.schedule(), m_rho)(x, x)
    assert np.max(np.abs(problem.step(x)[0] - want)) \
        <= 1e-13 * np.max(np.abs(want))


def test_field_background_is_a_view_of_the_field(grid16):
    cfg = small_config(grid16, horizon=0.2, n_geometric=2, n_uniform=2)
    times = cfg.schedule()
    v = random_power_law(grid16, alpha=2.0, seed=4, amplitude=0.1)
    # checked and transformed once, then spread over the schedule
    tracemalloc.start()
    try:
        pv, m_rho = _forcing_factors(grid16, times, v, None)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert m_rho is None
    assert pv.shape == (times.size, 3) + grid16.shape
    assert pv.strides[0] == 0 and not pv.flags.writeable
    assert held < 2 * pv[0].nbytes
    assert np.array_equal(pv[-1], v.to_physical())
    # a field background solves as the trajectory that repeats it
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.1)
    repeated = Trajectory(grid16, times, [v] * times.size)
    for solve in (mild_solve_perturbed,
                  lambda u, bg, c: mollified_solve(u, bg, 0.5, c)):
        a, b = solve(u0, v, cfg), solve(u0, repeated, cfg)
        assert np.array_equal(a.report.solution, b.report.solution)
        assert a.residual_doubled == b.residual_doubled


def test_every_solver_background_is_divergence_free(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=4, amplitude=1e-2)
    cfg = small_config(grid16, horizon=0.2, n_geometric=2, n_uniform=2)
    bad = gradient(random_power_law(grid16, alpha=1.0, seed=5, rank="scalar"))
    times = cfg.schedule()
    for bg in (bad, Trajectory(grid16, times, [bad] * times.size)):
        with pytest.raises(GridError, match="divergence-free"):
            mild_solve_perturbed(u0, bg, cfg)
        with pytest.raises(GridError, match="divergence-free"):
            mollified_solve(u0, bg, 0.5, cfg)
    other_grid = SpectralField.zero(make_grid(3, 8, 2.0 * np.pi), "vector")
    with pytest.raises(GridError, match="vector field on the grid"):
        mild_solve_perturbed(u0, other_grid, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_solver_refuses_non_finite_flows(grid16, bad):
    cfg = small_config(grid16, horizon=0.2, n_geometric=2, n_uniform=2)
    times = cfg.schedule()
    good = random_power_law(grid16, alpha=2.0, seed=4, amplitude=1e-2)
    c = good.coeffs.copy()
    c[0, 1, 2, 3] = bad
    flow = good.with_coeffs(c)
    for solve in (lambda u: mild_solve_nse(u, cfg),
                  lambda u: mild_solve_perturbed(u, good, cfg),
                  lambda u: mollified_solve(u, None, 0.5, cfg)):
        with pytest.raises(GridError, match="finite"):
            solve(flow)
    for bg in (flow, Trajectory(grid16, times, [flow] * times.size)):
        with pytest.raises(GridError, match="finite"):
            mild_solve_perturbed(good, bg, cfg)
        with pytest.raises(GridError, match="finite"):
            mollified_solve(good, bg, 0.5, cfg)


def test_continuation_covers_a_tiny_horizon(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = small_config(grid16, horizon=1e-13, n_geometric=2, n_uniform=2)
    res = solve_with_continuation(u0, cfg)
    assert res.status == "completed"
    assert res.segment_horizons == [1e-13]
    assert res.trajectory.times[-1] == 1e-13


def _composed(problem, step=None):
    """``problem`` given only its operators and norm (and ``step``): every
    norm taken by ``norm``, none from an operator's transforms."""
    return PicardProblem(a=problem.a, linear=problem.linear,
                         bilinear=problem.bilinear, norm=problem.norm,
                         probe=problem.probe, step=step)


@pytest.mark.parametrize("case", ["direct", "perturbed", "perturbed_cold",
                                  "mollified"])
def test_forcing_norms_equal_the_composed_path(grid16, monkeypatch, case):
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=3)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    rho = 0.5 if case == "mollified" else None
    if case.startswith("perturbed"):
        v = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=4,
                                            amplitude=0.05), cfg).trajectory
        if case == "perturbed":
            # a gamma measured before leaves nothing that the solve reads
            solver.bilinear_constant(cfg)
    problems = _captured_problems(monkeypatch)
    report = {"direct": lambda: mild_solve_nse(u0, cfg),
              "perturbed": lambda: mild_solve_perturbed(u0, v, cfg),
              "perturbed_cold": lambda: mild_solve_perturbed(u0, v, cfg),
              "mollified": lambda: mollified_solve(u0, None, rho, cfg),
              }[case]().report
    problem, = problems
    # around a background the solver's fused forcing differs from
    # L(x) + B(x, x) in the last bits, so there the reference keeps that
    # forcing and takes only its norm apart
    step = None if problem.linear is None else (
        lambda x: (problem.step(x)[0], problem.norm(x)))
    ref = _composed(problem, step)
    gamma = estimate_constants(ref, n_probes=cfg.measure_probes,
                               seed=PROBE_SEED)
    # gamma by bilinear_constant, whose norms come from B's transforms
    assert gamma == solver.bilinear_constant(cfg, rho) > 0
    assert ref.l_norm == problem.l_norm
    assert (ref.l_norm > 0) == (problem.linear is not None)
    want = solve_picard(ref, tol=PICARD_TOL, max_iter=MAX_ITER)
    assert report.converged and report.iterations == want.iterations
    assert report.norms == want.norms and report.diffs == want.diffs
    assert report.residual == want.residual
    assert np.array_equal(report.solution, want.solution)


@pytest.mark.parametrize("kind", ["direct", "perturbed", "mollified"])
def test_gamma_reaches_no_output(grid16, kind):
    # a solve measures no gamma and keeps none: one solved after
    # bilinear_constant has measured it has the same solution, history
    # and residuals bit for bit
    cfg = small_config(grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=3)
    u0 = random_power_law(grid16, alpha=2.0, seed=5, amplitude=0.3)
    rho = 0.5 if kind == "mollified" else None
    v = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=4,
                                        amplitude=0.05), cfg).trajectory
    solve = {"direct": lambda: mild_solve_nse(u0, cfg),
             "perturbed": lambda: mild_solve_perturbed(u0, v, cfg),
             "mollified": lambda: mollified_solve(u0, None, rho, cfg)}[kind]
    plain = solve()
    assert solver.bilinear_constant(cfg, rho) > 0
    measured = solve()
    assert np.array_equal(plain.report.solution, measured.report.solution)
    assert plain.report.norms == measured.report.norms
    assert plain.report.diffs == measured.report.diffs
    assert plain.report.residual == measured.report.residual
    assert plain.residual_doubled == measured.residual_doubled


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [300.0, 1e100])
def test_diverging_solve_keeps_its_history(grid16, monkeypatch, amplitude):
    # 300: three increment increases in a row.  1e100: the first iterate
    # is past the blow-up limit, and stepping it would overflow
    cfg = small_config(grid16, n_geometric=6, n_uniform=6, measure_probes=2)
    problems = _captured_problems(monkeypatch)
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=amplitude)
    with pytest.raises(PicardDivergenceError) as got:
        mild_solve_nse(u0, cfg)
    problem, = problems
    ref = _composed(problem)
    ref.l_norm = problem.l_norm
    with pytest.raises(PicardDivergenceError) as want:
        solve_picard(ref, tol=PICARD_TOL, max_iter=MAX_ITER)
    assert got.value.norms == want.value.norms
    assert got.value.diffs == want.value.diffs
    assert len(got.value.norms) == len(got.value.diffs) + 1 > 1


def _per_stage(monkeypatch, cfg, run, trace_memory=False):
    """Inverse component transforms per sample made inside
    ``estimate_constants`` and ``solve_picard`` during ``run()``, on one
    thread, and with ``trace_memory`` each stage's tracemalloc peak in
    units of one coefficient stack on ``cfg``'s schedule; and the
    result of ``run()``."""
    monkeypatch.setattr(spectral, "FFT_WORKERS", 1)
    samples = cfg.schedule().size
    band = cfg.grid.band
    stack_bytes = samples * cfg.grid.dim * band.xi_sq.size \
        * np.dtype(complex).itemsize
    stage = [None]
    counts = {"estimate_constants": 0, "solve_picard": 0}
    peaks = {}
    inverse = spectral.inverse_transform

    def counted(grid, coeffs):
        if stage[0] is not None:
            counts[stage[0]] += coeffs.size // grid.xi_sq.size
        return inverse(grid, coeffs)

    def staged(name):
        call_stage = getattr(solver, name)

        def call(problem, **kw):
            stage[0] = name
            if trace_memory:
                tracemalloc.start()
            try:
                return call_stage(problem, **kw)
            finally:
                stage[0] = None
                if trace_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[name] = peak / stack_bytes

        return call

    for module in (spectral, solver):
        monkeypatch.setattr(module, "inverse_transform", counted)
    for name in counts:
        monkeypatch.setattr(solver, name, staged(name))
    result = run()
    return {k: n / samples for k, n in counts.items()}, peaks, result


def test_each_iterate_and_probe_is_transformed_once_per_use(grid16,
                                                            monkeypatch):
    # per sample: a solve transforms the seed and each iterate once in
    # its step, which gives its norm, and each increment once; the direct
    # and mollified solves probe nothing
    cfg = SolverConfig(grid=grid16, horizon=0.3, measure_probes=4)
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    counts, _, sol = _per_stage(monkeypatch, cfg,
                                lambda: mild_solve_nse(u0, cfg))
    k = sol.report.iterations
    assert k == 4
    assert counts == {"estimate_constants": 0, "solve_picard": 6 + 6 * k}
    # mollified, a step transforms x and (x)_rho
    counts, _, sol = _per_stage(monkeypatch, cfg,
                                lambda: mollified_solve(u0, None, 0.5, cfg))
    k = sol.report.iterations
    assert counts == {"estimate_constants": 0, "solve_picard": 9 + 9 * k}
    # perturbed, a probe transforms x once, in L(x), and L(x) for its
    # norm; the step transforms only x, the background being physical,
    # and no resolvent of the seed is formed
    v = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=4,
                                        amplitude=0.05), cfg).trajectory
    counts, _, sol = _per_stage(monkeypatch, cfg,
                                lambda: mild_solve_perturbed(u0, v, cfg))
    k = sol.report.iterations
    assert counts == {"estimate_constants": 4 * 6, "solve_picard": 6 + 6 * k}
    # gamma: a probe pair transforms x and y once, in B(x, y), and
    # B(x, y) for its norm; mollified, B transforms (y)_rho, so y is
    # transformed once more for its own norm
    for rho, per_pair in ((None, 9), (0.5, 12)):
        counts, _, _ = _per_stage(
            monkeypatch, cfg, lambda: solver.bilinear_constant(cfg, rho))
        assert counts == {"estimate_constants": 4 * per_pair,
                          "solve_picard": 0}


def test_probing_and_iterating_hold_few_stacks(grid16, monkeypatch):
    # holding a probe's B(x, y) or L(x), or the previous iterate, across
    # the next allocation adds a whole stack to these peaks
    cfg = SolverConfig(grid=grid16, horizon=0.3, measure_probes=4)
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    _, peaks, _ = _per_stage(monkeypatch, cfg,
                             lambda: mild_solve_nse(u0, cfg),
                             trace_memory=True)
    assert "estimate_constants" not in peaks
    assert peaks["solve_picard"] <= 3.5
    _, peaks, _ = _per_stage(monkeypatch, cfg,
                             lambda: solver.bilinear_constant(cfg),
                             trace_memory=True)
    assert peaks["estimate_constants"] <= 4.5
    # a perturbed solve's probing holds x, L(x) and L's forcing
    v = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=4,
                                        amplitude=0.05), cfg).trajectory
    _, peaks, _ = _per_stage(monkeypatch, cfg,
                             lambda: mild_solve_perturbed(u0, v, cfg),
                             trace_memory=True)
    assert peaks["estimate_constants"] <= 3.5


def test_solver_stacks_are_band_blocks(grid16, monkeypatch):
    problems = _captured_problems(monkeypatch)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=2)
    sol = mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=3,
                                          amplitude=0.3), cfg)
    problem, = problems
    samples = cfg.schedule().size
    assert problem.a.shape == (samples, 3) + grid16.band.xi_sq.shape
    assert problem.probe(5).shape == problem.a.shape
    stack = sol.report.solution
    assert stack.shape == problem.a.shape
    assert sol.trajectory.layout == grid16.band
    assert not stack.flags.writeable
    assert np.shares_memory(stack, sol.trajectory.coeffs)
    mask = np.all(3 * np.abs(grid16.k_int) < grid16.n, axis=0)
    assert not np.any(grid16.band.scatter(stack)[..., ~mask])


def _out_of_place(problem, tol, max_iter):
    """``solve_picard``'s iteration with every sum and difference a new
    element: (solution, norms, diffs, residual)."""
    x = problem.a
    f, norm = problem.step_and_norm(x)
    norms, diffs = [norm], []
    for _ in range(max_iter):
        x_next = problem.a + f
        diffs.append(problem.norm(x_next - x))
        x = x_next
        f, norm = problem.step_and_norm(x)
        norms.append(norm)
        if diffs[-1] < tol:
            break
    return x, norms, diffs, problem.norm(x - (problem.a + f))


def _float_problem():
    return PicardProblem(a=0.3, linear=lambda x: 0.1 * x,
                         bilinear=lambda x, y: -0.5 * x * y, norm=abs,
                         l_norm=0.1)


def _stack_problem(grid16, monkeypatch):
    problems = _captured_problems(monkeypatch)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=2)
    mild_solve_nse(random_power_law(grid16, alpha=2.0, seed=5,
                                    amplitude=0.3), cfg)
    return problems[0]


@pytest.mark.parametrize("kind", ["float", "stack"])
def test_in_place_iteration_equals_the_out_of_place_one(grid16, monkeypatch,
                                                        kind):
    problem = _float_problem() if kind == "float" \
        else _stack_problem(grid16, monkeypatch)
    seed = np.copy(problem.a)
    report = solve_picard(problem, tol=PICARD_TOL, max_iter=60)
    assert report.converged and report.iterations > 2
    x, norms, diffs, residual = _out_of_place(problem, PICARD_TOL, 60)
    assert report.norms == norms and report.diffs == diffs
    assert report.residual == residual
    assert np.array_equal(report.solution, x)
    # the seed is never written over
    assert np.array_equal(problem.a, seed)
