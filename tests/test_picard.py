import math

import numpy as np
import pytest

from nselab import (ConfigError, PicardDivergenceError, SolverConfig,
                    mild_solve_nse)
from nselab.families import random_power_law
from nselab.heat import heat_stack
from nselab.picard import (PicardProblem, estimate_constants,
                           propagation_check, solve_picard)
from nselab.solver import (KATO_P, MAX_ITER, PICARD_TOL, _nse_bilinear,
                           _prepare_data, bilinear_constant, kato_stack_norm)


def scalar_problem(a, gamma=1.0):
    return PicardProblem(a=a, linear=None,
                         bilinear=lambda x, y: gamma * x * y,
                         norm=abs, gamma=gamma, l_norm=0.0)


def test_trivial_problem_returns_seed():
    problem = PicardProblem(a=0.7, norm=abs, gamma=0.0, l_norm=0.0)
    report = solve_picard(problem)
    assert report.converged
    assert report.solution == 0.7
    assert report.residual == 0.0


def test_scalar_quadratic_oracle():
    # x = a + g x^2 has root (1 - sqrt(1 - 4 a g)) / (2 g)
    a, g = 0.1, 1.0
    report = solve_picard(scalar_problem(a, g), tol=1e-14)
    exact = (1.0 - math.sqrt(1.0 - 4.0 * a * g)) / (2.0 * g)
    assert report.converged
    assert report.solution == pytest.approx(exact, abs=1e-12)
    assert all(r < 1.0 for r in report.contraction_ratios)
    assert report.bound_holds


def test_solve_reuses_the_last_iterate_norm():
    # the seed's, taken by its step and reused by the margin (L = 0), the
    # increment and the iterate per step, then the residual from the
    # last step: the bound reuses the last iterate norm
    calls = []

    def norm(x):
        calls.append(x)
        return abs(x)

    problem = PicardProblem(a=0.1, bilinear=lambda x, y: x * y, norm=norm,
                            gamma=1.0, l_norm=0.0)
    report = solve_picard(problem, tol=1e-14)
    assert report.converged and report.bound_holds
    assert report.smallness_margin == 0.25 - 0.1
    assert len(calls) == 2 * report.iterations + 2


def test_scalar_divergence_detected():
    # 4 a g > 1: no real fixed point, iteration must be flagged
    with pytest.raises(PicardDivergenceError) as exc:
        solve_picard(scalar_problem(0.5, 1.0))
    assert len(exc.value.norms) > 1


def test_nan_iterate_detected():
    # NaN compares false with every bound, so it must be caught explicitly
    problem = PicardProblem(a=0.1, bilinear=lambda x, y: math.nan,
                            norm=abs, gamma=1.0, l_norm=0.0)
    with pytest.raises(PicardDivergenceError):
        solve_picard(problem)


def test_strict_smallness_gate():
    # cap is 1/(4 g); a = 0.3 violates it even though iteration converges
    with pytest.raises(ConfigError):
        solve_picard(scalar_problem(0.3, 1.0), strict=True)
    report = solve_picard(scalar_problem(0.2, 1.0), strict=True)
    assert report.converged


def test_missing_constants_rejected():
    problem = PicardProblem(a=0.1, bilinear=lambda x, y: x * y, norm=abs)
    with pytest.raises(ConfigError):
        solve_picard(problem)


def test_large_linear_norm_rejected():
    problem = PicardProblem(a=0.1, linear=lambda x: x, norm=abs,
                            gamma=0.0, l_norm=1.0)
    with pytest.raises(ConfigError):
        solve_picard(problem)


def test_estimate_constants_scalar():
    problem = PicardProblem(a=0.1, linear=lambda x: 0.5 * x,
                            bilinear=lambda x, y: x * y, norm=abs,
                            probe=lambda seed: np.random.default_rng(
                                seed).uniform(0.1, 1.0))
    estimate_constants(problem, n_probes=50)
    assert problem.gamma == pytest.approx(1.0)
    assert problem.l_norm == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        estimate_constants(PicardProblem(a=0.1, norm=abs))


def test_known_gamma_builds_only_the_x_probes():
    # a known gamma needs no y probe; y's seed is still drawn, so ||L||
    # sees the same x as in a full run
    seeds = []

    def probe(seed):
        seeds.append(seed)
        return np.random.default_rng(seed).uniform(0.1, 1.0)

    problem = PicardProblem(a=0.1, linear=lambda x: 0.5 * x,
                            bilinear=lambda x, y: x * y,
                            norm=lambda x: abs(x) * (1.0 + x), probe=probe)
    estimate_constants(problem, n_probes=5, seed=3)
    full, seeds[:] = list(seeds), []
    measured = (problem.gamma, problem.l_norm)
    estimate_constants(problem, n_probes=5, seed=3, gamma=measured[0])
    assert len(full) == 10
    assert seeds == full[::2]
    assert (problem.gamma, problem.l_norm) == measured


def test_unmeasured_gamma_builds_only_the_x_probes():
    # gamma is left None, and ||L|| sees the x of a full run
    seeds = []

    def probe(seed):
        seeds.append(seed)
        return np.random.default_rng(seed).uniform(0.1, 1.0)

    bilinear_calls = []
    problem = PicardProblem(a=0.1, linear=lambda x: 0.5 * x,
                            bilinear=lambda x, y: bilinear_calls.append(1)
                            or x * y,
                            norm=lambda x: abs(x) * (1.0 + x), probe=probe)
    estimate_constants(problem, n_probes=5, seed=3)
    full, seeds[:], bilinear_calls[:] = list(seeds), [], []
    l_norm = problem.l_norm
    problem.gamma = None
    estimate_constants(problem, n_probes=5, seed=3, measure_gamma=False)
    assert seeds == full[::2] and bilinear_calls == []
    assert problem.gamma is None and problem.l_norm == l_norm
    # with no linear part nothing is probed
    problem.linear = None
    estimate_constants(problem, n_probes=5, seed=3, measure_gamma=False)
    assert seeds == full[::2]
    assert problem.gamma is None and problem.l_norm == 0.0


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_constants_of_probes_whose_norm_product_is_not_normal(scale):
    # the product of two probe norms underflows to 0 (or overflows to
    # inf) although each norm is positive: once a ZeroDivisionError (or
    # a gain of 0); the norms then divide one at a time
    problem = PicardProblem(a=0.0, linear=lambda x: 0.5 * x,
                            bilinear=lambda x, y: 2.0 * (x / scale) * y,
                            norm=abs, probe=lambda seed: scale * (
                                1.0 + np.random.default_rng(seed).uniform()))
    estimate_constants(problem, n_probes=4)
    assert problem.gamma == pytest.approx(2.0 / scale, rel=1e-15)
    assert problem.l_norm == 0.5


def test_unmeasured_gamma_leaves_the_margin_unknown():
    # no margin, no resolvent of a, no bound; the iterates are those of
    # a measured gamma
    linear_calls = []
    problem = PicardProblem(a=0.05, linear=lambda x: linear_calls.append(1)
                            or 0.5 * x, bilinear=lambda x, y: x * y,
                            norm=abs, gamma=None, l_norm=0.5)
    report = solve_picard(problem, tol=1e-14, max_iter=300)
    assert math.isnan(report.smallness_margin)
    assert report.gamma is None and report.bound_holds is None
    steps = len(linear_calls)
    assert steps == len(report.norms)  # one L per step, none in a resolvent
    problem.gamma = 1.0
    measured = solve_picard(problem, tol=1e-14, max_iter=300)
    assert len(linear_calls) > 2 * steps
    assert measured.smallness_margin > 0 and measured.bound_holds
    assert measured.norms == report.norms and measured.diffs == report.diffs
    assert measured.solution == report.solution
    problem.gamma = None
    with pytest.raises(ConfigError, match="gamma"):
        solve_picard(problem, strict=True)
    problem.l_norm = None
    with pytest.raises(ConfigError):
        solve_picard(problem)


def test_linear_part_resolvent():
    # x = a + l x + g x^2 with l = 0.5: compare against the closed form
    a, l, g = 0.05, 0.5, 1.0
    problem = PicardProblem(a=a, linear=lambda x: l * x,
                            bilinear=lambda x, y: g * x * y,
                            norm=abs, gamma=g, l_norm=l)
    report = solve_picard(problem, tol=1e-14, max_iter=300)
    exact = ((1 - l) - math.sqrt((1 - l) ** 2 - 4 * a * g)) / (2 * g)
    assert report.converged
    assert report.solution == pytest.approx(exact, abs=1e-12)
    assert report.inv_norm_bound == pytest.approx(2.0)


def test_propagation_check_scalar():
    problem = PicardProblem(a=0.05, linear=None,
                            bilinear=lambda x, y: x * y, norm=abs,
                            gamma=1.0, l_norm=0.0,
                            probe=lambda seed: np.random.default_rng(
                                seed).uniform(0.01, 0.1))
    report = solve_picard(problem, tol=1e-14)
    prop = propagation_check(problem, report, e_norm=abs)
    assert prop.holds
    assert prop.eta == pytest.approx(1.0, rel=1e-10)
    assert prop.e_norm_solution <= prop.bound


def test_vector_problem():
    # componentwise quadratic map on a numpy array element
    rng = np.random.default_rng(0)
    a = rng.uniform(0.01, 0.1, size=8)
    problem = PicardProblem(
        a=a, bilinear=lambda x, y: x * y,
        norm=lambda v: float(np.max(np.abs(v))), gamma=1.0, l_norm=0.0)
    report = solve_picard(problem, tol=1e-14)
    exact = (1.0 - np.sqrt(1.0 - 4.0 * a)) / 2.0
    assert np.max(np.abs(report.solution - exact)) < 1e-12


def test_zero_linear_map_is_not_evaluated(grid16):
    # linear=None leaves the term out instead of adding 0 * x: the same
    # iterates bit for bit; the resolvent spends no Kato norm on it, and
    # the seed norm reuses the margin's
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=2)
    sol = mild_solve_nse(u0, cfg)
    gamma = bilinear_constant(cfg)  # the solve measures none
    assert gamma > 0
    times = cfg.schedule()
    band = grid16.band
    a = heat_stack(band, _prepare_data(u0, grid16), times)
    reports, norm_calls = [], []
    for linear in (None, lambda x: 0.0 * x):
        calls = []

        def norm(stack):
            calls.append(1)
            return kato_stack_norm(band, times, stack, KATO_P)

        problem = PicardProblem(a=a, linear=linear,
                                bilinear=_nse_bilinear(band, times),
                                norm=norm, gamma=gamma, l_norm=0.0)
        reports.append(solve_picard(problem, tol=PICARD_TOL,
                                    max_iter=MAX_ITER))
        norm_calls.append(len(calls))
    skipped, zero_map = reports
    assert np.array_equal(skipped.solution, sol.report.solution)
    assert np.array_equal(zero_map.solution, sol.report.solution)
    assert skipped.norms == zero_map.norms == sol.report.norms
    assert skipped.smallness_margin == zero_map.smallness_margin
    assert norm_calls[0] == norm_calls[1] - 2
