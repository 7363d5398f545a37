import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nselab import (ConfigError, PicardDivergenceError, SolverConfig,
                    mild_solve_nse)
from nselab.families import random_power_law
from nselab.heat import heat_stack
from nselab.picard import PicardProblem, estimate_constants, solve_picard
from nselab.solver import (KATO_P, MAX_ITER, PICARD_TOL, _nse_bilinear,
                           _prepare_data, kato_stack_norm)


def scalar_problem(a, gamma=1.0):
    return PicardProblem(a=a, linear=None,
                         bilinear=lambda x, y: gamma * x * y,
                         norm=abs, l_norm=0.0)


def test_trivial_problem_returns_seed():
    problem = PicardProblem(a=0.7, norm=abs, l_norm=0.0)
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


def test_solve_reuses_the_last_iterate_norm():
    # the seed's, taken by its step, the increment and the iterate per
    # step, then the residual from the last step
    calls = []

    def norm(x):
        calls.append(x)
        return abs(x)

    problem = PicardProblem(a=0.1, bilinear=lambda x, y: x * y, norm=norm,
                            l_norm=0.0)
    report = solve_picard(problem, tol=1e-14)
    assert report.converged
    assert len(calls) == 2 * report.iterations + 2


def test_scalar_divergence_detected():
    # 4 a g > 1: no real fixed point, iteration must be flagged
    with pytest.raises(PicardDivergenceError) as exc:
        solve_picard(scalar_problem(0.5, 1.0))
    assert len(exc.value.norms) > 1


def test_nan_iterate_detected():
    # NaN compares false with every bound, so it must be caught explicitly
    problem = PicardProblem(a=0.1, bilinear=lambda x, y: math.nan,
                            norm=abs, l_norm=0.0)
    with pytest.raises(PicardDivergenceError):
        solve_picard(problem)


def test_missing_constants_rejected():
    problem = PicardProblem(a=0.1, bilinear=lambda x, y: x * y, norm=abs)
    with pytest.raises(ConfigError):
        solve_picard(problem)


def test_large_linear_norm_rejected():
    problem = PicardProblem(a=0.1, linear=lambda x: x, norm=abs,
                            l_norm=1.0)
    with pytest.raises(ConfigError):
        solve_picard(problem)


def test_estimate_constants_scalar():
    problem = PicardProblem(a=0.1, linear=lambda x: 0.5 * x,
                            bilinear=lambda x, y: x * y, norm=abs,
                            probe=lambda seed: np.random.default_rng(
                                seed).uniform(0.1, 1.0))
    l_norm = estimate_constants(problem, n_probes=50)
    assert l_norm is problem.l_norm
    assert problem.l_norm == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        estimate_constants(PicardProblem(a=0.1, norm=abs))


def test_unmeasured_gamma_builds_only_the_x_probes():
    # each probe is built from the first seed of a pair drawn from the
    # stream, and no B(x, y) runs
    seeds = []

    def probe(seed):
        seeds.append(seed)
        return np.random.default_rng(seed).uniform(0.1, 1.0)

    bilinear_calls = []
    problem = PicardProblem(a=0.1, linear=lambda x: 0.5 * x,
                            bilinear=lambda x, y: bilinear_calls.append(1)
                            or x * y,
                            norm=lambda x: abs(x) * (1.0 + x), probe=probe)
    l_norm = estimate_constants(problem, n_probes=5, seed=3)
    rng = np.random.default_rng(3)
    stream = [int(rng.integers(0, 2**31 - 1)) for _ in range(10)]
    assert seeds == stream[::2] and bilinear_calls == []
    want = max(problem.norm(0.5 * x) / problem.norm(x)
               for x in map(probe, stream[::2]))
    assert l_norm == problem.l_norm == want
    # with no linear part nothing is probed
    seeds[:] = []
    problem.linear = None
    assert estimate_constants(problem, n_probes=5, seed=3) == 0.0
    assert seeds == [] and bilinear_calls == []
    assert problem.l_norm == 0.0


@pytest.mark.parametrize("scale", [1e-310, 1e200])
def test_linear_norm_of_probes_with_extreme_norms(scale):
    # probe norms near a subnormal 1e-310 or near 1e200: ||L(x)|| / ||x||
    # is one float division, exact for L = 2x, and raises nothing
    problem = PicardProblem(a=0.0, linear=lambda x: 2.0 * x, norm=abs,
                            probe=lambda seed: scale * (
                                1.0 + np.random.default_rng(seed).uniform()))
    assert estimate_constants(problem, n_probes=4) == 2.0
    assert problem.l_norm == 2.0


def test_unmeasured_gamma_leaves_the_margin_unknown():
    # a solve takes no gamma and forms no smallness margin, so no
    # resolvent of a: one L per step; only ||L|| must be measured
    linear_calls = []
    problem = PicardProblem(a=0.05, linear=lambda x: linear_calls.append(1)
                            or 0.5 * x, bilinear=lambda x, y: x * y,
                            norm=abs, l_norm=0.5)
    report = solve_picard(problem, tol=1e-14, max_iter=300)
    assert report.converged
    assert len(linear_calls) == len(report.norms)
    problem.l_norm = None
    with pytest.raises(ConfigError):
        solve_picard(problem)


def test_linear_part_resolvent():
    # x = a + l x + g x^2 with l = 0.5: compare against the closed form
    a, l, g = 0.05, 0.5, 1.0
    problem = PicardProblem(a=a, linear=lambda x: l * x,
                            bilinear=lambda x, y: g * x * y,
                            norm=abs, l_norm=l)
    report = solve_picard(problem, tol=1e-14, max_iter=300)
    exact = ((1 - l) - math.sqrt((1 - l) ** 2 - 4 * a * g)) / (2 * g)
    assert report.converged
    assert report.solution == pytest.approx(exact, abs=1e-12)


def _quadratic(l, g, r):
    """x = a + l x + g x^2 with a set so that 4 a g / (1 - l)^2 = r."""
    a = r * (1.0 - l) ** 2 / (4.0 * g)
    return PicardProblem(a=a, linear=lambda x: l * x,
                         bilinear=lambda x, y: g * x * y, norm=abs, l_norm=l)


@settings(max_examples=500, deadline=None)
@given(l=st.floats(0.0, 0.5), g=st.floats(1e-3, 1e3),
       r=st.floats(1e-12, 0.8))
def test_scalar_engine_reaches_the_root_below_the_threshold(l, g, r):
    # the map contracts near the smaller root x* by l + 2 g x* =
    # 1 - (1 - l) sqrt(1 - r) <= 0.78; x* >= a, so an increment tolerance
    # relative to a bounds the relative error
    problem = _quadratic(l, g, r)
    a = problem.a
    report = solve_picard(problem, tol=1e-13 * a, max_iter=400)
    root = 2.0 * a / ((1.0 - l) + math.sqrt((1.0 - l) ** 2 - 4.0 * a * g))
    assert report.converged
    assert report.solution == pytest.approx(root, rel=1e-10, abs=0.0)


@settings(max_examples=500, deadline=None)
@given(l=st.floats(0.0, 0.5), g=st.floats(1e-3, 1e3),
       r=st.floats(1.5, 1e3))
def test_scalar_engine_diverges_above_the_threshold(l, g, r):
    # r > 1: no real fixed point, and every increment a - (1 - l) x +
    # g x^2 is at least (r - 1)(1 - l)^2 / (4 g) >= 3e-5, far above the
    # tolerance, so the iterates grow until the divergence tests fire
    with pytest.raises(PicardDivergenceError):
        solve_picard(_quadratic(l, g, r), max_iter=400)


def test_vector_problem():
    # componentwise quadratic map on a numpy array element
    rng = np.random.default_rng(0)
    a = rng.uniform(0.01, 0.1, size=8)
    problem = PicardProblem(
        a=a, bilinear=lambda x, y: x * y,
        norm=lambda v: float(np.max(np.abs(v))), l_norm=0.0)
    report = solve_picard(problem, tol=1e-14)
    exact = (1.0 - np.sqrt(1.0 - 4.0 * a)) / 2.0
    assert np.max(np.abs(report.solution - exact)) < 1e-12


def test_zero_linear_map_is_not_evaluated(grid16):
    # linear=None leaves the term out instead of adding 0 * x: the same
    # iterates bit for bit, and the same Kato norms, the zero map's
    # included
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=2)
    sol = mild_solve_nse(u0, cfg)
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
                                norm=norm, l_norm=0.0)
        reports.append(solve_picard(problem, tol=PICARD_TOL,
                                    max_iter=MAX_ITER))
        norm_calls.append(len(calls))
    skipped, zero_map = reports
    assert np.array_equal(skipped.solution, sol.report.solution)
    assert np.array_equal(zero_map.solution, sol.report.solution)
    assert skipped.norms == zero_map.norms == sol.report.norms
    assert norm_calls[0] == norm_calls[1]
