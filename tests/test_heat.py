import math
import warnings

import numpy as np
import pytest

from nselab import (ExponentError, QuadratureError, RankError, Trajectory,
                    duhamel_integral, duhamel_trajectory, heat_evolve,
                    heat_trajectory, oseen_apply, projected_divergence,
                    time_schedule, verify_kato_estimate,
                    verify_smoothing_derivatives)
from nselab.besov import check_times, lp_block
from nselab.families import random_power_law, single_mode
from nselab.heat import _pl_weights, check_kato_exponents, check_schedule
from nselab.spectral import SpectralField, dealias_product, divergence_residual


def test_heat_identity_and_single_mode(grid16):
    f = single_mode(grid16, (2, 0, 0), (0.0, 1.0, 0.0))
    assert (heat_evolve(f, 0.0) - f).max_abs_coeff() == 0.0
    g = heat_evolve(f, 0.25)
    assert g.coeffs[1, 2, 0, 0] == pytest.approx(
        f.coeffs[1, 2, 0, 0] * math.exp(-1.0))
    with pytest.raises(QuadratureError):
        heat_evolve(f, -0.1)


def test_semigroup_law(grid16):
    f = random_power_law(grid16, alpha=1.0, seed=0)
    a = heat_evolve(heat_evolve(f, 0.3), 0.4)
    b = heat_evolve(f, 0.7)
    assert (a - b).max_abs_coeff() < 1e-12 * b.max_abs_coeff()


def test_oseen_divergence_free_and_decay(grid16):
    u = random_power_law(grid16, alpha=1.0, seed=1)
    F = dealias_product(u, u)
    out = oseen_apply(F, 0.1)
    assert divergence_residual(out) < 1e-12
    with pytest.raises(RankError):
        projected_divergence(u)
    # single-mode tensor: log-norm linear in t with slope -|xi|^2
    mode = single_mode(grid16, (2, 0, 0), (0.0, 1.0, 0.0))
    tensor_c = np.zeros((3, 3) + grid16.xi_sq.shape, dtype=np.complex128)
    tensor_c[0, 1] = mode.coeffs[1]
    tensor_c[1, 0] = mode.coeffs[1]
    F1 = SpectralField(grid16, "matrix", tensor_c, check_hermitian=False)
    ts = np.linspace(0.05, 0.5, 10)
    logs = [math.log(oseen_apply(F1, t).l2_norm()) for t in ts]
    slope = np.polyfit(ts, logs, 1)[0]
    assert slope == pytest.approx(-4.0, rel=1e-10)


def test_block_decay_brackets(grid32, part32):
    u = random_power_law(grid32, alpha=1.0, seed=2)
    for j in part32.j_range:
        blk = lp_block(u, j, part32)
        if blk.l2_norm() < 1e-12:
            continue
        ts = np.linspace(0.0, 0.02 / 4.0 ** max(j, 0), 9)[1:]
        logs = [math.log(heat_evolve(blk, t).l2_norm()) for t in ts]
        slope = np.polyfit(ts, logs, 1)[0]
        assert -(8.0 / 3.0) ** 2 * 4.0**j <= slope <= -(0.75) ** 2 * 4.0**j


def test_bernstein_gain_scaling(grid32, part32):
    # L^2 -> L^4 norm ratios on block data scale like 2^{3j(1/2-1/4)}
    u = random_power_law(grid32, alpha=0.0, seed=3)
    gains = {}
    for j in range(0, 4):
        blk = lp_block(u, j, part32)
        gains[j] = blk.lp_norm(4.0) / blk.l2_norm()
    for j in range(1, 4):
        measured = gains[j] / gains[j - 1]
        expected = 2.0 ** (3.0 * (0.5 - 0.25))
        assert expected / 2.0 < measured < expected * 2.0


def test_duhamel_constant_forcing_closed_form(grid16):
    # constant-in-time single-mode tensor: (1 - e^{-|k|^2 t})/|k|^2 factor
    mode = single_mode(grid16, (0, 2, 0), (1.0, 0.0, 0.0))
    tensor_c = np.zeros((3, 3) + grid16.xi_sq.shape, dtype=np.complex128)
    tensor_c[0, 1] = mode.coeffs[0]
    F = SpectralField(grid16, "matrix", tensor_c, check_hermitian=False)
    times = np.linspace(0.0, 1.0, 33)
    traj = Trajectory(grid16, times, [F] * times.size)
    g = projected_divergence(F)
    # 0.75 is a sample; 0.74 ends inside an interval, on the
    # interpolated forcing
    for t in (0.75, 0.74):
        out = duhamel_integral(traj, t)
        expected = g * ((1.0 - math.exp(-4.0 * t)) / 4.0)
        assert (out - expected).max_abs_coeff() \
            < 1e-12 * expected.max_abs_coeff()


def test_duhamel_integral_at_samples_is_the_trajectory(grid16):
    u = random_power_law(grid16, alpha=1.5, seed=6)
    times = time_schedule(0.5, 6, 6)
    F = Trajectory(grid16, times, [dealias_product(f, f) for f in
                                   heat_trajectory(u, times).fields])
    traj = duhamel_trajectory(F)
    for i, t in enumerate(times):
        assert np.array_equal(duhamel_integral(F, t).coeffs, traj.coeffs[i])


def test_duhamel_zero_and_coverage(grid16):
    z = SpectralField.zero(grid16, "matrix")
    times = np.linspace(0.0, 1.0, 5)
    traj = Trajectory(grid16, times, [z] * 5)
    out = duhamel_integral(traj, 0.5)
    assert out.max_abs_coeff() == 0.0
    with pytest.raises(QuadratureError):
        duhamel_integral(traj, 2.0)


def test_duhamel_linearity(grid16):
    u = random_power_law(grid16, alpha=1.0, seed=4)
    v = random_power_law(grid16, alpha=1.0, seed=5)
    times = np.linspace(0.0, 0.5, 17)
    fu = [dealias_product(heat_evolve(u, t), heat_evolve(u, t))
          for t in times]
    fv = [dealias_product(heat_evolve(v, t), heat_evolve(v, t))
          for t in times]
    comb = [a * 2.0 + b * (-0.5) for a, b in zip(fu, fv)]
    du = duhamel_trajectory(Trajectory(grid16, times, fu))
    dv = duhamel_trajectory(Trajectory(grid16, times, fv))
    dc = duhamel_trajectory(Trajectory(grid16, times, comb))
    for a, b, c in zip(du.fields, dv.fields, dc.fields):
        lin = a * 2.0 + b * (-0.5)
        assert (c - lin).max_abs_coeff() <= 1e-12 * max(
            lin.max_abs_coeff(), 1e-300)


def test_kato_exponent_gate():
    assert check_kato_exponents(-0.5, 2.0, 4.0) == pytest.approx(
        1.0 - 0.5 - 1.5 + 0.75)
    with pytest.raises(ExponentError):
        check_kato_exponents(-2.5, 2.0, 4.0)
    with pytest.raises(ExponentError):
        check_kato_exponents(-0.5, 2.0, 6.0)  # 3/2 - 1/2 = 1, not strict


def test_verify_kato_estimate_battery(grid16):
    times = time_schedule(1.0, 12, 12)
    u = random_power_law(grid16, alpha=2.0, seed=7)
    flows = heat_trajectory(u, times)
    F = Trajectory(grid16, times,
                   [dealias_product(f, f) for f in flows.fields])
    out = verify_kato_estimate(F, -0.5, 2.0, 4.0)
    assert out["constant"] > 0 and np.isfinite(out["constant"])
    with pytest.raises(ExponentError):
        verify_kato_estimate(F, -0.5, 2.0, 6.0)


def test_verify_kato_estimate_needs_a_positive_time(grid16):
    F = Trajectory(grid16, [0.0], [SpectralField.zero(grid16, "matrix")])
    with pytest.raises(QuadratureError):
        verify_kato_estimate(F, -0.5, 2.0, 4.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_smoothing_derivatives_need_a_positive_time(grid16, k):
    F = Trajectory(grid16, [0.0], [SpectralField.zero(grid16, "matrix")])
    with pytest.raises(QuadratureError):
        verify_smoothing_derivatives(F, k, 1, -0.5, 2.0, 4.0)


def test_smoothing_derivatives_reduction_and_finiteness(grid16):
    times = time_schedule(1.0, 12, 12)
    u = random_power_law(grid16, alpha=2.0, seed=8)
    flows = heat_trajectory(u, times)
    F = Trajectory(grid16, times,
                   [dealias_product(f, f) for f in flows.fields])
    base = verify_kato_estimate(F, -0.5, 2.0, 4.0)
    red = verify_smoothing_derivatives(F, 0, 0, -0.5, 2.0, 4.0)
    assert red["constant"] == pytest.approx(base["constant"], rel=1e-10)
    for k in (0, 1, 2):
        for l in (0, 1, 2):
            out = verify_smoothing_derivatives(F, k, l, -0.5, 2.0, 4.0)
            assert np.isfinite(out["constant"]) and out["constant"] >= 0
    with pytest.raises(ExponentError):
        verify_smoothing_derivatives(F, 3, 0, -0.5, 2.0, 4.0)


@pytest.mark.parametrize("horizon", [5e-324, 1e-310, 1e-303])
def test_time_schedule_refuses_a_subnormal_step(horizon):
    # a step below the smallest normal float makes rates over it
    # overflow; heat-verify once reported a constant of 0 from one
    with pytest.raises(QuadratureError, match="too small"):
        time_schedule(horizon, 16, 16)
    assert np.min(np.diff(time_schedule(1e-300, 16, 16))) \
        >= np.finfo(float).tiny


def test_time_schedule_shape():
    times = time_schedule(2.0, 10, 10)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(2.0)
    assert np.all(np.diff(times) > 0)
    with pytest.raises(QuadratureError):
        time_schedule(-1.0)


def test_heat_trajectory_checks_times_before_the_stack(grid16):
    f = random_power_law(grid16, alpha=2.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in exp first
        with pytest.raises(QuadratureError):
            heat_evolve(f, -10.0)


@pytest.mark.parametrize("times", [[0.0, -1.0], [0.0, np.nan], [[0.0, 0.1]],
                                   [0.0, 0.2, 0.1]])
def test_one_time_sample_rule(grid16, times):
    f = random_power_law(grid16, alpha=2.0, seed=1)
    for check in (check_times, check_schedule,
                  lambda t: Trajectory._from_stack(grid16, t, "vector",
                                                   np.zeros((2, 3, 1)))):
        with pytest.raises(QuadratureError, match="1-D, finite"):
            check(times)
    with pytest.raises(QuadratureError, match="1-D, finite"):
        heat_trajectory(f, times)


def test_pl_weights_for_every_z():
    # each z takes one branch: no overflow for huge z, where beta ~ 1/z
    z = np.array([0.0, 1e-5, 1.0, 1e200, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        alpha, beta = _pl_weights(z)
    assert alpha[:2].tolist() == [0.5 - z[i] / 3.0 + z[i]**2 / 8.0
                                  for i in (0, 1)]
    assert beta[:2].tolist() == [0.5 - z[i] / 6.0 + z[i]**2 / 24.0
                                 for i in (0, 1)]
    em = math.expm1(-1.0)
    assert beta[2] == (1.0 + em) / 1.0**2
    assert alpha[2] == -em / 1.0 - beta[2]
    assert beta[3:].tolist() == pytest.approx(1.0 / z[3:], rel=1e-15)
    assert np.all((alpha[3:] >= 0) & (alpha[3:] <= 1e-300))
    # below 1e150 the closed form is evaluated as it always was
    z = np.geomspace(1e-4, 1e149, 300)
    alpha, beta = _pl_weights(z)
    em = np.expm1(-z)
    assert np.array_equal(beta, (z + em) / z**2)
    assert np.array_equal(alpha, -em / z - (z + em) / z**2)
