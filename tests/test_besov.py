import math

import numpy as np
import pytest

from nselab import (BesovIndex, ExponentError, GridError, NormReport,
                    PartitionError, QuadratureError, Trajectory, besov_norm,
                    build_partition, chi_profile, critical_exponent,
                    default_partition, energy_norm, heat_trajectory,
                    interpolation_check, kato_norm, lp_block, low_freq,
                    make_grid, paraproduct, phi_profile, timespace_besov_norm)
from nselab.besov import (ProductExponents, _lq_aggregate, block_lp_norms,
                          paraproduct_estimate_check, weighted_sup)
from nselab.calderon import SplitConfig, split
from nselab.diagnostics import ExperimentConfig, critical_norm_series, \
    run_experiment
from nselab.families import random_power_law, single_mode
from nselab.spectral import SpectralField, dealias_product, gradient


def test_critical_exponent_values():
    assert critical_exponent(4.0) == -0.25
    assert critical_exponent(3.0) == 0.0
    assert critical_exponent(math.inf) == -1.0


def test_profile_supports():
    r = np.linspace(0.0, 4.0, 4001)
    phi = phi_profile(r)
    assert np.all(phi[r < 0.75] < 1e-14)
    assert np.all(phi[r > 8.0 / 3.0] < 1e-14)
    assert np.all((phi >= -1e-15) & (phi <= 1.0 + 1e-15))
    # chi boundary values
    assert chi_profile(np.array([0.75]))[0] == 1.0
    assert chi_profile(np.array([4.0 / 3.0]))[0] == 0.0
    # phi at r=1: chi(1/2)=1 so phi = 1 - chi(1)
    assert abs(phi_profile(np.array([1.0]))[0]
               - (1.0 - chi_profile(np.array([1.0]))[0])) < 1e-15


def test_partition_identity(part32, grid32):
    assert part32.partition_deviation() < 1e-10
    assert part32.telescoping_deviation() < 1e-10


def test_partition_rejects_bad_ranges(grid32):
    with pytest.raises(PartitionError):
        build_partition(grid32, 2, 5)  # lowest block misses |xi| = 1
    with pytest.raises(PartitionError):
        build_partition(grid32, -1, 2)  # top block misses |xi|_max
    with pytest.raises(PartitionError):
        build_partition(grid32, 3, 1)


def test_block_sum_reconstructs(grid32, part32):
    f = random_power_law(grid32, alpha=1.0, seed=0, rank="scalar")
    total = SpectralField.zero(grid32, "scalar")
    for j in part32.j_range:
        total = total + lp_block(f, j, part32)
    assert (total - f).max_abs_coeff() < 1e-10 * f.max_abs_coeff()


def test_full_lowpass_is_identity(grid32, part32):
    f = random_power_law(grid32, alpha=1.0, seed=1, rank="scalar")
    g = low_freq(f, part32.j_max + 1, part32)
    assert (g - f).max_abs_coeff() < 1e-12 * f.max_abs_coeff()


def test_besov_zero_field(grid16, part16):
    rep = besov_norm(SpectralField.zero(grid16, "vector"),
                     BesovIndex(-0.25, 4.0, 4.0), part16)
    assert rep.value == 0.0


def test_besov_rejects_nonzero_mean(grid16, part16):
    c = np.zeros((3,) + grid16.xi_sq.shape, dtype=np.complex128)
    c[0, 0, 0, 0] = 1.0
    f = SpectralField(grid16, "vector", c)
    with pytest.raises(GridError):
        besov_norm(f, BesovIndex(-0.25, 4.0, 4.0), part16)


def test_besov_single_mode_oracle(grid16, part16):
    # mode at |xi| = 2 contributes to blocks where phi_j(2) > 0
    f = single_mode(grid16, (2, 0, 0), (0.0, 1.0, 0.0))
    s, p = -0.25, 4.0
    rep = besov_norm(f, BesovIndex(s, p, p), part16)
    expected = 0.0
    for j in part16.j_range:
        w = phi_profile(np.array([2.0 / 2.0**j]))[0]
        if w > 0:
            expected += (2.0 ** (j * s) * (w * f).lp_norm(p)) ** p
    expected = expected ** (1.0 / p)
    assert abs(rep.value - expected) < 1e-10 * expected
    assert rep.aggregation_residual() < 1e-12


def test_lq_monotonicity(grid32, part32):
    f = random_power_law(grid32, alpha=1.5, seed=2)
    idx = critical_exponent(4.0)
    vals = [besov_norm(f, BesovIndex(idx, 4.0, q), part32).value
            for q in (1.0, 2.0, 4.0, math.inf)]
    assert all(a >= b - 1e-12 * a for a, b in zip(vals, vals[1:]))


def test_bernstein_brackets(grid32, part32):
    lo, hi = np.inf, 0.0
    for seed in range(5):
        f = random_power_law(grid32, alpha=1.0, seed=seed, rank="scalar")
        for j in part32.j_range:
            bj = lp_block(f, j, part32)
            n = bj.lp_norm(4.0)
            if n < 1e-12:
                continue
            ratio = gradient(bj).lp_norm(4.0) / n / 2.0**j
            lo, hi = min(lo, ratio), max(hi, ratio)
    assert lo >= 0.5
    assert hi <= (8.0 / 3.0) * (1.0 + 1e-6)


def test_norm_report_json_round_trip(grid16, part16):
    f = random_power_law(grid16, alpha=1.0, seed=3)
    rep = besov_norm(f, BesovIndex(-0.25, 4.0, math.inf), part16)
    back = NormReport.from_json(rep.to_json())
    assert back.value == rep.value
    assert back.blocks == rep.blocks
    assert back.meta["attaining_j"] == rep.meta["attaining_j"]


def test_truncated_flag(grid16, part16):
    # content in the lowest resolvable block trips the truncation flag
    f = single_mode(grid16, (1, 0, 0), (0.0, 1.0, 0.0))
    rep = besov_norm(f, BesovIndex(-0.25, 4.0, 4.0), part16)
    assert rep.truncated
    mid = single_mode(grid16, (0, 3, 0), (1.0, 0.0, 0.0))
    rep2 = besov_norm(mid, BesovIndex(-0.25, 4.0, 4.0), part16)
    assert not rep2.truncated


def _stack_with_a_mean(grid):
    """Five vector samples; the middle one has a nonzero mean."""
    fields = [random_power_law(grid, 2.0, seed) for seed in range(5)]
    c = fields[2].coeffs.copy()
    c[:, 0, 0, 0] = [0.3, -0.1, 0.2]
    fields[2] = SpectralField(grid, "vector", c)
    return Trajectory(grid, np.linspace(0.1, 0.5, 5), fields)


def test_block_lp_norms_match_per_sample_blocks(grid16, part16):
    traj = _stack_with_a_mean(grid16)
    got = block_lp_norms(grid16, traj.coeffs, part16, 4.0, 1)
    assert got.shape == (5, len(part16.j_range))
    for f, row in zip(traj.fields, got):
        # s = 0: the reported blocks are the block norms themselves
        rep = besov_norm(f.zero_mean(), BesovIndex(0.0, 4.0, 4.0), part16)
        want = np.array([c for _, c in rep.blocks])
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(want)


def test_lp_series_is_weighted_sups_series(grid16):
    # 13 samples: more than one 4-sample job, the last one partial
    u = random_power_law(grid16, alpha=2.0, seed=3)
    traj = heat_trajectory(u, np.linspace(0.0, 0.3, 13))
    for p in (3.0, 4.0, math.inf):
        # with one positive time t = 1, weighted_sup reads one sample
        sups = [weighted_sup(grid16, np.eye(len(traj))[k], traj.coeffs,
                             0.0, p) for k in range(len(traj))]
        assert np.array_equal(traj.lp_series(p), sups)


def test_critical_norm_series_matches_per_sample(grid16, part16):
    traj = _stack_with_a_mean(grid16)
    idx = BesovIndex(critical_exponent(4.0), 4.0, 4.0)
    want = np.array([besov_norm(f.zero_mean(), idx, part16).value
                     for f in traj.fields])
    got = critical_norm_series(traj, 4.0, part16)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_split_critical_norm_is_the_besov_norm(grid16, part16):
    u0 = random_power_law(grid16, 2.0, 3, amplitude=0.3)
    cfg = SplitConfig(4.0, 8.0, 0.05)
    want = besov_norm(u0, BesovIndex(cfg.s_p, cfg.p, cfg.p), part16).value
    got = split(u0, cfg, part16).critical_norm
    assert abs(got - want) <= 1e-13 * want


def test_kato_single_mode_oracle(grid16):
    # heat flow of a single mode at |xi| = 1: profile t^{-s/2} e^{-t} ||u||_p
    f = single_mode(grid16, (1, 0, 0), (0.0, 1.0, 0.0))
    s, p = -0.25, 4.0
    times = np.geomspace(1e-4, 4.0, 600)
    rep = kato_norm(heat_trajectory(f, times), BesovIndex(s, p, math.inf))
    t_star = -s / 2.0  # maximizer of t^{-s/2} e^{-t}
    expected = t_star ** (-s / 2.0) * math.exp(-t_star) * f.lp_norm(p)
    assert abs(rep.value - expected) < 1e-5 * expected
    assert abs(rep.meta["attaining_time"] - t_star) < 0.05 * t_star


def test_kato_constant_field_monotone_weight(grid16):
    f = single_mode(grid16, (1, 0, 0), (0.0, 1.0, 0.0))
    times = np.linspace(0.1, 2.0, 20)
    traj = Trajectory(grid16, times, [f] * times.size)
    s = -0.5
    rep = kato_norm(traj, BesovIndex(s, 4.0, math.inf))
    expected = times[-1] ** (-s / 2.0) * f.lp_norm(4.0)
    assert abs(rep.value - expected) < 1e-12 * expected


def test_kato_zero_trajectory(grid16):
    z = SpectralField.zero(grid16, "vector")
    traj = Trajectory(grid16, [0.5, 1.0], [z, z])
    assert kato_norm(traj, BesovIndex(-0.25, 4.0, math.inf)).value == 0.0


@pytest.mark.parametrize("times", [[0.0, math.nan], [0.0, math.inf],
                                   [math.nan, 0.5], [0.5, 0.5], [-0.1, 0.5]])
def test_trajectory_rejects_bad_times(grid16, times):
    z = SpectralField.zero(grid16, "vector")
    with pytest.raises(QuadratureError):
        Trajectory(grid16, times, [z, z])


def test_timespace_reductions(grid16, part16):
    f = single_mode(grid16, (2, 0, 0), (0.0, 1.0, 0.0))
    times = np.linspace(0.001, 1.0, 200)
    traj = heat_trajectory(f, times)
    s, p = -0.25, 4.0
    # r = inf reduces to the sup over time of the stationary block value
    rep = timespace_besov_norm(traj, math.inf, BesovIndex(s, p, p), part16)
    stat = besov_norm(f, BesovIndex(s, p, p), part16)
    assert abs(rep.value - math.exp(-4.0 * times[0]) * stat.value) \
        < 1e-3 * stat.value
    # r = 1: per-block integral (1 - e^{-|xi|^2 T}) / |xi|^2
    rep1 = timespace_besov_norm(traj, 1.0, BesovIndex(s, p, p), part16)
    expected = 0.0
    for j in part16.j_range:
        w = phi_profile(np.array([2.0 / 2.0**j]))[0]
        if w <= 0:
            continue
        integral = (math.exp(-4.0 * times[0]) - math.exp(-4.0 * times[-1])) / 4.0
        expected += (2.0 ** (j * s) * w * f.lp_norm(p) * integral) ** p
    expected = expected ** (1.0 / p)
    assert abs(rep1.value - expected) < 1e-3 * expected


def test_timespace_rejects_coarse_sampling(grid16, part16):
    f = single_mode(grid16, (4, 0, 0), (0.0, 1.0, 0.0))
    times = np.array([0.001, 0.3, 0.8, 1.5, 3.0])
    traj = heat_trajectory(f, times)
    with pytest.raises(QuadratureError):
        timespace_besov_norm(traj, 1.0, BesovIndex(-0.25, 4.0, 4.0), part16)


def test_energy_norm_oracles(grid16):
    f = single_mode(grid16, (1, 0, 0), (0.0, 1.0, 0.0))
    T = 1.0
    times = np.linspace(0.0, T, 400)
    static = Trajectory(grid16, times, [f] * times.size)
    expected = f.l2_norm() ** 2 + 2.0 * T * f.h1_seminorm() ** 2
    assert abs(energy_norm(static) - expected) < 1e-10 * expected
    # heat flow of the |xi| = 1 mode: integral term ||u0||^2 (1 - e^{-2T})
    heat = heat_trajectory(f, times)
    expected = f.l2_norm() ** 2 * (1.0 + (1.0 - math.exp(-2.0 * T)))
    assert abs(energy_norm(heat) - expected) < 1e-4 * expected


def test_interpolation_check(grid16):
    f = random_power_law(grid16, alpha=1.0, seed=4)
    times = np.linspace(0.0, 1.0, 50)
    traj = heat_trajectory(f, times)
    assert interpolation_check(traj, math.inf, 2.0) <= 1.0 + 1e-12
    assert interpolation_check(traj, 10.0 / 3.0, 10.0 / 3.0) > 0.0
    with pytest.raises(ExponentError):
        interpolation_check(traj, 4.0, 4.0)


def test_paraproduct_identity(grid16, part16):
    for seed in range(5):
        u = random_power_law(grid16, alpha=1.0, seed=seed, rank="scalar")
        v = random_power_law(grid16, alpha=1.5, seed=seed + 50, rank="scalar")
        t_uv, t_vu, reso = paraproduct(u, v, part16)
        prod = dealias_product(u, v)
        resid = ((t_uv + t_vu + reso) - prod).max_abs_coeff()
        assert resid < 1e-8 * prod.max_abs_coeff()


def test_paraproduct_block_structure(grid16, part16):
    low = single_mode(grid16, (1, 0, 0), (0.0, 1.0, 0.0)).component(1)
    high = single_mode(grid16, (0, 4, 0), (1.0, 0.0, 0.0)).component(0)
    t_lh, t_hl, reso = paraproduct(low, high, part16)
    total = dealias_product(low, high).lp_norm(2.0)
    # low-high paraproduct carries most of the product
    assert t_lh.lp_norm(2.0) > 0.7 * total
    assert t_hl.lp_norm(2.0) < 1e-12 * total
    # resonant part dominates for equal modes
    _, _, r_same = paraproduct(high, high, part16)
    same = dealias_product(high, high)
    assert r_same.lp_norm(2.0) > 0.8 * same.lp_norm(2.0)


def test_paraproduct_estimate_gates(grid16, part16):
    u = random_power_law(grid16, alpha=1.0, seed=5, rank="scalar")
    v = random_power_law(grid16, alpha=1.0, seed=6, rank="scalar")
    good = ProductExponents(s1=-0.5, s2=1.0, p1=4.0, p2=4.0, q1=2.0, q2=2.0)
    out = paraproduct_estimate_check(u, v, good, part16)
    assert out["T"] > 0 and np.isfinite(out["T"])
    assert out["R"] > 0 and np.isfinite(out["R"])
    with pytest.raises(ExponentError):
        paraproduct_estimate_check(
            u, v, ProductExponents(0.5, 1.0, 4.0, 4.0, 2.0, 2.0), part16)
    with pytest.raises(ExponentError):
        paraproduct_estimate_check(
            u, v, ProductExponents(-1.0, 0.5, 4.0, 4.0, 2.0, 2.0), part16)


def test_product_estimate_h_minus_half(grid32):
    # ||uv||_{H^{-1/2}} / (||u||_2 ||v||_{H^1}) bounded over a battery
    ratios = []
    for seed in range(10):
        u = random_power_law(grid32, alpha=1.0, seed=seed, rank="scalar")
        v = random_power_law(grid32, alpha=1.5, seed=seed + 100, rank="scalar")
        uv = dealias_product(u, v).zero_mean()
        # sobolev_norm(s) weights by |xi|^{2s}: -0.5 -> H^{-1/2}, 1 -> H^1
        ratios.append(uv.sobolev_norm(-0.5)
                      / (u.l2_norm() * v.sobolev_norm(1.0)))
    assert max(ratios) < 10.0
    assert max(ratios) / min(ratios) < 5.0


def test_large_q_aggregate_is_overflow_safe():
    assert _lq_aggregate(np.array([0.2, 0.1]), 1001) == pytest.approx(0.2)
    assert _lq_aggregate(np.array([2.0, 1.0]), 2001) == pytest.approx(2.0)
    assert _lq_aggregate(np.array([[0.2, 0.1], [0.0, 0.0]]), 1e300).tolist() \
        == [0.2, 0.0]
    assert _lq_aggregate(np.array([]), 1001) == 0.0


def _peak_scaled_time_norm(series, times, r):
    peak = np.max(series, axis=0)
    unit = np.where(peak > 0, peak, 1.0)
    return unit * np.trapezoid((series / unit) ** r, times, axis=0) ** (1 / r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", [1e-3, 1.0, 1e3])
def test_large_time_exponents_are_overflow_safe(grid16, part16, amplitude):
    # the 1001st powers of the time samples underflow to 0 or overflow to
    # inf; the time norms are then taken scaled by the largest sample
    times = np.linspace(0.0, 1.0, 50)
    traj = heat_trajectory(random_power_law(grid16, 1.0, seed=4) * amplitude,
                           times)
    s = critical_exponent(4.0)
    rep = kato_norm(traj, BesovIndex(s, 4.0, 1001.0))
    checks = [(rep.value, _peak_scaled_time_norm(
        np.array(rep.meta["profile"]), np.log(times[1:]), 1001.0))]
    rep = timespace_besov_norm(traj, 1001.0, BesovIndex(s, 4.0, 4.0), part16)
    weights = np.array([2.0 ** (j * s) for j in part16.j_range])
    blocks = weights * _peak_scaled_time_norm(
        block_lp_norms(grid16, traj.coeffs, part16, 4.0, 1), times, 1001.0)
    checks.append((rep.value, np.sum(blocks**4) ** 0.25))
    n = 3.0 / (1.5 - 2.0 / 1001.0)  # 2/m + 3/n = 3/2 with m = 1001
    checks.append((interpolation_check(traj, 1001.0, n), _peak_scaled_time_norm(
        traj.lp_series(n), times, 1001.0) / math.sqrt(energy_norm(traj))))
    for got, want in checks:
        assert 0 < got < math.inf
        assert abs(got - want) <= 1e-12 * want


def test_large_p_series_are_not_zero():
    # a power sum that underflows is rescaled, so the large-p Besov and
    # L^p series read their sizes, not 0
    report = run_experiment(ExperimentConfig(
        dim=2, n=8, box_length=2.0 * np.pi, horizon=0.3,
        recipe={"family": "random"}, besov_p=1001, monitor_ps=(1001,),
        n_geometric=4, n_uniform=4, measure_probes=2))
    assert report.status == "completed"
    for series in (report.besov_series, report.lp_series[1001]):
        assert np.all(series > 0) and np.all(np.isfinite(series))
