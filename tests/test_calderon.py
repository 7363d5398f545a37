import math

import numpy as np
import pytest

from nselab import (ConfigError, GridError, SplitConfig, exponent_sweep,
                    find_lambda_for_small_part, split)
from nselab.families import critical_random, random_block_field
from nselab.spectral import SpectralField, leray_project


def test_config_exponent_bookkeeping():
    cfg = SplitConfig(4.0, 8.0, 1.0)
    assert abs(1.0 / cfg.p - (cfg.theta / 2.0 + (1 - cfg.theta) / cfg.q)) < 1e-14
    assert 0.0 < cfg.eps < -cfg.s_q
    assert cfg.s == pytest.approx(cfg.s_p / (1.0 - cfg.theta))
    # default block exponent -s_p p/(p-2) = 1/2 for p = 4
    assert cfg.block_exponent == pytest.approx(0.5)


def test_config_rejects_bad_exponents():
    with pytest.raises(ConfigError):
        SplitConfig(2.0, 8.0, 1.0)  # p <= 3
    with pytest.raises(ConfigError):
        SplitConfig(8.0, 4.0, 1.0)  # q < p
    with pytest.raises(ConfigError):
        SplitConfig(4.0, 8.0, 0.0)  # lambda <= 0


def test_split_rejects_non_divergence_free(grid16, part16):
    f = random_block_field(grid16, 1, part16, seed=0, rank="vector")
    with pytest.raises(GridError):
        split(f, SplitConfig(4.0, 8.0, 1.0), part16)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_split_rejects_non_finite_data(grid16, part16, bad):
    u0 = critical_random(grid16, 4.0, part16, seed=0)
    c = u0.coeffs.copy()
    c[0, 1, 2, 3] = bad
    with pytest.raises(GridError, match="finite"):
        split(u0.with_coeffs(c), SplitConfig(4.0, 8.0, 1.0), part16)


def test_split_rejects_nonzero_mean(grid16, part16):
    u0 = critical_random(grid16, 4.0, part16, seed=0)
    c = u0.coeffs.copy()
    c[0, 0, 0, 0] = 1.0
    with pytest.raises(GridError):
        split(u0.with_coeffs(c), SplitConfig(4.0, 8.0, 1.0), part16)


def test_split_extreme_thresholds(grid16, part16):
    u0 = critical_random(grid16, 4.0, part16, seed=0)
    big = split(u0, SplitConfig(4.0, 8.0, 1e8), part16)
    assert big.l2_large == 0.0
    assert (big.small - u0).max_abs_coeff() < 1e-10 * u0.max_abs_coeff()
    tiny = split(u0, SplitConfig(4.0, 8.0, 1e-8), part16)
    assert tiny.besov_small < 1e-4 * tiny.critical_norm


def test_reassembly(grid32, part32):
    u0 = critical_random(grid32, 4.0, part32, seed=1)
    for lam in (0.03, 0.3, 3.0):
        res = split(u0, SplitConfig(4.0, 8.0, lam), part32)
        assert res.reassembly_residual(u0) < 1e-10
        assert res.summary()["div_residual_large"] < 1e-12
        assert res.summary()["div_residual_small"] < 1e-12


def test_single_block_pointwise_oracle(grid16, part16):
    j = 2
    u0 = leray_project(random_block_field(grid16, j, part16, seed=3,
                                          rank="vector")).zero_mean()
    cfg = SplitConfig(4.0, 8.0, 0.5)
    res = split(u0, cfg, part16)
    # brute-force pointwise thresholding of every block
    raw = np.zeros((3,) + grid16.shape)
    for jj in part16.j_range:
        phys = u0.with_coeffs(u0.coeffs * part16.phi_symbol(jj)).to_physical()
        mag = np.sqrt(np.sum(phys**2, axis=0))
        raw += phys * (mag > cfg.block_threshold(jj))
    oracle = leray_project(
        SpectralField.from_physical(grid16, raw).zero_mean())
    assert (res.large - oracle).max_abs_coeff() \
        <= 1e-12 * max(oracle.max_abs_coeff(), 1e-300)


def test_monotonicity(grid16, part16):
    u0 = critical_random(grid16, 4.0, part16, seed=2)
    lams = np.geomspace(1e-3, 1e3, 13)
    l2s, besovs = [], []
    for lam in lams:
        res = split(u0, SplitConfig(4.0, 8.0, lam), part16)
        l2s.append(res.l2_large)
        besovs.append(res.besov_small)
    # monotone up to the Leray-projection reshuffle of thresholded mass
    tol = 1e-4 * max(l2s)
    assert all(a >= b - tol for a, b in zip(l2s, l2s[1:]))
    assert all(a <= b + tol for a, b in zip(besovs, besovs[1:]))


def test_smallness_attainability(grid16, part16):
    u0 = critical_random(grid16, 4.0, part16, seed=4)
    cfg = SplitConfig(4.0, 8.0, 1.0)
    for target in (0.3, 0.05, 0.01):
        lam = find_lambda_for_small_part(u0, cfg, part16, target)
        res = split(u0, cfg.with_lambda(lam), part16)
        assert res.besov_small < target


def test_sweep_degenerate_and_validation(grid16, part16):
    zero = SpectralField.zero(grid16, "vector")
    cfg = SplitConfig(4.0, 8.0, 1.0)
    lams = np.geomspace(1e-2, 1e2, 9)
    rep = exponent_sweep(zero, cfg, lams, part16)
    assert rep.degenerate
    with pytest.raises(ConfigError):
        exponent_sweep(zero, cfg, [0.1, 1.0, 10.0], part16)
    with pytest.raises(ConfigError):
        exponent_sweep(zero, cfg, np.geomspace(0.5, 2.0, 9), part16)


def test_sweep_reports_expected_slopes(grid16, part16):
    u0 = critical_random(grid16, 4.0, part16, seed=5)
    cfg = SplitConfig(4.0, 8.0, 1.0)
    rep = exponent_sweep(u0, cfg, np.geomspace(1e-2, 1e2, 9), part16)
    assert rep.expected_slope_large == pytest.approx(-1.0)
    assert rep.expected_slope_small == pytest.approx(0.5)
    assert np.isfinite(rep.slope_large)
    assert np.isfinite(rep.slope_small)
