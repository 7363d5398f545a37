"""Calderon splitting of critical data: per-block physical-space
thresholding into a square-integrable large part and a small
subcritical part, plus the exponent-law sweep that validates the
threshold family empirically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .besov import (BesovIndex, DyadicPartition, _block_samples,
                    _check_zero_mean, _dyadic_sum, besov_norm,
                    critical_exponent)
from .errors import ConfigError
from .spectral import (SpectralField, check_flow, divergence_residual,
                       finite_json, leray_project, magnitude,
                       magnitude_lp_norms)


@dataclass
class SplitConfig:
    """Exponent bookkeeping for the splitting, 3 < p < q <= inf.

    theta solves 1/p = theta/2 + (1-theta)/q; s = s_p/(1-theta);
    eps = s - s_q > 0.  Block thresholds are lambda_j =
    lam * 2^{j * block_exponent}, with the default exponent
    -s_p * p/(p-2) chosen so that both exponent laws
    ||U||_2 ~ lam^{1-p/2} and ||V||_{B^s_{q,q}} ~ lam^{1-p/q}
    hold with block-profile-independent constants.
    """

    p: float
    q: float
    lam: float
    block_exponent: float | None = None

    def __post_init__(self):
        if not (3.0 < self.p < self.q):
            raise ConfigError(f"need 3 < p < q, got p={self.p}, q={self.q}")
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"threshold scale lambda must be positive and "
                              f"finite, got {self.lam}")
        if self.block_exponent is None:
            self.block_exponent = -self.s_p * self.p / (self.p - 2.0)
        self._validate()

    @property
    def theta(self) -> float:
        qinv = 0.0 if math.isinf(self.q) else 1.0 / self.q
        return (1.0 / self.p - qinv) / (0.5 - qinv)

    @property
    def s_p(self) -> float:
        return critical_exponent(self.p)

    @property
    def s_q(self) -> float:
        return critical_exponent(self.q)

    @property
    def s(self) -> float:
        return self.s_p / (1.0 - self.theta)

    @property
    def eps(self) -> float:
        return self.s - self.s_q

    def _validate(self):
        qinv = 0.0 if math.isinf(self.q) else 1.0 / self.q
        if abs(1.0 / self.p - (self.theta / 2.0 + (1.0 - self.theta) * qinv)) > 1e-14:
            raise ConfigError("interpolation identity for theta failed")
        if not (0.0 < self.eps < -self.s_q):
            raise ConfigError(f"need 0 < eps < -s_q, got eps={self.eps}, "
                              f"-s_q={-self.s_q}")
        sub = self.s - (0.0 if math.isinf(self.q) else 3.0 / self.q)
        target = -1.0 + self.theta / (2.0 * (1.0 - self.theta))
        if abs(sub - target) > 1e-12 or not sub > -1.0:
            raise ConfigError("subcriticality identity s - 3/q failed")

    def block_threshold(self, j: int) -> float:
        return self.lam * 2.0 ** (j * self.block_exponent)

    def with_lambda(self, lam: float) -> "SplitConfig":
        return SplitConfig(self.p, self.q, lam,
                           block_exponent=self.block_exponent)


@dataclass
class SplitResult:
    """Outcome of a Calderon split: both parts plus measured norms."""

    large: SpectralField   # U0, the square-integrable part
    small: SpectralField   # V0, the small subcritical part
    config: SplitConfig
    l2_large: float
    besov_small: float
    critical_norm: float
    # measured constants against the two exponent laws
    bound_constant_large: float = 0.0
    bound_constant_small: float = 0.0

    def reassembly_residual(self, u0: SpectralField) -> float:
        diff = (self.large + self.small) - u0
        scale = max(u0.max_abs_coeff(), 1e-300)
        return diff.max_abs_coeff() / scale

    def summary(self) -> dict:
        return {
            "p": self.config.p,
            "q": self.config.q,
            "lambda": self.config.lam,
            "s": self.config.s,
            "eps": self.config.eps,
            "l2_large": self.l2_large,
            "besov_small": self.besov_small,
            "critical_norm": self.critical_norm,
            "bound_constant_large": self.bound_constant_large,
            "bound_constant_small": self.bound_constant_small,
            "div_residual_large": divergence_residual(self.large),
            "div_residual_small": divergence_residual(self.small),
        }


def split(u0: SpectralField, config: SplitConfig,
          partition: DyadicPartition) -> SplitResult:
    """Threshold each Littlewood-Paley block of u0 at lambda_j.

    Points where |Delta_j u0| exceeds the block threshold go to the
    large (L^2) part, the rest to the small part (ties included); both
    sums are Leray-projected, so large + small = P u0 = u0 for
    divergence-free input.  The critical norm ||u0||_{B^{s_p}_{p,p}} is
    read from the same block samples.
    """
    grid = u0.grid
    check_flow(grid, u0, "input data")
    _check_zero_mean(u0)
    raw_large, raw_small = np.zeros((2, grid.dim) + grid.shape)
    crit_blocks = []
    for j in partition.j_range:
        phys = _block_samples(grid, u0.coeffs, partition, j)
        mag = magnitude(grid, phys)
        over = mag > config.block_threshold(j)
        raw_large += phys * over
        raw_small += phys * ~over
        crit_blocks.append(magnitude_lp_norms(grid, phys, config.p))
    large = leray_project(SpectralField.from_physical(grid, raw_large).zero_mean())
    small = leray_project(SpectralField.from_physical(grid, raw_small).zero_mean())

    crit = float(_dyadic_sum(np.array(crit_blocks), partition, config.s_p,
                             config.p)[1])
    l2_large = large.l2_norm()
    sub_idx = BesovIndex(config.s, config.q, config.q)
    besov_small = besov_norm(small, sub_idx, partition).value

    c_large = c_small = 0.0
    if crit > 0:
        # as numpy scalars, an extreme lambda gives inf or NaN, not an error
        c, lam = np.float64(crit), np.float64(config.lam)
        pq = config.p / config.q if not math.isinf(config.q) else 0.0
        with np.errstate(all="ignore"):
            c_large = l2_large / (c ** (config.p / 2.0)
                                  * lam ** (1.0 - config.p / 2.0))
            c_small = besov_small / (c**pq * lam ** (1.0 - pq))
    return SplitResult(large=large, small=small, config=config,
                       l2_large=l2_large, besov_small=besov_small,
                       critical_norm=crit,
                       bound_constant_large=c_large,
                       bound_constant_small=c_small)


@dataclass
class SweepReport:
    """Log-log slopes of the split norms against the threshold scale."""

    lambdas: np.ndarray
    l2_large: np.ndarray
    besov_small: np.ndarray
    slope_large: float
    slope_small: float
    residual_large: float
    residual_small: float
    expected_slope_large: float
    expected_slope_small: float
    degenerate: bool = False
    fit_window: tuple | None = None

    def to_json(self) -> str:
        return json.dumps(finite_json({
            "lambdas": self.lambdas,
            "l2_large": self.l2_large,
            "besov_small": self.besov_small,
            "slope_large": self.slope_large,
            "slope_small": self.slope_small,
            "residual_large": self.residual_large,
            "residual_small": self.residual_small,
            "expected_slope_large": self.expected_slope_large,
            "expected_slope_small": self.expected_slope_small,
            "degenerate": self.degenerate,
        }), allow_nan=False)


def _loglog_slope(lams, vals):
    mask = vals > 0
    if np.sum(mask) < 2:
        return math.nan, math.nan
    x = np.log(lams[mask])
    y = np.log(vals[mask])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(res[0] / x.size)) if res.size else 0.0
    return float(coef[0]), resid


def exponent_sweep(u0: SpectralField, config: SplitConfig,
                   lambdas, partition: DyadicPartition,
                   fit_window: tuple | None = None) -> SweepReport:
    """Sweep the threshold scale and fit the two exponent laws.

    ``lambdas`` must be geometric with >= 4 points spanning two decades.
    ``fit_window`` optionally restricts the fit to a lambda interval
    (the asymptotic mid-range); by default all non-degenerate points
    are used.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size < 4:
        raise ConfigError("sweep needs at least 4 lambda values")
    if lambdas[-1] / lambdas[0] < 99.0:
        raise ConfigError("sweep must span at least two decades")
    splits = (split(u0, config.with_lambda(lam), partition) for lam in lambdas)
    l2s, besovs = np.array([(r.l2_large, r.besov_small) for r in splits]).T
    if np.max(l2s) == 0 and np.max(besovs) == 0:
        return SweepReport(lambdas, l2s, besovs, math.nan, math.nan,
                           math.nan, math.nan,
                           1.0 - config.p / 2.0,
                           1.0 - config.p / config.q,
                           degenerate=True)
    if fit_window is not None:
        sel = (lambdas >= fit_window[0]) & (lambdas <= fit_window[1])
    else:
        sel = np.ones_like(lambdas, dtype=bool)
    slope_l, res_l = _loglog_slope(lambdas[sel], l2s[sel])
    slope_s, res_s = _loglog_slope(lambdas[sel], besovs[sel])
    pq = config.p / config.q if not math.isinf(config.q) else 0.0
    return SweepReport(lambdas, l2s, besovs, slope_l, slope_s, res_l, res_s,
                       expected_slope_large=1.0 - config.p / 2.0,
                       expected_slope_small=1.0 - pq,
                       fit_window=fit_window)


def find_lambda_for_small_part(u0: SpectralField, config: SplitConfig,
                               partition: DyadicPartition, target: float,
                               lam_lo: float = 1e-8, lam_hi: float = 1e8,
                               iters: int = 80) -> float:
    """Bisect for a threshold making ||V0||_{B^s_{q,q}} < target.

    The small-part norm is non-decreasing in lambda, so bisection on
    log lambda terminates; raises if even lam_lo fails.
    """
    def v_norm(lam):
        return split(u0, config.with_lambda(lam), partition).besov_small

    if v_norm(lam_lo) >= target:
        raise ConfigError("target smallness unreachable within search range")
    if v_norm(lam_hi) < target:
        return lam_hi
    lo, hi = math.log(lam_lo), math.log(lam_hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if v_norm(math.exp(mid)) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3:
            break
    return math.exp(lo)
