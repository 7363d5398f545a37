"""Named analytic initial-data families and random-field generators."""

from __future__ import annotations

import numpy as np

from .besov import (BesovIndex, DyadicPartition, besov_norm,
                    critical_exponent, lp_block)
from .errors import GridError
from .spectral import Grid, SpectralField, leray_project


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """2D Taylor-Green vortex (sin kx cos ky, -cos kx sin ky), k = 2pi/L.

    Its nonlinearity is a pure gradient, so the mild solution is the
    exact heat decay exp(-2 k^2 t) of the initial field.
    """
    if grid.dim != 2:
        raise GridError("taylor_green is a 2D family")
    k = 2.0 * np.pi / grid.box_length
    x, y = grid.physical_mesh()
    u = amplitude * np.stack([np.sin(k * x) * np.cos(k * y),
                              -np.cos(k * x) * np.sin(k * y)])
    return SpectralField.from_physical(grid, u)


def taylor_green_decay_rate(grid: Grid) -> float:
    k = 2.0 * np.pi / grid.box_length
    return 2.0 * k**2


def abc_flow(grid: Grid, a: float = 1.0, b: float = 1.0, c: float = 1.0,
             amplitude: float = 1.0) -> SpectralField:
    """Divergence-free ABC-type 3D mode sum at the fundamental wavenumber."""
    if grid.dim != 3:
        raise GridError("abc_flow is a 3D family")
    k = 2.0 * np.pi / grid.box_length
    x, y, z = grid.physical_mesh()
    u = amplitude * np.stack([
        a * np.sin(k * z) + c * np.cos(k * y),
        b * np.sin(k * x) + a * np.cos(k * z),
        c * np.sin(k * y) + b * np.cos(k * x),
    ])
    return SpectralField.from_physical(grid, u)


def single_mode(grid: Grid, k_int, amp) -> SpectralField:
    """Divergence-free single Fourier mode: amp e^{ik.x} + c.c.

    ``amp`` is projected onto the plane orthogonal to k.
    """
    k_int = np.asarray(k_int, dtype=np.int64)
    amp = np.asarray(amp, dtype=np.complex128)
    coeffs = np.zeros((grid.dim,) + grid.xi_sq.shape, dtype=np.complex128)
    kk = k_int.astype(float)
    ks = np.dot(kk, kk)
    if ks > 0:
        amp = amp - kk * np.dot(kk, amp) / ks
    # each of +k and -k is stored where it falls in the half spectrum
    for sign, value in ((1, amp), (-1, np.conj(amp))):
        idx = tuple((sign * int(ki)) % grid.n for ki in k_int)
        if idx[-1] < coeffs.shape[-1]:
            coeffs[(slice(None),) + idx] = value
    return SpectralField(grid, "vector", coeffs, check_hermitian=False)


def random_power_law(grid: Grid, alpha: float, seed: int,
                     amplitude: float = 1.0,
                     rank: str = "vector") -> SpectralField:
    """Random zero-mean field with spectrum |u^(k)| ~ |k|^{-alpha}.

    Band-limited to the 2/3 dealias band, Leray-projected for vector
    rank, and normalized to the requested L^2 norm.
    """
    rng = np.random.default_rng(seed)
    lead = () if rank == "scalar" else (grid.dim,)
    noise = rng.standard_normal(lead + grid.shape)
    f = SpectralField.from_physical(grid, noise)
    env = np.zeros_like(grid.xi_sq)
    nz = grid.xi_sq > 0
    env[nz] = grid.xi_abs[nz] ** (-alpha)
    env *= grid.dealias_mask
    f = f.with_coeffs(f.coeffs * env)
    if rank == "vector":
        f = leray_project(f)
    norm = f.l2_norm()
    if norm > 0:
        f = f * (amplitude / norm)
    return f


def random_block_field(grid: Grid, j: int, partition: DyadicPartition,
                       seed: int, rank: str = "scalar",
                       heavy_tail: float | None = None) -> SpectralField:
    """Random field frequency-localized to dyadic block j.

    With ``heavy_tail`` = alpha the physical amplitudes are drawn from
    a symmetric Pareto(alpha) law before filtering, giving approximate
    weak-L^alpha pointwise statistics.
    """
    rng = np.random.default_rng(seed)
    lead = () if rank == "scalar" else (grid.dim,)
    if heavy_tail is None:
        vals = rng.standard_normal(lead + grid.shape)
    else:
        u = rng.uniform(size=lead + grid.shape)
        mags = u ** (-1.0 / heavy_tail)  # Pareto, minimum 1
        signs = rng.choice([-1.0, 1.0], size=lead + grid.shape)
        vals = mags * signs
    f = SpectralField.from_physical(grid, vals)
    return lp_block(f, j, partition).zero_mean()


def sparse_spike_block(grid: Grid, j: int, partition: DyadicPartition,
                       p: float, n_spikes: int, seed: int) -> SpectralField:
    """Sparse vector field localized to dyadic block j.

    Places ``n_spikes`` point spikes at random grid sites with random
    unit directions and deterministic Pareto-quantile heights
    ((i+1/2)/S)^{-1/p}, then applies the block filter.  Unlike dense
    i.i.d. amplitudes, which Gaussianize under band-pass filtering,
    the sparse spikes keep their weak-L^p level statistics after
    filtering, so level-set sizes scale like sigma^{-p} over the full
    height range.
    """
    rng = np.random.default_rng(seed)
    vals = np.zeros((grid.dim,) + grid.shape)
    sites = rng.integers(0, grid.n, size=(n_spikes, grid.dim))
    heights = ((np.arange(n_spikes) + 0.5) / n_spikes) ** (-1.0 / p)
    dirs = rng.standard_normal((n_spikes, grid.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for s in range(n_spikes):
        vals[(slice(None),) + tuple(sites[s])] += heights[s] * dirs[s]
    f = SpectralField.from_physical(grid, vals)
    return lp_block(f, j, partition).zero_mean()


def _unit_critical_norm(total: SpectralField, p: float,
                        partition: DyadicPartition) -> SpectralField:
    """``total`` made zero-mean, Leray-projected and scaled to unit
    B^{s_p}_{p,p} norm."""
    total = leray_project(total.zero_mean())
    idx = BesovIndex(critical_exponent(p), p, p)
    return total * (1.0 / besov_norm(total, idx, partition).value)


def critical_spike_field(grid: Grid, p: float, partition: DyadicPartition,
                         seed: int, density: float = 0.03,
                         block_exponent: float = 0.54,
                         j_lo: int = 0,
                         j_hi: int | None = None) -> SpectralField:
    """Sparse heavy-tailed divergence-free data with unit critical norm.

    Each dyadic block j in [j_lo, j_hi] carries a sparse spike ensemble
    (about ``density * 8**j`` spikes, at least 12) whose L^p norm is
    rescaled to 2^{j * block_exponent}.  When block_exponent matches
    the threshold exponent of the Calderon split, every block's spike
    ensemble crosses its level threshold at the same lambda, so the
    per-block scaling windows align and the sweep exhibits the
    sigma^{-p} weak-L^p plateau over the widest range the grid allows;
    the default sits slightly above the split's 1/2 to offset the
    early exhaustion of the (resolution-starved) highest blocks.
    """
    if j_hi is None:
        j_hi = partition.j_max - 1
    total = SpectralField.zero(grid, "vector")
    for j in range(j_lo, j_hi + 1):
        n_spikes = max(12, int(density * 8.0 ** j))
        n_spikes = min(n_spikes, grid.n ** grid.dim // 4)
        blk = sparse_spike_block(grid, j, partition, p, n_spikes,
                                 seed + 1000 * (j - j_lo))
        nb = blk.lp_norm(p)
        if nb == 0:
            continue
        total = total + blk * (2.0 ** (j * block_exponent) / nb)
    return _unit_critical_norm(total, p, partition)


def critical_random(grid: Grid, p: float, partition: DyadicPartition,
                    seed: int, heavy_tail: bool = True,
                    j_lo: int | None = None,
                    j_hi: int | None = None) -> SpectralField:
    """Random divergence-free data with unit critical Besov norm.

    Every dyadic block contributes equally to the B^{s_p}_{p,p} norm,
    and blocks carry heavy-tailed pointwise amplitudes; this is the
    flat-spectrum profile on which the Calderon splitting bounds are
    saturated over a wide threshold range.
    """
    sp = critical_exponent(p)
    j_lo = partition.j_min + 1 if j_lo is None else j_lo
    j_hi = partition.j_max - 1 if j_hi is None else j_hi
    total = SpectralField.zero(grid, "vector")
    tail = p if heavy_tail else None
    n_blocks = 0
    for j in range(j_lo, j_hi + 1):
        blk = random_block_field(grid, j, partition, seed + 1000 * (j - j_lo),
                                 rank="vector", heavy_tail=tail)
        nb = blk.lp_norm(p)
        if nb == 0:
            continue
        total = total + blk * (2.0 ** (-j * sp) / nb)
        n_blocks += 1
    if n_blocks == 0:
        raise GridError("no resolvable blocks in the requested range")
    return _unit_critical_norm(total, p, partition)
