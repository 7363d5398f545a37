"""The dealias band as a coefficient block: its layout, the operators
run on it against the masked half spectrum, and the Galerkin identities
that the strict 2/3 rule makes exact."""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft

from nselab import Mollifier, SolverConfig, make_grid, mild_solve_nse, spectral
from nselab.families import random_power_law
from nselab.heat import duhamel_stack, heat_stack
from nselab.solver import nonlinear_forcing
from nselab.spectral import (dealiased_tensor, inverse_transform,
                             leray_coeffs, lp_norms, map_samples,
                             projected_divergence_coeffs, symmetric_tensor)

GRIDS = [(dim, n) for dim in (2, 3) for n in (8, 12, 16, 18, 24)]
GALERKIN_GRIDS = [(dim, n) for dim in (2, 3)
                  for n in (8, 12, 16, 18, 24, 32)]


def _grid(dim, n):
    return make_grid(dim, n, 2.0 * np.pi)


def _mask(grid):
    """The 2/3 rule on the half spectrum, 3|k_i| < n on every axis."""
    return np.all(3 * np.abs(grid.k_int) < grid.n, axis=0)


def _masked(grid, products):
    """The half-spectrum coefficients of physical products times the
    mask."""
    return scipy.fft.rfftn(products, axes=tuple(range(-grid.dim, 0)),
                           norm="forward") * _mask(grid)


@pytest.mark.parametrize("dim, n", [(dim, n) for dim in (2, 3)
                                    for n in range(8, 65, 2)])
def test_band_is_the_masked_block(dim, n):
    grid = _grid(dim, n)
    band, mask = grid.band, _mask(grid)
    assert np.array_equal(band.scatter(np.ones(band.xi_sq.shape)), mask)
    assert band.xi_sq.size == mask.sum()
    assert band.deriv_wavevectors.shape == (dim,) + band.xi_sq.shape
    rng = np.random.default_rng(n)
    shape = (2, dim) + grid.xi_sq.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    block = band.gather(c)
    assert block.shape == (2, dim) + band.xi_sq.shape
    assert np.array_equal(band.scatter(block), c * mask)
    # the band keeps the grid's symbols, rule and scales
    assert np.array_equal(band.scatter(band.xi_sq), grid.xi_sq * mask)
    assert np.array_equal(band.scatter(band.inverse_laplacian),
                          grid.inverse_laplacian * mask)
    assert (band.xi_max, band.shape, band.cell_volume) == \
        (grid.xi_max, grid.shape, grid.cell_volume)


def _in_jobs(transform, like):
    """``transform()`` made inside each of two ``map_samples`` jobs, whose
    FFTs run on one thread; one result per sample of the jobs."""
    out = np.empty((spectral.SAMPLE_CHUNK + 1,) + like.shape, like.dtype)
    return map_samples(lambda part: transform(), out)


@pytest.mark.parametrize("dim, n", [(3, n) for n in range(8, 65, 2)]
                         + [(2, n) for n in range(8, 129, 2)])
def test_band_transforms_are_the_whole_transforms(dim, n, monkeypatch):
    # the pruned transforms skip only lines of zeros or of discarded
    # values, and keep pocketfft's axis order and 1/N^d, so they are
    # bit for bit irfftn of the scattered block and the gathered rfftn
    monkeypatch.setattr(spectral, "FFT_WORKERS", 2)
    grid = _grid(dim, n)
    band, axes = grid.band, tuple(range(-dim, 0))
    rng = np.random.default_rng(n)
    for lead in ((1, 1), (1, 3), (4, 1), (4, 3)):
        values = rng.standard_normal(lead + grid.shape)
        block = band.gather(scipy.fft.rfftn(values, axes=axes,
                                            norm="forward"))
        samples = scipy.fft.irfftn(band.scatter(block), s=grid.shape,
                                   axes=axes, norm="forward")
        assert np.array_equal(band.forward(values), block)
        assert np.array_equal(band.inverse(block), samples)
        for out in _in_jobs(lambda: band.forward(values), block):
            assert np.array_equal(out, block)
        for out in _in_jobs(lambda: band.inverse(block), samples):
            assert np.array_equal(out, samples)


def test_band_transforms_call_numpy_fft_at_call_time(monkeypatch):
    # every transform is looked up on numpy.fft when it runs, so a
    # wrapper set there (as a benchmark's FFT counter is) sees each call;
    # one given a copy of its input still gives scipy's bits
    grid = _grid(3, 12)
    band, axes = grid.band, (-3, -2, -1)
    values = np.random.default_rng(3).standard_normal((2, 3) + grid.shape)
    block = band.gather(scipy.fft.rfftn(values, axes=axes, norm="forward"))
    samples = scipy.fft.irfftn(band.scatter(block), s=grid.shape, axes=axes,
                               norm="forward")
    calls = []

    def fresh(name, fft):
        def transform(x, *args, **kwargs):
            calls.append(name)
            return fft(x.copy(), *args, **kwargs)
        return transform

    names = ("rfft", "irfft", "fft", "ifft")
    for name in names:
        monkeypatch.setattr(np.fft, name, fresh(name, getattr(np.fft, name)))
    assert np.array_equal(band.forward(values), block)
    assert np.array_equal(band.inverse(block), samples)
    assert set(calls) == set(names)


@pytest.mark.parametrize("dim", [2, 3])
def test_transforms_of_overflowing_data_raise_no_warning(dim):
    # numpy's FFTs report floating-point overflow (scipy's did not); the
    # transforms give inf or NaN quietly, for the callers' finiteness
    # checks, and the suite turns any warning into an error
    grid = _grid(dim, 12)
    band = grid.band
    values = np.full((2, dim) + grid.shape, 1.5e308)
    block = band.forward(values)
    assert np.isinf(block[(Ellipsis,) + (0,) * dim]).all()
    assert not np.isfinite(band.inverse(np.full_like(block, 1e308))).all()
    half = spectral.forward_half(grid, values)
    assert not np.isfinite(half).all()
    assert not np.isfinite(inverse_transform(grid, np.full_like(
        half, 1e308))).all()


def test_band_transforms_hold_one_half_spectrum():
    # beyond its input and output, a band transform of a 4-sample job
    # holds at most the job's half spectrum (and under 64 KiB of numpy's
    # own indexing buffers)
    grid = _grid(3, 24)
    band = grid.band
    values = np.random.default_rng(1).standard_normal((4, 3) + grid.shape)
    half_bytes = values.size // grid.n * (grid.n // 2 + 1) * 16
    extra = []
    tracemalloc.start()
    try:
        for transform in (band.forward, band.inverse):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            values = transform(values)
            extra.append(tracemalloc.get_traced_memory()[1] - held
                         - values.nbytes)
    finally:
        tracemalloc.stop()
    assert max(extra) <= half_bytes + 2**16


def test_forcing_job_tensors_hold_one_product_at_a_time(monkeypatch):
    # a tensor of a 4-sample job is formed and transformed one product at
    # a time into its output: beyond its inputs and output it holds one
    # physical component, the product, and what the band transform of
    # that component holds, its output block and at most its half
    # spectrum and 64 KiB (as test_band_transforms_hold_one_half_spectrum
    # bounds).  The second product of v_i w_j + w_i v_j is one more
    # component, held only before the transform, within that bound.  At
    # 16^3 this is 381 KiB, and the tensors held 339-340 KiB; formed
    # band.dim products at a time (np.take copies of the factors, and a
    # d(d+1)/2 stack before the d x d output), they held 1011-1155 KiB
    monkeypatch.setattr(spectral, "FFT_WORKERS", 1)
    grid = _grid(3, 16)
    band = grid.band
    rng = np.random.default_rng(2)
    px, py = (rng.standard_normal((4, 3) + grid.shape) for _ in range(2))
    component = px.nbytes // 3
    half = component // grid.n * (grid.n // 2 + 1) * 2
    block = 4 * band.xi_sq.size * 16
    for tensor in (lambda: symmetric_tensor(band, px, None),
                   lambda: symmetric_tensor(band, px, py),
                   lambda: dealiased_tensor(band, px, py)):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = tensor()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + component + half + block + 2**16


def test_band_is_built_on_first_use():
    grid = _grid(3, 16)
    assert "band" not in vars(grid)
    assert grid.band is grid.band


def test_a_dropped_grid_is_freed_with_its_band():
    # the band holds no reference back to its grid, so no cycle keeps a
    # grid's symbol arrays alive until the garbage collector runs
    grid = _grid(3, 16)
    band = weakref.ref(grid.band)
    grid = weakref.ref(grid)
    assert grid() is None and band() is None


@pytest.mark.parametrize("dim, n", GRIDS)
def test_operators_on_the_band_equal_the_masked_grid(dim, n):
    grid = _grid(dim, n)
    band = grid.band
    times = np.array([0.0, 0.01, 0.05, 0.2])
    u = [random_power_law(grid, alpha=2.0, seed=seed, amplitude=0.3).coeffs
         for seed in (1, 2)]
    x, y = (heat_stack(grid, c, times) for c in u)
    xb = heat_stack(band, band.gather(u[0]), times)
    assert np.array_equal(band.gather(x), xb)
    assert np.array_equal(band.scatter(xb), x)
    assert np.array_equal(band.gather(duhamel_stack(times, x, grid)),
                          duhamel_stack(times, xb, band))
    assert np.array_equal(lp_norms(grid, x, 4.0, 1),
                          lp_norms(band, xb, 4.0, 1))
    px = inverse_transform(grid, x)
    assert np.array_equal(inverse_transform(band, xb), px)
    py = inverse_transform(grid, y)

    def outer(a, b):  # a_i b_j of sample stacks
        return a[:, :, None] * b[:, None]

    for full, block in (
            (_masked(grid, outer(px, px)), symmetric_tensor(band, px, None)),
            (_masked(grid, outer(px, py) + outer(py, px)),
             symmetric_tensor(band, px, py)),
            (_masked(grid, outer(px, py)), dealiased_tensor(band, px, py))):
        assert np.array_equal(band.gather(full), block)
        assert np.array_equal(band.gather(projected_divergence_coeffs(
            grid, full)), projected_divergence_coeffs(band, block))
    # Leray of a field that is not divergence-free
    w = np.roll(xb, 1, axis=1) * (1.0 + 2.0j)
    assert np.array_equal(band.gather(leray_coeffs(grid, band.scatter(w))),
                          leray_coeffs(band, w))


def _relative_work(grid, u, g):
    """|<u, g>| / (||u|| ||g||) of half-spectrum coefficients, per leading
    index (a sample of a stack)."""
    def dot(a, b):
        return np.sum(grid.hermitian_weight * (np.conj(a) * b).real,
                      axis=tuple(range(-grid.dim - 1, 0)))
    return np.abs(dot(u, g)) / np.sqrt(dot(u, u) * dot(g, g))


@pytest.mark.parametrize("dim, n", GALERKIN_GRIDS)
@pytest.mark.parametrize("rho", [None, 0.5], ids=["plain", "mollified"])
def test_dealiased_nonlinearity_does_no_work(dim, n, rho):
    # <u, P div dealias(u (x) w)> = int w . grad |u|^2 / 2 = 0 for w = u or
    # w = (u)_rho, both divergence-free and in the band, since no product
    # of band modes aliases into the band
    grid = _grid(dim, n)
    band = grid.band
    u = random_power_law(grid, alpha=2.0, seed=1).coeffs
    w = u if rho is None else u * Mollifier(dim, rho).symbol(grid)
    g = projected_divergence_coeffs(band, dealiased_tensor(
        band, inverse_transform(grid, u), inverse_transform(grid, w)))
    assert _relative_work(grid, u, band.scatter(g)) < 1e-14


def test_solver_forcing_does_no_work_at_any_sample():
    grid = _grid(3, 24)
    u0 = random_power_law(grid, alpha=2.0, seed=1, amplitude=0.3)
    cfg = SolverConfig(grid=grid, horizon=0.3, n_geometric=4, n_uniform=4,
                       measure_probes=0)
    traj = mild_solve_nse(u0, cfg).trajectory
    work = _relative_work(grid, grid.band.scatter(traj.coeffs),
                          grid.band.scatter(nonlinear_forcing(traj)))
    assert work.shape == (len(traj),)
    assert np.all(work < 1e-14)
