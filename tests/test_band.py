"""The dealias band as a coefficient block: its layout, the operators
run on it against the masked half spectrum, and the Galerkin identities
that the strict 2/3 rule makes exact."""

import numpy as np
import pytest

from nselab import Mollifier, SolverConfig, make_grid, mild_solve_nse
from nselab.families import random_power_law
from nselab.heat import duhamel_stack, heat_stack
from nselab.solver import nonlinear_forcing
from nselab.spectral import (dealiased_tensor, inverse_transform,
                             leray_coeffs, lp_norms,
                             projected_divergence_coeffs, symmetric_tensor)

GRIDS = [(dim, n) for dim in (2, 3) for n in (8, 12, 16, 18, 24)]
GALERKIN_GRIDS = [(dim, n) for dim in (2, 3)
                  for n in (8, 12, 16, 18, 24, 32)]


def _grid(dim, n):
    return make_grid(dim, n, 2.0 * np.pi)


@pytest.mark.parametrize("dim, n", [(dim, n) for dim in (2, 3)
                                    for n in range(8, 65, 2)])
def test_band_is_the_masked_block(dim, n):
    grid = _grid(dim, n)
    band = grid.band
    assert np.array_equal(band.scatter(np.ones(band.xi_sq.shape)),
                          grid.dealias_mask)
    assert band.xi_sq.size == grid.dealias_mask.sum()
    assert band.deriv_wavevectors.shape == (dim,) + band.xi_sq.shape
    rng = np.random.default_rng(n)
    shape = (2, dim) + grid.xi_sq.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    block = band.gather(c)
    assert block.shape == (2, dim) + band.xi_sq.shape
    assert np.array_equal(band.scatter(block), c * grid.dealias_mask)
    # the band keeps the grid's symbols, rule and scales
    assert np.array_equal(band.scatter(band.xi_sq),
                          grid.xi_sq * grid.dealias_mask)
    assert np.array_equal(band.scatter(band.inverse_laplacian),
                          grid.inverse_laplacian * grid.dealias_mask)
    assert (band.xi_max, band.shape, band.cell_volume) == \
        (grid.xi_max, grid.shape, grid.cell_volume)


def test_band_is_built_on_first_use():
    grid = _grid(3, 16)
    assert "band" not in vars(grid)
    assert grid.band is grid.band


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
    for tensor in (lambda g: symmetric_tensor(g, px, None),
                   lambda g: symmetric_tensor(g, px, py),
                   lambda g: dealiased_tensor(g, px, py)):
        full, block = tensor(grid), tensor(band)
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
    u = random_power_law(grid, alpha=2.0, seed=1).coeffs
    w = u if rho is None else u * Mollifier(dim, rho).symbol(grid)
    g = projected_divergence_coeffs(grid, dealiased_tensor(
        grid, inverse_transform(grid, u), inverse_transform(grid, w)))
    assert _relative_work(grid, u, g) < 1e-14


def test_solver_forcing_does_no_work_at_any_sample():
    grid = _grid(3, 24)
    u0 = random_power_law(grid, alpha=2.0, seed=1, amplitude=0.3)
    cfg = SolverConfig(grid=grid, horizon=0.3, n_geometric=4, n_uniform=4,
                       measure_probes=0)
    traj = mild_solve_nse(u0, cfg).trajectory
    work = _relative_work(grid, traj.coeffs, nonlinear_forcing(traj))
    assert work.shape == (len(traj),)
    assert np.all(work < 1e-14)
