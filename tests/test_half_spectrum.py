"""The half-spectrum layout against full-spectrum references built from
numpy's complex FFT."""

import numpy as np
import pytest
from scipy.integrate import simpson

from nselab import (Mollifier, SolverConfig, Trajectory, energy_ledger,
                    heat_trajectory, make_grid, mild_solve_nse,
                    mollified_solve, read_clf1, write_clf1)
from nselab.families import random_power_law
from nselab.heat import _pl_weights, duhamel_stack, exponential_weights, \
    heat_stack
from nselab.solver import (_cross_linear, _forcing_stack, _nse_bilinear,
                           _step_forcing)
from nselab.spectral import dealiased_tensor, full_spectrum, inverse_transform


def _partner(c, dim):
    """conj(c) at index -k over the trailing ``dim`` axes."""
    out = np.conj(c)
    for a in range(c.ndim - dim, c.ndim):
        out = np.roll(np.flip(out, axis=a), 1, axis=a)
    return out


def _full_symbols(grid):
    """|xi|^2, the derivative wavevectors and the dealias mask over the
    full spectrum, from numpy's FFT frequencies."""
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k = np.stack(np.meshgrid(*([k1] * grid.dim), indexing="ij"))
    xi = (2.0 * np.pi / grid.box_length) * k
    deriv = np.where(k == -grid.n // 2, 0.0, xi)
    mask = np.all(3 * np.abs(k) < grid.n, axis=0)
    return np.sum(xi**2, axis=0), deriv, mask


def _physical(grid, stack):
    """Physical samples of half-spectrum coefficients, by numpy's FFT."""
    return np.fft.irfftn(stack * grid.n**grid.dim, s=grid.shape,
                         axes=tuple(range(-grid.dim, 0)))


def _full(grid, stack):
    """numpy's full-spectrum coefficients of a half-spectrum stack."""
    return np.fft.fftn(_physical(grid, stack),
                       axes=tuple(range(-grid.dim, 0))) / grid.n**grid.dim


@pytest.mark.parametrize("dim", [2, 3])
def test_full_spectrum_inverts_half_spectrum(dim, tmp_path):
    # CLF1 holds the full spectrum: read keeps the half, write refills it
    g = make_grid(dim, 8, 2.0 * np.pi)
    rng = np.random.default_rng(dim)
    shape = (dim,) + (g.n,) * dim
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = x + _partner(x, dim)          # exactly Hermitian
    for a in range(-dim, 0):          # every Nyquist plane is nonzero
        assert np.all(np.take(c, g.n // 2, axis=a) != 0)
    half = c[..., :g.n // 2 + 1]
    assert np.array_equal(full_spectrum(g, half), c)
    pairs = np.stack([c.real, c.imag], axis=-1).astype("<f8")
    payload = (f"CLF1 {dim} {g.n} {g.box_length!r} vector {dim}\n"
               .encode("ascii") + pairs.tobytes())
    path = tmp_path / "u.clf1"
    path.write_bytes(payload)
    field = read_clf1(path)
    assert np.array_equal(field.coeffs, half)
    write_clf1(path, field)
    assert path.read_bytes() == payload


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 24)])
def test_clf1_round_trip_keeps_every_bit(dim, n, tmp_path):
    # random data hold -0.0 parts, which only a bitwise read keeps
    g = make_grid(dim, n, 2.0 * np.pi)
    u = random_power_law(g, alpha=2.0, seed=1, amplitude=0.3)
    assert np.any(np.signbit(u.coeffs.real) & (u.coeffs.real == 0))
    path = tmp_path / "u.clf1"
    write_clf1(path, u)
    payload = path.read_bytes()
    field = read_clf1(path)
    assert field.coeffs.tobytes() == u.coeffs.tobytes()
    assert field.coeffs.flags.c_contiguous and field.coeffs.base is None
    write_clf1(path, field)
    assert path.read_bytes() == payload


def _full_bilinear_reference(grid, times, x, y):
    """-Duhamel(P div dealias(x (x) y)) over the full spectrum, with
    numpy's complex FFT and full-spectrum symbols, sliced to the half."""
    n, dim = grid.n, grid.dim
    axes = tuple(range(-dim, 0))
    xi_sq, xi, mask = _full_symbols(grid)
    px, py = _physical(grid, x), _physical(grid, y)
    tensor = np.fft.fftn(px[:, :, None] * py[:, None, :], axes=axes) / n**dim
    tensor *= mask
    f = 1j * np.einsum("j...,mij...->mi...", xi, tensor)
    d_sq = np.sum(xi**2, axis=0)
    inv = np.zeros_like(d_sq)
    inv[d_sq > 0] = 1.0 / d_sq[d_sq > 0]
    f = f - xi[None] * (np.einsum("i...,mi...->m...", xi, f) * inv)[:, None]
    out = np.zeros_like(f)
    for i in range(1, times.size):
        dt = times[i] - times[i - 1]
        alpha, beta = _pl_weights(xi_sq * dt)
        out[i] = np.exp(-xi_sq * dt) * out[i - 1] \
            + dt * (alpha * f[i - 1] + beta * f[i])
    return -out[..., :n // 2 + 1]


def _stacks(grid, times):
    x = heat_stack(grid, random_power_law(grid, 1.5, seed=1).coeffs, times)
    y = heat_stack(grid, random_power_law(grid, 1.0, seed=2).coeffs, times)
    return x, y


@pytest.mark.parametrize("dim", [2, 3])
def test_half_bilinear_matches_full_reference(dim):
    grid = make_grid(dim, 16, 2.0 * np.pi)
    times = np.array([0.0, 0.01, 0.05, 0.2])
    x, y = _stacks(grid, times)
    assert x.shape[-1] == grid.n // 2 + 1
    band = grid.band
    bilinear = _nse_bilinear(band, times)
    xb, yb = band.gather(x), band.gather(y)
    for got, a, b in ((band.scatter(bilinear(xb, xb)), x, x),
                      (band.scatter(bilinear(xb, yb)), x, y)):
        want = _full_bilinear_reference(grid, times, a, b)
        scale = np.max(np.abs(want))
        assert scale > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_cross_linear_matches_two_bilinear_calls(grid16):
    times = np.array([0.0, 0.01, 0.05, 0.2])
    band = grid16.band
    w, v = (band.gather(s) for s in _stacks(grid16, times))
    bilinear = _nse_bilinear(band, times)
    want = bilinear(w, v) + bilinear(v, w)
    got = _cross_linear(band, times, inverse_transform(band, v))(w)
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_exponential_weights_equal_direct_evaluation(grid16):
    xi_sq = grid16.xi_sq
    taus = np.array([0.0, 1e-9, 1e-4, 0.013, 0.3])
    decay, alpha, beta = exponential_weights(grid16, taus)
    values, index = grid16.xi_sq_shells
    assert grid16.xi_sq_shells is grid16.xi_sq_shells  # found once
    assert decay.shape[1] < xi_sq.size / 10
    assert np.array_equal(np.take(values, index), xi_sq)
    for r, tau in enumerate(taus):
        a, b = _pl_weights(xi_sq * tau)
        assert np.array_equal(np.take(alpha[r], index), a)
        assert np.array_equal(np.take(beta[r], index), b)
        assert np.array_equal(np.take(decay[r], index), np.exp(-xi_sq * tau))


def test_duhamel_stack_equals_direct_evaluation(grid16):
    times = np.array([0.0, 0.01, 0.05, 0.2])
    g, _ = _stacks(grid16, times)
    xi_sq = grid16.xi_sq
    want = np.zeros_like(g)
    for i in range(1, times.size):
        dt = times[i] - times[i - 1]
        alpha, beta = _pl_weights(xi_sq * dt)
        want[i] = np.exp(-xi_sq * dt) * want[i - 1] \
            + dt * (alpha * g[i - 1] + beta * g[i])
    assert np.array_equal(duhamel_stack(times, g, grid16), want)


def test_continued_duhamel_stack_equals_one_pass(grid16):
    times = np.array([0.0, 1e-4, 1e-3, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3])
    g, _ = _stacks(grid16, times)
    whole = duhamel_stack(times, g, grid16)
    for k in range(times.size):
        rest = duhamel_stack(times[k:], g[k:], grid16, start=whole[k])
        assert np.array_equal(rest, whole[k:])


def _half(traj):
    """A trajectory's samples as one half-spectrum stack, whatever its
    layout."""
    return np.stack([f.coeffs for f in traj.fields])


def _full_ledger_reference(traj, g_stack, substeps):
    """Energy ledger summed over numpy's full spectrum of the solution's
    samples and the half-spectrum forcing stack."""
    grid, times = traj.grid, traj.times
    u, g_stack = _full(grid, _half(traj)), _full(grid, g_stack)
    vol, xi_sq = grid.volume, _full_symbols(grid)[0]
    energy = 0.5 * vol * np.sum(np.abs(u) ** 2, axis=tuple(range(1, u.ndim)))
    fracs = np.linspace(0.0, 1.0, substeps + 1)
    diss, work = [], []
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        d_vals, w_vals = [], []
        for f in fracs:
            tau = f * dt
            gl = g_stack[i] + (g_stack[i + 1] - g_stack[i]) * f
            alpha, beta = _pl_weights(xi_sq * tau)
            u_tau = np.exp(-xi_sq * tau) * u[i] \
                + tau * (alpha * g_stack[i] + beta * gl)
            d_vals.append(vol * np.sum(xi_sq * np.abs(u_tau) ** 2))
            w_vals.append(vol * np.sum(np.real(gl * np.conj(u_tau))))
        diss.append(simpson(d_vals, x=fracs * dt))
        work.append(simpson(w_vals, x=fracs * dt))
    diss, work = np.array(diss), np.array(work)
    return energy, diss, work, energy[:-1] - energy[1:] - diss + work


def test_half_ledger_matches_full_reference(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=0)
    sol = mild_solve_nse(u0, cfg)
    traj = sol.trajectory
    assert traj.layout == grid16.band
    # the trajectory is the solver's stack, not a copy of it
    assert np.shares_memory(traj.coeffs, sol.report.solution)
    assert np.array_equal(traj.coeffs, sol.report.solution)
    led = energy_ledger(traj, substeps=8)
    band = grid16.band
    g_band = -_step_forcing(band, sol.report.solution, None, None)
    ref = _full_ledger_reference(traj, band.scatter(g_band), 8)
    for got, want in zip((led.energy, led.dissipation, led.work, led.slacks),
                         ref):
        assert np.max(np.abs(got - want)) <= 1e-13 * led.scale
    # an explicit forcing gives the ledger of the recomputed one
    explicit = energy_ledger(traj, substeps=8, g_stack=g_band)
    assert np.array_equal(explicit.slacks, led.slacks)


def test_mollified_ledger_is_the_solvers_mollified_forcing(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=0)
    traj = mollified_solve(u0, None, 0.5, cfg).trajectory
    band = grid16.band
    m_rho = band.gather(Mollifier(3, 0.5).symbol(grid16))
    want = energy_ledger(traj, substeps=8, g_stack=-_step_forcing(
        band, traj.coeffs, None, m_rho))
    led = energy_ledger(traj, rho=0.5, substeps=8)
    assert np.max(np.abs(led.work)) > 0
    for got, ref in ((led.energy, want.energy), (led.work, want.work),
                     (led.dissipation, want.dissipation),
                     (led.slacks, want.slacks)):
        assert np.array_equal(got, ref)
    # unmollified, the work differs
    assert not np.array_equal(energy_ledger(traj, substeps=8).work, led.work)



@pytest.mark.parametrize("substeps", [2, 32])
def test_2d_ledger_matches_full_reference(grid2d, substeps):
    u0 = random_power_law(grid2d, alpha=2.0, seed=4, amplitude=0.5)
    cfg = SolverConfig(grid=grid2d, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=0)
    sol = mild_solve_nse(u0, cfg)
    led = energy_ledger(sol.trajectory, substeps=substeps)
    band = grid2d.band
    g_half = -band.scatter(_step_forcing(
        band, sol.report.solution, None, None))
    assert np.max(np.abs(g_half)) > 0
    ref = _full_ledger_reference(sol.trajectory, g_half, substeps)
    for got, want in zip((led.energy, led.dissipation, led.work, led.slacks),
                         ref):
        assert np.max(np.abs(got - want)) <= 1e-13 * led.scale


@pytest.mark.parametrize("dim", [2, 3])
def test_band_ledger_is_the_half_spectrum_ledger(grid16, grid2d, dim):
    # a solver trajectory lies in the band, so the ledger sums there; the
    # same code on the half spectrum adds exact zeros to every shell sum,
    # and only the energy's sum over more shells is rounded differently
    grid = grid16 if dim == 3 else grid2d
    u0 = random_power_law(grid, alpha=2.0, seed=4, amplitude=0.5)
    cfg = SolverConfig(grid=grid, horizon=0.2, n_geometric=4, n_uniform=4,
                       measure_probes=0)
    traj = mild_solve_nse(u0, cfg).trajectory
    assert traj.layout == grid.band
    on_band = energy_ledger(traj, substeps=8)
    band = grid.band
    g_half = -band.scatter(_step_forcing(band, traj.coeffs, None, None))
    ref = _full_ledger_reference(traj, g_half, 8)
    on_half = energy_ledger(Trajectory._from_stack(
        grid, traj.times, "vector", _half(traj)), substeps=8)
    for name, want in zip(("energy", "dissipation", "work", "slacks"), ref):
        got = getattr(on_band, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * on_band.scale
        assert np.max(np.abs(got - getattr(on_half, name))) \
            <= 1e-15 * on_half.scale


def test_ledger_counts_a_mode_outside_the_band(grid16):
    # heat flow of data with one mode beyond the band (k = (0, 0, 7), 3k >=
    # 16, x component so divergence-free): the ledger sums the half
    # spectrum and keeps that mode's energy
    u = random_power_law(grid16, alpha=2.0, seed=3, amplitude=0.3)
    coeffs = u.coeffs.copy()
    coeffs[0, 0, 0, 7] = 0.05
    traj = heat_trajectory(u.with_coeffs(coeffs), np.linspace(0.0, 0.1, 6))
    assert traj.layout == grid16
    zero = np.zeros_like(traj.coeffs)
    led = energy_ledger(traj, substeps=8, g_stack=zero)
    for got, want in zip((led.energy, led.dissipation, led.work, led.slacks),
                         _full_ledger_reference(traj, zero, 8)):
        assert np.max(np.abs(got - want)) <= 1e-13 * led.scale
    band = grid16.band
    inside = Trajectory._from_stack(grid16, traj.times, "vector",
                                    band.scatter(band.gather(traj.coeffs)))
    # the mode and its conjugate hold L^3 |c|^2 e^{-2 |xi|^2 t} / 2 each
    extra = grid16.volume * 0.05**2 * np.exp(-2.0 * 49.0 * traj.times)
    assert led.energy - energy_ledger(inside, substeps=8,
                                      g_stack=zero).energy == \
        pytest.approx(extra, rel=1e-9)


def _pair_forcing(grid, x, y):
    """P div dealias(x (x) y) per sample, by the general tensor, in the
    half spectrum."""
    band = grid.band
    return band.scatter(_forcing_stack(
        band, band.gather(x), lambda part, px: dealiased_tensor(
            band, px, inverse_transform(band, band.gather(y[part])))))


def test_ledger_background_coupling_is_one_symmetric_forcing(grid16):
    times = np.array([0.0, 0.01, 0.05, 0.2])
    u, v = _stacks(grid16, times)
    traj, bg = (Trajectory._from_stack(grid16, times, "vector", s)
                for s in (u, v))
    two_calls = -(_pair_forcing(grid16, u, u) + _pair_forcing(grid16, u, v)
                  + _pair_forcing(grid16, v, u))
    led = energy_ledger(traj, background=bg, substeps=4)
    ref = energy_ledger(traj, substeps=4, g_stack=two_calls)
    assert np.max(np.abs(led.work)) > 0
    for got, want in ((led.work, ref.work), (led.slacks, ref.slacks)):
        assert np.max(np.abs(got - want)) <= 1e-13 * ref.scale
