import ast
import os
import re
import stat
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

import nselab
from nselab import spectral
from nselab import (Grid, GridError, Mollifier, QuadratureError, RankError,
                    SpectralField, SymbolError, apply_multiplier, curl,
                    dealias_product, divergence, divergence_residual,
                    gradient, leray_project, make_grid, mollify,
                    pressure_from_velocity, read_clf1, write_clf1)
from nselab import (BesovIndex, Trajectory, duhamel_trajectory,
                    heat_trajectory, kato_norm, rescale_trajectory)
from nselab.families import random_power_law, single_mode
from nselab.heat import _grad_stack, _pl_weights, projected_divergence
from nselab.spectral import (dealiased_tensor, forward_half,
                             interpolate_stack, inverse_transform,
                             leray_coeffs, lp_norms, magnitude,
                             magnitude_lp_norms, map_samples,
                             projected_divergence_coeffs, symmetric_tensor)


def test_grid_validation():
    with pytest.raises(GridError):
        make_grid(4, 16, 1.0)
    with pytest.raises(GridError):
        make_grid(3, 15, 1.0)
    with pytest.raises(GridError):
        make_grid(3, 16, -1.0)


def test_oversized_grid_is_refused_before_any_allocation():
    spectral._check_grid_args(3, 128, 1.0)  # the largest 3D grid
    spectral._check_grid_args(2, 1448, 1.0)  # 1448^2 < 128^3
    tracemalloc.start()
    try:
        for dim, n in ((3, 130), (3, 100000), (2, 1450),
                       (3, np.int64(2**22))):  # 2^66 wraps in int64
            with pytest.raises(GridError, match="exceeds"):
                make_grid(dim, n, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_round_trip_transform(grid32):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((3,) + grid32.shape)
    f = SpectralField.from_physical(grid32, vals)
    back = f.to_physical()
    assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))


def test_parseval(grid32):
    for seed in range(5):
        f = random_power_law(grid32, alpha=1.0, seed=seed)
        phys = f.pointwise_magnitude()
        quad = np.sqrt(grid32.cell_volume * np.sum(phys**2))
        assert abs(quad - f.l2_norm()) < 1e-10 * f.l2_norm()


def test_hermitian_enforcement(grid16):
    # the k_last = 0 and N/2 planes hold both k and -k
    for k in ((1, 0, 0), (0, 3, 8)):
        coeffs = np.zeros((3,) + grid16.xi_sq.shape, dtype=np.complex128)
        coeffs[(0,) + k] = 1.0 + 1.0j  # no conjugate partner at -k
        with pytest.raises(RankError):
            SpectralField(grid16, "vector", coeffs, check_hermitian=True)


def test_leray_projector_idempotent(grid32):
    f = random_power_law(grid32, alpha=0.5, seed=1)
    once = leray_project(f)
    twice = leray_project(once)
    dev = (twice - once).max_abs_coeff()
    assert dev <= 1e-12 * once.max_abs_coeff()
    assert divergence_residual(once) < 1e-12


def test_divergence_of_gradient_free(grid16):
    # div curl = 0 identically
    f = random_power_law(grid16, alpha=1.0, seed=2)
    c = curl(f)
    assert divergence(c).max_abs_coeff() < 1e-13 * c.max_abs_coeff()


def test_pressure_balances_momentum(grid32):
    u = random_power_law(grid32, alpha=1.5, seed=3)
    p = pressure_from_velocity(u, u)
    tensor = dealias_product(u, u)
    xi = grid32.deriv_wavevectors
    force = 1j * np.einsum("j...,ij...->i...", xi, tensor.coeffs) \
        + 1j * xi * p.coeffs[None]
    div = np.sum(xi * force, axis=0)
    scale = np.max(np.abs(force)) * grid32.xi_max
    assert np.max(np.abs(div)) < 1e-10 * scale


def test_dealias_product_single_modes(grid16):
    # two scalar modes whose sum stays inside the retained band
    k1, k2 = 2, 3
    c = np.zeros(grid16.xi_sq.shape, dtype=np.complex128)
    c[k1, 0, 0] = 0.5
    c[-k1, 0, 0] = 0.5
    u = SpectralField(grid16, "scalar", c)
    d = np.zeros(grid16.xi_sq.shape, dtype=np.complex128)
    d[k2, 0, 0] = 0.5
    d[-k2, 0, 0] = 0.5
    v = SpectralField(grid16, "scalar", d)
    prod = dealias_product(u, v)
    # cos(k1 x) cos(k2 x) = (cos((k1+k2)x) + cos((k2-k1)x)) / 2
    assert abs(prod.coeffs[k1 + k2, 0, 0] - 0.25) < 1e-14
    assert abs(prod.coeffs[k2 - k1, 0, 0] - 0.25) < 1e-14


def test_dealias_zeroes_aliasing(grid16):
    # modes at k=7: sum 14 > N/3, aliased output must be zeroed
    c = np.zeros(grid16.xi_sq.shape, dtype=np.complex128)
    c[7, 0, 0] = 0.5
    c[-7, 0, 0] = 0.5
    u = SpectralField(grid16, "scalar", c)
    prod = dealias_product(u, u)
    mask = np.all(3 * np.abs(grid16.k_int) < grid16.n, axis=0)
    assert not mask[7, 0, 0]
    assert np.max(np.abs(prod.coeffs[~mask])) == 0.0


def test_apply_multiplier_validation(grid16):
    f = random_power_law(grid16, alpha=1.0, seed=4)
    with pytest.raises(SymbolError):
        apply_multiplier(f, lambda xi: np.zeros((2, 2)))
    with pytest.raises(SymbolError), np.errstate(divide="ignore"):
        apply_multiplier(f, lambda xi: 1.0 / np.sum(xi**2, axis=0))


def test_mollifier_unit_mass():
    for dim in (2, 3):
        m = Mollifier(dim, 1.0)
        # radial quadrature of the normalized profile must give 1
        assert abs(m.hat(np.array([0.0]))[0] - 1.0) < 1e-10
        assert np.all(m.profile(np.array([1.0, 2.0])) == 0.0)


@pytest.mark.parametrize("dim, n", [(3, 16), (2, 32)])
@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_mollifier_symbol_is_hat_of_each_mode(dim, n, rho):
    # one hat per distinct |xi|^2, gathered onto the modes, is bit for bit
    # the hat of every mode
    grid = make_grid(dim, n, 2.0 * np.pi)
    m = Mollifier(dim, rho)
    want = m.hat(rho * grid.xi_abs.ravel()).reshape(grid.xi_abs.shape)
    assert np.array_equal(m.symbol(grid), want)


def test_mollifier_symbol_memory_is_that_of_the_grid():
    grid = make_grid(3, 48, 2.0 * np.pi)
    tracemalloc.start()
    try:
        Mollifier(3, 0.5).symbol(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_mollify_rejects_wraparound(grid16):
    f = random_power_law(grid16, alpha=1.0, seed=5)
    with pytest.raises(GridError):
        mollify(f, Mollifier(3, 10.0))


def test_mollify_smooths(grid16):
    f = random_power_law(grid16, alpha=0.5, seed=6)
    g = mollify(f, Mollifier(3, 0.5))
    assert g.h1_seminorm() < f.h1_seminorm()


def test_clf1_round_trip(tmp_path, grid16):
    f = random_power_law(grid16, alpha=1.0, seed=7)
    path = tmp_path / "u.clf1"
    write_clf1(path, f)
    g = read_clf1(path)
    assert g.grid == f.grid
    assert g.rank == f.rank
    assert np.array_equal(g.coeffs, f.coeffs)  # bit-exact


def test_clf1_rejects_garbage(tmp_path):
    path = tmp_path / "junk.clf1"
    path.write_bytes(b"not a field\n123")
    with pytest.raises(GridError):
        read_clf1(path)


def test_single_mode_is_divergence_free(grid16):
    f = single_mode(grid16, (1, 2, 0), (1.0, 0.5, 0.25))
    assert divergence_residual(f) < 1e-13


def test_gradient_ranks(grid16):
    s = random_power_law(grid16, alpha=1.0, seed=8, rank="scalar")
    assert gradient(s).rank == "vector"
    v = random_power_law(grid16, alpha=1.0, seed=8)
    assert gradient(v).rank == "matrix"
    with pytest.raises(RankError):
        curl(s)


def test_field_gradient_is_the_stack_gradient_of_one_sample(grid16):
    for rank in ("scalar", "vector"):
        f = random_power_law(grid16, alpha=1.0, seed=8, rank=rank)
        stack = _grad_stack(grid16, f.coeffs[None], 1)
        assert np.array_equal(gradient(f).coeffs, stack[0])
    s = random_power_law(grid16, alpha=1.0, seed=8, rank="scalar")
    assert np.array_equal(gradient(gradient(s)).coeffs,
                          _grad_stack(grid16, s.coeffs[None], 2)[0])


def test_write_clf1_failure_leaves_target_unchanged(tmp_path, grid16,
                                                    monkeypatch):
    path = tmp_path / "u.clf1"
    write_clf1(path, random_power_law(grid16, alpha=1.0, seed=9))
    before = path.read_bytes()
    real_fdopen = os.fdopen

    class HalfThenFail:
        """File wrapper whose write stores half the bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("simulated full disk")

    monkeypatch.setattr(os, "fdopen",
                        lambda fd, mode: HalfThenFail(real_fdopen(fd, mode)))
    with pytest.raises(OSError):
        write_clf1(path, random_power_law(grid16, alpha=1.0, seed=10))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["u.clf1"]


def test_clf1_file_mode_follows_umask(tmp_path, grid16):
    old_umask = os.umask(0o022)
    try:
        path = tmp_path / "u.clf1"
        write_clf1(path, random_power_law(grid16, alpha=1.0, seed=11))
        plain = tmp_path / "plain"
        with open(plain, "wb"):
            pass
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(path.stat().st_mode) == \
        stat.S_IMODE(plain.stat().st_mode) == 0o644


# ---------------------------------------------------------------------
# Array kernels: one definition serves a single field and a time stack
# ---------------------------------------------------------------------

def _samples(grid16):
    u = [random_power_law(grid16, alpha=1.0, seed=20 + k) for k in range(3)]
    v = [random_power_law(grid16, alpha=0.5, seed=30 + k) for k in range(3)]
    return u, v


def _stack(fields):
    return np.stack([f.coeffs for f in fields])


def _interp_case(grid16, u, v):
    times = np.array([0.0, 0.25, 1.0])
    new_times = np.array([0.1, 0.25, 0.6])
    per_field = []
    for t in new_times:
        i = min(int(np.searchsorted(times, t, side="right")) - 1, 1)
        w = (t - times[i]) / (times[i + 1] - times[i])
        per_field.append(((1.0 - w) * u[i] + w * u[i + 1]).coeffs)
    return interpolate_stack(times, _stack(u), new_times), per_field


TIMES = np.array([0.1, 0.25, 1.0])


def _kato_case(g, u, v):
    rep = kato_norm(Trajectory(g, TIMES, u), BesovIndex(-0.25, 4.0, np.inf))
    return rep.meta["profile"], [t**0.125 * f.lp_norm(4.0)
                                 for t, f in zip(TIMES, u)]


def _duhamel_case(g, u, v):
    # four tensor samples from t = 0; the first output sample is zero
    times = np.concatenate([[0.0], TIMES])
    F = [dealias_product(a, b) for a, b in zip(u + v[:1], v + u[:1])]
    G = [projected_divergence(f).coeffs for f in F]
    want = [np.zeros_like(G[0])]
    for i in range(1, times.size):
        dt = times[i] - times[i - 1]
        alpha, beta = _pl_weights(g.xi_sq * dt)
        want.append(np.exp(-g.xi_sq * dt) * want[-1]
                    + dt * (alpha * G[i - 1] + beta * G[i]))
    got = duhamel_trajectory(Trajectory(g, times, F)).coeffs
    return got[1:], want[1:]


def _rescale_case(g, u, v):
    x0 = np.array([1.0, 0.0, 3.0]) * g.box_length / g.n
    phase = np.exp(1j * np.einsum("i...,i->...", g.wavevectors, x0))
    out = rescale_trajectory(Trajectory(g, TIMES, u), 2.0, x0)
    assert out.grid.box_length == g.box_length / 2.0
    return out.coeffs, [2.0 * f.coeffs * phase for f in u]


KERNEL_CASES = {
    "lp2": lambda g, u, v: (lp_norms(g, _stack(u), 2.0, batch_axes=1),
                            [f.lp_norm(2.0) for f in u]),
    "lp4": lambda g, u, v: (lp_norms(g, _stack(u), 4.0, batch_axes=1),
                            [f.lp_norm(4.0) for f in u]),
    "lpinf": lambda g, u, v: (lp_norms(g, _stack(u), np.inf, batch_axes=1),
                              [f.lp_norm(np.inf) for f in u]),
    "leray": lambda g, u, v: (leray_coeffs(g, _stack(u)),
                              [leray_project(f).coeffs for f in u]),
    "pdiv": lambda g, u, v: (
        projected_divergence_coeffs(
            g, _stack([dealias_product(a, b) for a, b in zip(u, v)])),
        [projected_divergence(dealias_product(a, b)).coeffs
         for a, b in zip(u, v)]),
    "tensor": lambda g, u, v: (
        g.band.scatter(dealiased_tensor(
            g.band, inverse_transform(g, _stack(u)),
            inverse_transform(g, _stack(v)))),
        [dealias_product(a, b).coeffs for a, b in zip(u, v)]),
    "interpolation": _interp_case,
    "traj_lp2": lambda g, u, v: (Trajectory(g, TIMES, u).lp_series(2.0),
                                 [f.lp_norm(2.0) for f in u]),
    "traj_lp4": lambda g, u, v: (Trajectory(g, TIMES, u).lp_series(4.0),
                                 [f.lp_norm(4.0) for f in u]),
    "traj_lpinf": lambda g, u, v: (Trajectory(g, TIMES, u).lp_series(np.inf),
                                   [f.lp_norm(np.inf) for f in u]),
    "traj_kato": _kato_case,
    "traj_heat": lambda g, u, v: (heat_trajectory(u[0], TIMES).coeffs,
                                  [u[0].coeffs * np.exp(-g.xi_sq * t)
                                   for t in TIMES]),
    "traj_duhamel": _duhamel_case,
    "traj_rescale": _rescale_case,
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_stack_kernel_matches_per_field(grid16, case):
    u, v = _samples(grid16)
    stacked, per_field = KERNEL_CASES[case](grid16, u, v)
    assert len(stacked) == 3
    for got, want in zip(stacked, per_field):
        scale = np.max(np.abs(want))
        assert scale > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_trajectory_is_one_read_only_stack(grid16):
    u, _ = _samples(grid16)
    traj = Trajectory(grid16, TIMES, u)
    assert traj.coeffs.shape == (3, 3) + grid16.xi_sq.shape
    assert not traj.coeffs.flags.writeable
    with pytest.raises(ValueError):
        traj.coeffs[0, 0, 0, 0, 0] = 1.0
    for f, want in zip(traj.fields, u):
        assert np.shares_memory(f.coeffs, traj.coeffs)
        assert np.array_equal(f.coeffs, want.coeffs)
    # the series is computed once and cannot be changed by a caller
    assert traj.lp_series(4.0) is traj.lp_series(4.0)
    assert not traj.lp_series(4.0).flags.writeable
    with pytest.raises(RankError):
        Trajectory(grid16, TIMES, [u[0], u[1], u[2].component(0)])


@pytest.mark.parametrize("dim", [2, 3])
def test_transform_backend_matches_reference(dim):
    # the real-transform backend against numpy's complex FFT sliced to
    # the half spectrum and numpy's real inverse FFT, and the symmetric
    # u (x) u branch against the general two-factor one
    g = make_grid(dim, 16, 2.0 * np.pi)
    axes = tuple(range(-dim, 0))
    vals = np.random.default_rng(dim).standard_normal((2, dim) + g.shape)
    u = _stack([random_power_law(g, alpha=1.0, seed=40 + k)
                for k in range(2)])
    cases = [
        (forward_half(g, vals),
         np.fft.fftn(vals, axes=axes)[..., :9] / 16**dim),
        (inverse_transform(g, u),
         np.fft.irfftn(u * 16**dim, s=g.shape, axes=axes)),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        scale = np.max(np.abs(want))
        assert scale > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    pu = inverse_transform(g, u)
    assert np.array_equal(symmetric_tensor(g.band, pu, None),
                          dealiased_tensor(g.band, pu, pu))


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("rank", ["scalar", "vector"])
def test_even_p_norms_match_the_magnitude_power(grid16, p, rank):
    # even p sums |f|^2 to an integer power; the reference takes sqrt
    # and a float power, so the two differ by rounding only
    u = [random_power_law(grid16, 1.0, seed, rank=rank) for seed in (5, 6)]
    phys = inverse_transform(grid16, _stack(u))
    mag = magnitude(grid16, phys, batch_axes=1)
    want = (grid16.cell_volume
            * np.sum(mag**p, axis=(-3, -2, -1))) ** (1.0 / p)
    got = magnitude_lp_norms(grid16, phys, p, batch_axes=1)
    assert np.all(np.abs(got - want) <= 1e-14 * want)



@pytest.mark.parametrize("p", [1001.0, 1e300])
def test_large_p_norms_are_overflow_safe(grid16, p):
    # the plain power sum underflows to 0 (small data) or overflows to inf
    # (large data); the norm is then taken scaled by the largest magnitude
    u = random_power_law(grid16, 1.0, seed=5, rank="vector")
    for amplitude in (1e-3, 1e3):
        phys = amplitude * inverse_transform(grid16, u.coeffs)
        mag = magnitude(grid16, phys)
        peak = np.max(mag)
        want = peak * (grid16.cell_volume
                       * np.sum((mag / peak) ** p)) ** (1.0 / p)
        got = magnitude_lp_norms(grid16, phys, p)
        assert 0 < got < np.inf
        assert abs(got - want) <= 1e-12 * want
    assert magnitude_lp_norms(grid16, np.zeros((3,) + grid16.shape), p) == 0


@pytest.mark.filterwarnings("error")
def test_huge_components_do_not_overflow_their_squares():
    # squares of 1e200 overflow, those of 1e-160 lose bits and those of
    # 1e-170 and below underflow to 0; the magnitude and the norms are
    # scale times those of the unscaled field
    g = make_grid(2, 8, 2.0 * np.pi)
    x, y = g.physical_mesh()
    v = np.stack([2.0 + np.cos(x), 1.0 + np.sin(y) ** 2])
    mag = magnitude(g, v)
    norms = {p: magnitude_lp_norms(g, v, p) for p in (2.0, 3.0, 4.0, np.inf)}
    for scale in (1e200, 1e-160, 1e-170, 1e-300):
        got = magnitude(g, scale * v)
        assert np.all(np.abs(got - scale * mag) <= 1e-14 * scale * mag)
        for p, want in norms.items():
            got = magnitude_lp_norms(g, scale * v, p)
            assert abs(got - scale * want) <= 1e-14 * scale * want
    # in a stack, the zero sample reads 0 and the plain one keeps its bits
    stack = np.stack([0.0 * v, 1e-170 * v, v, 1e200 * v])
    for p, want in norms.items():
        got = magnitude_lp_norms(g, stack, p, batch_axes=1)
        assert got[0] == 0.0 and got[2] == want
        for k, scale in ((1, 1e-170), (3, 1e200)):
            assert abs(got[k] - scale * want) <= 1e-14 * scale * want


def test_only_spectral_calls_fft():
    # every transform goes through spectral.py, so the FFT backend is a
    # one-file decision (Grid's fftfreq lives there too)
    pattern = re.compile(r"\b(?:np|numpy|scipy)\.fft\b|"
                         r"\bfrom\s+(?:numpy|scipy)(?:\.fft)?\s+import\s+.*fft"
                         r"|\bi?r?fft(?:n|2)?\s*\(")
    src = os.path.dirname(nselab.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "spectral.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if pattern.search(line):
                        offenders.append(f"{name}:{lineno}: {line.strip()}")
    assert offenders == []


def _source_trees():
    src = os.path.dirname(nselab.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _names_full_spectrum(node):
    return (isinstance(node, ast.Name) and node.id == "full_spectrum"
            or isinstance(node, ast.Attribute) and node.attr == "full_spectrum"
            or isinstance(node, ast.alias) and node.name == "full_spectrum")


def _cuts_to_half(node):
    """``x[..., :n_half]`` or ``x[..., :grid.n // 2 + 1]``."""
    if not (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Tuple)):
        return False
    first, *rest = node.slice.elts
    return (isinstance(first, ast.Constant) and first.value is Ellipsis
            and any(isinstance(e, ast.Slice) and e.upper is not None
                    and re.fullmatch(r"(\w+\.)?(n_half|n // 2 \+ 1)",
                                     ast.unparse(e.upper))
                    for e in rest))


def test_one_coefficient_layout():
    # fields, trajectories and solver stacks all hold the half spectrum:
    # the full spectrum exists only behind the CLF1 file format, and no
    # module cuts a full-spectrum array down to the half
    found, allowed, cuts = set(), set(), []
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if _names_full_spectrum(node):
                found.add((name, node.lineno))
            if _cuts_to_half(node):
                cuts.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
            if (name == "spectral.py" and isinstance(node, ast.FunctionDef)
                    and node.name in ("write_clf1", "read_clf1")):
                allowed.update((name, n.lineno) for n in ast.walk(node)
                               if _names_full_spectrum(n))
    assert len(allowed) == 2
    assert found == allowed
    assert cuts == []


@pytest.mark.parametrize("dim", [2, 3])
def test_fields_trajectories_and_symbols_hold_the_half_spectrum(dim):
    g = make_grid(dim, 8, 2.0 * np.pi)
    u = random_power_law(g, alpha=1.0, seed=12)
    arrays = [u.coeffs, heat_trajectory(u, [0.0, 0.1]).coeffs,
              SpectralField.zero(g, "matrix").coeffs,
              SpectralField.from_physical(g, np.ones(g.shape)).coeffs,
              g.k_int, g.wavevectors, g.deriv_wavevectors, g.xi_sq,
              g.deriv_xi_sq, g.xi_abs, g.inverse_laplacian,
              g.hermitian_weight]
    assert [a.shape[-1] for a in arrays] == [g.n // 2 + 1] * len(arrays)
    # the last index is k = -N/2, as in the full FFT order
    assert np.all(g.k_int[-1, ..., -1] == -g.n // 2)
    assert g.hermitian_weight.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]


def test_no_unused_imports():
    # an import that nothing references is dead code; __init__.py imports
    # to re-export, so it is exempt
    src = os.path.dirname(nselab.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [a.asname or a.name.split(".")[0]
                             for a in node.names]
                elif (isinstance(node, ast.ImportFrom)
                      and node.module != "__future__"):
                    bound = [a.asname or a.name for a in node.names]
                else:
                    continue
                offenders += [f"{name}:{node.lineno}: {b}" for b in bound
                              if b not in used]
    assert offenders == []


def test_every_private_definition_is_used():
    # a module-level _name function or class is referenced somewhere in
    # the package besides its own definition
    src = os.path.dirname(nselab.__file__)
    defined, used = {}, set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            defined.update(
                (node.name, f"{name}:{node.lineno}") for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__"))
            used.update(node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Name, ast.Attribute)))
    assert defined
    assert [where for n, where in defined.items() if n not in used] == []


def test_only_spectral_starts_threads():
    # map_samples is the one place that runs work on other threads
    src = os.path.dirname(nselab.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "spectral.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                offenders += [f"{name}:{node.lineno}: {m}" for m in modules
                              if m.split(".")[0] in
                              ("threading", "_thread", "concurrent")]
    assert offenders == []


class JobError(Exception):
    pass


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_failing_job_raises_its_error(monkeypatch, where):
    monkeypatch.setattr(spectral, "FFT_WORKERS", 2)
    caller = threading.get_ident()
    both_busy = threading.Barrier(2, timeout=60)
    running, started = [], []

    def job(part):
        running.append(part.start)
        started.append(part.start)
        try:
            # the first two slices wait until the caller and the pool
            # thread each hold one, so the failing side surely runs a job
            if part.start < 8:
                both_busy.wait()
            if (threading.get_ident() == caller) == (where == "caller"):
                raise JobError(part.start)
            time.sleep(0.2)  # still running when the other side fails
        finally:
            running.remove(part.start)

    with pytest.raises(JobError):
        map_samples(job, np.empty(13, dtype=object))
    assert running == []
    assert sorted(started) == [0, 4]  # no slice starts after the failure
    out = np.zeros(13)
    assert map_samples(lambda part: np.arange(13)[part], out) is out
    assert np.array_equal(out, np.arange(13))


def test_jobs_fill_their_slices_under_contention(monkeypatch):
    # six threads and a short switch interval: a lost or misplaced slice
    # write would show in the output
    monkeypatch.setattr(spectral, "FFT_WORKERS", 6)
    monkeypatch.setattr(spectral, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 5, 401):
            out = np.full((n, 3), -1.0)
            map_samples(lambda part: np.arange(3 * n).reshape(n, 3)[part],
                        out)
            assert np.array_equal(out, np.arange(3 * n).reshape(n, 3))
    finally:
        sys.setswitchinterval(interval)
        if spectral._pool is not None:
            spectral._pool.shutdown(wait=True)


def test_nested_call_runs_inline(monkeypatch):
    monkeypatch.setattr(spectral, "FFT_WORKERS", 2)
    seen = np.zeros((13, 13), dtype=int)
    inline, fft_workers = [], []

    def outer(part):
        ident = threading.get_ident()
        fft_workers.append(spectral._fft_workers())
        for i in range(part.start, min(part.stop, 13)):
            def inner(q, i=i):
                seen[i, q] += 1
                inline.append(threading.get_ident() == ident)
            map_samples(inner, np.empty(13, dtype=object))

    t = threading.Thread(target=map_samples,
                         args=(outer, np.empty(13, dtype=object)), daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    assert np.all(seen == 1)
    assert inline and all(inline)
    # a job's FFTs run on its own thread only
    assert fft_workers == [1] * 4 and spectral._fft_workers() == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_jobs_run_in_a_forked_child():
    # the child inherits the started pool but none of its threads
    script = textwrap.dedent("""
        import os, signal
        import numpy as np
        from nselab import spectral
        spectral.FFT_WORKERS = 2
        spectral.map_samples(lambda part: 0.0, np.empty(13))
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            spectral.map_samples(lambda part: 0.0, np.empty(13))
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        raise SystemExit(os.waitstatus_to_exitcode(status))
        """)
    src = os.path.dirname(os.path.dirname(nselab.__file__))
    proc = subprocess.run([sys.executable, "-c", script], timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0


def test_one_worker_runs_jobs_on_the_caller(monkeypatch):
    monkeypatch.setattr(spectral, "FFT_WORKERS", 1)
    idents = []
    map_samples(lambda part: idents.append(threading.get_ident()),
                np.empty(13, dtype=object))
    assert idents == [threading.get_ident()] * 4


def test_interpolate_stack_needs_two_samples():
    with pytest.raises(QuadratureError):
        interpolate_stack(np.array([0.0]), np.ones((1, 4)), 0.0)
