"""Periodic spectral grids, Fourier-coefficient fields, and the multiplier
operators everything else is built from: Leray projection, pressure
recovery, spectral derivatives, mollification, and dealiased products.

Each operator is written once, as an array kernel over coefficient
arrays with any leading (time-sample or component) axes, so a single
``SpectralField`` and a solver time stack share one definition.  This
is the only module that calls an FFT.

Conventions
-----------
A field is stored by its Fourier coefficients ``c_k``, the integer
wavenumbers k in ``fftfreq`` index order along each axis (0 .. N/2-1,
then -N/2 .. -1), normalized so that ``f(x) = sum_k c_k exp(i xi_k . x)``
with ``xi_k = 2*pi*k/L``: the forward transform carries the whole
``1/N^d`` (``norm="forward"``) and the inverse none.  Physical samples
live on the uniform grid ``x = (L/N)*m``.  All L^p norms are
uniform-grid quadratures, ``||f||_p^p = (L/N)^d * sum |f(x)|^p``;
Parseval then reads ``||f||_2^2 = L^d * sum |c_k|^2``.

Transforms are ``scipy.fft`` real-to-complex/complex-to-real FFTs.  A
grid's transforms are whole ``rfftn``/``irfftn`` calls; a dealias band's
(``Band.forward`` and ``Band.inverse``) are 1-D FFTs along one axis at a
time that skip the lines the band cannot reach, and give the same bits
as the whole transforms.  ``Band`` holds the 2/3 rule, and every product
is dealiased by ``Band.forward``.  Fields are real, so coefficients are
Hermitian, ``c_{-k} = conj(c_k)``, and only the real-FFT half spectrum
is held: the last grid axis has N//2+1 entries, the first N//2+1 of the
``fftfreq`` order (k_last = 0 .. N/2-1, then -N/2).  A sum over all
modes is a sum over the half weighted by ``Grid.hermitian_weight`` (each
mode off the k_last = 0 and N/2 planes stands for itself and its
conjugate).  CLF1 files hold the full spectrum; ``write_clf1`` fills it
in and ``read_clf1`` rejects files that are not Hermitian.

Threads
-------
This is also the only module that creates threads.  A single transform
runs on ``FFT_WORKERS`` threads (every CPU this process may use).  The
stack kernels (forcing, L^p series, Besov blocks) instead run as
``map_samples`` jobs of ``SAMPLE_CHUNK`` (4) consecutive time samples
on ``FFT_WORKERS`` threads, the caller among them, and each job's FFTs
run on one thread.  A job computes exactly what a serial pass over its
samples would, so results are bit-identical to a serial run.
"""

from __future__ import annotations

import math
import os
import secrets
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial

import numpy as np
import scipy.fft
from numpy.polynomial.legendre import leggauss
from scipy.special import j0

from .errors import (ExponentError, GridError, QuadratureError, RankError,
                     SymbolError)

HERMITIAN_RTOL = 1e-12

# FFT threads: every CPU the process may run on
FFT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
SAMPLE_CHUNK = 4  # time samples per map_samples job
MAX_GRID_POINTS = 128**3  # larger grids are refused before any allocation

_SCALAR = "scalar"
_VECTOR = "vector"
_MATRIX = "matrix"


def _check_grid_args(dim: int, n: int, box_length: float) -> None:
    if dim not in (2, 3):
        raise GridError(f"dim must be 2 or 3, got {dim}")
    if n % 2 != 0 or n < 8:
        raise GridError(f"points_per_axis must be even and >= 8, got {n}")
    if int(n) ** dim > MAX_GRID_POINTS:  # int: a numpy n**dim may wrap
        raise GridError(f"a {n}^{dim} grid exceeds {MAX_GRID_POINTS} points")
    # the energy ledger weighs sums by 2 L^dim (two modes per stored one)
    if not 0 < box_length < (np.finfo(float).max / 2.0) ** (1.0 / dim):
        raise GridError(f"box_length must be positive with 2 L^dim "
                        f"finite, got {box_length}")
    xi_nyquist = math.pi * n / box_length
    if not math.isfinite(dim * xi_nyquist * xi_nyquist):
        raise GridError(f"box_length {box_length} is too small: |xi|^2 "
                        f"overflows")


class Grid:
    """Isotropic periodic grid: ``dim`` axes, N points each, period L.

    Wavenumbers per axis are the integers -N/2 .. N/2-1 in FFT order;
    physical frequencies are xi = 2*pi*k/L.  The symbols cover the half
    spectrum: the last axis keeps the first N//2+1 wavenumbers, 0 ..
    N/2-1 and -N/2.
    """

    def __init__(self, dim: int, n: int, box_length: float):
        _check_grid_args(dim, n, box_length)
        self.dim = dim
        self.n = int(n)
        self.box_length = float(box_length)

        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integers, FFT order
        axes = [k1] * (dim - 1) + [k1[:self.n // 2 + 1]]
        self.k_int = np.stack(np.meshgrid(*axes, indexing="ij"))
        self.wavevectors = (2.0 * np.pi / self.box_length) * self.k_int
        # for odd-order derivative symbols the unpaired Nyquist mode
        # k = -N/2 must act as zero, or real fields lose their
        # Hermitian symmetry under differentiation and projection
        self.deriv_wavevectors = np.where(self.k_int == -self.n // 2, 0.0,
                                          self.wavevectors)
        self.deriv_xi_sq = np.sum(self.deriv_wavevectors**2, axis=0)
        self.xi_sq = np.sum(self.wavevectors**2, axis=0)
        self.xi_abs = np.sqrt(self.xi_sq)
        # 1/|xi|^2 on the derivative wavevectors, 0 where xi = 0
        self.inverse_laplacian = np.divide(
            1.0, self.deriv_xi_sq, out=np.zeros_like(self.deriv_xi_sq),
            where=self.deriv_xi_sq > 0)
        # modes of the full spectrum each stored mode stands for
        self.hermitian_weight = np.full(self.n // 2 + 1, 2.0)
        self.hermitian_weight[[0, -1]] = 1.0
        self.xi_min_nonzero = 2.0 * np.pi / self.box_length
        self.xi_max = float(np.max(self.xi_abs))

    @cached_property
    def xi_sq_shells(self):
        """The distinct values of |xi|^2 and the index that gathers them
        onto the grid (``np.take(values, index)`` is ``xi_sq``), once."""
        return _shells(self.xi_sq)

    @cached_property
    def band(self) -> "Band":
        """The dealias band as a rectangular coefficient block, built on
        first use."""
        return Band(self)

    @property
    def shape(self):
        """Shape of the physical samples."""
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return (self.box_length / self.n) ** self.dim

    @property
    def volume(self) -> float:
        return self.box_length**self.dim

    def physical_mesh(self):
        x1 = np.arange(self.n) * (self.box_length / self.n)
        return np.meshgrid(*([x1] * self.dim), indexing="ij")

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.n == other.n
            and self.box_length == other.box_length
        )

    def __hash__(self):
        return hash((self.dim, self.n, self.box_length))

    def __repr__(self):
        return f"Grid(dim={self.dim}, n={self.n}, box_length={self.box_length})"


def _shells(xi_sq: np.ndarray):
    """The distinct values of ``xi_sq`` and the index that gathers them
    back onto its shape."""
    values, index = np.unique(xi_sq, return_inverse=True)
    return values, index.reshape(xi_sq.shape)


class Band:
    """The 2/3 dealias band of a grid as a rectangular block of the half
    spectrum, a view that the grid operators take in place of the grid,
    and the package's one statement of the 2/3 rule.

    The rule keeps the modes with 3|k_i| < n on every axis i, so that no
    product of kept modes aliases into them: the block ``index`` (an
    ``np.ix_`` index) of k = 0 .. h-1, h = (n-1)//3 + 1, on the last axis
    and of those and -(h-1) .. -1 on the others, in ``fftfreq`` order.  A
    coefficient array in band layout holds that block in its trailing
    ``dim`` axes: ``gather`` takes it from the half spectrum and
    ``scatter`` puts it back among zeros, so ``scatter(gather(c))`` is c
    truncated to the band.  The band carries its own ``wavevectors``,
    ``deriv_wavevectors``, ``inverse_laplacian``, ``xi_sq``,
    ``xi_sq_shells`` and ``hermitian_weight`` (the grid's first h entries)
    and the grid's ``dim``, ``xi_max``, ``shape``, ``cell_volume`` and
    ``volume``, so that P div, the Leray projection, the heat and Duhamel
    stacks, the L^p, Besov and Parseval norms, the divergence residuals
    and the energy ledger run on it unchanged; the bands of equal grids
    are equal.  Outside the band no code
    knows the layout: its own transforms, ``inverse`` and ``forward``, run
    only the FFT lines that the block can reach, bit for bit the whole
    transforms of the truncated half spectrum, and ``forward`` is the one
    way a product is dealiased.
    """

    def __init__(self, grid: Grid):
        n, h = grid.n, (grid.n - 1) // 3 + 1
        rows = np.r_[:h, n - h + 1:n]
        self.index = np.ix_(*[rows] * (grid.dim - 1), np.arange(h))
        self._h = h
        self._halves = ((slice(None, h), slice(None, h)),
                        (slice(n - h + 1, None), slice(h, None)))
        # the 1/N^d of norm="forward", rounded from long double as
        # pocketfft rounds it
        self._scale = float(1 / np.longdouble(grid.n) ** grid.dim)
        # no reference to the grid, which holds the band: without that
        # cycle a dropped grid is freed at once
        self._half_shape = grid.xi_sq.shape
        self._key = (grid.dim, grid.n, grid.box_length)
        self._repr = f"{grid!r}.band"
        self.dim = grid.dim
        self.xi_max = grid.xi_max
        self.shape = grid.shape
        self.cell_volume = grid.cell_volume
        self.volume = grid.volume
        self.hermitian_weight = grid.hermitian_weight[:h]
        self.wavevectors = grid.wavevectors[(slice(None),) + self.index]
        self.deriv_wavevectors = grid.deriv_wavevectors[(slice(None),)
                                                        + self.index]
        self.xi_sq = grid.xi_sq[self.index]
        self.inverse_laplacian = grid.inverse_laplacian[self.index]

    @cached_property
    def xi_sq_shells(self):
        """``Grid.xi_sq_shells`` of the band's modes."""
        return _shells(self.xi_sq)

    def gather(self, half: np.ndarray) -> np.ndarray:
        """The band block of half-spectrum coefficients (a copy)."""
        return half[(Ellipsis,) + self.index]

    def scatter(self, block: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients that hold ``block`` in the band and
        zero elsewhere."""
        lead = block.shape[:block.ndim - self.dim]
        out = np.zeros(lead + self._half_shape, dtype=np.complex128)
        out[(Ellipsis,) + self.index] = block
        return out

    def inverse(self, block: np.ndarray) -> np.ndarray:
        """Real physical samples of band coefficients, bit for bit the
        ``irfftn`` of ``scatter(block)``.  Each axis but the last is
        widened into zeros and transformed in pocketfft's order, but only
        on the lines the block reaches; the last axis is a full
        ``irfft``."""
        n, h = self.shape[-1], self._h
        x = block
        for a in range(-self.dim, -1):
            shape = list(x.shape)
            shape[a] = n
            if a == -2:  # widen into the half spectrum
                shape[-1] = n // 2 + 1
            wide = np.zeros(shape, dtype=np.complex128)
            lines = wide[..., :h]
            for rows, part in self._halves:
                lines[_on_axis(a, rows)] = x[_on_axis(a, part)]
            _c2c_over(lines, a, forward=False)
            x = wide
        return scipy.fft.irfft(x, n=n, axis=-1, norm="forward",
                               workers=_fft_workers())

    def forward(self, values: np.ndarray) -> np.ndarray:
        """The band block of real physical samples' Fourier coefficients,
        bit for bit that of ``rfftn(values, norm="forward")``.  The last
        axis is a full ``rfft``; each other axis is then transformed in
        pocketfft's order on the lines that reach the band only."""
        half = scipy.fft.rfft(values, axis=-1, workers=_fft_workers())
        lines = [half[..., :self._h]]
        # pocketfft applies the whole 1/N^d at the real-to-complex stage
        scaled = lines[0].view(np.float64)
        scaled *= self._scale
        for a in range(-self.dim, -1):
            if a > -self.dim:  # only the previous axis' band rows go on
                lines = [part[_on_axis(a - 1, rows)] for part in lines
                         for rows, _ in self._halves]
            for part in lines:
                _c2c_over(part, a, forward=True)
        return self.gather(half)

    def __eq__(self, other):
        """The bands of equal grids are equal."""
        return isinstance(other, Band) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return self._repr


def _on_axis(axis: int, part: slice) -> tuple:
    """Index that takes ``part`` of the negative ``axis``."""
    return (Ellipsis, part) + (slice(None),) * (-axis - 1)


def _c2c_over(lines: np.ndarray, axis: int, forward: bool) -> None:
    """Unscaled complex FFT of ``lines`` along ``axis``, written over
    ``lines`` (a view into a larger array)."""
    fft, norm = ((scipy.fft.fft, "backward") if forward
                 else (scipy.fft.ifft, "forward"))
    out = fft(lines, axis=axis, norm=norm, overwrite_x=True,
              workers=_fft_workers())
    if not np.may_share_memory(out, lines):
        lines[...] = out


def make_grid(dim: int, n: int, box_length: float) -> Grid:
    """Build a periodic spectral grid, validating dim/N/L."""
    return Grid(dim, n, box_length)


def _require_hermitian(coeffs: np.ndarray, partner: np.ndarray,
                       scale: float) -> None:
    """RankError unless ``coeffs`` equals its conjugate ``partner`` to
    rounding relative to ``scale``."""
    if scale > 0 and np.max(np.abs(coeffs - partner)) > HERMITIAN_RTOL * scale * 10:
        raise RankError("coefficients are not Hermitian-symmetric "
                        "(field would not be real-valued)")


# ---------------------------------------------------------------------
# Sample-chunk jobs, the package's only threads
# ---------------------------------------------------------------------

_job = threading.local()  # .active: this thread is running a job
_pool: ThreadPoolExecutor | None = None
_pool_pid = 0  # the process that started _pool's threads
_pool_lock = threading.Lock()


def _fft_workers() -> int:
    """FFT threads of a transform made on this thread: one inside a
    ``map_samples`` job, ``FFT_WORKERS`` elsewhere."""
    return 1 if getattr(_job, "active", False) else FFT_WORKERS


def _helper_pool() -> ThreadPoolExecutor:
    """The pool that runs ``map_samples`` jobs beside the caller, started
    on first use (and again in a forked child, which has no threads)."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(FFT_WORKERS - 1,
                                       thread_name_prefix="nselab-samples")
            _pool_pid = os.getpid()
        return _pool


def map_samples(fn, out: np.ndarray) -> np.ndarray:
    """Set ``out[part] = fn(part)`` for each slice ``part`` of
    ``SAMPLE_CHUNK`` consecutive samples (first-axis entries) of ``out``,
    and return ``out``; each job writes only its own slice.

    The caller and ``FFT_WORKERS - 1`` pool threads take slices from one
    queue, and a job's FFTs run on one thread.  A nested call, a single
    slice or ``FFT_WORKERS == 1`` runs inline.  If a job raises, no
    further slice is started; the call returns once every running job
    has finished and re-raises the exception.
    """
    parts = [slice(s, s + SAMPLE_CHUNK)
             for s in range(0, len(out), SAMPLE_CHUNK)]
    helpers = min(FFT_WORKERS, len(parts)) - 1
    if helpers <= 0 or getattr(_job, "active", False):
        for part in parts:
            out[part] = fn(part)
        return out
    queue = iter(parts)
    lock = threading.Lock()
    failed = threading.Event()

    def drain():
        _job.active = True
        try:
            while not failed.is_set():
                with lock:
                    part = next(queue, None)
                if part is None:
                    return
                out[part] = fn(part)
        except BaseException:
            failed.set()
            raise
        finally:
            _job.active = False

    pool = _helper_pool()
    futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return out


# ---------------------------------------------------------------------
# Array kernels: the trailing grid.dim axes are the grid, leading axes
# are any mix of batch (time-sample) and component axes.
# ---------------------------------------------------------------------

def _rank_shape(rank: str, dim: int, n: int) -> tuple:
    """Half-spectrum coefficient-array shape of a field of the given
    rank."""
    components = {_SCALAR: (), _VECTOR: (dim,), _MATRIX: (dim, dim)}
    if rank not in components:
        raise RankError(f"unknown rank {rank!r}")
    return components[rank] + (n,) * (dim - 1) + (n // 2 + 1,)


def full_spectrum(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full-spectrum coefficients (last axis N) of the half spectrum,
    filling k_last = N/2+1 .. N-1 from c_{-k} = conj(c_k); CLF1 files
    hold this layout."""
    h = half.shape[-1]
    out = np.empty(half.shape[:-1] + (grid.n,), dtype=np.complex128)
    out[..., :h] = half
    mirror = half[..., h - 2:0:-1]         # k_last = N/2-1 .. 1
    neg = -np.arange(grid.n) % grid.n      # index of -k along an axis
    for a in range(-grid.dim, -1):
        mirror = np.take(mirror, neg, axis=a)
    np.conjugate(mirror, out=out[..., h:])
    return out


def forward_half(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Half-spectrum Fourier coefficients of real physical samples."""
    return scipy.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)),
                           norm="forward", workers=_fft_workers())


def inverse_transform(grid: Grid | Band, coeffs: np.ndarray) -> np.ndarray:
    """Real physical samples of Fourier coefficients in the layout of
    ``grid``: the half spectrum of a grid (``irfftn``), or the block of a
    band (``Band.inverse``)."""
    if isinstance(grid, Band):
        return grid.inverse(coeffs)
    return scipy.fft.irfftn(coeffs, s=grid.shape,
                            axes=tuple(range(-grid.dim, 0)),
                            norm="forward", workers=_fft_workers())


def xi_dot(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """xi . c, contracting the component axis just before the grid axes
    with the derivative wavevectors."""
    s = "xyz"[:grid.dim]
    return np.einsum(f"i{s},...i{s}->...{s}", grid.deriv_wavevectors, coeffs)


def gradient_coeffs(grid: Grid, coeffs: np.ndarray,
                    batch_axes: int = 0) -> np.ndarray:
    """i xi_i c: the spectral gradient as a new component axis right
    after the first ``batch_axes`` axes."""
    lead = range(1, coeffs.ndim - batch_axes - grid.dim + 1)
    xi = np.expand_dims(1j * grid.deriv_wavevectors, tuple(lead))
    return xi * np.expand_dims(coeffs, batch_axes)


def leray_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Leray projection (delta_ij - xi_i xi_j/|xi|^2) of vector
    coefficients."""
    xu = xi_dot(grid, coeffs) * grid.inverse_laplacian
    return coeffs - grid.deriv_wavevectors * np.expand_dims(xu, -grid.dim - 1)


def projected_divergence_coeffs(grid: Grid, tensor: np.ndarray) -> np.ndarray:
    """P div F of tensor coefficients: contract i xi_j into F_ij, project."""
    s = "xyz"[:grid.dim]
    g = 1j * np.einsum(f"j{s},...ij{s}->...i{s}", grid.deriv_wavevectors,
                       tensor)
    return leray_coeffs(grid, g)


def _dealiased_products(band: Band, count: int, products) -> np.ndarray:
    """Band coefficients (``Band.forward``) of ``count`` physical products
    stacked on the axis just before the grid axes, ``products(s)``
    forming those of the slice ``s`` of that axis.  They are formed and
    transformed ``band.dim`` at a time into one output, so the physical
    temporaries are never larger than one vector field's."""
    out = None
    for start in range(0, count, band.dim):
        part = slice(start, start + band.dim)
        c = band.forward(products(part))
        if out is None:
            out = np.empty(c.shape[:-band.dim - 1] + (count,)
                           + c.shape[-band.dim:], dtype=c.dtype)
        out[(Ellipsis, part) + (slice(None),) * band.dim] = c
    return out


def symmetric_tensor(band: Band, pv: np.ndarray,
                     pw: np.ndarray | None) -> np.ndarray:
    """Dealiased band coefficients of the symmetric tensor v_i v_j (``pw``
    is None) or v_i w_j + w_i v_j from physical vector samples.  Only the
    d(d+1)/2 entries i <= j are formed and transformed."""
    axis = -band.dim - 1
    i, j = np.triu_indices(band.dim)

    def products(s):
        prod = np.take(pv, i[s], axis) * np.take(pv if pw is None else pw,
                                                 j[s], axis)
        if pw is not None:
            prod += np.take(pw, i[s], axis) * np.take(pv, j[s], axis)
        return prod

    out = _dealiased_products(band, i.size, products)
    pair = np.empty((band.dim, band.dim), dtype=np.intp)
    pair[i, j] = pair[j, i] = np.arange(i.size)
    return np.take(out, pair, axis)


def dealiased_tensor(band: Band, pv: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """Dealiased band coefficients of the tensor v_i w_j from physical
    vector samples (all d^2 products formed and transformed, one row
    v_i w_. at a time)."""
    axis = -band.dim - 1
    out = _dealiased_products(band, band.dim**2, lambda s: np.expand_dims(
        np.take(pv, s.start // band.dim, axis), axis) * pw)
    return out.reshape(out.shape[:axis] + (band.dim, band.dim)
                       + out.shape[axis + 1:])


def magnitude(grid: Grid, values: np.ndarray,
              batch_axes: int = 0) -> np.ndarray:
    """Pointwise magnitude |f(x)| of physical samples.  The first
    ``batch_axes`` axes are kept; the remaining leading axes are
    components, reduced by the Euclidean/Frobenius norm."""
    comp_axes = tuple(range(batch_axes, values.ndim - grid.dim))
    if not comp_axes:
        return np.abs(values)
    return power_sum_root(np.abs(values), 2, comp_axes)


def power_sum_root(base: np.ndarray, p: float, axis, total=None) -> np.ndarray:
    """(total of base**p)**(1/p), base >= 0; ``total`` is a linear sum
    over ``axis`` (default np.sum).  Where that power sum is not finite
    or below the smallest normal float, base is scaled by its largest
    entry first (the overflow-safe norm of Blue, ACM TOMS 4, 1978);
    elsewhere the plain sum is kept bit for bit."""
    if total is None:
        total = partial(np.sum, axis=axis)
    with np.errstate(over="ignore"):
        power = total(base ** p)
    lost = ~np.isfinite(power) | (power < np.finfo(float).tiny)
    if not np.any(lost):
        return power ** (1.0 / p)
    peak = np.max(base, axis=axis, keepdims=True, initial=0.0)
    unit = np.where((peak > 0) & np.isfinite(peak), peak, 1.0)
    scaled = np.squeeze(unit, axis) * total((base / unit) ** p) ** (1.0 / p)
    return np.where(lost, scaled, power ** (1.0 / p))


def magnitude_lp_norms(grid: Grid, values: np.ndarray, p: float,
                       batch_axes: int = 0) -> np.ndarray:
    """Grid-quadrature L^p norm of the pointwise magnitude of physical
    samples, one per entry of the first ``batch_axes`` axes, p >= 1.
    For even integer p the power is an integer power of the summed
    squared components, with no square root; a nonzero sample whose power
    over- or underflows takes the route of odd p, through ``magnitude``."""
    if not p >= 1:
        raise ExponentError(f"an L^p norm needs p >= 1, got {p}")
    space = tuple(range(-grid.dim, 0))

    def from_magnitude(samples, batch):
        mag = magnitude(grid, samples, batch)
        if math.isinf(p):
            return np.max(mag, axis=space)
        return power_sum_root(mag, p, space, lambda x: grid.cell_volume
                              * np.sum(x, axis=space))

    if p % 2 != 0:
        return from_magnitude(values, batch_axes)
    comp_axes = tuple(range(batch_axes, values.ndim - grid.dim))
    with np.errstate(over="ignore"):
        power = grid.cell_volume * np.sum(np.sum(
            values**2, axis=comp_axes) ** (int(p) // 2), axis=space)
    lost = np.asarray(~np.isfinite(power) | (power < np.finfo(float).tiny))
    lost[lost] = [np.any(v) for v in values[lost]]
    if not np.any(lost):
        return power ** (1.0 / p)
    norms = np.array(power ** (1.0 / p))
    norms[lost] = from_magnitude(values[lost], 1)
    return norms


def lp_norms(grid: Grid, coeffs: np.ndarray, p: float,
             batch_axes: int = 0) -> np.ndarray:
    """Grid-quadrature L^p norm of the pointwise magnitude, one per entry
    of the first ``batch_axes`` axes.  With batch axes the samples run as
    ``map_samples`` jobs along the first one."""
    if batch_axes == 0:
        return magnitude_lp_norms(grid, inverse_transform(grid, coeffs), p)
    return map_samples(lambda part: magnitude_lp_norms(
        grid, inverse_transform(grid, coeffs[part]), p, batch_axes),
        np.empty(coeffs.shape[:batch_axes]))


def l2_norms(grid: Grid, coeffs: np.ndarray, batch_axes: int = 0,
             weight: np.ndarray | None = None) -> np.ndarray:
    """Parseval norm ``sqrt(L^d sum_k w_k |c_k|^2)`` over the full
    spectrum (w = 1: the L^2 norm), one per entry of the first
    ``batch_axes`` axes; on the half spectrum each mode carries
    ``grid.hermitian_weight``."""
    sq = grid.hermitian_weight * np.abs(coeffs) ** 2
    if weight is not None:
        sq *= weight
    total = np.sum(sq, axis=tuple(range(batch_axes, coeffs.ndim)))
    return np.sqrt(grid.volume * total)


def divergence_residuals(grid: Grid, coeffs: np.ndarray,
                         batch_axes: int = 0) -> np.ndarray:
    """max_k |xi . u^| / (xi_max max_k |u^|) of vector coefficients, one
    per entry of the first ``batch_axes`` axes; 0 where u = 0."""
    scale = np.max(np.abs(coeffs), axis=tuple(range(batch_axes, coeffs.ndim)))
    xu = np.abs(xi_dot(grid, coeffs))
    xu = np.max(xu, axis=tuple(range(batch_axes, xu.ndim)))
    return np.divide(xu, grid.xi_max * scale, out=np.zeros_like(scale),
                     where=scale > 0)


def interpolate_stack(times: np.ndarray, stack: np.ndarray,
                      new_times) -> np.ndarray:
    """Piecewise-linear interpolation in time of a stack (M, ...) sampled
    at ``times``, evaluated at ``new_times`` (scalar or 1-D); the end
    intervals extend linearly past the sampled range.  Needs at least
    two samples."""
    if len(times) < 2:
        raise QuadratureError(f"interpolation needs at least two samples, "
                              f"got {len(times)}")
    new_times = np.asarray(new_times, dtype=float)
    flat = new_times.reshape(-1)
    idx = np.searchsorted(times, flat, side="right") - 1
    idx = np.clip(idx, 0, times.size - 2)
    w = (flat - times[idx]) / (times[idx + 1] - times[idx])
    w = w.reshape(w.shape + (1,) * (stack.ndim - 1))
    # fancy indexing copies only the rows it reads (np.take would first
    # copy a whole non-contiguous stack, such as a half-spectrum view)
    out = stack[idx]
    out *= 1 - w
    right = stack[idx + 1]
    right *= w
    out += right
    return out.reshape(new_times.shape + stack.shape[1:])


class SpectralField:
    """Immutable periodic field stored as Fourier coefficients.

    ``coeffs`` is the half spectrum: rank 'scalar' -> shape (N, ...,
    N//2+1); 'vector' -> (dim,) + that; 'matrix' -> (dim, dim) + that.
    Writeable coefficients are copied; read-only ones (such as a sample
    of a ``Trajectory`` stack) are shared.  ``check_hermitian`` checks
    the k_last = 0 and N/2 planes, the modes whose conjugates are held
    too.
    """

    def __init__(self, grid: Grid, rank: str, coeffs: np.ndarray,
                 check_hermitian: bool = True):
        expected = _rank_shape(rank, grid.dim, grid.n)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != expected:
            raise RankError(
                f"coeff shape {coeffs.shape} does not match rank {rank!r} "
                f"on {grid!r}")
        if check_hermitian:
            planes = coeffs[..., [0, -1]]
            partner = np.conj(planes)  # at -k within each plane
            for a in range(-grid.dim, -1):
                partner = np.roll(np.flip(partner, axis=a), 1, axis=a)
            _require_hermitian(planes, partner, np.max(np.abs(coeffs)))
        if coeffs.flags.writeable:
            coeffs = coeffs.copy()
            coeffs.flags.writeable = False
        self.grid = grid
        self.rank = rank
        self.coeffs = coeffs

    @property
    def layout(self) -> Grid:
        """The layout of ``coeffs``, always the grid's half spectrum (as
        for ``Trajectory.layout``)."""
        return self.grid

    # -- constructors -------------------------------------------------
    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        """Build a field from real physical samples (any rank)."""
        values = np.asarray(values, dtype=np.float64)
        lead = values.shape[: values.ndim - grid.dim]
        ranks = {(): _SCALAR, (grid.dim,): _VECTOR,
                 (grid.dim, grid.dim): _MATRIX}
        if lead not in ranks:
            raise RankError(f"cannot infer rank from shape {values.shape}")
        return cls(grid, ranks[lead], forward_half(grid, values),
                   check_hermitian=False)

    @classmethod
    def zero(cls, grid: Grid, rank: str = _VECTOR) -> "SpectralField":
        shape = _rank_shape(rank, grid.dim, grid.n)
        return cls(grid, rank, np.zeros(shape, dtype=np.complex128),
                   check_hermitian=False)

    def with_coeffs(self, coeffs: np.ndarray,
                    check_hermitian: bool = False) -> "SpectralField":
        return SpectralField(self.grid, self.rank, coeffs,
                             check_hermitian=check_hermitian)

    # -- transforms and reductions ------------------------------------
    def to_physical(self) -> np.ndarray:
        return inverse_transform(self.grid, self.coeffs)

    def pointwise_magnitude(self) -> np.ndarray:
        """|f(x)| on the grid; Euclidean/Frobenius over component axes."""
        return magnitude(self.grid, self.to_physical())

    def lp_norm(self, p: float) -> float:
        """Grid-quadrature L^p norm of the pointwise magnitude."""
        return float(lp_norms(self.grid, self.coeffs, p))

    def l2_norm(self) -> float:
        """Parseval L^2 norm from the coefficients."""
        return float(l2_norms(self.grid, self.coeffs))

    def h1_seminorm(self) -> float:
        """|| |xi| f^ ||, i.e. the homogeneous H^1 seminorm."""
        return float(l2_norms(self.grid, self.coeffs, weight=self.grid.xi_sq))

    def sobolev_norm(self, s: float) -> float:
        """Homogeneous H^s seminorm (k=0 mode excluded)."""
        mask = self.grid.xi_sq > 0
        w = np.zeros_like(self.grid.xi_sq)
        w[mask] = self.grid.xi_sq[mask] ** s
        return float(l2_norms(self.grid, self.coeffs, weight=w))

    def mean_mode(self) -> np.ndarray:
        idx = (Ellipsis,) + (0,) * self.grid.dim
        return np.array(self.coeffs[idx])

    def zero_mean(self) -> "SpectralField":
        c = self.coeffs.copy()
        idx = (Ellipsis,) + (0,) * self.grid.dim
        c[idx] = 0.0
        return self.with_coeffs(c)

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    # -- arithmetic ----------------------------------------------------
    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid or self.rank != other.rank:
            raise GridError("incompatible fields")

    def __add__(self, other):
        self._check_compatible(other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __mul__(self, a):
        return self.with_coeffs(self.coeffs * a)

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_coeffs(-self.coeffs)

    def component(self, *idx) -> "SpectralField":
        if self.rank == _SCALAR:
            raise RankError("scalar field has no components")
        return SpectralField(self.grid, _SCALAR, self.coeffs[idx],
                             check_hermitian=False)


# ---------------------------------------------------------------------
# Multipliers
# ---------------------------------------------------------------------

def apply_multiplier(field: SpectralField, symbol) -> SpectralField:
    """Apply a scalar Fourier multiplier m(xi) to every component.

    ``symbol`` receives the half-layout wavevector array
    ``grid.wavevectors`` of shape (dim, N, ..., N//2+1) and must return
    finite values on every one of its points (including xi=0).
    """
    xi = field.grid.wavevectors
    m = np.asarray(symbol(xi))
    if m.shape != xi.shape[1:]:
        raise SymbolError(f"symbol returned shape {m.shape}, "
                          f"expected {xi.shape[1:]}")
    if not np.all(np.isfinite(m)):
        raise SymbolError("symbol produced non-finite values on the grid")
    return field.with_coeffs(field.coeffs * m)


# ---------------------------------------------------------------------
# Differential / projection operators
# ---------------------------------------------------------------------

def divergence(field: SpectralField) -> SpectralField:
    """Spectral divergence i xi . u^ of a vector field."""
    if field.rank != _VECTOR:
        raise RankError("divergence needs a vector field")
    c = 1j * xi_dot(field.grid, field.coeffs)
    return SpectralField(field.grid, _SCALAR, c, check_hermitian=False)


def gradient(field: SpectralField) -> SpectralField:
    """Spectral gradient; scalar -> vector, vector -> matrix (d_i u_j)."""
    ranks = {_SCALAR: _VECTOR, _VECTOR: _MATRIX}
    if field.rank not in ranks:
        raise RankError("gradient of a matrix field is not supported")
    return SpectralField(field.grid, ranks[field.rank],
                         gradient_coeffs(field.grid, field.coeffs),
                         check_hermitian=False)


def curl(field: SpectralField):
    """Spectral curl; 3D vector -> vector, 2D vector -> scalar."""
    if field.rank != _VECTOR:
        raise RankError("curl needs a vector field")
    xi = field.grid.deriv_wavevectors
    u = field.coeffs
    if field.grid.dim == 2:
        c = 1j * (xi[0] * u[1] - xi[1] * u[0])
        return SpectralField(field.grid, _SCALAR, c, check_hermitian=False)
    c = 1j * np.stack([
        xi[1] * u[2] - xi[2] * u[1],
        xi[2] * u[0] - xi[0] * u[2],
        xi[0] * u[1] - xi[1] * u[0],
    ])
    return SpectralField(field.grid, _VECTOR, c, check_hermitian=False)


def leray_project(field: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: (delta_ij - xi_i xi_j/|xi|^2)."""
    if field.rank != _VECTOR:
        raise RankError("Leray projection needs a vector field")
    return field.with_coeffs(leray_coeffs(field.grid, field.coeffs))


def divergence_residual(field: SpectralField) -> float:
    """max_k |xi . u^| / max |u^|; 0 for the zero field."""
    return float(divergence_residuals(field.grid, field.coeffs))


def check_flow(grid: Grid, f, what: str) -> None:
    """The one rule for every flow a run reads: GridError unless ``f`` (a
    field, or a trajectory checked sample by sample, in its ``layout``)
    is a vector field on ``grid`` that is finite, divergence-free to
    1e-10, and small enough that a transform's sum over n^d products of
    two such flows, each a sum of two, cannot overflow (|f(x)| is at most
    the sum of |c_k|) and that its energy L^d sum_k |c_k|^2 over the
    full spectrum is finite."""
    if f.grid != grid or f.rank != _VECTOR:
        raise GridError(f"{what} must be a vector field on the grid")
    if not np.all(np.isfinite(f.coeffs)):
        raise GridError(f"{what} must be finite")
    layout = f.layout
    axes = tuple(range(f.coeffs.ndim - grid.dim - 1, f.coeffs.ndim))
    with np.errstate(over="ignore"):
        size = np.abs(f.coeffs)
        size *= layout.hermitian_weight
        peak = float(np.max(np.sum(size, axes)))
        size *= np.abs(f.coeffs)
        energy = grid.volume * float(np.max(np.sum(size, axes)))
    if not math.isfinite(2.0 * grid.n**grid.dim * peak * peak):
        raise GridError(f"{what} is too large: its products would overflow")
    if not math.isfinite(energy):
        raise GridError(f"{what} is too large: its energy would overflow")
    if np.max(divergence_residuals(layout, f.coeffs, axes[0])) > 1e-10:
        raise GridError(f"{what} must be divergence-free")


def dealias_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Pointwise product in physical space, 2/3-rule dealiased.

    vector x vector gives the tensor u_i v_j (for ``v is u`` only the
    d(d+1)/2 products i <= j are formed); scalar factors multiply
    componentwise.
    """
    if u.grid != v.grid:
        raise GridError("fields on different grids")
    g, band = u.grid, u.grid.band
    if u.rank == _VECTOR and v.rank == _VECTOR:
        pu = u.to_physical()
        c = symmetric_tensor(band, pu, None) if v is u else \
            dealiased_tensor(band, pu, v.to_physical())
        return SpectralField(g, _MATRIX, band.scatter(c),
                             check_hermitian=False)
    if v.rank == _SCALAR and u.rank != _SCALAR:
        return dealias_product(v, u)
    if u.rank != _SCALAR:
        raise RankError(f"unsupported product ranks {u.rank} x {v.rank}")
    pu = u.to_physical()
    pv = v.to_physical()
    prod = pu[(None,) * (pv.ndim - pu.ndim)] * pv
    return SpectralField(g, v.rank, band.scatter(band.forward(prod)),
                         check_hermitian=False)


def pressure_from_velocity(u: SpectralField, v: SpectralField) -> SpectralField:
    """(-Laplace)^{-1} div div (u (x) v) with zero mean.

    For u = v this is the Navier-Stokes pressure of the convention
    du/dt - Lap u + div(u(x)u) + grad p = 0.
    """
    if u.rank != _VECTOR or v.rank != _VECTOR:
        raise RankError("pressure recovery needs vector fields")
    g = u.grid
    tensor = dealias_product(u, v)
    xi = g.deriv_wavevectors
    num = -np.einsum("i...,j...,ij...->...", xi, xi, tensor.coeffs)
    return SpectralField(g, _SCALAR, num * g.inverse_laplacian,
                         check_hermitian=False)


# ---------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------

_GAUSS_NODES = 256


def _bump(r: np.ndarray) -> np.ndarray:
    """Unnormalized kernel exp(-1/(1-r^2)) on [0,1), 0 outside."""
    out = np.zeros_like(r)
    inside = r < 1.0
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ri**2))
    return out


@dataclass
class Mollifier:
    """Radial compactly supported unit-mass kernel theta, scaled by rho.

    theta(x) = c * exp(-1/(1-|x|^2)) for |x| < 1, zero outside; c fixes
    unit integral in the given dimension.  Frequency response
    theta^(s) is tabulated by Gauss-Legendre quadrature of the radial
    profile, normalized so theta^(0) = 1 exactly.
    """

    dim: int
    rho: float
    _nodes: np.ndarray = dc_field(init=False, repr=False)
    _weights: np.ndarray = dc_field(init=False, repr=False)
    _mass: float = dc_field(init=False, repr=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GridError("mollifier dimension must be 2 or 3")
        if not self.rho > 0:
            raise GridError("mollifier rho must be positive")
        x, w = leggauss(_GAUSS_NODES)
        r = 0.5 * (x + 1.0)
        wr = 0.5 * w
        self._nodes = r
        self._weights = wr
        surf = 2.0 * np.pi if self.dim == 2 else 4.0 * np.pi
        self._mass = float(surf * np.sum(wr * _bump(r) * r ** (self.dim - 1)))

    def profile(self, r: np.ndarray) -> np.ndarray:
        """theta(|x|), normalized to unit mass."""
        return _bump(np.asarray(r, dtype=np.float64)) / self._mass

    def hat(self, s: np.ndarray) -> np.ndarray:
        """theta^(s) for the unit-support kernel; theta^(0) = 1."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        r = self._nodes
        g = self._weights * _bump(r) * r ** (self.dim - 1)
        sr = np.multiply.outer(s, r)
        if self.dim == 3:
            kern = np.sinc(sr / np.pi)  # sin(sr)/(sr)
            vals = 4.0 * np.pi * np.sum(g * kern, axis=-1)
        else:
            vals = 2.0 * np.pi * np.sum(g * j0(sr), axis=-1)
        return vals / self._mass

    def symbol(self, grid: Grid) -> np.ndarray:
        """The multiplier theta^(rho |xi|) of theta_rho on the grid.

        Rejects rho >= box length (the kernel would wrap around the torus).
        """
        if self.dim != grid.dim:
            raise GridError("mollifier dimension does not match the grid")
        if self.rho >= grid.box_length:
            raise GridError("mollifier radius exceeds the periodic box")
        values, index = grid.xi_sq_shells
        return np.take(self.hat(self.rho * np.sqrt(values)), index)


def mollify(field: SpectralField, mollifier: Mollifier) -> SpectralField:
    """Convolve with theta_rho, i.e. multiply by theta^(rho |xi|)."""
    return field.with_coeffs(field.coeffs * mollifier.symbol(field.grid))


# ---------------------------------------------------------------------
# CLF1 field file format
# ---------------------------------------------------------------------

def atomic_write_bytes(path, payload: bytes) -> None:
    """Write-temp-then-rename so partial files never appear."""
    d, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(d, f".{name}.{secrets.token_hex(8)}.tmp")
    # mode 0666 lets the umask set the permissions, as open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def finite_json(obj):
    """``obj`` with numpy arrays and scalars as plain Python values and
    every non-finite float as None, so that it serializes to strict
    JSON (``allow_nan=False``)."""
    if isinstance(obj, dict):
        return {k: finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [finite_json(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_clf1(path, field: SpectralField) -> None:
    """Write a field as CLF1: ASCII header then the full spectrum as
    little-endian complex128 (float64 (re, im) pairs) in row-major
    k-order per component."""
    g = field.grid
    coeffs = full_spectrum(g, field.coeffs)
    ncomp = coeffs.size // g.n**g.dim
    header = f"CLF1 {g.dim} {g.n} {g.box_length!r} {field.rank} {ncomp}\n"
    atomic_write_bytes(path, header.encode("ascii")
                       + coeffs.astype("<c16", copy=False).tobytes())


def read_clf1(path) -> SpectralField:
    """Read a CLF1 field file; bit-exact inverse of write_clf1.

    The header and the payload size are checked before the grid is
    built, so a corrupt file fails with GridError or RankError rather
    than a grid-sized allocation.  Non-finite coefficients raise
    GridError and non-Hermitian ones RankError, since the field keeps
    only the half spectrum and the inverse transform assumes a real
    field: the file must equal the full spectrum of its own half.
    """
    with open(path, "rb") as fh:
        header = fh.readline().split()
        payload = fh.read()
    try:
        magic, dim, n, box, rank, ncomp = (h.decode("ascii") for h in header)
        dim, n, box, ncomp = int(dim), int(n), float(box), int(ncomp)
    except ValueError as exc:  # token count, encoding or number syntax
        raise GridError(f"not a CLF1 file: {path}") from exc
    if magic != "CLF1":
        raise GridError(f"not a CLF1 file: {path}")
    _check_grid_args(dim, n, box)
    shape = _rank_shape(rank, dim, n)
    full = shape[:-1] + (n,)
    if ncomp != math.prod(shape[:-dim]):
        raise GridError(f"CLF1 component count {ncomp} does not match "
                        f"rank {rank!r}")
    if len(payload) != 16 * math.prod(full):
        raise GridError("CLF1 payload size mismatch")
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(full)
    if not np.all(np.isfinite(coeffs)):
        raise GridError(f"CLF1 payload has non-finite coefficients: {path}")
    grid = Grid(dim, n, box)
    # a copy, so that the field does not keep the payload alive
    field = SpectralField(grid, rank, coeffs[..., :shape[-1]].copy(),
                          check_hermitian=True)
    _require_hermitian(coeffs, full_spectrum(grid, field.coeffs),
                       np.max(np.abs(coeffs)))
    return field
