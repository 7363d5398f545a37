"""Dyadic Littlewood-Paley partitions, homogeneous Besov / Kato /
time-space norms, the energy norm, and Bony paraproducts.

The partition is built from a smooth radial step chi equal to 1 on
|xi| <= 3/4 and 0 on |xi| >= 4/3, with phi(xi) = chi(xi/2) - chi(xi),
so supp phi is the annulus 3/4 <= |xi| <= 8/3 and the dyadic sum
telescopes to a partition of unity on the resolved band.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (ExponentError, GridError, PartitionError,
                     QuadratureError, RankError)
from .spectral import (Band, Grid, SpectralField, dealias_product,
                       finite_json, inverse_transform, l2_norms, lp_norms,
                       magnitude_lp_norms, map_samples, power_sum_root)

CRITICAL_DIM = 3  # s_p := -1 + 3/p throughout, following the 3D theory


def critical_exponent(p: float) -> float:
    """s_p = -1 + 3/p for p >= 1 (p = inf gives -1)."""
    if not p >= 1:
        raise ExponentError(f"critical exponents need p >= 1, got {p}")
    return -1.0 + (0.0 if math.isinf(p) else CRITICAL_DIM / p)


# ---------------------------------------------------------------------
# Smooth radial step and dyadic symbols
# ---------------------------------------------------------------------

def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C^inf step: 0 for t<=0, 1 for t>=1, exp(-1/t) blending between."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


CHI_ONE = 0.75   # chi == 1 inside this radius
CHI_ZERO = 4.0 / 3.0  # chi == 0 outside this radius


def chi_profile(r: np.ndarray) -> np.ndarray:
    """Smooth low-pass step: 1 on r <= 3/4, 0 on r >= 4/3."""
    t = (np.asarray(r, dtype=np.float64) - CHI_ONE) / (CHI_ZERO - CHI_ONE)
    return 1.0 - _smooth_step(t)


def phi_profile(r: np.ndarray) -> np.ndarray:
    """Annulus bump phi(r) = chi(r/2) - chi(r); support [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return chi_profile(r / 2.0) - chi_profile(r)


class DyadicPartition:
    """Tabulated dyadic multipliers phi(2^-j xi), chi(2^-j xi) on a grid.

    The index range must cover the grid's nonzero spectrum:
    (4/3)*2^j_min <= min nonzero |xi| and (3/4)*2^(j_max+1) >= max |xi|,
    which makes sum_j phi_j == 1 on every nonzero grid frequency.
    """

    def __init__(self, grid: Grid, j_min: int, j_max: int):
        if j_min > j_max:
            raise PartitionError("j_min must not exceed j_max")
        lo = grid.xi_min_nonzero
        hi = grid.xi_max
        if CHI_ZERO * 2.0**j_min > lo * (1 + 1e-12):
            raise PartitionError(
                f"j_min={j_min} too high: lowest block does not clear the "
                f"minimum grid frequency {lo}")
        if CHI_ONE * 2.0 ** (j_max + 1) < hi * (1 - 1e-12):
            raise PartitionError(
                f"j_max={j_max} too low for maximum grid frequency {hi}")
        self.grid = grid
        self.j_min = int(j_min)
        self.j_max = int(j_max)
        r = grid.xi_abs
        self._phi = {j: phi_profile(r / 2.0**j)
                     for j in range(j_min, j_max + 1)}
        self._chi = {j: chi_profile(r / 2.0**j)
                     for j in range(j_min - 1, j_max + 2)}
        self._band_phi = {}  # j -> phi_j gathered onto the grid's band

    @property
    def j_range(self):
        return range(self.j_min, self.j_max + 1)

    def phi_symbol(self, j: int, layout: Grid | Band | None = None
                   ) -> np.ndarray:
        """phi(2^-j xi) on the partition's grid, or in ``layout``: that
        grid or its dealias band (GridError for any other)."""
        if j not in self._phi:
            raise PartitionError(f"block index {j} outside "
                                 f"[{self.j_min}, {self.j_max}]")
        if layout is None or layout == self.grid:
            return self._phi[j]
        band = self.grid.band
        if layout != band:
            raise GridError("field and partition grids differ")
        if j not in self._band_phi:
            self._band_phi[j] = band.gather(self._phi[j])
        return self._band_phi[j]

    def chi_symbol(self, j: int) -> np.ndarray:
        if j not in self._chi:
            raise PartitionError(f"low-pass index {j} outside "
                                 f"[{self.j_min - 1}, {self.j_max + 1}]")
        return self._chi[j]

    def partition_deviation(self) -> float:
        """max |sum_j phi_j - 1| over nonzero grid frequencies."""
        total = sum(self._phi.values())
        mask = self.grid.xi_sq > 0
        return float(np.max(np.abs(total[mask] - 1.0)))

    def telescoping_deviation(self) -> float:
        """max |chi + sum_{j>=0} phi_j - 1| on the resolved band |xi| <= 3/4*2^(j_max+1)."""
        total = sum((self._phi[j] for j in range(0, self.j_max + 1)),
                    chi_profile(self.grid.xi_abs))
        band = self.grid.xi_abs <= CHI_ONE * 2.0 ** (self.j_max + 1)
        return float(np.max(np.abs(total[band] - 1.0)))


def build_partition(grid: Grid, j_min: int, j_max: int) -> DyadicPartition:
    return DyadicPartition(grid, j_min, j_max)


def default_partition(grid: Grid) -> DyadicPartition:
    """Widest-coverage partition for a grid: identity holds on every
    nonzero mode."""
    j_min = math.floor(math.log2(grid.xi_min_nonzero / CHI_ZERO))
    j_max = math.ceil(math.log2(grid.xi_max / (2.0 * CHI_ONE)))
    return DyadicPartition(grid, j_min, j_max)


def lp_block(field: SpectralField, j: int,
             partition: DyadicPartition) -> SpectralField:
    """Littlewood-Paley block: multiply by phi(2^-j xi)."""
    if field.grid != partition.grid:
        raise GridError("field and partition grids differ")
    return field.with_coeffs(field.coeffs * partition.phi_symbol(j))


def _block_samples(grid: Grid | Band, coeffs: np.ndarray,
                   partition: DyadicPartition, j: int) -> np.ndarray:
    """Physical samples of Delta_j f for coefficients with any leading
    axes in the layout of ``grid`` (the partition's grid or its band):
    one batched inverse transform."""
    return inverse_transform(grid, coeffs * partition.phi_symbol(j, grid))


def block_lp_norms(grid: Grid | Band, coeffs: np.ndarray,
                   partition: DyadicPartition, p: float,
                   batch_axes: int) -> np.ndarray:
    """||Delta_j f||_p for j in ``partition.j_range``, as a (..., J) array
    with one row per entry of the first ``batch_axes`` axes, for
    coefficients in the layout of ``grid`` (the partition's grid or its
    band).  With batch axes the samples run as ``map_samples`` jobs along
    the first one."""

    def norms(c):
        return np.stack([
            magnitude_lp_norms(grid, _block_samples(grid, c, partition, j),
                               p, batch_axes)
            for j in partition.j_range], axis=-1)

    if batch_axes == 0:
        return norms(coeffs)
    return map_samples(lambda part: norms(coeffs[part]), np.empty(
        coeffs.shape[:batch_axes] + (len(partition.j_range),)))


def low_freq(field: SpectralField, j: int,
             partition: DyadicPartition) -> SpectralField:
    """Low-pass S_j: multiply by chi(2^-j xi)."""
    if field.grid != partition.grid:
        raise GridError("field and partition grids differ")
    return field.with_coeffs(field.coeffs * partition.chi_symbol(j))


# ---------------------------------------------------------------------
# Indices and reports
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class BesovIndex:
    """(s, p, q[, r]) exponent tuple."""

    s: float
    p: float
    q: float
    r: float | None = None

    def __post_init__(self):
        for e in (self.p, self.q) + (() if self.r is None else (self.r,)):
            if not (e >= 1.0):
                raise ExponentError(f"integrability exponents must be >= 1, got {e}")

    def as_dict(self):
        d = {"s": self.s, "p": self.p, "q": self.q}
        if self.r is not None:
            d["r"] = self.r
        return d


@dataclass
class NormReport:
    """Computed norm with its blockwise breakdown.

    ``blocks`` holds (label, contribution) pairs; for dyadic norms the
    label is the block index j, for time-based norms the sample index.
    """

    value: float
    index: BesovIndex
    blocks: list = dc_field(default_factory=list)
    truncated: bool = False
    meta: dict = dc_field(default_factory=dict)

    def aggregation_residual(self) -> float:
        """Relative gap between value and the l^q re-aggregation of blocks."""
        contribs = np.array([c for _, c in self.blocks], dtype=float)
        agg = _lq_aggregate(contribs, self.index.q)
        scale = max(abs(self.value), 1e-300)
        return float(abs(agg - self.value) / scale)

    def to_json(self) -> str:
        payload = {
            "index": self.index.as_dict(),
            "value": self.value,
            "blocks": [{"j": int(j), "contrib": float(c)}
                       for j, c in self.blocks],
            "truncated": self.truncated,
        }
        if self.meta:
            payload["meta"] = self.meta
        return json.dumps(finite_json(payload), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "NormReport":
        d = json.loads(text)
        # strict JSON writes an infinite exponent as null
        idx = BesovIndex(**{k: math.inf if v is None else v
                            for k, v in d["index"].items()})
        blocks = [(b["j"], b["contrib"]) for b in d["blocks"]]
        return cls(value=d["value"], index=idx, blocks=blocks,
                   truncated=d.get("truncated", False),
                   meta=d.get("meta", {}))


def _lq_aggregate(contribs: np.ndarray, q: float) -> np.ndarray:
    """l^q norm of non-negative entries along the last axis (0 if empty)."""
    if math.isinf(q):
        return np.max(contribs, axis=-1, initial=0.0)
    return power_sum_root(contribs, q, -1)


def _dyadic_sum(norms: np.ndarray, partition: DyadicPartition, s: float,
                q: float):
    """The weighted blocks 2^{js} norms[..., j] and their l^q sum over j."""
    contribs = np.array([2.0 ** (j * s) for j in partition.j_range]) * norms
    return contribs, _lq_aggregate(contribs, q)


# ---------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------

def _every_other(m: int) -> list:
    """Every other index of m samples, always keeping both endpoints."""
    return list(range(0, m - 1, 2)) + [m - 1]


def check_times(times) -> np.ndarray:
    """Sample times as a float array: 1-D, finite, non-negative and
    strictly increasing (the one rule for every time axis)."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or \
            np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise QuadratureError("times must be 1-D, finite, non-negative and "
                              "strictly increasing")
    return times


class Trajectory:
    """Time-stamped sequence of fields on a shared grid, held as one
    read-only coefficient stack ``coeffs`` of shape (M,) + the fields'
    coefficient shape in the layout ``layout``: the grid's half spectrum
    (a trajectory built from fields), or its dealias band ``grid.band``
    (a solver trajectory, whose every sample lies in the band).  The
    diagnostics read ``coeffs`` in that layout.  ``traj[i]``, ``fields``
    and iteration give half-spectrum ``SpectralField`` samples: views of a
    half-spectrum stack, or band samples scattered one at a time
    (``traj[i]`` scatters sample i alone).

    Times are strictly increasing; a leading t = 0 sample is allowed
    (it carries the initial data and is skipped by singular-weight
    quadratures).
    """

    def __init__(self, grid: Grid, times, fields):
        fields = list(fields)
        if not fields or len(fields) != check_times(times).size:
            raise QuadratureError("a trajectory needs one field per time, "
                                  "and at least one")
        for f in fields:
            if f.grid != grid:
                raise GridError("trajectory fields must share the grid")
            if f.rank != fields[0].rank:
                raise RankError("trajectory fields must share the rank")
        self._adopt(grid, times, fields[0].rank,
                    np.stack([f.coeffs for f in fields]), grid)

    @classmethod
    def _from_stack(cls, grid: Grid, times, rank: str, coeffs: np.ndarray,
                    layout: Grid | Band | None = None) -> "Trajectory":
        """A trajectory over ``coeffs`` in ``layout`` (None: the grid's
        half spectrum), taken over without a copy."""
        traj = cls.__new__(cls)
        traj._adopt(grid, times, rank, coeffs, layout or grid)
        return traj

    def _adopt(self, grid, times, rank, coeffs, layout):
        self.grid = grid
        self.layout = layout
        self.times = check_times(times)
        self.rank = rank
        self.coeffs = coeffs.view()
        self.coeffs.flags.writeable = False
        self._lp = {}  # p -> lp_series(p); the stack cannot change

    def _field(self, c: np.ndarray) -> SpectralField:
        """The half-spectrum field of one sample's coefficients."""
        if isinstance(self.layout, Band):
            c = self.layout.scatter(c)
            c.flags.writeable = False  # taken over by the field, not copied
        return SpectralField(self.grid, self.rank, c, check_hermitian=False)

    @property
    def fields(self) -> list:
        return [self._field(c) for c in self.coeffs]

    def __len__(self):
        return self.times.size

    def __getitem__(self, i: int) -> SpectralField:
        """Sample i as a half-spectrum field."""
        return self._field(self.coeffs[i])

    def __iter__(self):
        """(time, field) pairs, each field made when it is reached."""
        return ((t, self._field(c)) for t, c in zip(self.times, self.coeffs))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def lp_series(self, p: float) -> np.ndarray:
        """||u(t)||_p per sample, read-only."""
        if p not in self._lp:
            self._lp[p] = lp_norms(self.layout, self.coeffs, p, batch_axes=1)
            self._lp[p].flags.writeable = False
        return self._lp[p]

    def l2_series(self) -> np.ndarray:
        return l2_norms(self.layout, self.coeffs, batch_axes=1)


# ---------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------

def _check_zero_mean(field: SpectralField) -> None:
    if np.max(np.abs(field.mean_mode())) > 1e-13 * max(field.max_abs_coeff(), 1e-300):
        raise GridError("Besov norms require zero-mean fields")


def besov_norm(field: SpectralField, index: BesovIndex,
               partition: DyadicPartition) -> NormReport:
    """Homogeneous Besov norm: l^q over j of 2^{js} ||Delta_j f||_p."""
    _check_zero_mean(field)
    norms = block_lp_norms(field.grid, field.coeffs, partition, index.p, 0)
    contribs, value = _dyadic_sum(norms, partition, index.s, index.q)
    blocks = list(zip(partition.j_range, contribs))
    # blocks at the edge of the tabulated j-range carrying weight mean
    # the (in principle infinite) dyadic sum was truncated
    tol = 1e-12 * max(np.max(contribs), 1e-300)
    truncated = bool(contribs[0] > tol or contribs[-1] > tol)
    meta = {}
    if math.isinf(index.q) and value > 0:
        meta["attaining_j"] = int(min(j for (j, c) in blocks if c == value))
    return NormReport(value=float(value), index=index, blocks=blocks,
                      truncated=truncated, meta=meta)


def weighted_sup(grid: Grid, times: np.ndarray, stack: np.ndarray,
                 expo: float, p: float) -> float:
    """sup over the positive-time samples of t^expo ||u(t)||_p, for a
    coefficient stack (0 if there are none)."""
    return series_weighted_sup(times, lp_norms(grid, stack, p, batch_axes=1),
                               expo)


def series_weighted_sup(times: np.ndarray, series: np.ndarray,
                        expo: float) -> float:
    """sup over the positive-time samples of t^expo series(t), for one
    value per sample, such as a stack's L^p norms (0 if there are no
    positive times)."""
    pos = times > 0
    return float(np.max(times[pos] ** expo * series[pos], initial=0.0))


def kato_norm(traj: Trajectory, index: BesovIndex) -> NormReport:
    """Kato norm K^s_{p,q}: L^q of t^{-s/2}||u||_p against dt/t.

    q = inf takes the sup over samples (the smallest attaining sample
    is recorded); finite q integrates by trapezoid in log t.
    """
    pos = traj.times > 0
    times = traj.times[pos]
    if times.size == 0:
        raise QuadratureError("trajectory has no positive-time samples")
    profile = times ** (-index.s / 2.0) * traj.lp_series(index.p)[pos]
    blocks = list(enumerate(profile))
    if math.isinf(index.q):
        value = float(np.max(profile))
        attain = int(np.argmax(profile))
        meta = {"attaining_sample": attain, "attaining_time": float(times[attain])}
    else:
        if times.size < 2:
            raise QuadratureError("finite-q Kato norm needs >= 2 samples")
        value = float(_time_norm(profile, np.log(times), index.q))
        meta = {}
        # report per-sample contributions, aggregation happens in log-t
        blocks = []
    rep = NormReport(value=value, index=index, blocks=blocks, meta=meta)
    rep.meta["profile_times"] = [float(t) for t in times]
    rep.meta["profile"] = [float(v) for v in profile]
    return rep


def _time_norm(series: np.ndarray, times: np.ndarray, r: float) -> np.ndarray:
    """L^r norm in time (axis 0) of sampled values: the max for r = inf,
    else the trapezoid rule."""
    if math.isinf(r):
        return np.max(series, axis=0)
    return power_sum_root(series, r, 0,
                          lambda x: np.trapezoid(x, times, axis=0))


def timespace_besov_norm(traj: Trajectory, r: float, index: BesovIndex,
                         partition: DyadicPartition) -> NormReport:
    """Time-space Besov norm: l^q over j of 2^{js} ||Delta_j u||_{L^r_t L^p_x}.

    For finite r a Richardson check against halved time sampling must
    agree within 1%, otherwise QuadratureError is raised.
    """
    idx = BesovIndex(index.s, index.p, index.q, r)
    norms = block_lp_norms(traj.layout, traj.coeffs, partition, index.p, 1)

    def compute(rows):
        time_norm = _time_norm(norms[rows], traj.times[rows], r)
        contribs, value = _dyadic_sum(time_norm, partition, index.s, index.q)
        return float(value), contribs

    value, contribs = compute(slice(None))
    if not math.isinf(r) and len(traj) >= 5:
        coarse, _ = compute(_every_other(len(traj)))
        if value > 0 and abs(value - coarse) / value > 0.01:
            raise QuadratureError(
                f"time quadrature under-resolved: refined/coarse values "
                f"{value} vs {coarse}")
    return NormReport(value=value, index=idx,
                      blocks=list(zip(partition.j_range, contribs)))


def energy_norm(traj: Trajectory) -> float:
    """Squared energy norm: sup_t ||U||_2^2 + 2 int ||grad U||_2^2 dt."""
    sup = float(np.max(traj.l2_series()) ** 2)
    grads = l2_norms(traj.layout, traj.coeffs, 1,
                     weight=traj.layout.xi_sq) ** 2
    integral = float(np.trapezoid(grads, traj.times))
    return sup + 2.0 * integral


def interpolation_check(traj: Trajectory, m: float, n: float) -> float:
    """Ratio ||U||_{L^m_t L^n_x} / |U|_{2,Q_T} for admissible (m, n)."""
    if abs(2.0 / m + 3.0 / n - 1.5) > 1e-12:
        raise ExponentError(f"(m, n) = ({m}, {n}) violates 2/m + 3/n = 3/2")
    if not (2.0 <= n <= 6.0) or not (2.0 <= m):
        raise ExponentError(f"(m, n) = ({m}, {n}) outside the admissible range")
    energy = energy_norm(traj)
    if energy == 0.0:
        return 0.0
    num = float(_time_norm(traj.lp_series(n), traj.times, m))
    return num / math.sqrt(energy)


# ---------------------------------------------------------------------
# Paraproducts
# ---------------------------------------------------------------------

def paraproduct(u: SpectralField, v: SpectralField,
                partition: DyadicPartition):
    """Bony decomposition of the product uv on scalar fields.

    Returns (T_u v, T_v u, R(u, v)) with
    T_u v = sum_j S_{j-1}u * Delta_j v and R summing the |j-j'| <= 1
    interactions; the three pieces sum to the dealiased product uv.
    """
    if u.rank != "scalar" or v.rank != "scalar":
        raise GridError("paraproducts are defined on scalar fields here")
    if u.grid != v.grid or u.grid != partition.grid:
        raise GridError("fields and partition must share the grid")
    blocks_v = {j: lp_block(v, j, partition) for j in partition.j_range}
    t_uv = t_vu = reso = SpectralField.zero(u.grid, "scalar")
    for j in partition.j_range:
        block_u = lp_block(u, j, partition)
        t_uv = t_uv + dealias_product(low_freq(u, j - 1, partition), blocks_v[j])
        t_vu = t_vu + dealias_product(low_freq(v, j - 1, partition), block_u)
        for jp in (j - 1, j, j + 1):
            if jp in blocks_v:
                reso = reso + dealias_product(block_u, blocks_v[jp])
    return t_uv, t_vu, reso


@dataclass(frozen=True)
class ProductExponents:
    """Exponent set for the paraproduct estimates: 1/p = 1/p1 + 1/p2,
    1/q = 1/q1 + 1/q2, s = s1 + s2."""

    s1: float
    s2: float
    p1: float
    p2: float
    q1: float
    q2: float

    def __post_init__(self):
        for e in (self.p1, self.p2, self.q1, self.q2):
            if not e >= 1.0:
                raise ExponentError("integrability exponents must be >= 1")

    @property
    def s(self):
        return self.s1 + self.s2

    @property
    def p(self):
        return 1.0 / (_inv(self.p1) + _inv(self.p2))

    @property
    def q(self):
        return 1.0 / (_inv(self.q1) + _inv(self.q2))

    def validate(self):
        if _inv(self.p1) + _inv(self.p2) > 1.0 + 1e-12:
            raise ExponentError("1/p1 + 1/p2 exceeds 1")
        if _inv(self.q1) + _inv(self.q2) > 1.0 + 1e-12:
            raise ExponentError("1/q1 + 1/q2 exceeds 1")


def _inv(e: float) -> float:
    return 0.0 if math.isinf(e) else 1.0 / e


def paraproduct_estimate_check(u: SpectralField, v: SpectralField,
                               exponents: ProductExponents,
                               partition: DyadicPartition) -> dict:
    """Measured constants of the paraproduct estimates.

    Returns {'T': ||T_u v||_{B^s_{p,q}} / (||u||_{B^{s1}_{p1,q1}}
    ||v||_{B^{s2}_{p2,q2}}), 'R': the resonant analogue}.  The T check
    requires s1 < 0, the R check s > 0 (the hypotheses of the
    continuous estimates).
    """
    exponents.validate()
    if not exponents.s1 < 0:
        raise ExponentError("low-high paraproduct estimate requires s1 < 0")
    if not exponents.s > 0:
        raise ExponentError("resonant estimate requires s = s1 + s2 > 0")
    t_uv, _, reso = paraproduct(u, v, partition)
    nu = besov_norm(u, BesovIndex(exponents.s1, exponents.p1, exponents.q1),
                    partition).value
    nv = besov_norm(v, BesovIndex(exponents.s2, exponents.p2, exponents.q2),
                    partition).value
    if nu * nv == 0.0:
        return {"T": 0.0, "R": 0.0}
    idx = BesovIndex(exponents.s, exponents.p, exponents.q)
    nt = besov_norm(t_uv.zero_mean(), idx, partition).value
    nr = besov_norm(reso.zero_mean(), idx, partition).value
    return {"T": nt / (nu * nv), "R": nr / (nu * nv)}
