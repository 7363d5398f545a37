"""Heat semigroup, Oseen operator e^{tL}P div, and Duhamel integrals.

The Duhamel quadrature treats the forcing as piecewise linear in time
between samples and integrates the exponential factor exactly per mode
(integrating-factor form): unconditionally stable, exact for the stiff
factor, second order in the sample spacing.
"""

from __future__ import annotations

import numpy as np

from .besov import Trajectory, check_times, weighted_sup
from .errors import ExponentError, QuadratureError, RankError
from .spectral import (Grid, SpectralField, gradient_coeffs,
                       interpolate_stack, projected_divergence_coeffs)


def heat_evolve(field: SpectralField, t: float) -> SpectralField:
    """e^{t Lap} by the multiplier exp(-|xi|^2 t); t = 0 is the identity."""
    return heat_trajectory(field, [t])[0]


def heat_stack(grid: Grid, coeffs: np.ndarray, times) -> np.ndarray:
    """e^{t Lap} of coefficients at every t, stacked along a new leading
    axis."""
    values, index = grid.xi_sq_shells
    decay = np.take(np.exp(-np.multiply.outer(
        np.asarray(times, dtype=float), values)), index, axis=1)
    lead = (1,) * (coeffs.ndim - grid.dim)
    return decay.reshape(decay.shape[:1] + lead + index.shape) * coeffs


def heat_trajectory(field: SpectralField, times) -> Trajectory:
    """e^{t Lap} of a field at times that pass ``check_times``, checked
    before the stack is built."""
    times = check_times(times)
    return Trajectory._from_stack(field.grid, times, field.rank,
                                  heat_stack(field.grid, field.coeffs, times))


def projected_divergence(tensor: SpectralField) -> SpectralField:
    """P div F for a matrix field: contract i xi_j into F_ij, project."""
    return SpectralField(tensor.grid, "vector", _forcing(tensor),
                         check_hermitian=False)


def oseen_apply(tensor: SpectralField, t: float) -> SpectralField:
    """Oseen operator e^{t Lap} P div applied to a tensor field."""
    return heat_evolve(projected_divergence(tensor), t)


# ---------------------------------------------------------------------
# Exponential quadrature weights, stable for all z = kappa*dt >= 0
# ---------------------------------------------------------------------

def _pl_weights(z: np.ndarray):
    """Weights (alpha, beta) with
    int_0^D e^{-kappa(D-s)} [Ga(1-s/D) + Gb s/D] ds = D*(Ga*alpha + Gb*beta),
    z = kappa*D.  beta = (z-1+e^{-z})/z^2, alpha = (1-e^{-z})/z - beta.
    Each entry is evaluated by one branch only: a series below z = 1e-4,
    and from z = 1e150 on, where z^2 would overflow, the values for
    e^{-z} = 0, alpha = 1/z^2 and beta = 1/z - alpha.
    """
    z = np.asarray(z, dtype=np.float64)
    alpha, beta = np.empty_like(z), np.empty_like(z)
    small, huge = z < 1e-4, z >= 1e150
    s = z[small]
    alpha[small] = 0.5 - s / 3.0 + s**2 / 8.0
    beta[small] = 0.5 - s / 6.0 + s**2 / 24.0
    mid = ~(small | huge)
    s = z[mid]
    em = np.expm1(-s)  # e^{-z} - 1
    beta[mid] = (s + em) / s**2
    alpha[mid] = -em / s - beta[mid]
    s = z[huge]
    alpha[huge] = 1.0 / s / s
    beta[huge] = 1.0 / s - alpha[huge]
    return alpha, beta


def exponential_weights(grid: Grid, taus):
    """exp(-|xi|^2 tau) and the weights ``_pl_weights(|xi|^2 tau)`` for
    every tau, each of shape np.shape(taus) + (number of distinct values),
    once per distinct value in ``grid.xi_sq_shells``: ``np.take(w[r],
    index)`` gathers row r onto the grid, bit for bit the direct
    evaluation there."""
    z = np.multiply.outer(np.asarray(taus, dtype=float), grid.xi_sq_shells[0])
    alpha, beta = _pl_weights(z)
    return np.exp(-z), alpha, beta


def duhamel_stack(times: np.ndarray, g_stack: np.ndarray, grid: Grid,
                  start: np.ndarray | None = None) -> np.ndarray:
    """Cumulative Duhamel integral at every sample time.

    g_stack has shape (M,) + field_shape where the trailing axes match
    ``grid.xi_sq`` after broadcasting.  Returns the same shape: out[i] =
    out[0] e^{-|xi|^2 (t_i - t_0)} + int_{t_0}^{t_i} e^{-|xi|^2 (t_i - s)}
    g(s) ds with g piecewise linear.  ``start`` is out[0], the integral
    already accumulated at ``times[0]``; it is 0 when None, so the
    integral then runs from 0 only on a schedule that starts at 0.

    A recursion cut at sample k continues from its value there with the
    same arithmetic: ``duhamel_stack(times[k:], g_stack[k:], grid,
    start=out[k])`` equals ``out[k:]`` bit for bit.
    """
    times = np.asarray(times, dtype=float)
    if start is None:
        out = np.zeros_like(g_stack)
    else:
        out = np.empty_like(g_stack)
        out[0] = start
    dts = np.diff(times)
    decay, alpha, beta = exponential_weights(grid, dts)
    index = grid.xi_sq_shells[1]
    for i in range(1, times.size):
        acc = np.take(alpha[i - 1], index) * g_stack[i - 1]
        acc += np.take(beta[i - 1], index) * g_stack[i]
        acc *= dts[i - 1]
        acc += np.take(decay[i - 1], index) * out[i - 1]
        out[i] = acc
    return out


def _forcing(f) -> np.ndarray:
    """P div F of a tensor field, or at every sample of a tensor
    trajectory: the one rank check of both."""
    if f.rank != "matrix":
        raise RankError("P div needs a matrix field")
    return projected_divergence_coeffs(f.grid, f.coeffs)


def duhamel_integral(f_traj: Trajectory, t: float) -> SpectralField:
    """int_0^t e^{(t-s)Lap} P div F(s) ds from a sampled tensor F.

    The trajectory must cover [0, t].  The recursion runs over the
    samples before t and ends at t, where the forcing is interpolated;
    at a sample time it equals ``duhamel_trajectory`` there.
    """
    times = f_traj.times
    if times[0] > 1e-15 or t > times[-1] + 1e-12:
        raise QuadratureError(
            f"trajectory [{times[0]}, {times[-1]}] does not cover [0, {t}]")
    g_stack = _forcing(f_traj)
    k = int(np.searchsorted(times, t))  # samples strictly before t
    if k == 0:
        return SpectralField.zero(f_traj.grid, "vector")
    g_end = interpolate_stack(times, g_stack, t)
    out = duhamel_stack(np.append(times[:k], t), np.concatenate(
        [g_stack[:k], g_end[None]]), f_traj.grid)
    return SpectralField(f_traj.grid, "vector", out[-1], check_hermitian=False)


def duhamel_trajectory(f_traj: Trajectory) -> Trajectory:
    """Cumulative Duhamel integral evaluated at every sample time; the
    times must pass ``check_schedule``."""
    check_schedule(f_traj.times)
    out = duhamel_stack(f_traj.times, _forcing(f_traj), f_traj.grid)
    return Trajectory._from_stack(f_traj.grid, f_traj.times, "vector", out)


# ---------------------------------------------------------------------
# Smoothing-estimate verification
# ---------------------------------------------------------------------

def check_kato_exponents(s1: float, p1: float, p2: float) -> float:
    """Validate s1 > -2 and 3/p1 - 3/p2 < 1 (both strict); return s2."""
    if not s1 > -2.0:
        raise ExponentError(f"need s1 > -2, got {s1}")
    gap = 3.0 / p1 - 3.0 / p2
    if not gap < 1.0 - 1e-14:
        raise ExponentError(f"need 3/p1 - 3/p2 < 1 strictly, got {gap}")
    return 1.0 + s1 - 3.0 / p1 + 3.0 / p2


def verify_kato_estimate(f_traj: Trajectory, s1: float, p1: float,
                         p2: float) -> dict:
    """Measured constant of the Kato-space Duhamel estimate, the k = l = 0
    case of ``verify_smoothing_derivatives``.

    Returns {'constant', 's2', 'input_norm', 'output_norm'}; refuses
    exponent configurations outside the estimate's hypotheses and a
    trajectory whose times fail ``check_schedule``.
    """
    rep = verify_smoothing_derivatives(f_traj, 0, 0, s1, p1, p2)
    return {"constant": rep["constant"], "s2": rep["s2"],
            "input_norm": rep["rhs"], "output_norm": rep["lhs"]}


def _grad_stack(grid: Grid, stack: np.ndarray, order: int) -> np.ndarray:
    """grad^order of a stack (M, ...), the new axes after the time axis."""
    for _ in range(order):
        stack = gradient_coeffs(grid, stack, batch_axes=1)
    return stack


def _time_slopes(times: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Sample-point derivative of a piecewise-linear stack (one-sided
    at the ends, interval-average inside)."""
    dt = np.diff(times).reshape((-1,) + (1,) * (stack.ndim - 1))
    fwd = np.diff(stack, axis=0) / dt
    return np.concatenate([fwd[:1], 0.5 * (fwd[:-1] + fwd[1:]), fwd[-1:]])


def verify_smoothing_derivatives(f_traj: Trajectory, k: int, l: int,
                                 s1: float, p1: float, p2: float) -> dict:
    """Measured constant of the weighted-derivative smoothing estimate.

    LHS: sup_t t^{-s2/2} t^{k+l/2} ||d_t^k grad^l Duhamel(F)||_{p2};
    RHS: sum over a <= k, b <= l of the matching weighted Kato norms of
    F.  Time derivatives follow the quadrature model exactly:
    d_t u = G - |xi|^2 u with G = P div F piecewise linear.  The
    trajectory's times must pass ``check_schedule``.
    """
    if k > 2 or l > 2 or k < 0 or l < 0:
        raise ExponentError("supported derivative orders are k, l <= 2")
    s2 = check_kato_exponents(s1, p1, p2)
    grid = f_traj.grid
    times = check_schedule(f_traj.times)
    g_stack = _forcing(f_traj)
    u_stack = duhamel_stack(times, g_stack, grid)

    # time-derivative towers: u^(m) = G^(m-1) - |xi|^2 u^(m-1)
    derivs = [u_stack]
    g_derivs = [g_stack, _time_slopes(times, g_stack)]
    for m in range(1, k + 1):
        derivs.append(g_derivs[m - 1] - grid.xi_sq * derivs[m - 1])
    lhs = weighted_sup(grid, times, _grad_stack(grid, derivs[k], l),
                       -s2 / 2.0 + k + l / 2.0, p2)

    f_stack = f_traj.coeffs
    f_derivs = [f_stack, _time_slopes(times, f_stack), np.zeros_like(f_stack)]
    rhs = 0.0
    for a in range(k + 1):
        for b in range(l + 1):
            rhs += weighted_sup(grid, times, _grad_stack(grid, f_derivs[a], b),
                                -s1 / 2.0 + a + b / 2.0, p1)
    const = lhs / rhs if rhs > 0 else 0.0
    return {"constant": const, "s2": s2, "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------
# Time schedules
# ---------------------------------------------------------------------

def time_schedule(horizon: float, n_geometric: int = 24, n_uniform: int = 24,
                  first_exponent: int = 20):
    """t = 0, geometric samples from T*2^{-J} to T/8, then uniform up to
    T.

    Resolves the singular t^{-s/2} Kato weights near t = 0.  At least
    one uniform sample is needed, so that the schedule ends at T.
    """
    if not 0 < horizon < np.inf:
        raise QuadratureError(f"horizon must be positive and finite, got "
                              f"{horizon}")
    if n_geometric < 0 or n_uniform < 1:
        raise QuadratureError(f"need n_geometric >= 0 and n_uniform >= 1, "
                              f"got {n_geometric} and {n_uniform}")
    t1 = horizon * 2.0 ** (-first_exponent)
    geo = np.geomspace(t1, horizon / 8.0, n_geometric)
    uni = np.linspace(horizon / 8.0, horizon, n_uniform + 1)[1:]
    return np.concatenate([[0.0], geo, uni])


def check_schedule(times) -> np.ndarray:
    """A solver schedule as a float array: times that pass
    ``check_times``, start at 0, and number at least two."""
    times = check_times(times)
    if times.size < 2 or times[0] != 0:
        raise QuadratureError(f"a schedule starts at 0 and has at least two "
                              f"samples, got {times.size} from {times[:1]}")
    return times
