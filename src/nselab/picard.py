"""Abstract Picard fixed-point engine for x = a + L(x) + B(x, x).

Elements may be anything supporting +, -, scalar *, and the supplied norm
(floats, numpy arrays, trajectory coefficient stacks).

A problem may supply ``step(x) = L(x) + B(x, x)`` as one callable when
it can form both terms in one pass; it must agree with
``linear(x) + bilinear(x, x)`` up to rounding.  The iteration and the
final residual use it; constant probing, the resolvent and the
propagation check keep L and B separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, PicardDivergenceError

DIVERGENCE_BLOWUP_FACTOR = 1e6
DIVERGENCE_GROWTH_RUN = 3


@dataclass
class PicardProblem:
    """Fixed-point data: seed a, linear part L, bilinear part B, norm.

    gamma and l_norm are the measured bilinear and linear-operator
    constants; ``probe`` (optional) builds a random element from an
    integer seed for measuring them.  ``step`` (optional) is
    x -> L(x) + B(x, x) in one call; without it the two parts are
    composed.
    """

    a: object
    linear: object = None       # callable or None (treated as zero map)
    bilinear: object = None     # callable or None
    norm: object = None         # callable -> float
    gamma: float | None = None
    l_norm: float | None = None
    probe: object = None        # callable(seed) -> element
    step: object = None         # callable x -> L(x) + B(x, x), or None

    def plus_linear(self, base, x):
        """base + L(x); the zero map adds nothing and is not evaluated."""
        return base if self.linear is None else base + self.linear(x)

    def apply_bilinear(self, x, y):
        return self.bilinear(x, y) if self.bilinear is not None else 0.0 * x

    def picard_map(self, x):
        """a + L(x) + B(x, x), with ``step`` when supplied."""
        if self.step is not None:
            return self.a + self.step(x)
        return self.plus_linear(self.a, x) + self.apply_bilinear(x, x)


def _probe_seed(rng) -> int:
    """The seed of the next probe drawn from ``rng``."""
    return int(rng.integers(0, 2**31 - 1))


def estimate_constants(problem: PicardProblem, n_probes: int = 20,
                       seed: int = 0,
                       gamma: float | None = None) -> PicardProblem:
    """Measure gamma and ||L|| by randomized probing and fill them in.

    Each probe pair (x, y) draws two seeds from one stream.  A known
    ``gamma`` (measured before with the same B, norm, probe, ``n_probes``
    and ``seed``) is taken as is: no y is built and no B(x, y) runs, but
    y's seed is still drawn, so ||L|| is measured on the same x as in a
    full run.  With no linear part nothing is probed at all.
    """
    if problem.probe is None:
        raise ConfigError("constant estimation needs a probe generator")
    rng = np.random.default_rng(seed)
    measure_gamma = gamma is None
    gamma = 0.0 if measure_gamma else gamma
    l_norm = 0.0
    if measure_gamma or problem.linear is not None:
        for _ in range(n_probes):
            x = problem.probe(_probe_seed(rng))
            y_seed = _probe_seed(rng)
            nx = problem.norm(x)
            if measure_gamma:
                y = problem.probe(y_seed)
                ny = problem.norm(y)
                if nx > 0 and ny > 0:
                    gamma = max(gamma,
                                problem.norm(problem.apply_bilinear(x, y))
                                / (nx * ny))
            if nx > 0 and problem.linear is not None:
                l_norm = max(l_norm, problem.norm(problem.linear(x)) / nx)
    problem.gamma = gamma
    problem.l_norm = l_norm
    return problem


@dataclass
class FixedPointReport:
    """Iteration record of a Picard solve."""

    solution: object
    converged: bool
    norms: list = dc_field(default_factory=list)
    diffs: list = dc_field(default_factory=list)
    residual: float = float("nan")
    iterations: int = 0
    smallness_margin: float = float("nan")
    inv_norm_bound: float = float("nan")
    gamma: float | None = None
    bound_holds: bool | None = None

    @property
    def contraction_ratios(self):
        d = self.diffs
        return [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 0]


def _resolvent_apply(problem: PicardProblem, rhs, tol: float,
                     max_iter: int = 400):
    """Solve y = rhs + L(y) by linear iteration (valid for ||L|| < 1)."""
    if problem.linear is None:
        return rhs
    y = rhs
    for _ in range(max_iter):
        y_next = problem.plus_linear(rhs, y)
        if problem.norm(y_next - y) < tol:
            return y_next
        y = y_next
    return y


def solve_picard(problem: PicardProblem, tol: float = 1e-10,
                 max_iter: int = 60, strict: bool = False) -> FixedPointReport:
    """Iterate P_{k+1} = a + L(P_k) + B(P_k, P_k) from P_0 = a, through
    ``problem.step`` when it is supplied.

    Divergence (a non-finite increment or norm, three consecutive
    increment increases, or norm above 1e6x the seed) raises
    PicardDivergenceError carrying the history.  With
    ``strict`` the smallness condition
    ||(I-L)^{-1} a|| < 1/(4 ||(I-L)^{-1}|| gamma) must hold up front.
    """
    if problem.gamma is None or problem.l_norm is None:
        raise ConfigError("measure gamma and ||L|| before iterating")
    if problem.l_norm >= 1.0:
        raise ConfigError(f"linear operator norm {problem.l_norm} >= 1; "
                          "the resolvent bound fails")
    inv_bound = 1.0 / (1.0 - problem.l_norm)
    margin = float("inf")
    na = None
    if problem.gamma > 0:
        resolved_a = _resolvent_apply(problem, problem.a, tol)
        na = problem.norm(resolved_a)
        cap = 1.0 / (4.0 * inv_bound * problem.gamma)
        margin = cap - na
        if strict and margin <= 0:
            raise ConfigError(
                f"smallness condition violated: ||(I-L)^{{-1}}a|| = {na} "
                f">= {cap}")

    x = problem.a
    # with L = 0 the resolved seed is a itself, whose norm is known
    seed_norm = na if na is not None and problem.linear is None \
        else problem.norm(problem.a)
    norms = [seed_norm]
    diffs = []
    increases = 0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        x_next = problem.picard_map(x)
        diff = problem.norm(x_next - x)
        nx = problem.norm(x_next)
        diffs.append(diff)
        norms.append(nx)
        # growth of the contraction increments flags divergence; raw
        # iterate norms may rise monotonically toward the fixed point
        if len(diffs) >= 2 and diff > diffs[-2]:
            increases += 1
        else:
            increases = 0
        # NaN compares false, so a non-finite iterate is caught here
        blown = not (np.isfinite(diff) and np.isfinite(nx)) or (
            seed_norm > 0 and nx > DIVERGENCE_BLOWUP_FACTOR * seed_norm)
        if increases >= DIVERGENCE_GROWTH_RUN or blown:
            raise PicardDivergenceError(
                f"Picard iteration diverging after {it} steps "
                f"(norm {nx}, seed {seed_norm})", norms=norms, diffs=diffs)
        x = x_next
        if diff < tol:
            converged = True
            break

    residual = problem.norm(x - problem.picard_map(x))
    bound_holds = None
    if problem.gamma and problem.gamma > 0:
        bound_holds = norms[-1] < 1.0 / (2.0 * inv_bound * problem.gamma)
    return FixedPointReport(solution=x, converged=converged, norms=norms,
                            diffs=diffs, residual=residual, iterations=it,
                            smallness_margin=margin, inv_norm_bound=inv_bound,
                            gamma=problem.gamma, bound_holds=bound_holds)


@dataclass
class PropagationReport:
    holds: bool
    e_norm_solution: float
    e_norm_seed: float
    inv_norm_e: float
    bound: float
    eta: float


def propagation_check(problem: PicardProblem, report: FixedPointReport,
                      e_norm, n_probes: int = 10,
                      seed: int = 1) -> PropagationReport:
    """Check ||x||_E <= 2 ||(I-L)^{-1}||_E ||a||_E on a solved problem.

    ||(I-L)^{-1}||_E and the cross constant eta with
    max(||B(y,z)||_E, ||B(z,y)||_E) <= eta ||y||_E ||z||_X are measured
    on random probes.
    """
    rng = np.random.default_rng(seed)
    inv_e = 1.0
    eta = 0.0
    if problem.probe is not None:
        for _ in range(n_probes):
            y = problem.probe(_probe_seed(rng))
            ney = e_norm(y)
            if ney > 0:
                resolved = _resolvent_apply(problem, y, 1e-12 * ney)
                inv_e = max(inv_e, e_norm(resolved) / ney)
            z = problem.probe(_probe_seed(rng))
            nz = problem.norm(z)
            if ney > 0 and nz > 0:
                eta = max(eta,
                          e_norm(problem.apply_bilinear(y, z)) / (ney * nz),
                          e_norm(problem.apply_bilinear(z, y)) / (ney * nz))
    xe = e_norm(report.solution)
    ae = e_norm(problem.a)
    bound = 2.0 * inv_e * ae
    return PropagationReport(holds=bool(xe <= bound or ae == 0),
                             e_norm_solution=xe, e_norm_seed=ae,
                             inv_norm_e=inv_e, bound=bound, eta=eta)
