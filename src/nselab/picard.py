"""Abstract Picard fixed-point engine for x = a + L(x) + B(x, x).

Elements may be anything supporting +, -, scalar *, and the supplied norm
(floats, numpy arrays, trajectory coefficient stacks).

Every norm of an iterate or a probe comes with an operator applied to
it, so a problem that must transform an element to apply an operator
can take the element's norm from that same transform:
- ``step(x)`` gives (L(x) + B(x, x), ||x||); it must agree with
  ``linear(x) + bilinear(x, x)`` up to rounding and with ``norm(x)``;
- ``bilinear_with_norms(x, y)`` gives (B(x, y), ||x||, ||y||);
- ``linear_with_norm(x)`` gives (L(x), ||x||).

Each one a problem leaves out is composed from ``linear``, ``bilinear``
and ``norm``, so a float problem needs none of them.  The iteration runs
one step ahead: the step that makes x_{k+1} also gives ||x_k||, and the
step of the last iterate gives the final residual.  Increments take
``norm`` directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, PicardDivergenceError

DIVERGENCE_BLOWUP_FACTOR = 1e6
DIVERGENCE_GROWTH_RUN = 3
PICARD_TOL = 1e-10  # Picard increment tolerance
MAX_ITER = 60  # Picard iterations before a solve stops unconverged


@dataclass
class PicardProblem:
    """Fixed-point data: seed a, linear part L, bilinear part B, norm.

    l_norm is the measured linear-operator norm ||L|| (None: not
    measured); ``probe`` (optional) builds a random element from an
    integer seed for measuring it and gamma.  ``step``,
    ``bilinear_with_norms`` and ``linear_with_norm`` (optional) apply an
    operator and also give the norms of its arguments (see the module
    docstring); without them the parts and ``norm`` are composed.
    """

    a: object
    linear: object = None       # callable or None (treated as zero map)
    bilinear: object = None     # callable or None
    norm: object = None         # callable -> float
    l_norm: float | None = None
    probe: object = None        # callable(seed) -> element
    step: object = None         # x -> (L(x) + B(x, x), ||x||), or None
    bilinear_with_norms: object = None  # (x, y) -> (B(x, y), ||x||, ||y||)
    linear_with_norm: object = None     # x -> (L(x), ||x||)

    def plus_linear(self, base, x):
        """base + L(x); the zero map adds nothing and is not evaluated."""
        return base if self.linear is None else base + self.linear(x)

    def apply_bilinear(self, x, y):
        return self.bilinear(x, y) if self.bilinear is not None else 0.0 * x

    def step_and_norm(self, x):
        """(L(x) + B(x, x), ||x||), by ``step`` when supplied."""
        if self.step is not None:
            return self.step(x)
        return self.plus_linear(self.apply_bilinear(x, x), x), self.norm(x)

    def bilinear_and_norms(self, x, y):
        """(B(x, y), ||x||, ||y||), by ``bilinear_with_norms`` when
        supplied."""
        if self.bilinear_with_norms is not None:
            return self.bilinear_with_norms(x, y)
        return self.apply_bilinear(x, y), self.norm(x), self.norm(y)

    def linear_and_norm(self, x):
        """(L(x), ||x||) of a non-zero L, by ``linear_with_norm`` when
        supplied."""
        if self.linear_with_norm is not None:
            return self.linear_with_norm(x)
        return self.linear(x), self.norm(x)


def _next_seed(rng) -> int:
    """The seed of the next probe drawn from ``rng``."""
    return int(rng.integers(0, 2**31 - 1))


def _gain(problem: PicardProblem, value, *norms) -> float:
    """||value|| / (product of ``norms``), or 0 unless every norm is
    positive.  Where the product is not a normal float (it underflows or
    overflows although each norm is positive) the norms divide one at a
    time.  Taking ``value`` as an argument lets it be freed as soon as
    its norm is known."""
    if not all(n > 0 for n in norms):
        return 0.0
    gain = problem.norm(value)
    denominator = math.prod(norms)
    if sys.float_info.min <= denominator < math.inf:
        return gain / denominator
    for n in norms:
        gain /= n
    return gain


def estimate_constants(problem: PicardProblem, n_probes: int = 20,
                       seed: int = 0,
                       measure_gamma: bool = True) -> float | None:
    """Measure ||L|| by randomized probing into ``problem.l_norm`` and
    return the bilinear constant gamma measured on the same probes, or
    None with ``measure_gamma`` False.

    Each probe pair (x, y) draws two seeds from one stream; ||x|| and
    ||y|| come with B(x, y), and ||x|| again with L(x).  With
    ``measure_gamma`` False no y is built and no B(x, y) runs, but y's
    seed is still drawn, so ||L|| is measured on the same x as in a full
    run.  With no linear part ||L|| is 0 and not probed, so then nothing
    is probed unless gamma is measured.
    """
    if problem.probe is None:
        raise ConfigError("constant estimation needs a probe generator")
    rng = np.random.default_rng(seed)
    gamma = 0.0 if measure_gamma else None
    l_norm = 0.0
    if measure_gamma or problem.linear is not None:
        for _ in range(n_probes):
            x = problem.probe(_next_seed(rng))
            y_seed = _next_seed(rng)
            if measure_gamma:
                bxy, nx, ny = problem.bilinear_and_norms(
                    x, problem.probe(y_seed))
                gamma = max(gamma, _gain(problem, bxy, nx, ny))
                del bxy  # not held across the next probe's allocations
            if problem.linear is not None:
                l_norm = max(l_norm,
                             _gain(problem, *problem.linear_and_norm(x)))
    problem.l_norm = l_norm
    return gamma


@dataclass
class FixedPointReport:
    """Iteration record of a Picard solve."""

    solution: object
    converged: bool
    norms: list = dc_field(default_factory=list)
    diffs: list = dc_field(default_factory=list)
    residual: float = float("nan")
    iterations: int = 0

    @property
    def contraction_ratios(self):
        d = self.diffs
        return [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 0]


def solve_picard(problem: PicardProblem, tol: float = PICARD_TOL,
                 max_iter: int = MAX_ITER) -> FixedPointReport:
    """Iterate P_{k+1} = a + L(P_k) + B(P_k, P_k) from P_0 = a, one
    ``problem.step_and_norm`` per iterate: the step of P_k gives P_{k+1}
    and ||P_k||, and the step of the last iterate gives the residual.
    P_{k+1} and the residual are written over the step's output, and the
    increment over P_k (never over a), so a step's output must be a new
    element.

    Divergence (a non-finite increment or norm, three consecutive
    increment increases, or norm above 1e6x the seed) raises
    PicardDivergenceError carrying the history.  An iterate that the
    increment already shows to be diverging is not stepped; its norm is
    taken with ``norm``.

    ||L|| must be measured and below 1, where the contraction argument
    bounds ||(I - L)^{-1}|| by 1/(1 - ||L||); otherwise ``ConfigError``.
    """
    if problem.l_norm is None:
        raise ConfigError("measure ||L|| before iterating")
    if problem.l_norm >= 1.0:
        raise ConfigError(f"linear operator norm {problem.l_norm} >= 1; "
                          "the resolvent bound fails")
    x = problem.a
    f, seed_norm = problem.step_and_norm(x)
    limit = DIVERGENCE_BLOWUP_FACTOR * seed_norm
    norms = [seed_norm]
    diffs = []
    increases = 0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        f += problem.a  # x_{k+1} = a + f over the step's output
        if x is problem.a:
            diff = problem.norm(f - x)
        else:  # over x_k's buffer: ||x_k - x_{k+1}|| = ||x_{k+1} - x_k||
            x -= f
            diff = problem.norm(x)
        x = f
        diffs.append(diff)
        # growth of the contraction increments flags divergence; raw
        # iterate norms may rise monotonically toward the fixed point
        if len(diffs) >= 2 and diff > diffs[-2]:
            increases += 1
        else:
            increases = 0
        # ||x|| >= diff - ||previous||: an x surely past the limit is
        # not stepped
        doomed = (increases >= DIVERGENCE_GROWTH_RUN or not np.isfinite(diff)
                  or (seed_norm > 0 and diff - norms[-1] > limit))
        f, nx = (None, problem.norm(x)) if doomed \
            else problem.step_and_norm(x)
        norms.append(nx)
        if doomed or not np.isfinite(nx) or (seed_norm > 0 and nx > limit):
            raise PicardDivergenceError(
                f"Picard iteration diverging after {it} steps "
                f"(norm {nx}, seed {seed_norm})", norms=norms, diffs=diffs)
        if diff < tol:
            converged = True
            break

    f += problem.a  # the map of x, over the step's own output
    f -= x
    return FixedPointReport(solution=x, converged=converged, norms=norms,
                            diffs=diffs, residual=problem.norm(f),
                            iterations=it)

