"""Abstract Picard fixed-point engine for x = a + L(x) + B(x, x).

Elements may be anything supporting +, -, scalar *, and the supplied norm
(floats, numpy arrays, trajectory coefficient stacks).

Every norm of an iterate or a probe comes with an operator applied to
it, so a problem that must transform an element to apply an operator
can take the element's norm from that same transform:
- ``step(x)`` gives (L(x) + B(x, x), ||x||); it must agree with
  ``linear(x) + bilinear(x, x)`` up to rounding and with ``norm(x)``;
- ``linear_with_norm(x)`` gives (L(x), ||x||).

Each one a problem leaves out is composed from ``linear``, ``bilinear``
and ``norm``, so a float problem needs none of them.  The iteration runs
one step ahead: the step that makes x_{k+1} also gives ||x_k||, and the
step of the last iterate gives the final residual.  Increments take
``norm`` directly.
"""

from __future__ import annotations

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
    integer seed for measuring it.  ``step`` and ``linear_with_norm``
    (optional) apply an operator and also give the norm of its argument
    (see the module docstring); without them the parts and ``norm`` are
    composed.
    """

    a: object
    linear: object = None       # callable or None (treated as zero map)
    bilinear: object = None     # callable or None
    norm: object = None         # callable -> float
    l_norm: float | None = None
    probe: object = None        # callable(seed) -> element
    step: object = None         # x -> (L(x) + B(x, x), ||x||), or None
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

    def linear_and_norm(self, x):
        """(L(x), ||x||) of a non-zero L, by ``linear_with_norm`` when
        supplied."""
        if self.linear_with_norm is not None:
            return self.linear_with_norm(x)
        return self.linear(x), self.norm(x)


def _next_seed(rng) -> int:
    """The seed of the next probe drawn from ``rng``."""
    return int(rng.integers(0, 2**31 - 1))


def estimate_constants(problem: PicardProblem, n_probes: int = 20,
                       seed: int = 0) -> float:
    """Measure ||L|| by randomized probing into ``problem.l_norm`` and
    return it: the largest ||L(x)|| / ||x|| over ``n_probes`` probes x,
    ||x|| coming with L(x).  With no linear part ||L|| is 0 and nothing
    is probed.

    The probes are built from every other seed of the stream, the first
    of each probe pair (x, y) that the probing once drew, so ||L||, and
    every decision on it, keeps its value.
    """
    if problem.probe is None:
        raise ConfigError("constant estimation needs a probe generator")
    rng = np.random.default_rng(seed)
    l_norm = 0.0
    if problem.linear is not None:
        for _ in range(n_probes):
            x = problem.probe(_next_seed(rng))
            _next_seed(rng)  # y's seed: the next x keeps the seed of its pair
            lx, nx = problem.linear_and_norm(x)
            if nx > 0:
                l_norm = max(l_norm, problem.norm(lx) / nx)
            del lx  # not held across the next probe's allocations
    problem.l_norm = l_norm
    return l_norm


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

