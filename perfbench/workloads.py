"""The two workloads: inputs made from a seed, the timed operation, and
the checks on its outputs.

Why these workloads:

- ``experiment-direct``: the CLI user's ``nse-lab solve`` run, one
  archived ``run_experiment`` with the direct (continuation) solver.  It
  has a single solve, so a cache keyed on (grid, schedule, probes, seed)
  can never hit inside one run.
- ``split-perturbed``: the same stack used differently.  Two solves share
  grid and schedule (so such a cache can hit), half the bilinear
  evaluations pair two different factors, and the linear resolvent
  iteration runs.

A solver-free workload (caloric/Besov ratios of 64-sample heat
trajectories at 32^3 plus an exponent sweep) is not included: each
trajectory and its temporaries are fresh 100 MB allocations, so about a
third of its time is spent in first-touch page faults, whose cost on a
shared virtual machine varied by +-12% between back-to-back runs while
experiment-direct, run in between, varied by +-1%.

The check functions take plain Python values so that they can be
exercised without nselab (see selfcheck.py).
"""

from __future__ import annotations

import hashlib
import math
import os

WORKLOADS = ("experiment-direct", "split-perturbed")


def setup(workload: str, seed: int, workdir: str) -> dict:
    """Write the initial data made from ``seed`` and build the experiment
    configuration; returns the inputs."""
    import numpy as np
    import nselab
    from nselab.families import random_power_law

    n = 24
    grid = nselab.make_grid(3, n, 2.0 * np.pi)
    u0 = random_power_law(grid, alpha=2.0, seed=seed, amplitude=0.3)
    data = os.path.join(workdir, "u0.clf1")
    nselab.write_clf1(data, u0)
    common = dict(dim=3, n=n, box_length=2.0 * np.pi, horizon=0.3,
                  recipe={"family": "file", "path": data}, seed=seed,
                  measure_probes=8,
                  out_dir=os.path.join(workdir, "archive"))
    if workload == "experiment-direct":
        config = nselab.ExperimentConfig(solver="direct", **common)
    else:
        config = nselab.ExperimentConfig(
            solver="split-perturbed", split_lambda=0.01,
            n_geometric=12, n_uniform=12, **common)
    return {"config": config}


def run(inputs: dict) -> dict:
    """The timed operation; returns its outputs as plain Python values."""
    import nselab

    config = inputs["config"]
    report = nselab.run_experiment(config)
    values = [float(x) for x in report.times]
    for series in (*report.lp_series.values(), report.besov_series,
                   *report.leray_series.values(), report.energy_slacks,
                   report.div_residuals):
        values.extend(float(x) for x in series)
    with open(os.path.join(config.out_dir, "series.csv"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"status": report.status, "values": values,
            "series_sha256": digest,
            "l2_large": report.meta.get("l2_large"),
            "besov_small": report.meta.get("besov_small")}


def picard_record(report) -> dict:
    """The part of a Picard report the checks read."""
    finite = all(math.isfinite(x) for x in (*report.norms, *report.diffs,
                                            report.residual))
    return {"converged": bool(report.converged),
            "iterations": int(report.iterations), "finite": finite}


def check(workload: str, out: dict, picard: list) -> list[str]:
    """Reasons the outputs of one operation are wrong; empty if none."""
    reasons = []
    if not all(math.isfinite(v) for v in out["values"]):
        reasons.append("non-finite output")
    for i, rec in enumerate(picard):
        if not rec["converged"]:
            reasons.append(f"Picard solve {i} did not converge")
        if not rec["finite"]:
            reasons.append(f"Picard solve {i} has non-finite norms")
    if out["status"] != "completed":
        reasons.append(f"status is {out['status']!r}")
    if workload == "experiment-direct" and not picard:
        reasons.append("no Picard solve observed")
    if workload == "split-perturbed":
        if len(picard) != 2:
            reasons.append(f"{len(picard)} Picard solves, expected 2")
        for key in ("l2_large", "besov_small"):
            v = out[key]
            if v is None or not math.isfinite(v) or v <= 0:
                reasons.append(f"{key} = {v} is not positive")
    return reasons


def check_repeats(workload: str, outs: list) -> list[str]:
    """Checks across operations of one run, which share their inputs."""
    if workload != "experiment-direct":
        return []
    digests = {o["series_sha256"] for o in outs if "series_sha256" in o}
    if len(outs) < 2:
        return ["series.csv determinism needs two runs"]
    if len(digests) != 1:
        return ["series.csv differs between runs with the same seed"]
    return []
