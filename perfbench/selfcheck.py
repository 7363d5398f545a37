"""Self-check of the benchmark harness; needs neither nselab nor numpy.

    python3 perfbench/selfcheck.py

Confirms that the metrics run.py emits are exactly those BENCHMARK.json
names, with the same units, and that every output check accepts a good
result and rejects each deliberately corrupted one.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

GOOD_PICARD = [{"converged": True, "iterations": 4, "finite": True}]

GOOD = {
    "experiment-direct": ({"status": "completed", "values": [0.1, 0.2],
                           "series_sha256": "ab", "l2_large": None,
                           "besov_small": None}, GOOD_PICARD),
    "split-perturbed": ({"status": "completed", "values": [0.1, 0.2],
                         "series_sha256": "cd", "l2_large": 0.2,
                         "besov_small": 0.015}, GOOD_PICARD * 2),
}


def corruptions(workload: str):
    """(label, outputs, picard records) that the checks must reject."""
    out, picard = GOOD[workload]

    def edit(**changes):
        o = copy.deepcopy(out)
        o.update(changes)
        return o

    yield "NaN output", edit(values=[0.1, math.nan]), picard
    yield "inf output", edit(values=[math.inf]), picard
    bad = copy.deepcopy(picard)
    bad[0]["converged"] = False
    yield "unconverged Picard report", out, bad
    bad = copy.deepcopy(picard)
    bad[0]["finite"] = False
    yield "non-finite Picard norms", out, bad
    yield "numerical failure status", \
        edit(status="numerical failure"), picard
    yield "blow-up status", edit(status="blow-up suspected"), picard
    yield "no Picard report", out, []
    if workload == "split-perturbed":
        yield "zero large part", edit(l2_large=0.0), picard
        yield "missing small part", edit(besov_small=None), picard
        yield "NaN small part", edit(besov_small=math.nan), picard


def fake_op(wall: float, layers=None) -> dict:
    return {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 100.0,
            "reasons": [], "picard": GOOD_PICARD, "series_sha256": "ab",
            "layers": layers or {}}


def main() -> int:
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # every named metric is emitted, with its unit
    named_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    named_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if named_e2e != dict(run.END_TO_END):
        problems.append(f"end_to_end mismatch: {named_e2e} vs "
                        f"{dict(run.END_TO_END)}")
    if named_layer != dict(run.PER_LAYER):
        problems.append("per_layer names or units differ from run.py")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("workload names differ from workloads.py")
    e2e = run.end_to_end([fake_op(1.0), fake_op(2.0)], [0.5, 0.6, 0.7])
    if set(e2e) != set(named_e2e):
        problems.append(f"end_to_end() emits {sorted(e2e)}")
    layers = run.per_layer(fake_op(1.2, {"picard.bilinear_evals": 4,
                                         "picard.probe_evals": 1}),
                           fake_op(1.0), 0, 2)
    if set(layers) != set(named_layer):
        problems.append(f"per_layer() emits {sorted(set(layers) ^ set(named_layer))} "
                        "beyond or short of BENCHMARK.json")
    if set(run.bases(layers, 0, 2)) - set(named_layer):
        problems.append("a printed ratio base names no per-layer metric")

    # every check accepts good outputs and rejects each corruption
    n_rejected = 0
    for workload in workloads.WORKLOADS:
        out, picard = GOOD[workload]
        if workloads.check(workload, out, picard):
            problems.append(f"{workload}: good output rejected: "
                            f"{workloads.check(workload, out, picard)}")
        for label, bad, bad_picard in corruptions(workload):
            if workloads.check(workload, bad, bad_picard):
                n_rejected += 1
            else:
                problems.append(f"{workload}: {label} accepted")
    same = [fake_op(1.0), fake_op(1.0)]
    differ = [fake_op(1.0), dict(fake_op(1.0), series_sha256="ff")]
    if run.failures("experiment-direct", same):
        problems.append("identical series.csv digests rejected")
    for label, ops in (("differing series.csv", differ),
                       ("single run", same[:1])):
        if run.failures("experiment-direct", ops):
            n_rejected += 1
        else:
            problems.append(f"experiment-direct: {label} accepted")

    for p in problems:
        print("SELFCHECK FAILED:", p)
    if problems:
        return 1
    print(f"selfcheck ok: {len(named_e2e)} end-to-end and "
          f"{len(named_layer)} per-layer metrics emitted; "
          f"{n_rejected} corrupted results rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
