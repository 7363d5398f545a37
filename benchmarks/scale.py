"""Grid-scale runs of ``run_experiment`` and of continuations (not a gate).

    python3 benchmarks/scale.py --label change --out BENCH_scale.json
    python3 benchmarks/scale.py --src ../other-checkout/src --label parent \\
        --out BENCH_scale.json

For each grid size in ``SIZES`` a fresh interpreter runs
one 3D ``run_experiment`` with the direct (continuation) solver: random
alpha = 2 data of amplitude 0.3, seed 1, T = 0.3, the default 49-sample
schedule and 8 probes, archived to a temporary directory that is
deleted afterwards.  The child's address space is capped at
``MAX_GB`` GiB (``RLIMIT_AS``), so a run that would not fit fails
instead of exhausting the host.  Each record holds the wall time of
``run_experiment``, the child's peak RSS (``ru_maxrss``) and minor page
faults (``ru_minflt``), the archive size, the run status and the number
of continuation segments.

Then, for each (grid size, amplitude) in ``CONTINUATIONS``, a fresh
interpreter runs ``solve_with_continuation`` alone on the same kind of
data (seed 1, T = 0.3, default schedule, 8 probes), under the same cap.
Its record holds the amplitude, the status, the segments, the samples,
the wall time of the solve, the peak RSS, the minor page faults and
``residual_doubled``.

Records are printed as JSON lines and, with ``--out``, added to that
file under ``runs`` (an existing file keeps its other records).

Unlike ``perfbench/``, this runs each size once and sets no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
SIZES = (24, 32, 48, 64)
CONTINUATIONS = ((16, 300.0), (16, 1000.0), (24, 300.0))
MAX_GB = 6.5  # address-space cap of each child
ABOUT = ("benchmarks/scale.py: one 3D run_experiment per grid size, direct "
         "solver, random alpha = 2 data of amplitude 0.3, seed 1, T = 0.3, "
         "49 samples, 8 probes, each in a fresh interpreter; wall_s is "
         "run_experiment's wall time, peak_rss_mb the child's ru_maxrss, "
         "minor_faults its ru_minflt (the whole interpreter's, import "
         "included), "
         "archive_mb the archive's size.  Records with an amplitude are "
         "one solve_with_continuation alone on the same kind of data "
         "(seed 1, T = 0.3, default schedule, 8 probes) at that "
         "amplitude: wall_s is the solve's wall time, samples and "
         "segments those of its trajectory, residual_doubled the largest "
         "over its segments.")

CHILD = r"""
import json, os, resource, sys, tempfile, time
limit = int(float(sys.argv[3]) * 2**30)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, sys.argv[1])
import numpy as np
import nselab
n = int(sys.argv[2])
with tempfile.TemporaryDirectory() as out:
    config = nselab.ExperimentConfig(
        dim=3, n=n, box_length=2.0 * np.pi, horizon=0.3,
        recipe={"family": "random", "alpha": 2.0, "amplitude": 0.3},
        seed=1, measure_probes=8, out_dir=out)
    start = time.perf_counter()
    report = nselab.run_experiment(config)
    wall = time.perf_counter() - start
    size = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "n": n, "status": report.status, "wall_s": wall,
    "peak_rss_mb": usage.ru_maxrss / 1024, "minor_faults": usage.ru_minflt,
    "archive_mb": size / 2**20, "samples": int(report.times.size),
    "segments": len(report.meta.get("segments", []))}))
"""


CONTINUATION = r"""
import json, resource, sys, time
limit = int(float(sys.argv[3]) * 2**30)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, sys.argv[1])
import numpy as np
import nselab
from nselab.families import random_power_law
n, amplitude = int(sys.argv[2]), float(sys.argv[4])
grid = nselab.make_grid(3, n, 2.0 * np.pi)
u0 = random_power_law(grid, alpha=2.0, seed=1, amplitude=amplitude)
config = nselab.SolverConfig(grid=grid, horizon=0.3, measure_probes=8)
start = time.perf_counter()
res = nselab.solve_with_continuation(u0, config)
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "n": n, "amplitude": amplitude, "status": res.status, "wall_s": wall,
    "peak_rss_mb": usage.ru_maxrss / 1024, "minor_faults": usage.ru_minflt,
    "samples": len(res.trajectory), "segments": len(res.segment_horizons),
    "residual_doubled": res.residual_doubled}))
"""


def measure(src: str, n: int, amplitude: float | None = None) -> dict:
    """One run at grid size ``n`` in a fresh interpreter: the archived
    ``run_experiment``, or with ``amplitude`` the continuation."""
    child, extra = ((CHILD, []) if amplitude is None
                    else (CONTINUATION, [str(amplitude)]))
    proc = subprocess.run([sys.executable, "-c", child, src, str(n),
                           str(MAX_GB), *extra], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        rec = {"n": n, "status": "error", "error": tail[0]}
        if amplitude is not None:
            rec["amplitude"] = amplitude
        return rec
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=DEFAULT_SRC,
                    help="directory that holds the nselab package")
    ap.add_argument("--label", default="change",
                    help="name stored with each record")
    ap.add_argument("--out", default=None, help="JSON file to add records to")
    args = ap.parse_args(argv)
    records = []
    for n, amplitude in [(n, None) for n in SIZES] + list(CONTINUATIONS):
        rec = {"label": args.label, **measure(args.src, n, amplitude)}
        print(json.dumps(rec), flush=True)
        records.append(rec)
    if args.out:
        doc = {"about": ABOUT, "runs": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["about"] = ABOUT
        doc["runs"].extend(records)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["status"] != "error" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
