"""Grid-scale measurement of one archived ``run_experiment`` (not a gate).

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
``run_experiment``, the child's peak RSS (``ru_maxrss``), the archive
size, the run status and the number of continuation segments.  Records
are printed as JSON lines and, with ``--out``, added to that file under
``runs`` (an existing file keeps its other records).

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
MAX_GB = 6.5  # address-space cap of each child
ABOUT = ("benchmarks/scale.py: one 3D run_experiment per grid size, direct "
         "solver, random alpha = 2 data of amplitude 0.3, seed 1, T = 0.3, "
         "49 samples, 8 probes, each in a fresh interpreter; wall_s is "
         "run_experiment's wall time, peak_rss_mb the child's ru_maxrss, "
         "archive_mb the archive's size.")

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
print(json.dumps({
    "n": n, "status": report.status, "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "archive_mb": size / 2**20, "samples": int(report.times.size),
    "segments": len(report.meta.get("segments", []))}))
"""


def measure(src: str, n: int) -> dict:
    """One run at grid size ``n`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", CHILD, src, str(n),
                           str(MAX_GB)], capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"n": n, "status": "error", "error": tail[0]}
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
    for n in SIZES:
        rec = {"label": args.label, **measure(args.src, n)}
        print(json.dumps(rec), flush=True)
        records.append(rec)
    if args.out:
        doc = {"about": ABOUT, "runs": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["runs"].extend(records)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["status"] != "error" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
