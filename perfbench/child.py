"""One fresh interpreter of the benchmark: set-up, then optionally one
timed operation.  run.py starts it; it is not meant to be run by hand.

    python3 perfbench/child.py --workload W --seed N --mode setup|op
        --trace 0|1 --spawned T --out RESULT.json [--spans SPANS.json]

``--spawned`` is the parent's ``time.monotonic()`` just before the
process was started, so set-up time covers interpreter start, imports,
grid and partition construction and input generation.  The result is a
JSON file; a crash before the operation (for example nselab missing)
exits non-zero without writing one.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "op"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracemalloc
        import tracing

        tracer = tracing.Tracer()
        tracer.install_fft()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nselab

    if not os.path.abspath(nselab.__file__).startswith(src + os.sep):
        raise SystemExit(f"nselab imported from {nselab.__file__}, "
                         f"not from {src}")
    picard = []

    def on_report(report):
        picard.append(workloads.picard_record(report))

    if tracer is not None:
        tracer.install_nselab(on_report)
        root_span = tracer.begin("setup")
    else:
        import tracing

        tracing.observe_picard(on_report)

    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(args.out))
    try:
        inputs = workloads.setup(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.spawned
        result = {"setup_s": setup_s}
        if tracer is not None:
            tracer.end(root_span)
        if args.mode == "op":
            result.update(timed_op(args.workload, inputs, picard, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "nselab": nselab.__version__}
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        if args.spans:
            tracer.dump(args.spans)
        tracemalloc.stop()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def timed_op(workload: str, inputs: dict, picard: list, tracer) -> dict:
    """Run and time one operation, then check its outputs."""
    if tracer is not None:
        import tracemalloc

        tracemalloc.start()
        root_span = tracer.begin("op")
    t0 = time.perf_counter()
    try:
        out = workloads.run(inputs)
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(root_span)
    reasons = [error] if error else workloads.check(workload, out, picard)
    return {"wall_s": wall_s, "reasons": reasons, "picard": picard,
            "series_sha256": (out or {}).get("series_sha256")}


if __name__ == "__main__":
    sys.exit(main())
