"""nselab benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload experiment-direct --seed 0 \\
        --seconds 55 --trace 0

Run from the repository root; nselab is imported from ``src/``.  Every
timed operation runs in a fresh interpreter (``child.py``), one at a
time, because CLI users pay every in-process cache and lazy set-up again
on each run.  Workloads are defined in ``workloads.py``.

``--trace 0`` repeats the operation while another one still fits in
``--seconds`` (at least once; twice for experiment-direct, whose
series.csv must be byte-identical across runs with one seed) and then
starts set-up-only interpreters until set-up has been measured
SETUP_SAMPLES times.  It prints the end-to-end metrics (medians over
the operations, with their sample counts).

``--trace 1`` runs the operation once untraced and once traced, both
from fresh interpreters, and prints the end-to-end metrics of the
untraced one followed by every per-layer metric of the traced one.
Tracing overhead is traced ``wall_s`` minus untraced ``wall_s``.  Spans
are written to ``perfbench/out/spans-<workload>-<seed>.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  If the benchmark itself
cannot run (for example ``src/nselab`` is missing), it exits non-zero
without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)

SETUP_SAMPLES = 5
MIN_OPS = {"experiment-direct": 2}
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics of the traced run, with the end-to-end metric each
# is expected to move (see the module docstring of workloads.py for the
# workloads).  Missing counters read 0.
PER_LAYER = (
    # FFT boundary: wall_s on both workloads
    ("fft.calls", "count"), ("fft.points", "count"),
    ("fft.bytes_computed", "bytes"), ("fft.self_s", "s"),
    # picard: wall_s on both workloads
    ("picard.estimate_constants.calls", "count"),
    ("picard.estimate_constants.self_s", "s"),
    ("picard.solve_picard.calls", "count"),
    ("picard.solve_picard.self_s", "s"),
    ("picard.iterations", "count"), ("picard.unconverged", "count"),
    ("picard.probe_share", "ratio"), ("picard.probe_evals", "count"),
    ("picard.bilinear_evals", "count"),
    # heat: bilinear evaluations
    ("heat.duhamel_stack.calls", "count"), ("heat.duhamel_stack.self_s", "s"),
    # solver: self times cover forcing and the doubled residual;
    # peak_alloc_mb should move peak_rss_mb
    ("solver.mild_solve_nse.self_s", "s"),
    ("solver.mild_solve_perturbed.self_s", "s"),
    ("solver.solve_with_continuation.self_s", "s"),
    ("solver.kato_stack_norm.calls", "count"),
    ("solver.kato_stack_norm.self_s", "s"),
    ("solver.peak_alloc_mb", "MB"),
    # besov and calderon: wall_s (the norm series and the split of
    # split-perturbed)
    ("besov.besov_norm.calls", "count"), ("besov.besov_norm.self_s", "s"),
    ("besov.default_partition.s", "s"),
    ("calderon.split.calls", "count"), ("calderon.split.self_s", "s"),
    # diagnostics and the archive: wall_s on experiment-direct
    ("diagnostics.energy_ledger.self_s", "s"),
    ("diagnostics.critical_norm_series.self_s", "s"),
    ("diagnostics.leray_monitor.self_s", "s"),
    ("spectral.write_clf1.calls", "count"),
    ("spectral.write_clf1.bytes", "bytes"),
    ("spectral.write_clf1.self_s", "s"),
    # families: setup_s (random_power_law also makes the Picard probes)
    ("families.random_power_law.self_s", "s"),
    # the traced run itself
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("fail_frac", "ratio"),
)
# Names of per-layer metrics that differ from the tracer's span totals.
LAYER_SOURCE = {"besov.default_partition.s":
                "besov.default_partition.self_s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: at most nproc threads per pool."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, str(nproc()))
    return env


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def env_stamp(child: dict, seed: int) -> dict:
    """Versions as a child imported them, plus the thread settings every
    child ran with."""
    env = child_env()
    return {**child["versions"], "nproc": nproc(),
            **{v: env[v] for v in THREAD_VARS}, "commit": git_commit(),
            "seed": seed}


def spawn(workload: str, seed: int, mode: str, trace: int) -> dict:
    """Run one child interpreter to completion and return its result."""
    tag = f"{workload}-{seed}-{mode}-{trace}-{os.getpid()}"
    out = os.path.join(OUT, f"child-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--trace", str(trace), "--out", out]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{workload}-{seed}.json")]
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(started)], env=child_env(),
                          timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark child exited with {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    os.unlink(out)
    result["elapsed_s"] = time.monotonic() - started
    return result


def run_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """Repeat the operation while another one fits in ``seconds``."""
    ops = []
    t0 = time.monotonic()
    while True:
        ops.append(spawn(workload, seed, "op", 0))
        longest = max(o["elapsed_s"] for o in ops)
        if len(ops) >= MIN_OPS.get(workload, 1) and \
                time.monotonic() - t0 + longest > seconds:
            return ops


def failures(workload: str, ops: list[dict]) -> dict[int, list[str]]:
    """Failure reasons by operation index; a failed repeat check fails
    the repeated operations (the only one if alone)."""
    failed = {i: list(o["reasons"]) for i, o in enumerate(ops)
              if o["reasons"]}
    for reason in workloads.check_repeats(workload, ops):
        for i in range(1, len(ops)) or [0]:
            failed.setdefault(i, []).append(reason)
    return failed


def end_to_end(ops: list[dict], setups: list[float]) -> dict:
    return {"wall_s": statistics.median(o["wall_s"] for o in ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in ops)}


def per_layer(traced: dict, untraced: dict, n_failed: int,
              n_ops: int) -> dict:
    layers = traced["layers"]
    values = {name: layers.get(LAYER_SOURCE.get(name, name), 0)
              for name, _ in PER_LAYER}
    values["picard.iterations"] = sum(r["iterations"]
                                      for r in traced["picard"])
    values["picard.unconverged"] = sum(not r["converged"]
                                       for r in traced["picard"])
    evals = values["picard.bilinear_evals"]
    values["picard.probe_share"] = \
        values["picard.probe_evals"] / evals if evals else 0.0
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["fail_frac"] = n_failed / n_ops
    return values


def bases(values: dict, n_failed: int, n_ops: int) -> dict:
    """The base of each per-layer ratio, printed beside it."""
    return {
        "picard.probe_share": f"{values['picard.probe_evals']:g} probe / "
                              f"{values['picard.bilinear_evals']:g} "
                              "bilinear evaluations",
        "trace.overhead_s": "traced minus untraced wall_s, "
                            f"{values['trace.overhead_s'] / values['trace.untraced_wall_s']:.1%}"
                            " of untraced",
        "fail_frac": f"{n_failed} failed / {n_ops} attempted",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nselab", "__init__.py")):
        sys.exit(f"no nselab sources under {ROOT}/src")
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        ops = [spawn(args.workload, args.seed, "op", 0),
               spawn(args.workload, args.seed, "op", 1)]
        untraced = ops[:1]
        setups = [ops[0]["setup_s"]]
    else:
        ops = untraced = run_ops(args.workload, args.seed, args.seconds)
        setups = [o["setup_s"] for o in ops]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "setup", 0)
                          ["setup_s"])
    failed = failures(args.workload, ops)
    for i, reasons in sorted(failed.items()):
        print(f"FAILED {args.workload} op {i}: {'; '.join(reasons)}")

    e2e = end_to_end(untraced, setups)
    counts = {"wall_s": len(untraced), "setup_s": len(setups),
              "peak_rss_mb": len(untraced)}
    for name, unit in END_TO_END:
        print(f"{args.workload} {name} = {e2e[name]:.6g} {unit} "
              f"(median of {counts[name]})")
    print(f"{args.workload} fail_frac = {len(failed) / len(ops):g} "
          f"({len(failed)} failed / {len(ops)} attempted)")
    if args.trace:
        layers = per_layer(ops[1], ops[0], len(failed), len(ops))
        notes = bases(layers, len(failed), len(ops))
        for name, unit in PER_LAYER:
            note = f" ({notes[name]})" if name in notes else ""
            print(f"{args.workload} {name} = {layers[name]:.6g} {unit}{note}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

    stamp = env_stamp(ops[0], args.seed)
    print("env " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump({"env": stamp, "ops": ops, "setup_s": setups,
                   "failures": failed, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
