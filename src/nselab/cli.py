"""Command-line interface: norm computations, data splitting, estimate
verification, solver runs, and archived-report inspection.

Exit codes: 0 success, 2 validation error, 3 solver divergence
(including a 'blow-up suspected' run), 4 gate failure (a checked
invariant did not hold, e.g. a 'numerical failure' run).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .besov import (BesovIndex, Trajectory, besov_norm, critical_exponent,
                    default_partition)
from .calderon import SplitConfig, exponent_sweep, split
from .diagnostics import (ExperimentConfig, atomic_write_text, finite_json,
                          rescale, run_experiment, vanishing_test)
from .errors import ConfigError, NseLabError, PicardDivergenceError
from .families import random_power_law
from .heat import (check_kato_exponents, heat_trajectory, time_schedule,
                   verify_kato_estimate)
from .spectral import Grid, dealias_product, read_clf1, write_clf1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_GATE = 4
MAX_SWEEP_LAMBDAS = 1000  # each lambda of a sweep runs one full split
# the solve flags that a --config file replaces, by destination
_CONFIG_FLAGS = {"dim": "--dim", "grid": "--grid", "box": "--box",
                 "family": "--family", "solver": "--solver", "horizon": "--T",
                 "amplitude": "--amplitude", "seed": "--seed"}


def _common(sub):
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _common_with_grid(sub):
    """``_common`` plus the grid of the commands that build their own."""
    _common(sub)
    sub.add_argument("--grid", type=int, default=32,
                     help="points per axis (default 32)")
    sub.add_argument("--box", type=float, default=2.0 * math.pi,
                     help="box side length (default 2*pi)")
    sub.add_argument("--dim", type=int, default=3, choices=(2, 3))


def _emit(args, payload: dict, name: str):
    """Write ``payload`` to stdout (and to ``--out``); non-finite floats
    become JSON null."""
    payload = finite_json(payload)
    if args.format == "csv":
        keys = sorted(payload)
        text = ",".join(keys) + "\n" + ",".join(
            json.dumps(payload[k], allow_nan=False)
            if not isinstance(payload[k], float)
            else repr(payload[k]) for k in keys) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        ext = "csv" if args.format == "csv" else "json"
        atomic_write_text(os.path.join(args.out, f"{name}.{ext}"), text)
    sys.stdout.write(text)


def cmd_partition_check(args) -> int:
    grid = Grid(args.dim, args.grid, args.box)
    part = default_partition(grid)
    dev = part.partition_deviation()
    _emit(args, {"j_min": part.j_min, "j_max": part.j_max,
                 "partition_deviation": dev}, "partition-check")
    return EXIT_OK if dev < 1e-10 else EXIT_GATE


def cmd_norm(args) -> int:
    field = read_clf1(args.infile)
    part = default_partition(field.grid)
    idx = BesovIndex(args.s if args.s is not None
                     else critical_exponent(args.p), args.p, args.q)
    rep = besov_norm(field.zero_mean(), idx, part)
    _emit(args, json.loads(rep.to_json()), "norm")
    return EXIT_OK


def cmd_split(args) -> int:
    field = read_clf1(args.infile)
    part = default_partition(field.grid)
    cfg = SplitConfig(args.p, args.q, getattr(args, "lambda"))
    res = split(field, cfg, part)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_clf1(os.path.join(args.out, "U0.clf1"), res.large)
        write_clf1(os.path.join(args.out, "V0.clf1"), res.small)
    _emit(args, res.summary(), "split")
    return EXIT_OK


def cmd_sweep(args) -> int:
    lo, hi, n = args.lambda_min, args.lambda_max, args.n_lambda
    if not (0 < lo < math.inf and 0 < hi < math.inf
            and n <= MAX_SWEEP_LAMBDAS):
        raise ConfigError(f"a sweep takes a positive and finite lambda range "
                          f"and at most {MAX_SWEEP_LAMBDAS} values, got {lo} "
                          f"to {hi} in {n}")
    field = read_clf1(args.infile)
    part = default_partition(field.grid)
    cfg = SplitConfig(args.p, args.q, 1.0)
    lams = np.geomspace(lo, hi, n)
    rep = exponent_sweep(field, cfg, lams, part)
    _emit(args, json.loads(rep.to_json()), "sweep")
    return EXIT_OK


def cmd_heat_verify(args) -> int:
    check_kato_exponents(args.s1, args.p1, args.p2)
    times = time_schedule(args.horizon, 16, 16)
    grid = Grid(args.dim, args.grid, args.box)
    u = random_power_law(grid, alpha=2.0, seed=args.seed)
    flows = heat_trajectory(u, times)
    tensors = Trajectory(grid, times,
                         [dealias_product(f, f) for f in flows.fields])
    rep = verify_kato_estimate(tensors, args.s1, args.p1, args.p2)
    _emit(args, rep, "heat-verify")
    return EXIT_OK


def cmd_solve(args) -> int:
    values = {dest: getattr(args, dest) for dest in _CONFIG_FLAGS}
    given = [_CONFIG_FLAGS[dest] for dest, v in values.items()
             if v is not None]
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_json(fh.read())
        if given:
            raise ConfigError(f"solve --config takes no {', '.join(given)}: "
                              f"the file sets the run (only --out and "
                              f"--format go beside it)")
        if args.out:
            cfg.out_dir = args.out
    else:
        flags = {dest: args.solve_defaults[dest] if v is None else v
                 for dest, v in values.items()}
        recipe = {"family": flags["family"]}
        if flags["family"] == "random":
            recipe["amplitude"] = flags["amplitude"]
        cfg = ExperimentConfig(dim=flags["dim"], n=flags["grid"],
                               box_length=flags["box"],
                               horizon=flags["horizon"], recipe=recipe,
                               solver=flags["solver"], out_dir=args.out,
                               seed=flags["seed"])
    report = run_experiment(cfg)
    _emit(args, report.summary(), "solve")
    if report.status == "completed":
        return EXIT_OK
    if report.status == "blow-up suspected":
        return EXIT_DIVERGENCE
    return EXIT_GATE


def cmd_rescale(args) -> int:
    field = read_clf1(args.infile)
    out = rescale(field, getattr(args, "lambda"))
    write_clf1(args.outfile, out)
    _emit(args, {"lambda": getattr(args, "lambda"),
                 "box_length": out.grid.box_length,
                 "outfile": args.outfile}, "rescale")
    return EXIT_OK


def cmd_vanish(args) -> int:
    field = read_clf1(args.infile)
    lams = np.array([float(s) for s in args.lambdas.split(",")])
    series = vanishing_test(field, lams)
    _emit(args, {"lambdas": lams.tolist(), "pairings": series.tolist()},
          "vanish")
    return EXIT_OK


def cmd_report(args) -> int:
    path = os.path.join(args.archive, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    summary = manifest.get("summary") if isinstance(manifest, dict) else None
    if not isinstance(summary, dict):
        raise ConfigError(f"{path} holds no summary object")
    _emit(args, summary, "report")
    status = summary.get("status")
    return EXIT_OK if status == "completed" else EXIT_GATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nse-lab",
        description="Spectral laboratory for critical-norm fluid "
                    "diagnostics on periodic grids.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("partition-check",
                        help="dyadic partition-of-unity deviation")
    _common_with_grid(p)
    p.set_defaults(fn=cmd_partition_check)

    p = subs.add_parser("norm", help="Besov norm of a CLF1 field")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=float, default=None,
                   help="regularity (default: critical for p)")
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--q", type=float, default=4.0)
    p.set_defaults(fn=cmd_norm)

    p = subs.add_parser("split", help="threshold split of critical data")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--q", type=float, default=8.0)
    p.add_argument("--lambda", type=float, default=1.0)
    p.set_defaults(fn=cmd_split)

    p = subs.add_parser("sweep", help="threshold exponent-law sweep")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--q", type=float, default=8.0)
    p.add_argument("--lambda-min", type=float, default=1e-2)
    p.add_argument("--lambda-max", type=float, default=1e2)
    p.add_argument("--n-lambda", type=int, default=13)
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("heat-verify",
                        help="measured Duhamel smoothing constant")
    _common_with_grid(p)
    p.add_argument("--s1", type=float, default=-0.5)
    p.add_argument("--p1", type=float, default=2.0)
    p.add_argument("--p2", type=float, default=4.0)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_heat_verify)

    p = subs.add_parser("solve", help="run and archive a solver experiment")
    _common_with_grid(p)
    p.add_argument("--family", default="taylor-green",
                   choices=("taylor-green", "abc", "random", "zero"))
    p.add_argument("--solver", default="direct",
                   choices=("direct", "split-perturbed", "mollified"))
    p.add_argument("--T", dest="horizon", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="JSON experiment config (beside it, only --out "
                        "and --format)")
    # a flag left out reads None, so that one given beside --config is
    # seen; its default is filled in when there is no config
    p.set_defaults(fn=cmd_solve, solve_defaults={
        dest: p.get_default(dest) for dest in _CONFIG_FLAGS},
        **dict.fromkeys(_CONFIG_FLAGS))

    p = subs.add_parser("rescale", help="apply the scaling symmetry")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lambda", type=float, required=True)
    p.add_argument("--outfile", required=True)
    p.set_defaults(fn=cmd_rescale)

    p = subs.add_parser("vanish", help="small-scale pairing series")
    _common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lambdas", required=True,
                   help="comma-separated powers of 2")
    p.set_defaults(fn=cmd_vanish)

    p = subs.add_parser("report", help="summarize an archived run")
    _common(p)
    p.add_argument("--archive", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except PicardDivergenceError as exc:
        sys.stderr.write(f"solver divergence: {exc}\n"
                         f"iterate norms: {exc.norms}\n")
        return EXIT_DIVERGENCE
    except (NseLabError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
