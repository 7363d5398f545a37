"""A run is never wrong without saying so: unconverged continuation
segments, CLI exit codes, strict JSON, and arbitrary CLF1 bytes."""

import argparse
import functools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nselab import NseLabError, SolverConfig, SpectralField, Trajectory, make_grid
from nselab import besov, cli, diagnostics
from nselab.diagnostics import (DiagnosticsReport, ExperimentConfig,
                                LedgerReport, _archive, finite_json,
                                run_experiment)
from nselab.families import random_power_law
from nselab.solver import solve_with_continuation
from nselab.spectral import read_clf1


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_continuation_rejects_unconverged_segments(grid16):
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=0, max_iter=2)
    res = solve_with_continuation(u0, cfg, step_floor=0.03)
    assert res.status == "blow-up suspected"
    assert res.segment_horizons == []
    assert math.isnan(res.residual_doubled)


def _small_experiment(solver, **kwargs):
    return ExperimentConfig(dim=3, n=16, box_length=2.0 * np.pi, horizon=0.2,
                            recipe={"family": "random", "amplitude": 0.3},
                            solver=solver, split_lambda=0.01, n_geometric=4,
                            n_uniform=4, measure_probes=0, **kwargs)


@pytest.mark.parametrize("solver", ["split-perturbed", "mollified"])
def test_unconverged_solve_is_a_numerical_failure(monkeypatch, solver):
    # the direct solver's continuation halves the step instead (above)
    monkeypatch.setattr(diagnostics, "SolverConfig",
                        functools.partial(SolverConfig, max_iter=2))
    report = run_experiment(_small_experiment(solver))
    assert report.status == "numerical failure"


def test_non_finite_slacks_are_a_numerical_failure():
    # converged solves, but the ledger's quadrature overflows at t = 1e300
    report = run_experiment(ExperimentConfig(
        dim=2, n=8, box_length=2.0 * np.pi, horizon=1e300,
        recipe={"family": "taylor-green"}, n_geometric=4, n_uniform=4,
        measure_probes=2))
    assert not np.all(np.isfinite(report.energy_slacks))
    assert report.status == "numerical failure"


def test_each_lp_series_is_computed_once(monkeypatch):
    # report.lp_series and leray_monitor share ||u(t)||_p: one batched
    # evaluation per exponent on the run's read-only trajectory stack
    # (the solver's Kato norms read writeable slices of its stacks)
    calls = []
    original = besov.lp_norms

    def counting(grid, coeffs, p, batch_axes=0):
        if not coeffs.flags.writeable:
            calls.append(p)
        return original(grid, coeffs, p, batch_axes)

    monkeypatch.setattr(besov, "lp_norms", counting)
    report = run_experiment(_small_experiment("direct",
                                              monitor_ps=(4.0, 6.0)))
    assert report.status == "completed"
    assert sorted(calls) == [4.0, 6.0]
    assert set(report.leray_series) == {4.0, 6.0}


def _report(status):
    return DiagnosticsReport(times=np.array([0.0]), status=status)


@pytest.mark.parametrize("status, code", [
    ("completed", 0), ("blow-up suspected", 3), ("numerical failure", 4)])
def test_solve_exit_code_follows_status(monkeypatch, capsys, status, code):
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: _report(status))
    assert cli.main(["solve", "--dim", "2", "--grid", "8"]) == code
    assert _strict_loads(capsys.readouterr().out)["status"] == status


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_writes_non_finite_as_null(tmp_path, capsys, fmt):
    payload = {"nan": math.nan, "inf": -math.inf, "x": np.float64(1.5),
               "series": np.array([1.0, np.nan]), "n": np.int64(3)}
    args = argparse.Namespace(format=fmt, out=str(tmp_path))
    cli._emit(args, payload, "probe")
    text = capsys.readouterr().out
    assert (tmp_path / f"probe.{fmt}").read_text() == text
    if fmt == "json":
        assert _strict_loads(text) == {"nan": None, "inf": None, "x": 1.5,
                                       "series": [1.0, None], "n": 3}
    else:
        header, row = text.splitlines()
        assert header == "inf,n,nan,series,x"
        assert row == "null,3,null,[1.0, null],1.5"


def test_manifest_is_strict_json(tmp_path):
    grid = make_grid(2, 8, 2.0 * np.pi)
    times = np.array([0.0, 0.1])
    traj = Trajectory(grid, times, [SpectralField.zero(grid)] * 2)
    report = DiagnosticsReport(
        times=times, status="completed", lp_series={4.0: np.zeros(2)},
        besov_series=np.zeros(2), leray_series={4.0: np.zeros(2)},
        energy_slacks=np.zeros(1), div_residuals=np.zeros(2), t_end=0.1,
        meta={"residual_doubled": math.nan, "gamma": math.inf})
    ledger = LedgerReport(times=times, energy=np.zeros(2),
                          dissipation=np.zeros(1), work=np.zeros(1),
                          slacks=np.zeros(1), scale=1e-300)
    config = ExperimentConfig(dim=2, n=8, box_length=2.0 * np.pi,
                              horizon=0.1, recipe={"family": "zero"},
                              out_dir=str(tmp_path))
    _archive(config, report, traj, ledger)
    manifest = _strict_loads((tmp_path / "manifest.json").read_text())
    assert manifest["summary"]["residual_doubled"] is None
    assert manifest["summary"]["gamma"] is None
    assert finite_json((1.0, np.nan)) == [1.0, None]


# (valid, invalid) choices per header token; ncomp is derived from the
# rank when valid
_TOKENS = [
    ([b"CLF1"], [b"CLF2", b"clf1", b""]),
    ([b"2", b"3"], [b"4", b"-3", b"x"]),
    ([b"8", b"10"], [b"7", b"0", b"100000", b"99999999999999999999"]),
    ([b"6.283185307179586", b"1.0", b"1e-300"],
     [b"0", b"-1", b"nan", b"inf", b"1e400"]),
    ([b"scalar", b"vector", b"matrix"], [b"tensor", b"\xff"]),
    ([None], [b"2", b"4", b"-1"]),
]


@st.composite
def clf1_bytes(draw):
    """Headers of mostly valid tokens, then a payload of the size the
    header asks for (zero or random bytes) or of a wrong size."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=256))
    tokens = [draw(st.sampled_from(good if draw(st.integers(0, 4)) else bad))
              for good, bad in _TOKENS]
    try:
        dim, n = int(tokens[1]), int(tokens[2])
    except ValueError:
        dim = n = 0
    if tokens[5] is None:
        per_rank = {b"scalar": 1, b"vector": dim, b"matrix": dim * dim}
        tokens[5] = str(per_rank.get(tokens[4], 1)).encode()
    tokens = tokens[:draw(st.integers(4, 7))]
    header = b" ".join(tokens) + b"\n"
    ncomp = int(tokens[5]) if len(tokens) > 5 else 0
    size = 64
    if min(dim, n, ncomp) > 0 and n**dim <= 10**4:
        size = 16 * ncomp * n**dim
    kind = draw(st.sampled_from(["random", "zero", "short"]))
    if kind == "zero":
        return header + bytes(size)
    if kind == "short":
        return header + bytes(max(size - 16, 0))
    return header + draw(st.binary(min_size=min(size, 4096),
                                   max_size=min(size, 4096)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=clf1_bytes())
def test_read_clf1_gives_field_or_package_error(tmp_path, data):
    path = tmp_path / "fuzz.clf1"
    path.write_bytes(data)
    try:
        field = read_clf1(path)
    except NseLabError:
        return
    assert np.all(np.isfinite(field.coeffs))
    assert math.isfinite(field.grid.box_length)


_BAD_FLOATS = st.sampled_from([0.0, -1.0, 1e-300, 1e-13, 1e300, math.inf,
                               -math.inf, math.nan])


@st.composite
def _number(draw, low, high):
    """Mostly a float in [low, high], one time in ten an extreme or
    invalid one."""
    return draw(_BAD_FLOATS if draw(st.integers(0, 9)) == 0
                else st.floats(low, high))


@st.composite
def _count(draw, low, high):
    """Mostly an integer in [low, high], one time in ten low - 1."""
    return low - 1 if draw(st.integers(0, 9)) == 0 else draw(
        st.integers(low, high))


@st.composite
def experiment_configs(draw):
    """JSON configs of 2D 8^2 runs with every numeric field drawn."""
    recipe = {"family": draw(st.sampled_from(["taylor-green", "random",
                                               "zero"]))}
    if recipe["family"] == "random":
        recipe["amplitude"] = draw(_number(0.01, 50.0))
    return {"clab_config": 1, "dim": 2, "n": 8,
            "box_length": draw(_number(1.0, 20.0)),
            "horizon": draw(_number(1e-3, 1.0)), "recipe": recipe,
            "solver": draw(st.sampled_from(
                ["direct", "mollified", "split-perturbed"])),
            "monitor_ps": draw(st.lists(_number(3.5, 8.0), max_size=2)),
            "besov_p": draw(_number(1.0, 8.0)),
            "rho": draw(_number(0.1, 2.0)),
            "split_p": draw(_number(3.5, 6.0)),
            "split_q": draw(_number(6.5, 12.0)),
            "split_lambda": draw(_number(1e-3, 10.0)),
            "seed": draw(st.integers(0, 3)),
            "n_geometric": draw(_count(0, 4)),
            "n_uniform": draw(_count(1, 4)),
            "measure_probes": draw(_count(0, 2))}


def _tg_2d(**kw):
    config = {"clab_config": 1, "dim": 2, "n": 8, "box_length": 2 * math.pi,
              "horizon": 0.3, "recipe": {"family": "taylor-green"},
              "n_geometric": 4, "n_uniform": 4, "measure_probes": 2}
    config.update(kw)
    return config


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [[float(x) for x in line.split(",")]
                for line in fh.read().splitlines()[1:]]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(config=experiment_configs())
# NaN energy slacks once passed the gates as 'completed'
@example(config=_tg_2d(horizon=1e300))
# a horizon below 1e-12 once gave 'completed' with no segment solved
@example(config=_tg_2d(recipe={"family": "random"}, horizon=1e-13))
# an infinite threshold scale once ended in a ZeroDivisionError
@example(config=_tg_2d(solver="split-perturbed", split_lambda=math.inf))
def test_solve_config_exits_with_a_code(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with tempfile.TemporaryDirectory(dir=tmp_path) as out:
        code = cli.main(["solve", "--config", str(path), "--out", out])
        assert code in (0, 2, 3, 4)
        if code == 0:
            series = _csv_rows(os.path.join(out, "series.csv"))
            ledger = _csv_rows(os.path.join(out, "ledger.csv"))
            assert np.all(np.isfinite(series)) and np.all(np.isfinite(ledger))
            # a completed run covers the horizon
            assert len(series) > 1
            assert series[-1][0] == pytest.approx(config["horizon"], rel=1e-12)
    capsys.readouterr()
