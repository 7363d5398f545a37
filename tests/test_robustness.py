"""A run is never wrong without saying so: unconverged continuation
segments, CLI exit codes, strict JSON, and arbitrary CLF1 bytes."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nselab import (BesovIndex, ConfigError, GridError, NormReport,
                    NseLabError, SolverConfig, SplitConfig, SpectralField,
                    Trajectory, default_partition, exponent_sweep, make_grid,
                    split)
from nselab import besov, cli, diagnostics, solver
from nselab.diagnostics import (DiagnosticsReport, ExperimentConfig,
                                LedgerReport, _archive, finite_json,
                                run_experiment)
from nselab.families import random_power_law, taylor_green
from nselab.solver import solve_with_continuation
from nselab.spectral import check_flow, read_clf1


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_continuation_rejects_unconverged_segments(grid16, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    monkeypatch.setattr(solver, "STEP_FLOOR", 0.03)
    u0 = random_power_law(grid16, alpha=2.0, seed=7, amplitude=5e-2)
    cfg = SolverConfig(grid=grid16, horizon=0.2, n_geometric=6, n_uniform=6,
                       measure_probes=0)
    res = solve_with_continuation(u0, cfg)
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
    monkeypatch.setattr("nselab.solver.MAX_ITER", 2)
    report = run_experiment(_small_experiment(solver))
    assert report.status == "numerical failure"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_slacks_are_a_numerical_failure(monkeypatch):
    # converged solves with a ledger slack that is not finite (a horizon
    # whose quadrature overflowed once made one; such a horizon is now
    # refused, see test_unusable_horizon_exits_2)
    ledger = diagnostics.energy_ledger

    def nan_slack(*args, **kwargs):
        rep = ledger(*args, **kwargs)
        rep.slacks[-1] = math.nan
        return rep

    monkeypatch.setattr(diagnostics, "energy_ledger", nan_slack)
    report = run_experiment(ExperimentConfig(
        dim=2, n=8, box_length=2.0 * np.pi, horizon=0.3,
        recipe={"family": "taylor-green"}, n_geometric=4, n_uniform=4,
        measure_probes=2))
    assert not np.all(np.isfinite(report.energy_slacks))
    assert report.status == "numerical failure"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon", [1e300, 1.4e154, -0.3])
def test_unusable_horizon_exits_2(tmp_path, capsys, horizon):
    # the ledger squares its time steps: at 1e300 its slacks were NaN and
    # the run ended 'numerical failure' after solving
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(horizon=horizon)))
    for args in (["--config", str(path)],
                 ["--dim", "2", "--grid", "8", f"--T={horizon!r}"]):
        code = cli.main(["solve", *args, "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: horizon must be positive")
    assert not (tmp_path / "out").exists()


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


def test_report_json_is_strict():
    # a zero field has no slopes to fit (NaN); an infinite exponent is
    # written as null and read back as infinity
    grid = make_grid(3, 16, 2.0 * np.pi)
    sweep = exponent_sweep(SpectralField.zero(grid), SplitConfig(4.0, 8.0, 1.0),
                           np.geomspace(0.1, 10.0, 4), default_partition(grid))
    assert _strict_loads(sweep.to_json())["slope_large"] is None
    rep = NormReport(value=math.nan, index=BesovIndex(-1.0, math.inf, math.inf),
                     blocks=[(0, math.inf)])
    assert _strict_loads(rep.to_json())["value"] is None
    assert NormReport.from_json(rep.to_json()).index == rep.index


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


# values of a JSON type no config field or recipe parameter takes
_WRONG_TYPES = [None, True, "8", {"x": 1}]


@st.composite
def experiment_configs(draw):
    """JSON configs of 2D 8^2 runs with every numeric field drawn; one
    time in ten a field or recipe parameter holds a wrong JSON type."""
    recipe = {"family": draw(st.sampled_from(["taylor-green", "random",
                                               "zero"]))}
    if recipe["family"] == "random":
        recipe["amplitude"] = draw(_number(0.01, 50.0))
    config = {"clab_config": 1, "dim": 2, "n": 8,
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
    if draw(st.integers(0, 9)) == 0:
        where = draw(st.sampled_from([config, recipe]))
        key = draw(st.sampled_from(sorted(set(where) - {"clab_config"})))
        # an integral float is not an integer
        wrong = _WRONG_TYPES + ([float(where[key])]
                                if type(where[key]) is int else [])
        where[key] = draw(st.sampled_from(wrong))
    return config


# the unit box, horizon 1 and no probes
_UNIT_RUN = {"box_length": 1.0, "horizon": 1.0, "measure_probes": 0}


def _tg_2d(**kw):
    config = {"clab_config": 1, "dim": 2, "n": 8, "box_length": 2 * math.pi,
              "horizon": 0.3, "recipe": {"family": "taylor-green"},
              "n_geometric": 4, "n_uniform": 4, "measure_probes": 2}
    config.update(kw)
    return config


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solver", ["direct", "mollified",
                                    "split-perturbed"])
@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_non_finite_data_exits_2(tmp_path, capsys, solver, amplitude):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(
        recipe={"family": "random", "amplitude": amplitude}, solver=solver)))
    code = cli.main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_data_whose_products_could_overflow_are_refused():
    # sup |u| is bounded by the sum of |c_k|, with no transform
    grid = make_grid(2, 8, 1.0)
    for amplitude in (1e154, 1e300):
        data = taylor_green(grid, amplitude)
        with pytest.raises(GridError, match="too large"):
            check_flow(grid, data, "data")
        with pytest.raises(GridError, match="too large"):
            split(data, SplitConfig(4.0, 8.0, 1.0), default_partition(grid))
    check_flow(grid, taylor_green(grid, 1e140), "data")
    # the rescale to the amplitude is refused before it overflows
    with pytest.raises(ConfigError, match="too large"):
        random_power_law(make_grid(2, 8, 1e-13), 2.0, 1, amplitude=1e300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_data_whose_energy_would_overflow_are_refused():
    # on a large box the coefficients scale as A / L^(d/2): their products
    # are finite, but the L^d-weighted energy is not
    grid = make_grid(2, 8, 1e6)
    data = random_power_law(grid, 2.0, 1, amplitude=1e157)
    with pytest.raises(GridError, match="energy would overflow"):
        check_flow(grid, data, "data")
    with pytest.raises(GridError, match="energy would overflow"):
        split(data, SplitConfig(4.0, 8.0, 1.0), default_partition(grid))
    check_flow(grid, random_power_law(grid, 2.0, 1, amplitude=1e150), "data")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("recipe", [
    {"family": "taylor-green", "amplitude": math.inf},
    {"family": "abc", "amplitude": -math.inf},
    {"family": "abc", "c": math.inf}], ids=lambda r: json.dumps(r))
def test_non_finite_family_parameters_exit_2(tmp_path, capsys, recipe):
    # refused by the family itself, before it multiplies by them
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(
        recipe=recipe, dim=2 if recipe["family"] == "taylor-green" else 3)))
    code = cli.main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


# config fields of a JSON type they do not take (each once exited 1
# with a traceback, or ran: an integral float, a bool seed)
_BADLY_TYPED = [
    {"horizon": None}, {"horizon": 10**400}, {"box_length": [1]},
    {"n": "8"}, {"dim": 2.0}, {"recipe": None}, {"monitor_ps": 4},
    {"measure_probes": 1.5}, {"seed": True},
    {"split_q": None, "solver": "split-perturbed"},
    {"recipe": {"family": "random", "amplitude": None}},
    {"recipe": {"family": "random", "alpha": "2"}},
    {"recipe": {"family": "random", "seed": 1.0}},
    {"recipe": {"family": "taylor-green", "bogus": 1}},
    {"recipe": {"family": "file"}},
]


@pytest.mark.parametrize("fields", _BADLY_TYPED,
                         ids=lambda f: json.dumps(f)[:60])
def test_badly_typed_config_exits_2(tmp_path, capsys, fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(**fields)))
    code = cli.main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, 1.5, math.nan, "2"], ids=repr)
@pytest.mark.parametrize("field", ["measure_probes", "n_geometric",
                                   "n_uniform"])
def test_solver_config_refuses_counts_that_are_not_integers(grid16, field,
                                                            value):
    # each was once built (True as 1, 1.5 and NaN past the >= 0 check)
    # and failed only later, with a bare TypeError from range() or
    # np.geomspace; the JSON path already refused them
    with pytest.raises(ConfigError, match=field):
        SolverConfig(grid=grid16, horizon=0.2, **{field: value})
    cfg = SolverConfig(grid=grid16, horizon=0.2, **{field: np.int64(2)})
    assert getattr(cfg, field) == 2


def test_huge_data_exit_cleanly_under_warnings_as_errors(tmp_path):
    # continuation solves nothing, and the one-sample ledger once formed
    # the overflowing forcing of the data (inf - inf in its Gram sums)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(
        recipe={"family": "random", "amplitude": 1e140}, measure_probes=0)))
    src = os.path.dirname(os.path.dirname(diagnostics.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nselab.cli",
         "solve", "--config", str(path), "--out", str(tmp_path / "out")],
        timeout=120, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ""
    summary = _strict_loads(proc.stdout)
    assert summary["status"] == "blow-up suspected"
    assert summary["n_samples"] == 1


# |xi|^-alpha overflowed on a huge box, so random data came back as zero
# (2D from box 1e60, 3D from 1e45) or NaN, with a RuntimeWarning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim, box_length", [
    (2, 1e60), (2, 1e100), (2, 1e150), (2, 9e153), (3, 1e45), (3, 1e100)])
def test_random_data_on_a_large_box_keep_their_norm(dim, box_length):
    f = random_power_law(make_grid(dim, 8, box_length), alpha=2.0, seed=0,
                         amplitude=1.0)
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-14)


# each once exited 1 under warnings as errors; at box 1.3e154 the ledger
# weight 2 L^2 overflows, so the grid is refused
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solver", ["direct", "mollified",
                                    "split-perturbed"])
@pytest.mark.parametrize("box_length, code", [
    (1e100, 0), (1e150, 0), (9e153, 0), (1.3e154, 2)])
def test_random_data_on_a_large_box_exit_with_a_code(tmp_path, capsys,
                                                     solver, box_length,
                                                     code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(recipe={"family": "random"},
                                      box_length=box_length, solver=solver)))
    assert cli.main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert ("2 L^dim finite" in err) == (code == 2)


# the product of two probe norms once underflowed to 0 and divided the
# bilinear gain (a ZeroDivisionError traceback, exit 1); the perturbed
# solve still probes ||L||
@pytest.mark.parametrize("solver", ["direct", "split-perturbed"])
def test_huge_data_on_a_tiny_box_exit_with_a_code(tmp_path, capsys, solver):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(
        box_length=1e-5, horizon=0.1, solver=solver,
        recipe={"family": "random", "amplitude": 1e120})))
    code = cli.main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# the energy of data on a large box once overflowed in the ledger (exit 4)
# and in the split's L^2 norms (exit 3); a Picard iterate's products once
# overflowed in the forcing (exit 3) -- each with a RuntimeWarning
@pytest.mark.parametrize("fields, code", [
    ({"box_length": 1e6, "horizon": 1.0, "measure_probes": 0,
      "recipe": {"family": "random", "amplitude": 1e157}}, 2),
    ({"box_length": 1e6, "horizon": 1.0, "measure_probes": 0,
      "recipe": {"family": "random", "amplitude": 1e157},
      "solver": "split-perturbed"}, 2),
    ({"box_length": 1e-13, "horizon": 1.0, "measure_probes": 1,
      "n_geometric": 2, "n_uniform": 2,
      "recipe": {"family": "taylor-green", "amplitude": 1e140}}, 3),
], ids=["large-box", "large-box-split", "iterate-products"])
def test_overflow_exits_with_a_code_under_warnings_as_errors(tmp_path, fields,
                                                             code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tg_2d(**fields)))
    src = os.path.dirname(os.path.dirname(diagnostics.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nselab.cli",
         "solve", "--config", str(path), "--out", str(tmp_path / "out")],
        timeout=120, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [[float(x) for x in line.split(",")]
                for line in fh.read().splitlines()[1:]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
# non-finite data once ran its solves and exited 4
@example(config=_tg_2d(recipe={"family": "random", "amplitude": math.nan}))
@example(config=_tg_2d(recipe={"family": "random", "amplitude": math.inf},
                       solver="mollified"))
@example(config=_tg_2d(recipe={"family": "random", "amplitude": math.nan},
                       solver="split-perturbed"))
# data whose products overflow once raised a RuntimeWarning in the solve
@example(config=_tg_2d(recipe={"family": "random", "amplitude": 1e300},
                       **_UNIT_RUN))
@example(config=_tg_2d(recipe={"family": "random", "amplitude": 1e154},
                       solver="mollified", **_UNIT_RUN))
@example(config=_tg_2d(recipe={"family": "random", "amplitude": 1e300},
                       solver="split-perturbed", **_UNIT_RUN))
@example(config=_tg_2d(recipe={"family": "random", "amplitude": 1e154},
                       solver="split-perturbed", **_UNIT_RUN))
@example(config=_tg_2d(recipe={"family": "taylor-green", "amplitude": 1e300},
                       **_UNIT_RUN))
# and a rescale of random data that overflowed to inf * 0
@example(config=_tg_2d(recipe={"family": "random", "amplitude": 1e300},
                       **{**_UNIT_RUN, "box_length": 1e-13}))
# random data on a huge box once came back as zero or NaN
@example(config=_tg_2d(recipe={"family": "random"}, box_length=1e100))
@example(config=_tg_2d(recipe={"family": "random"}, box_length=9e153,
                       solver="split-perturbed"))
@example(config=_tg_2d(recipe={"family": "random"}, box_length=1.3e154,
                       solver="mollified"))
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
