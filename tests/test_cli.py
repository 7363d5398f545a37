import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nselab
from nselab import (NseLabError, SpectralField, default_partition, make_grid,
                    read_clf1, solver, write_clf1)
from nselab import cli
from nselab.cli import main
from nselab.families import critical_random, random_power_law


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    grid = make_grid(3, 16, 2.0 * np.pi)
    part = default_partition(grid)
    u = critical_random(grid, 4.0, part, seed=0)
    path = tmp_path_factory.mktemp("fields") / "u.clf1"
    write_clf1(path, u)
    return str(path)


def test_partition_check_ok():
    assert main(["partition-check", "--grid", "16"]) == 0


def test_partition_check_csv_format(tmp_path):
    out = str(tmp_path / "pc")
    assert main(["partition-check", "--grid", "16", "--format", "csv",
                 "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "partition-check.csv"))


def test_norm_command(field_file, tmp_path, capsys):
    out = str(tmp_path / "norm")
    assert main(["norm", "--in", field_file, "--out", out]) == 0
    with open(os.path.join(out, "norm.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["value"] == pytest.approx(1.0, rel=1e-10)
    capsys.readouterr()


def test_grid_options_only_where_they_act(field_file, tmp_path, capsys):
    # the other commands take their grid from the input file or archive
    assert main(["norm", "--in", field_file, "--grid", "64"]) == 2
    for argv in (["split", "--in", field_file], ["sweep", "--in", field_file],
                 ["vanish", "--in", field_file, "--lambdas", "1.0"],
                 ["rescale", "--in", field_file, "--lambda", "2.0",
                  "--outfile", str(tmp_path / "r.clf1")],
                 ["report", "--archive", str(tmp_path)]):
        for option in ("--grid", "--box", "--dim"):
            assert main(argv + [option, "3"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_oversized_grid_is_a_validation_error(capsys):
    assert main(["partition-check", "--grid", "100000"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_norm_missing_file(tmp_path):
    assert main(["norm", "--in", str(tmp_path / "nope.clf1")]) == 2


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_split_writes_parts(field_file, tmp_path, capsys):
    out = str(tmp_path / "split")
    assert main(["split", "--in", field_file, "--out", out,
                 "--lambda", "0.5"]) == 0
    big = read_clf1(os.path.join(out, "U0.clf1"))
    small = read_clf1(os.path.join(out, "V0.clf1"))
    u = read_clf1(field_file)
    dev = np.max(np.abs(big.coeffs + small.coeffs - u.coeffs))
    assert dev < 1e-10 * np.max(np.abs(u.coeffs))
    capsys.readouterr()


def test_sweep_command(field_file, capsys):
    assert main(["sweep", "--in", field_file, "--n-lambda", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "slope_large" in payload and "slope_small" in payload


def test_heat_verify_command(capsys):
    assert main(["heat-verify", "--grid", "16", "--horizon", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constant"] > 0


def test_rescale_and_vanish_pipeline(field_file, tmp_path, capsys):
    outfile = str(tmp_path / "half.clf1")
    assert main(["rescale", "--in", field_file, "--lambda", "2.0",
                 "--outfile", outfile]) == 0
    shrunk = read_clf1(outfile)
    assert shrunk.grid.box_length == pytest.approx(np.pi)
    capsys.readouterr()
    assert main(["vanish", "--in", field_file, "--lambdas", "2.0,1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairings"]) == 2


def test_vanish_bad_lambda(field_file):
    assert main(["vanish", "--in", field_file, "--lambdas", "3.0"]) == 2


def test_solve_and_report_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["solve", "--family", "taylor-green", "--dim", "2",
                 "--grid", "32", "--T", "0.3", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    capsys.readouterr()
    assert main(["report", "--archive", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "completed"


@pytest.mark.parametrize("horizon", ["nan", "inf", "0", "-1"])
def test_solve_rejects_a_bad_horizon(horizon, capsys):
    assert main(["solve", "--family", "taylor-green", "--dim", "2",
                 "--grid", "8", "--T", horizon]) == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("measure_probes", -1, "measure_probes"), ("n_uniform", 0, "n_uniform")])
def test_solve_rejects_a_bad_solver_setting(tmp_path, capsys, field, value,
                                            message):
    # 2D 8^2 Taylor-Green: this run completed with gamma = 0 (a negative
    # probe count) or with a schedule ending at T/8 (no uniform sample)
    config = {"clab_config": 1, "dim": 2, "n": 8,
              "box_length": 2.0 * np.pi, "horizon": 0.1,
              "recipe": {"family": "taylor-green"}, field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_solve_rejects_a_field_file_on_another_grid(field_file, tmp_path,
                                                    capsys):
    # the file holds a 16^3 field; the config asks for 8^3
    config = {"clab_config": 1, "dim": 3, "n": 8,
              "box_length": 2.0 * np.pi, "horizon": 0.1,
              "recipe": {"family": "file", "path": field_file}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "field file grid does not match the config" in \
        capsys.readouterr().err


def test_report_missing_archive(tmp_path):
    assert main(["report", "--archive", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("manifest", ["{}", "[1, 2]", '{"summary": 1}'])
def test_report_refuses_a_manifest_without_a_summary(tmp_path, capsys,
                                                     manifest):
    # {} once raised KeyError and [1, 2] a TypeError, each a traceback
    (tmp_path / "manifest.json").write_text(manifest)
    assert main(["report", "--archive", str(tmp_path)]) == 2
    assert "no summary object" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("monitor_ps", [3.0]), ("monitor_ps", [4.0, float("nan")]),
    ("besov_p", 0.5), ("besov_p", float("nan"))])
def test_solve_refuses_bad_diagnostic_exponents_before_any_solve(
        tmp_path, capsys, monkeypatch, field, value):
    # 2D 16^2: these configs once ran a whole solve before the monitor
    # or the critical Besov series refused the exponent
    solves = []
    picard_checked = solver._picard_checked

    def spy(*args, **kwargs):
        solves.append(1)
        return picard_checked(*args, **kwargs)

    monkeypatch.setattr(solver, "_picard_checked", spy)
    config = {"clab_config": 1, "dim": 2, "n": 16,
              "box_length": 2.0 * np.pi, "horizon": 0.1,
              "recipe": {"family": "taylor-green"}, field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path)]) == 2
    assert field.split("_")[0] in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("header, n_payload", [
    (b"CLF1 3 16 6.283185307179586 tensor 9\n", 9 * 16**3),
    (b"CLF1 3 100000 6.283185307179586 vector 3\n", 3 * 16**3),
], ids=["unknown-rank", "huge-grid"])
def test_corrupt_clf1_fails_with_package_error(tmp_path, capsys, header,
                                               n_payload):
    path = tmp_path / "bad.clf1"
    path.write_bytes(header + bytes(16 * n_payload))
    with pytest.raises(NseLabError):
        read_clf1(path)
    assert main(["norm", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["nan", "non-hermitian",
                                   "non-hermitian-upper"])
def test_bad_clf1_payload_fails_with_package_error(field_file, tmp_path,
                                                   capsys, fault):
    u = read_clf1(field_file)
    c = u.coeffs.copy()
    if fault == "nan":
        c[0, 1, 0, 0] = np.nan
    elif fault == "non-hermitian":
        c[0, 1, 0, 0] += 1j * np.max(np.abs(c))  # partner at -k unchanged
    path = tmp_path / "bad.clf1"
    write_clf1(path, SpectralField(u.grid, u.rank, c, check_hermitian=False))
    if fault == "non-hermitian-upper":
        # one mode with k_last in N/2+1 .. N-1, the half a field drops
        header, payload = path.read_bytes().split(b"\n", 1)
        n = u.grid.n
        pairs = np.frombuffer(payload, dtype="<f8").reshape(
            (3, n, n, n, 2)).copy()
        pairs[0, 1, 0, n // 2 + 1, 1] += np.max(np.abs(c))
        path.write_bytes(header + b"\n" + pairs.tobytes())
    with pytest.raises(NseLabError):
        read_clf1(path)
    assert main(["norm", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["inf", "nan", "0"])
def test_split_rejects_a_non_finite_lambda(field_file, tmp_path, capsys, lam):
    assert main(["split", "--in", field_file, "--lambda", lam,
                 "--out", str(tmp_path)]) == 2
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["inf", "1e400", "0", "-1", "nan", "3"])
def test_rescale_refuses_a_scale_that_is_not_a_power_of_2(field_file,
                                                          tmp_path, capsys,
                                                          lam):
    # inf and 1e400 once overflowed in log2 (a traceback), 0 divided by
    # lam**2 with a warning before the check
    assert main(["rescale", "--in", field_file, "--lambda", lam,
                 "--outfile", str(tmp_path / "r.clf1")]) == 2
    assert "power of 2" in capsys.readouterr().err
    assert not (tmp_path / "r.clf1").exists()


@pytest.mark.parametrize("amplitude, lam", [(1.0, 2.0**600),
                                            (1e200, 2.0**400)])
def test_rescale_refuses_a_scale_that_overflows(tmp_path, capsys, amplitude,
                                                lam):
    # 2^600 once overflowed lam**2 (a traceback); 2^400 overflowed the
    # coefficients of the 1e200 field with a warning
    grid = make_grid(2, 8, 2.0 * np.pi)
    path = tmp_path / "u.clf1"
    write_clf1(path, random_power_law(grid, alpha=2.0, seed=0,
                                      amplitude=amplitude))
    assert main(["rescale", "--in", str(path), "--lambda", repr(lam),
                 "--outfile", str(tmp_path / "r.clf1")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.clf1").exists()


@pytest.mark.parametrize("lams", ["inf", "2.0,1e400", "nan"])
def test_vanish_refuses_a_scale_that_is_not_a_power_of_2(field_file, capsys,
                                                         lams):
    assert main(["vanish", "--in", field_file, "--lambdas", lams]) == 2
    assert "power of 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--p1", "0"], ["--p2", "0"], ["--p1=-1"], ["--p2=-1"], ["--p1", "nan"],
    ["--s1", "inf"], ["--s1", "1e400"], ["--s1", "nan"]])
def test_heat_verify_refuses_exponents_before_any_work(monkeypatch, capsys,
                                                       argv):
    # p = 0 once divided by zero; p1 = -1 built the heat and tensor
    # trajectories before refusing; s1 = inf exited 0 with a null constant
    def no_work(*args, **kwargs):
        raise AssertionError("a trajectory was built")

    monkeypatch.setattr(cli, "heat_trajectory", no_work)
    assert main(["heat-verify", "--grid", "8", "--dim", "2"] + argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["1e-310", "1e-303"])
def test_heat_verify_refuses_a_subnormal_step_before_any_work(
        monkeypatch, capsys, horizon):
    # 1e-310 once printed overflow warnings and exited 0 with a constant
    # of 0.0
    def no_work(*args, **kwargs):
        raise AssertionError("work was done")

    for name in ("random_power_law", "heat_trajectory"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(["heat-verify", "--grid", "8", "--dim", "2",
                 "--horizon", horizon]) == 2
    assert "too small" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--T", "nan"], ["--T", "0.5"],
                                  ["--grid", "3"], ["--grid", "32"],
                                  ["--dim", "2"], ["--box", "1"],
                                  ["--family", "abc"], ["--solver", "direct"],
                                  ["--amplitude", "2"], ["--seed", "1"]])
def test_solve_refuses_flags_beside_a_config(tmp_path, capsys, monkeypatch,
                                             flag):
    # --T nan was refused over a horizon that the file sets validly, and
    # --grid 3 was ignored; each is refused by name, before any solve
    solves = []
    monkeypatch.setattr(solver, "_picard_checked",
                        lambda *args, **kwargs: solves.append(1))
    config = {"clab_config": 1, "dim": 2, "n": 8,
              "box_length": 2.0 * np.pi, "horizon": 0.1,
              "recipe": {"family": "taylor-green"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path)] + flag) == 2
    err = capsys.readouterr().err
    assert flag[0] in err and "horizon" not in err
    assert solves == []


def test_solve_takes_out_and_format_beside_a_config(tmp_path, capsys):
    config = {"clab_config": 1, "dim": 2, "n": 8,
              "box_length": 2.0 * np.pi, "horizon": 0.1,
              "recipe": {"family": "taylor-green"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out),
                 "--format", "csv"]) == 0
    assert (out / "manifest.json").exists() and (out / "solve.csv").exists()
    assert capsys.readouterr().out.startswith("energy_scale,")


@pytest.mark.parametrize("s", ["inf", "-inf", "nan", "1e400"])
def test_norm_refuses_a_non_finite_regularity(field_file, capsys, s):
    # inf once warned in the dyadic sum; nan exited 0 with a null value
    assert main(["norm", "--in", field_file, f"--s={s}"]) == 2
    assert "regularity s must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--lambda-min=-1"], "positive and finite"),
    (["--lambda-min", "0"], "positive and finite"),
    (["--lambda-max", "inf"], "positive and finite"),
    (["--lambda-max", "1e400"], "positive and finite"),
    (["--lambda-min", "nan"], "positive and finite"),
    (["--n-lambda", "1000000000"], "at most")])
def test_sweep_checks_its_range_before_allocating(field_file, monkeypatch,
                                                  capsys, argv, message):
    # --n-lambda 1000000000 once asked numpy for 7.45 GiB
    def no_allocation(*args, **kwargs):
        raise AssertionError("the lambda grid was allocated")

    monkeypatch.setattr(np, "geomspace", no_allocation)
    assert main(["sweep", "--in", field_file] + argv) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def field_2d(tmp_path_factory):
    grid = make_grid(2, 8, 2.0 * np.pi)
    u = critical_random(grid, 4.0, default_partition(grid), seed=0)
    path = tmp_path_factory.mktemp("fields") / "u8.clf1"
    write_clf1(path, u)
    return str(path)


# each command on a 2D 8^2 grid (or field) and its numeric options
_MATRIX_COMMANDS = {
    "partition-check": (["--grid", "8", "--dim", "2"],
                        ["--grid", "--box", "--dim"]),
    "norm": (["--in", "{field}"], ["--s", "--p", "--q"]),
    "split": (["--in", "{field}"], ["--p", "--q", "--lambda"]),
    "sweep": (["--in", "{field}"], ["--p", "--q", "--lambda-min",
                                    "--lambda-max", "--n-lambda"]),
    "heat-verify": (["--grid", "8", "--dim", "2", "--horizon", "0.2"],
                    ["--grid", "--box", "--dim", "--s1", "--p1", "--p2",
                     "--horizon", "--seed"]),
    "rescale": (["--in", "{field}", "--lambda", "2",
                 "--outfile", "{out}"], ["--lambda"]),
    "vanish": (["--in", "{field}", "--lambdas", "2"], ["--lambdas"]),
}
_MATRIX_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e400"]


@pytest.mark.parametrize("command, option, value", [
    (command, option, value)
    for command, (_, options) in _MATRIX_COMMANDS.items()
    for option in options for value in _MATRIX_VALUES])
def test_cli_input_matrix(field_2d, tmp_path, capsys, command, option,
                          value):
    # runs under the suite's warnings-as-errors: a warning is a failure
    base, _ = _MATRIX_COMMANDS[command]
    argv = [command] + [a.format(field=field_2d, out=tmp_path / "r.clf1")
                        for a in base] + [f"{option}={value}"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert (code == 2) == ("error:" in err)


def test_import_loads_only_the_scipy_modules_it_uses():
    # FFTs are numpy's, so importing the package loads no scipy module;
    # the 2D mollifier's Bessel function j0 loads scipy.special when a
    # 2D mollified solve first needs it
    script = textwrap.dedent("""
        import sys, nselab, nselab.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        from nselab.families import random_power_law
        grid = nselab.make_grid(2, 8, 6.283185307179586)
        u0 = random_power_law(grid, alpha=2.0, seed=1, amplitude=0.3)
        config = nselab.SolverConfig(grid=grid, horizon=0.1, n_geometric=2,
                                     n_uniform=2, measure_probes=0)
        sol = nselab.mollified_solve(u0, None, 0.5, config)
        print(sol.report.converged, "scipy.special" in sys.modules)
        """)
    src = os.path.dirname(os.path.dirname(nselab.__file__))
    proc = subprocess.run([sys.executable, "-c", script], timeout=60,
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split("\n")[:2] == ["[]", "True True"]
