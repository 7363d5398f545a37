import json
import os

import numpy as np
import pytest

from nselab import (NseLabError, SpectralField, default_partition, make_grid,
                    read_clf1, write_clf1)
from nselab.cli import main
from nselab.families import critical_random


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


def test_report_missing_archive(tmp_path):
    assert main(["report", "--archive", str(tmp_path / "empty")]) == 2


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

