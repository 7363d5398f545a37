"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps
nselab functions that ``perfbench/tracing.py`` names; each must still
exist under that name."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_exists(module, name):
    mod = importlib.import_module(f"nselab.{module}")
    assert callable(getattr(mod, name, None))


def test_solver_calls_picards_solve_picard():
    # observe_picard rebinds every binding that holds picard.solve_picard
    from nselab import picard, solver

    assert solver.solve_picard is picard.solve_picard
