"""The benchmark (``perfbench/``) calls nselab by name: its setup and
timed run (``perfbench/workloads.py``) and its traced run
(``perfbench/run.py --trace 1``), which wraps the functions that
``perfbench/tracing.py`` names.  Each must still exist under that
name."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def _workload_names():
    """(module, name) of every nselab name ``workloads.py`` imports from a
    module or reads as an attribute of ``nselab``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text("utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                node.module.split(".")[0] == "nselab":
            names.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "nselab":
            names.add(("nselab", node.attr))
    return sorted(names)


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_exists(module, name):
    mod = importlib.import_module(f"nselab.{module}")
    assert callable(getattr(mod, name, None))


def test_workloads_read_the_names_they_call():
    assert ("nselab.families", "random_power_law") in _workload_names()
    assert ("nselab", "run_experiment") in _workload_names()


@pytest.mark.parametrize("module, name", _workload_names())
def test_workload_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_solver_calls_picards_solve_picard():
    # observe_picard rebinds every binding that holds picard.solve_picard
    from nselab import picard, solver

    assert solver.solve_picard is picard.solve_picard
