"""Spans and counts recorded around nselab's public entry points.

Nothing here is imported by nselab; the benchmark rebinds module
attributes to wrappers.  Spans are kept in memory and written once,
when the traced run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc

# Transform entry points counted at the FFT boundary.  Only the public
# namespaces are rebound, so numpy's internal calls between its own
# transforms are not counted twice.
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (module, function) pairs wrapped in the traced run, by layer.
TRACED = (
    ("spectral", "write_clf1"), ("spectral", "read_clf1"),
    ("heat", "duhamel_stack"),
    ("besov", "besov_norm"), ("besov", "default_partition"),
    ("calderon", "split"),
    ("picard", "estimate_constants"), ("picard", "solve_picard"),
    ("solver", "mild_solve_nse"), ("solver", "mild_solve_perturbed"),
    ("solver", "solve_with_continuation"), ("solver", "kato_stack_norm"),
    ("diagnostics", "run_experiment"), ("diagnostics", "energy_ledger"),
    ("diagnostics", "critical_norm_series"),
    ("diagnostics", "leray_monitor"),
    ("families", "random_power_law"),
)


def rebind(package: str, original, wrapper) -> int:
    """Point every attribute of ``package``'s loaded modules that holds
    ``original`` at ``wrapper``; nselab modules import each other's
    functions by name, so patching the defining module alone would miss
    calls.  Returns the number of bindings replaced."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def observe_picard(on_report) -> None:
    """Rebind nselab's ``solve_picard`` so every returned report is
    passed to ``on_report``; run_experiment does not surface them."""
    from nselab import picard

    original = picard.solve_picard

    def solve_picard(*args, **kwargs):
        report = original(*args, **kwargs)
        on_report(report)
        return report

    rebind("nselab", original, solve_picard)


class Tracer:
    """In-memory span recorder.

    A span is (name, start, end, parent index); spans of one process
    share the run.  Self time is a span's duration minus its children's
    durations: calls are single-threaded and nested, so children never
    overlap.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.peak_alloc = 0
        self._fft_depth = 0

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, on_return=None, solver_layer=False):
        tracer = self

        def wrapper(*args, **kwargs):
            outermost_solver = solver_layer and not tracer._in_solver()
            if outermost_solver:
                tracemalloc.reset_peak()
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                if outermost_solver:
                    tracer.peak_alloc = max(tracer.peak_alloc,
                                            tracemalloc.get_traced_memory()[1])
            if on_return is not None:
                on_return(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _in_solver(self) -> bool:
        return any(self.names[i].startswith("solver.") for i in self.stack)

    def wrap_fft(self, name: str, fn):
        tracer = self

        def wrapper(a, *args, **kwargs):
            if tracer._fft_depth:
                return fn(a, *args, **kwargs)
            tracer._fft_depth += 1
            idx = tracer.begin(name)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                tracer.end(idx)
                tracer._fft_depth -= 1
            size = getattr(a, "size", 0)
            tracer.add("fft.calls", 1)
            tracer.add("fft.points", max(size, out.size))
            tracer.add("fft.bytes_computed",
                       getattr(a, "nbytes", 0) + out.nbytes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install_fft(self) -> None:
        """Wrap numpy.fft and scipy.fft entry points; call before nselab
        is imported so any module that binds them at import sees the
        wrappers."""
        import numpy.fft
        import scipy.fft

        for mod, prefix in ((numpy.fft, "fft.numpy."),
                            (scipy.fft, "fft.scipy.")):
            for fname in FFT_NAMES:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    setattr(mod, fname, self.wrap_fft(prefix + fname, fn))

    def install_nselab(self, on_picard_report) -> None:
        """Wrap the TRACED entry points at every binding in nselab."""
        import importlib
        import os

        for modname, fname in TRACED:
            mod = importlib.import_module("nselab." + modname)
            original = getattr(mod, fname)
            on_return = None
            if fname == "solve_picard":
                def on_return(args, report):
                    on_picard_report(report)
            elif fname == "write_clf1":
                def on_return(args, _):
                    self.add("spectral.write_clf1.bytes",
                             os.path.getsize(args[0]))
            wrapper = self.wrap(f"{modname}.{fname}", original, on_return,
                                solver_layer=modname == "solver")
            rebind("nselab", original, wrapper)

    # ----------------------------------------------------------------
    # Summaries
    # ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def under(self, idx: int, name: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def layer_totals(self) -> dict:
        """Per span name: calls and summed self time, plus the FFT total."""
        selfs = self.self_times()
        out: dict[str, float] = dict(self.counts)
        for i, name in enumerate(self.names):
            if name.startswith("fft."):
                out["fft.self_s"] = out.get("fft.self_s", 0.0) + selfs[i]
                continue
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + selfs[i]
        duhamel = [i for i, n in enumerate(self.names)
                   if n == "heat.duhamel_stack"]
        out["picard.bilinear_evals"] = len(duhamel)
        out["picard.probe_evals"] = sum(
            self.under(i, "picard.estimate_constants") for i in duhamel)
        out["solver.peak_alloc_mb"] = self.peak_alloc / 2**20
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "starts": self.starts,
                       "ends": self.ends, "parents": self.parents,
                       "counts": self.counts}, fh)
