"""The names the benchmark harness reads from the package still exist.

``bench/tracer.py`` wraps only public functions defined in their own layer
module, and a traced run fails when a function named in a workload's
profile records no calls.  Its result probes read ``cfg`` from the run
functions and ``trace`` from the CSV export.  Renaming or removing any of
these fails here instead of in the traced benchmark.
"""

import importlib
import inspect

import pytest

from helpers import bench_module


LAYERS = bench_module("tracer").LAYERS
WORKLOADS = bench_module("workloads").WORKLOADS
PROFILED = sorted({name for w in WORKLOADS.values() for name in w.profile})


@pytest.mark.parametrize("qualname", PROFILED)
def test_profiled_function_is_public_in_its_layer(qualname):
    layer, func = qualname.split(".")
    assert layer in LAYERS
    module = importlib.import_module(f"liftguard.{layer}")
    obj = getattr(module, func, None)
    assert not func.startswith("_")
    assert inspect.isfunction(obj), f"liftguard.{layer} has no function {func}"
    assert obj.__module__ == module.__name__, f"{qualname} is defined in {obj.__module__}"


@pytest.mark.parametrize(
    "func, first",
    [("run_single_rate", "cfg"), ("run_dual_rate", "cfg"), ("trace_to_csv", "trace")],
)
def test_probed_argument_comes_first(func, first):
    from liftguard import sim

    assert next(iter(inspect.signature(getattr(sim, func)).parameters)) == first
