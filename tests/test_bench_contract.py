"""The package names that the benchmark uses, checked in tier-1.

`bench/tracing.py` replaces each counted method and property on its class
for the length of a traced job, and `bench/selfcheck.py` corrupts a graph
read back through `Graph.copy` and `Graph.remove_triple`.  A rename or
deletion in the package would otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()


def _owner(module: str, cls_name: str):
    return getattr(importlib.import_module(f"archonto.{module}"), cls_name)


@pytest.mark.parametrize("module, cls_name, method, _key", _MODULE.COUNTED_METHODS)
def test_every_counted_method_is_a_function_of_its_class(module, cls_name, method, _key):
    assert inspect.isfunction(_owner(module, cls_name).__dict__.get(method))


@pytest.mark.parametrize("module, cls_name, prop, _key", _MODULE.COUNTED_PROPERTIES)
def test_every_counted_property_is_a_property_of_its_class(module, cls_name, prop, _key):
    assert isinstance(_owner(module, cls_name).__dict__.get(prop), property)


# Called by bench/selfcheck.py, which the tracer's lists do not name.
@pytest.mark.parametrize("method", ["copy", "remove_triple"])
def test_every_graph_method_the_self_check_calls_is_a_function(method):
    assert inspect.isfunction(_owner("graph", "Graph").__dict__.get(method))
