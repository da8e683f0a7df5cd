"""The benchmark's tracer wraps package functions by name; keep those names alive."""

import importlib
import importlib.util
import os

import pytest

TRACED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "traced.py")


def load_traced():
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr,span", load_traced().LAYER_FUNCTIONS)
def test_traced_layer_functions_resolve(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({span})"
