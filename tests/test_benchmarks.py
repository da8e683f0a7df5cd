"""The benchmark's tracer wraps package functions by name; keep those names alive."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED = os.path.join(ROOT, "benchmarks", "traced.py")


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


def test_cli_import_loads_every_traced_module():
    # Tracer.install reads sys.modules[name] right after `import eitlsm.cli`:
    # a module the CLI imported lazily would make every traced run raise KeyError
    names = sorted({module_name for module_name, _, _ in load_traced().LAYER_FUNCTIONS})
    code = f"import sys, eitlsm.cli; print([n for n in {names!r} if n not in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]", f"not loaded by import eitlsm.cli: {proc.stdout}"
