"""The benchmark's tracer wraps package functions by name; each must exist.

``perfbench/tracer.py`` reports a wrapped name that no longer resolves as
absent and its per-layer metric as 0, so a refactor that renames or fuses
away a traced function would go unnoticed there. This test fails instead.
The tracer module is only read, never started.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _ in tracer.WRAPS])
def test_wrapped_name_resolves_to_a_callable(module_name, path):
    target = tracer._resolve(module_name, path)
    assert target is not None, f"{module_name}.{path} is gone"
    assert callable(getattr(*target))


def test_counted_class_resolves():
    target = tracer._resolve(*tracer.VAR_CLASS)
    assert target is not None and isinstance(getattr(*target), type)
