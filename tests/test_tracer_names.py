"""The benchmark tracer wraps package functions by name: each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_is_a_package_function():
    """``perfbench/tracer.py`` looks each ``WRAPPED`` name up with ``getattr``,
    so deleting or renaming one breaks the per-layer benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, names in tracer.WRAPPED.items():
        mod = importlib.import_module(f"contextuality.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
