"""Every function the benchmark tracer wraps still exists under its traced name.

`perfbench/tracing.py` looks each `(module, attribute)` key of its TARGETS
table up with getattr, so renaming or moving one of these functions would
crash traced benchmark runs.  The tracer module is loaded by path and only
read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_targets", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("module_name, attr", _targets())
def test_traced_function_is_defined_in_its_module(module_name, attr):
    home = importlib.import_module(f"permbound.{module_name}")
    owner = home
    for part in attr.split("."):
        assert hasattr(owner, part), f"permbound.{module_name} has no {attr}"
        owner = getattr(owner, part)
    assert inspect.isfunction(owner)
    assert owner.__module__ == home.__name__
