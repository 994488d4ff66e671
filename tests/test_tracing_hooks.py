"""The benchmark tracer patches module attributes by name; every one must exist.

`perfbench/tracing.py` wraps functions at the name their caller looks them up
by. Renaming or inlining one of them would make `perfbench/run.py --trace 1`
fail with a KeyError, so the hook table is checked here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    tracing = _tracing_module()
    return ([(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTERS]
            + [(owner, attr) for owner, attr in tracing.ACCEPTING])


@pytest.mark.parametrize("owner_path, attr", _hooks())
def test_traced_attribute_exists(owner_path, attr):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__, f"{owner_path} has no attribute {attr!r}"
