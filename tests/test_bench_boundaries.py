"""The names the benchmark's tracer wraps exist in frobex and are callable.

verdictbench/tracer.py replaces frobex functions and methods by name for a
traced run; a refactor that renames or moves one of them would break that
run without failing any other test.  The tracer is loaded by file path and
only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "verdictbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("verdictbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, meth", [(m, c, f) for m, c, f, _ in tracer.METHODS])
def test_traced_method_exists(module, cls, meth):
    klass = getattr(importlib.import_module(module), cls)
    # the tracer swaps the entry in the class's own __dict__
    assert callable(klass.__dict__[meth])
