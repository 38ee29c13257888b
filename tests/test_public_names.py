"""The names hoimix exports, and the bindings the benchmark tracer wraps,
all resolve. The tracer looks its bindings up only when it is entered, so
a binding that a change removes would otherwise fail only in a traced
benchmark run."""

import importlib
import os
import sys

import hoimix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import trace  # noqa: E402


def test_every_exported_name_resolves():
    assert len(set(hoimix.__all__)) == len(hoimix.__all__)
    missing = [name for name in hoimix.__all__ if getattr(hoimix, name, None) is None]
    assert missing == []


def test_every_traced_binding_resolves_without_entering_the_tracer():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in trace.SPANNED + trace.COUNTED
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
