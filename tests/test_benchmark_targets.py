"""The benchmark's traced mode wraps library functions at the module
attributes its callers look up; each of those attributes must exist, or a
traced run fails with an AttributeError."""

import importlib
import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "benchmark"))

import tracing  # noqa: E402


@pytest.mark.parametrize("module,attr", sorted({*tracing.WRAPPED, *tracing.WRAPPED_GENERATORS}))
def test_traced_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
