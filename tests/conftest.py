"""Every test without the `numpy` marker runs with numpy blocked: an `import numpy`
in the test, or in a library call it makes, raises ModuleNotFoundError. So the
unmarked tests are the numpy-free contract, checked on every run."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _numpy_only_where_marked(request, monkeypatch):
    if request.node.get_closest_marker("numpy") is None:
        monkeypatch.setitem(sys.modules, "numpy", None)
