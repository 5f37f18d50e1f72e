"""The pytest configuration in ``pyproject.toml``: warnings are errors, but
none may break the report of a failing property test."""

import importlib
import sys

import pytest


def test_hypothesis_example_printer_imports_under_the_configured_filters():
    # A failing hypothesis test imports this module to print its falsifying
    # example; a warning raised on that import as an error would replace the
    # report with an internal error.
    pytest.importorskip("libcst")
    name = "hypothesis.extra._patching"
    fresh = ("mypy_extensions", "libcst", name)
    saved = dict(sys.modules)
    for key in list(sys.modules):
        if key in fresh or key.startswith("libcst."):
            del sys.modules[key]
    try:
        importlib.import_module(name)
    finally:
        for key in set(sys.modules) - set(saved):
            del sys.modules[key]
        sys.modules.update(saved)
