"""Every module's declared public surface exists."""

import importlib

import pytest

MODULES = ["equilib", "equilib.certificates", "equilib.cli", "equilib.configurations",
           "equilib.diagnostics", "equilib.force_laws", "equilib.residuals", "equilib.solvers"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
