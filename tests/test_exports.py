"""Every name a package lists in ``__all__`` is one it has."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        getattr(package, export)
