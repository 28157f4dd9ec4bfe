"""Every name a package lists in ``__all__`` is one it has, and none hides
a module of the package."""

import importlib
import pkgutil
import types

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
    # ``import repro.core.refine as m`` binds the module ``refine``, not a
    # function the package re-exports under the module's name.
    for module in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{module.name}")
        assert isinstance(getattr(package, module.name), types.ModuleType), module.name
