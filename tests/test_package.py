"""Public names: the package imports and every module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import calma

MODULES = sorted(info.name for info in pkgutil.iter_modules(calma.__path__))


def test_package_imports():
    assert calma.__version__
    assert {"core", "calibration", "multiaccuracy", "training", "audit"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"calma.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
