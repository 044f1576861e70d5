"""Every exported name resolves, so a deletion cannot leave an export behind."""

import importlib
import pkgutil

import pytest

import tubeflux

MODULES = sorted(m.name for m in pkgutil.iter_modules(tubeflux.__path__))


def test_package_exports_resolve():
    assert [n for n in tubeflux.__all__ if not hasattr(tubeflux, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"tubeflux.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
