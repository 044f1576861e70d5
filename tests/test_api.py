"""Every exported name resolves, so a deletion cannot leave an export behind,
README states the export count, and no exported callable grows a boolean
option."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import tubeflux

MODULES = sorted(m.name for m in pkgutil.iter_modules(tubeflux.__path__))


def test_package_exports_resolve():
    assert [n for n in tubeflux.__all__ if not hasattr(tubeflux, n)] == []


def test_readme_states_the_export_count():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    stated = re.findall(r"The package exports (\d+) names", readme)
    assert stated == [str(len(tubeflux.__all__))]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"tubeflux.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_public_callable_takes_a_boolean_option():
    # a bool default forks a function into two paths; state the rule once instead
    knobs = []
    for name in tubeflux.__all__:
        obj = getattr(tubeflux, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # a builtin constructor (an exception base's) shows none
            continue
        knobs += [f"{name}({p.name}={p.default!r})" for p in params
                  if isinstance(p.default, bool)]
    assert knobs == []
