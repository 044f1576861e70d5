"""The benchmark's tracer still finds its hooks in the package.

bench/tracer.py wraps tubeflux bindings by name and counts probe retries from
the probe's notes; a renamed binding or note text would silently zero a layer
of the benchmark.  The tracer is loaded from its source, writing nothing.
"""

import importlib
import types
from pathlib import Path

import pytest

import tubeflux.cli  # noqa: F401  (Tracer.install wraps bindings in every module)
from tubeflux import Annulus, HoloFn, contour

ANN = Annulus(2.0)


@pytest.fixture(scope="module")
def tracer():
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    module = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_probe_retries_count_circle_tries(tracer):
    # a retry is a winding try that leaves some target unsettled
    z = HoloFn.var(ANN)
    probe, retries = contour.univalence_probe, []
    for g in (z - ANN.R ** 0.98, 1 / (z - ANN.R ** 0.98), HoloFn.parse("exp(800*z)", ANN)):
        with tracer.Tracer() as tr:
            contour.univalence_probe(g)
        retries.append(tracer.layer_totals(tr.spans, 1)["contour.probe.retries"])
    assert retries == [1, 1, 8]
    assert contour.univalence_probe is probe  # the tracer put it back


def test_every_hook_resolves_in_the_package(tracer):
    # an inline or a rename would leave a layer with nothing to wrap
    for _, home, attr, _ in tracer._FUNCTIONS:
        assert callable(getattr(importlib.import_module(home), attr, None)), (home, attr)
    for _, home, attr in tracer._CLASSES:
        assert isinstance(getattr(importlib.import_module(home), attr, None), type), (home, attr)
    assert callable(importlib.import_module("tubeflux.modulus").spla.cg)
