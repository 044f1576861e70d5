"""Probe reports and slit tubes frozen before the one-sample refactor.

goldens/probe_and_tube.json holds every ProbeReport field (notes included)
and the MinimalTube defect, flux, profile, profile residual and life of
the slit tubes, as computed when each winding, loop and path integral still
evaluated its own integrand tree.  Sampling g (and f) once per quadrature
level performs the same floating-point operations in the same order, so the
numbers must agree exactly; a change that alters the arithmetic on purpose
re-freezes this file.
"""

import json
from pathlib import Path

import pytest

from tubeflux import Annulus, HoloFn, univalence_probe
from tubeflux.contour import _path_integrals, path_integral
from tubeflux.tubes import _fit_points

FROZEN = json.loads((Path(__file__).parent / "goldens" / "probe_and_tube.json").read_text())


def probe_fields(report):
    witness = report.witness
    return {
        "univalent": report.univalent,
        "omits_zero": report.omits_zero,
        "zero_count": report.zero_count,
        "witness": None if witness is None else [[w.real, w.imag] for w in witness],
        "n_targets": report.n_targets,
        "notes": report.notes,
    }


@pytest.mark.parametrize("text", ["z^2", "z + 0.2/z", "z - 1.9726"])
def test_expression_probe_is_unchanged(text):
    report = univalence_probe(HoloFn.parse(text, Annulus(2.0)))
    assert probe_fields(report) == FROZEN["probe"][text]


@pytest.mark.parametrize("q", [0.1, 0.72])
def test_slit_probe_is_unchanged(candidate, q):
    report = univalence_probe(candidate(q).g)
    assert probe_fields(report) == FROZEN["probe"][f"slit q={q!r}"]


@pytest.mark.parametrize("q", [0.1, 0.33, 0.72])
def test_slit_tube_is_unchanged(slit_tube, q):
    tube = slit_tube(q)
    got = {
        "defect": list(tube.defect),
        "flux": [tube.flux.J1, tube.flux.J2, tube.flux.J3],
        "profile": list(tube.profile),
        "profile_residual": tube.profile_residual,
        "life": list(tube.life),
    }
    assert got == FROZEN["tube"][repr(q)]


@pytest.mark.parametrize("q", [0.1, 0.72])
def test_batched_profile_paths_equal_single_path_integrals(slit_tube, q):
    tube = slit_tube(q)
    pts = _fit_points(tube.annulus)
    batched = _path_integrals(tube.data.F[2], tube.z0, pts)
    single = [path_integral(tube.data.F[2:], tube.z0, z)[0] for z in pts]
    assert len(pts) == 48
    assert batched == single
