"""Frozen `tubeflux analyze` reports.

Each file in goldens/ is the report printed for one config below by the
implementation that integrated the period defect and the flux in separate
passes.  A refactor of the quadrature or the tube pipeline must reproduce
every number to a relative 1e-10 and every other field exactly.  The period
defect of a closed tube is quadrature dust, so it is held absolutely, on the
scale 1 + |Q| at which MinimalTube judges closure.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from tubeflux import cli

GOLDENS = Path(__file__).parent / "goldens"
REL = 1e-10

# (name, config, extra argv, exit status)
CASES = [
    ("catenoid", {"R": 2.0, "g": "z", "c": 1.0}, [], 0),
    ("az_k_over_z", {"R": 2.2, "g": "1.3*z - 0.1/z", "c": 0.8}, [], 0),
    ("explicit_N64", {"R": 1.8, "g": "0.7*z + 0.05/z", "c": 1.2, "N": 64}, [], 0),
    # g = exp((1+i)(a z + b/z)) has a0[g] = a0[1/g] = sum (it)^n/(n!)^2 with
    # t = 2ab; t is a zero of its real part, so the means are imaginary and
    # balance: closed, with a horizontal flux component
    ("tilted_exp",
     {"R": 1.2, "g": "exp((1+i)*(1.309417921582839*z + 0.774803503895171/z))", "c": 1.0},
     ["--sections=0.05"], 0),
    ("folded_cover", {"R": 1.7, "g": "z^3", "c": 0.9}, [], 2),
]


def assert_close(got, want, path, abs_tol=0.0):
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}", abs_tol)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for j, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{path}[{j}]", abs_tol)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert abs(got - want) <= max(REL * abs(want), abs_tol), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("name, config, argv, status", CASES, ids=[c[0] for c in CASES])
def test_analyze_matches_golden(tmp_path, capsys, life_from_flux, name, config, argv, status):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["analyze", str(path)] + argv) == status
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDENS / f"{name}.json").read_text())
    # each tube's life interval is its flux's, checked as it was reported
    assert len(life_from_flux) == ("life" in want)
    qnorm = math.hypot(*want["Q"])
    assert_close(got.pop("defect"), want.pop("defect"), "defect",
                 abs_tol=REL * (1.0 + qnorm))
    assert_close(got, want, "report")


# Scaling f (or c) by k > 0 scales the surface by k, so no verdict may move
# and the life interval scales by k.  The golden configs, explicit catenoid
# data, a height that bends away from the log profile, and a torn seam.
SCALE_CASES = [(name, config) for name, config, _, _ in CASES] + [
    ("explicit_f", {"R": 2.0, "g": "z", "f": "0.5/z^2"}),
    ("bent_profile", {"R": 2.0, "g": "z", "f": "0.5/z^2 + 0.05"}),
    ("torn_seam", {"R": 2.0, "g": "z + 3", "c": 1.0}),
]
SCALES = [1e-150, 1e-12, 1e12, 1e150]


def scaled(config, k):
    if "c" in config:
        return {**config, "c": config["c"] * k}
    return {**config, "f": f"{k!r}*({config['f']})"}


@pytest.fixture(scope="module")
def analyze(tmp_path_factory):
    """``analyze(config)`` -> (exit status, report), each config run once."""
    done = {}

    def run(config):
        text = json.dumps(config)
        if text not in done:
            path = tmp_path_factory.mktemp("scale") / "config.json"
            path.write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli.main(["analyze", str(path)])
            done[text] = status, json.loads(out.getvalue())
        return done[text]
    return run


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("name, config", SCALE_CASES, ids=[c[0] for c in SCALE_CASES])
def test_verdict_does_not_depend_on_scale(analyze, name, config, k):
    status, want = analyze(config)
    got_status, got = analyze(scaled(config, k))
    assert got_status == status
    for key in ("verdict", "hypothesis", "satisfied"):
        assert got.get(key) == want.get(key), key
    if "life" in want:
        assert got["life"] == pytest.approx([k * t for t in want["life"]], rel=1e-10)
    for key in ("bound", "margin"):  # "inf" stays "inf", a withheld margin null
        if isinstance(want.get(key), float):
            assert got[key] == pytest.approx(k * want[key], rel=1e-10), key
        else:
            assert got.get(key) == want.get(key), key
