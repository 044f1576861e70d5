"""Each demo prints what it printed when its golden was frozen.

The demos print rounded figures, so a refactor that keeps the numbers keeps
their output byte for byte.  Each runs in a child interpreter that imports
the same tubeflux as the tests.

A change that moves a printed figure on purpose freezes the new output in
REFROZEN and keeps the old golden for every other figure.  The per-point
theta comb moved one rounding-level figure of two_slit_sweep, the scaled
rim-image reality check (2.46e-14 -> 4.03e-14); both old and new stay below
1e-13.  The period tolerance relative to |Q| alone, without the absolute
floor 1e-8, moved the tolerance closing_the_seam prints for the torn seam
(8.85e-08 -> 7.85e-08).  Loop integrals kept as running sums from the
level the annulus predicts moved the quadrature dust that catenoid_band
and closing_the_seam print: period defects of 1e-15 and less, and the
signs of printed zeros (a0 of -0.000000 and +0.000000, defects of -0. and
0.).  So a line may differ from its old golden only in the tolerance of a
torn seam and in figures that stay below 1e-13 (ROUNDING_LEVEL), old and
new; the rest of its text may differ only in spacing.
"""

import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import tubeflux

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).parent / "goldens" / "demos"
SRC = str(Path(tubeflux.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
REFROZEN = {"two_slit_sweep": "two_slit_sweep.pointwise_comb.txt",
            "catenoid_band": "catenoid_band.running_sums.txt",
            "closing_the_seam": "closing_the_seam.running_sums.txt"}
ROUNDING_LEVEL = 1e-13
TOLERANCE = re.compile(r"exceeds tolerance \S+;")
FIGURE = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def figures(line):
    """The figures of a line, and the rest of its text without whitespace."""
    return [float(f) for f in FIGURE.findall(line)], "".join(FIGURE.sub(" ", line).split())


@lru_cache(maxsize=None)
def demo_output(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_is_unchanged(name):
    assert demo_output(name) == (GOLDENS / REFROZEN.get(name, f"{name}.txt")).read_text()


@pytest.mark.parametrize("name", sorted(REFROZEN))
def test_refrozen_demo_keeps_its_old_golden(name):
    old = (GOLDENS / f"{name}.txt").read_text().splitlines()
    new = demo_output(name).splitlines()
    assert len(new) == len(old)
    for was, now in zip(old, new):
        (a, text), (b, text_now) = (figures(TOLERANCE.sub("", line)) for line in (was, now))
        assert text_now == text and len(b) == len(a), (was, now)
        for x, y in zip(a, b):
            assert x == y or max(abs(x), abs(y)) < ROUNDING_LEVEL, (was, now)
