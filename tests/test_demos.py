"""Each demo prints what it printed when its golden was frozen.

The demos print rounded figures, so a refactor that keeps the numbers keeps
their output byte for byte.  Each runs in a child interpreter that imports
the same tubeflux as the tests.

A change that moves a printed figure on purpose freezes the new output in
REFROZEN and keeps the old golden for every other line.  The per-point
theta comb moved one rounding-level figure of two_slit_sweep, the scaled
rim-image reality check (2.46e-14 -> 4.03e-14); both old and new stay below
1e-13.  The period tolerance relative to |Q| alone, without the absolute
floor 1e-8, moved the tolerance closing_the_seam prints for the torn seam
(8.85e-08 -> 7.85e-08); nothing else on that line may move.
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
            "closing_the_seam": "closing_the_seam.relative_tolerance.txt"}
ROUNDING_LEVEL = 1e-13
TOLERANCE = re.compile(r"exceeds tolerance \S+;")


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
        if was == now:
            continue
        if TOLERANCE.search(was):  # only the tolerance figure may move
            assert TOLERANCE.sub("", was) == TOLERANCE.sub("", now)
            continue
        # else only "(scaled): <figure>" lines may move, within rounding level
        head, _, figure = was.rpartition(" ")
        assert "(scaled):" in head and now.startswith(head + " ")
        assert max(float(figure), float(now.rpartition(" ")[2])) < ROUNDING_LEVEL
