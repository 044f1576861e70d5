"""Each demo prints what it printed when its golden was frozen.

The demos print rounded figures, so a refactor that keeps the numbers keeps
their output byte for byte.  Each runs in a child interpreter that imports
the same tubeflux as the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tubeflux

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).parent / "goldens" / "demos"
SRC = str(Path(tubeflux.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_is_unchanged(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDENS / f"{name}.txt").read_text()
