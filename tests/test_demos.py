"""Smoke test: every walk-through script in demos/ runs to completion.

The demos call the public API directly, so a renamed or deleted name breaks
them; nothing else runs them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvsat

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    # The child imports the same cvsat as this process, installed or not.
    src = str(Path(cvsat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
