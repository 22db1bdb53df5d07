"""The quick narrative demos run to completion; the training demos take minutes and are left out."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script", ["01_group_actions.py", "02_lifting_equivariance.py", "04_measure_equivariance.py"]
)
def test_demo_exits_zero(script):
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
