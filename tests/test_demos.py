"""The quick demos run end to end. 03 and 04 train networks for a minute or
more each and are run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import auglocal

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("demo", ["01_plan_and_flops.py", "02_pipeline_timing.py"])
def test_demo_exits_cleanly(demo):
    src = str(Path(auglocal.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout and not result.stderr
