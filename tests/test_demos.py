"""The quick demo scripts run as documented. Demo 03 trains a model for
about 30 s and is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, line", [
    ("01_autodiff_and_losses.py", "finite-difference max relative error"),
    ("02_data_and_metrics.py", "round trip through PPM/PGM is exact"),
])
def test_demo_runs_and_prints_its_check(script, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert line in run.stdout
