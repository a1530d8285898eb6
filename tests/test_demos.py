"""Demo scripts and the README quick start run to completion (demo 02 drives
the batch-free tracker API, demo 03 the batched tracklet and gain step of the
``exl`` method, demo 04 the five-sensor ``fbe`` study and demo 05 the bound,
report and summary path)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_measurement_model.py",
        "02_tracklets_and_gain_reconstruction.py",
        "03_two_sensor_registration.py",
        "04_five_sensor_fused_estimation.py",
        "05_bounds_and_reports.py",
    ],
)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # The first python block of the README is the self-contained quick start
    # (the second one runs a full Monte Carlo study).
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["gain"].W.shape == (4, 2)
