"""Demo scripts run to completion (demo 02 drives the batch-free tracker
API, demo 03 the batched stacked estimator of ``ex`` and ``exl``, demo
04 the five-sensor ``fbe`` study and demo 05 the bound, report and summary
path), and so do the README's quick start and batched-API blocks; its
full-study block only imports its names."""

import ast
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


def _readme_blocks():
    """The README's python blocks: the quick start, a full Monte Carlo study
    and the batched API."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 3
    return blocks


def _run(source: str) -> dict:
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    return namespace


def test_readme_quick_start_runs():
    assert _run(_readme_blocks()[0])["gain"].W.shape == (4, 2)


def test_readme_study_block_imports_its_names():
    # The study takes minutes; its imports alone catch a deleted or renamed
    # name.
    tree = ast.parse(_readme_blocks()[1])
    tree.body = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    namespace = {}
    exec(compile(tree, "README.md", "exec"), namespace)
    assert {"load_scenario", "run_monte_carlo", "crlb_series"} <= namespace.keys()


def test_readme_batched_api_block_runs():
    assert _run(_readme_blocks()[2])["rec"].gain.shape == (5, 16, 4, 2)


def _api_table_names() -> set:
    """The functions and classes that the first column of the README's
    ``| object | shape |`` table names: each code span's leading
    identifier, save spans that open on a tuple or an attribute."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| object | shape |\n", 1)[1].split("\n\n", 1)[0]
    names = set()
    for row in table.splitlines()[1:]:
        first = row.split(" | ", 1)[0]
        names.update(re.findall(r"`([A-Za-z_]\w*)", first))
    return names


def test_readme_api_table_names_resolve():
    # Every function or class in the table is an attribute of a sensorreg
    # module, so the table names nothing that was deleted or renamed.
    import importlib
    import pkgutil

    import sensorreg

    modules = [sensorreg] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(sensorreg.__path__, "sensorreg.")
    ]
    names = _api_table_names()
    assert {"sfa", "fbe_step", "FbeResult", "GaussianEstimate"} <= names
    missing = sorted(n for n in names if not any(hasattr(m, n) for m in modules))
    assert missing == []
