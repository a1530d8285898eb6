"""Demo scripts run to completion (demo 02 drives the batch-free tracker
API, demo 03 the batched stacked estimator of ``ex`` and ``exl``, demo
04 the five-sensor ``fbe`` study and demo 05 the bound, report and summary
path), and so do the README's quick start and batched-API blocks; its
full-study block only imports its names.  Each package exports only names
that these callers import from it, and every ``sensorreg`` name that the
README's prose names still exists."""

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


def _sensorreg_modules() -> list:
    import importlib
    import pkgutil

    import sensorreg

    return [sensorreg] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(sensorreg.__path__, "sensorreg.")
    ]


def _resolves(name: str, modules: list) -> bool:
    """Whether the dotted ``name`` is an attribute (chain) of one of
    ``modules``."""
    head, *rest = name.split(".")
    for obj in (getattr(m, head) for m in modules if hasattr(m, head)):
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_api_table_names_resolve():
    # Every function or class in the table is an attribute of a sensorreg
    # module, so the table names nothing that was deleted or renamed.
    names = _api_table_names()
    assert {"sfa", "fbe_step", "FbeResult", "GaussianEstimate"} <= names
    modules = _sensorreg_modules()
    assert sorted(n for n in names if not _resolves(n, modules)) == []


# The names of the README's code spans that are numpy's, not sensorreg's.
README_FOREIGN_NAMES = {"SeedSequence", "spawn"}


def _readme_code_names() -> set:
    """The names of the README's prose code spans (fenced blocks left out):
    a span's leading CamelCase identifier, and every name it calls, with
    its owner when the call is ``Owner.name(``."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        names.update(re.findall(r"^[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*\b", span))
        names.update(re.findall(r"((?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*)\(", span))
    return names


def test_readme_code_names_resolve():
    # Every class or call that the README names in its prose is an
    # attribute of a sensorreg module, save numpy's few, so no passage
    # describes a name that was deleted or renamed.
    names = _readme_code_names()
    assert {"GaussianEstimate", "compose_steps", "Scenario.reporting_schedule"} <= names
    assert README_FOREIGN_NAMES <= names
    modules = _sensorreg_modules()
    missing = sorted(n for n in names - README_FOREIGN_NAMES if not _resolves(n, modules))
    assert missing == []


def _imported_names(package: str) -> set:
    """The names that the README's Python blocks, the demos, the tests, the
    CLI and the perfbench files import from ``package`` itself."""
    paths = [p for d in ("demos", "tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    sources = _readme_blocks() + [p.read_text() for p in paths]
    sources.append((ROOT / "src" / "sensorreg" / "cli.py").read_text())
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                # Only cli.py imports relatively, from inside sensorreg.
                module = ".".join(filter(None, ["sensorreg" if node.level else None, node.module]))
                if module == package:
                    names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("package", ["sensorreg", "sensorreg.harness"])
def test_package_exports_only_what_callers_import(package):
    # A package re-exports a name only when a caller imports it from the
    # package; every other name is imported from its module.
    import importlib
    import inspect

    pkg = importlib.import_module(package)
    public = {
        name
        for name, value in vars(pkg).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(pkg.__all__)
    assert sorted(set(pkg.__all__) - _imported_names(package)) == []
