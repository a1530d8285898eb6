"""The functions and arguments that the benchmark traces still exist.

``perfbench/worker.py`` wraps every function it names in ``TRACED``,
``POOL_TRACED`` and ``PHASES``, and its tracer raises ``LookupError`` for a
name that is gone or defined in another module, which stops
``perfbench/run.py --trace 1``.  Entering the tracer here reports such a
rename or deletion in the test suite.  The perfbench files are imported,
never changed.
"""

import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker

    names = worker.TRACED + worker.POOL_TRACED + worker.PHASES
    with tracer.Tracer(only=names).installed():
        pass

    # The arguments and result fields that the worker's hooks read.
    from sensorreg.fusion import FbeResult
    from sensorreg.harness.metrics import aggregate_runs
    from sensorreg.harness.simulate import run_monte_carlo

    assert "outs" in inspect.signature(aggregate_runs).parameters
    assert "scenario" in inspect.signature(run_monte_carlo).parameters
    assert "skipped" in FbeResult.__dataclass_fields__
