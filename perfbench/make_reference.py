"""Regenerate the reference outputs at the default seed.

    python3 perfbench/make_reference.py

Run this only when a change to sensorreg is meant to change its outputs;
the benchmark's output checks compare against these files.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run


def main() -> int:
    os.environ.update(run.THREAD_CAP)
    sys.path.insert(0, str(run.ROOT / "src"))
    from sensorreg import cli

    from worker import Workload

    (run.BENCH / "_work").mkdir(exist_ok=True)
    for name, spec in run.WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.BENCH / "_work"))
        try:
            job = {
                "work": str(work),
                "reference": "",
                "scenario": str(run.write_scenario(spec, work)),
                "method": spec["method"],
                "runs": spec["runs"],
                "seed": run.DEFAULT_SEED,
            }
            w = Workload(cli, job)
            for kind in ("simulate", "crlb"):
                out = work / kind
                if cli.main(w.argv(kind, out)) != 0:
                    print(f"{name}: {kind} failed", file=sys.stderr)
                    return 1
                ref = run.BENCH / "reference" / name / kind
                shutil.rmtree(ref, ignore_errors=True)
                checks.write_reference(out, ref)
                print(f"wrote {ref.relative_to(run.ROOT)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
