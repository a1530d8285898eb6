"""Self-test of the benchmark: every declared metric is printed with its
unit, and the output gate is live.

    python3 perfbench/selftest.py

It runs the cheapest workload briefly, untraced and traced, then again in
a copy of the tree whose reference has one value altered (which must fail),
then from a directory holding only BENCHMARK.json and perfbench/ (which
must fail without printing a result).
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD = "two_sensor_exl"


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seconds", "2", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(trace: int, declared: list[dict]) -> None:
    code, lines = bench("--trace", str(trace))
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0, lines[-12:]
    printed = result["metrics"]
    assert list(printed) == [d["name"] for d in declared], sorted(printed)
    for d in declared:
        assert printed[d["name"]]["unit"] == d["unit"], d
        assert any(line.startswith(d["name"] + " ") for line in lines), d["name"]
    assert any(line.startswith("error_rate 0 ") for line in lines), lines[-3:]
    print(f"trace {trace}: {len(declared)} metrics printed with units")


def copy_tree(dest: Path, with_program: bool) -> Path:
    """BENCHMARK.json and perfbench/, and src/ when ``with_program``, in ``dest``."""
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("_work", "_out", "__pycache__")
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def check_corrupt_reference(work: Path) -> None:
    tree = copy_tree(work / "corrupt", with_program=True)
    path = tree / "perfbench" / "reference" / WORKLOAD / "simulate" / "bias_rmse.csv.gz"
    rows = gzip.decompress(path.read_bytes()).decode().splitlines()
    fields = rows[-1].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-6))
    rows[-1] = ",".join(fields)
    path.write_bytes(gzip.compress(("\n".join(rows) + "\n").encode()))
    code, lines = bench(cwd=tree)
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"] and result["failed"] >= 1, lines[-6:]
    assert any("bias_rmse.csv" in line for line in lines), lines[-6:]
    print("corrupted reference: run failed as it must")


def check_no_program(work: Path) -> None:
    code, lines = bench(cwd=copy_tree(work / "bare", with_program=False))
    assert code != 0 and not any(line.startswith("{") for line in lines), lines
    print("without the program: exited non-zero with no result")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(0, declared["end_to_end"])
    check_metrics(1, declared["per_layer"])
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "_work"))
    try:
        check_corrupt_reference(work)
        check_no_program(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
