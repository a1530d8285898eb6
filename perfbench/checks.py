"""Checks on the files written by ``sensorreg simulate`` and ``sensorreg crlb``.

The reference directory holds gzipped copies of the outputs at the default
seed.  Every seed must reproduce the reference's file set, CSV header, row
count, (frame, sensor, metric) keys, which cells are finite, and
``run_meta.json``; those do not depend on the seed.  At the default seed each
numeric cell must also match the reference to a relative tolerance of
``REL_TOL``, which admits float reassociation in the program but no change
in the estimates.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-9
KEY_COLUMNS = ("frame", "sensor", "metric")
NUMERIC_COLUMNS = ("value", "ci_low", "ci_high")
MAX_REPORTED = 5


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
    }


def read_reference(ref_dir: Path) -> dict[str, bytes]:
    """Reference files by the name the program writes them under."""
    files = sorted(Path(ref_dir).glob("*.gz"))
    if not files:
        raise FileNotFoundError(f"no reference files in {ref_dir}")
    return {p.name[: -len(".gz")]: gzip.decompress(p.read_bytes()) for p in files}


def write_reference(out_dir: Path, ref_dir: Path) -> None:
    """Store gzipped copies of every file in ``out_dir`` (byte-stable: mtime 0)."""
    ref_dir = Path(ref_dir)
    ref_dir.mkdir(parents=True, exist_ok=True)
    for p in sorted(Path(out_dir).iterdir()):
        (ref_dir / f"{p.name}.gz").write_bytes(gzip.compress(p.read_bytes(), 9, mtime=0))


def file_set(out_dir: Path, ref_dir: Path) -> list[str]:
    """Problems with the set of file names alone."""
    got = sorted(p.name for p in Path(out_dir).iterdir())
    want = sorted(read_reference(ref_dir))
    return [] if got == want else [f"wrote {got}, expected {want}"]


def check_outputs(out_dir: Path, ref_dir: Path, compare_values: bool) -> list[str]:
    """Every problem found in ``out_dir`` against the reference."""
    problems = file_set(out_dir, ref_dir)
    if problems:
        return problems
    for name, ref in read_reference(ref_dir).items():
        got = (Path(out_dir) / name).read_bytes()
        if name.endswith(".csv"):
            problems += [f"{name}: {p}" for p in _check_csv(got, ref, compare_values)]
        elif json.loads(got) != json.loads(ref):
            problems.append(f"{name}: differs from the reference")
    return problems


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _same_number(got: float, want: float, compare_values: bool) -> bool:
    if math.isfinite(got) != math.isfinite(want):
        return False
    if not compare_values or not math.isfinite(want):
        return True
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _check_csv(got_bytes: bytes, ref_bytes: bytes, compare_values: bool) -> list[str]:
    got, ref = _rows(got_bytes), _rows(ref_bytes)
    if not got or got[0] != ref[0]:
        return [f"header {got[:1]} differs from {ref[0]}"]
    if len(got) != len(ref):
        return [f"{len(got) - 1} rows, expected {len(ref) - 1}"]
    header = ref[0]
    keys = [header.index(c) for c in KEY_COLUMNS]
    nums = [header.index(c) for c in NUMERIC_COLUMNS]
    problems = []
    for line, (g, r) in enumerate(zip(got[1:], ref[1:]), start=2):
        if len(g) != len(header):
            problems.append(f"line {line}: {len(g)} fields")
        elif [g[i] for i in keys] != [r[i] for i in keys]:
            problems.append(f"line {line}: key {[g[i] for i in keys]} != {[r[i] for i in keys]}")
        else:
            for i in nums:
                try:
                    ok = _same_number(float(g[i]), float(r[i]), compare_values)
                except ValueError:
                    ok = False
                if not ok:
                    problems.append(f"line {line} {header[i]}: {g[i]} vs reference {r[i]}")
        if len(problems) >= MAX_REPORTED:
            problems.append("further lines not checked")
            break
    return problems
