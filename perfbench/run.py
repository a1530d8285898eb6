"""Benchmark of sensorreg's Monte Carlo study: one workload per invocation.

    python3 perfbench/run.py --workload five_sensor_fbe --seed 3 --seconds 20 --trace 0

Each workload is a scenario file, an estimation method and a Monte Carlo
run count per timed call.  The scenario files are generated here from the
packaged scenarios and passed by path; the seed goes to the program as
``--seed``.  Operations run one at a time (a closed loop with one client).

``--trace 0`` starts SETUPS fresh processes one after another.  Each sets up
(imports ``sensorreg.cli``, loads the scenario, makes one warm-up run); the
last one then times ``sensorreg simulate`` and ``sensorreg crlb`` calls for
``--seconds``.  ``runs_per_s`` is the rate of the scenario's whole study
(its ``mc_runs``), with per-run and per-call cost weighted as that study
weights them.  Every time is scaled to a calibrated core speed and enters
the metrics as the median of its samples (see README.md for both).
``--trace 1``
starts one process that interleaves untraced and traced calls and reports
per-layer metrics.

Every output is checked (checks.py); a failed check or a non-zero exit is a
failed operation.  The last line of stdout is one JSON object; the command
exits non-zero when any operation failed, and without that line when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import CAL_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
SETUPS = 3
DEADLINE_S = 170.0
THREAD_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The A08 acceptance configuration: IMM (NCA + NCV) local trackers.
IMM_A08 = {
    "local_filter": {"type": "imm_nca_ncv", "q1": 10.0, "q2": 2.0},
    "fusion_q": 200.0,
}

# ``runs`` is the run count of one timed simulate call.  Calls are split
# into per-run and per-call cost, which are weighted to the scenario's full
# study, so ``runs`` only sets how many calls fit the window.
WORKLOADS = {
    "two_sensor_exl": dict(scenario="two_sensor", overrides={}, method="exl", runs=8),
    "five_sensor_fbe": dict(scenario="five_sensor_offset_scale", overrides={}, method="fbe", runs=2),
    "five_sensor_imm": dict(scenario="five_sensor_offset", overrides=IMM_A08, method="fbe", runs=2),
}


def write_scenario(spec: dict, out_dir: Path) -> Path:
    """Generate the workload's scenario file from the packaged one."""
    packaged = ROOT / "src" / "sensorreg" / "scenarios" / f"{spec['scenario']}.json"
    doc = json.loads(packaged.read_text())
    for key, value in spec["overrides"].items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def run_child(job: dict, env: dict, deadline: float) -> dict:
    """Start worker.py for one job, wait for it, and return its result."""
    err_path = Path(job["work"]) / "stderr.txt"
    job["launch"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = "timeout"
    result_path = Path(job["result"])
    if code != 0 or not result_path.exists():
        tail = err_path.read_text()[-2000:]
        raise RuntimeError(f"benchmark process ended with {code}:\n{tail}")
    return json.loads(result_path.read_text())


def study_runs_per_s(result: dict, study_runs: int, runs: int) -> tuple[float, str]:
    """Monte Carlo runs per second of the scenario's whole study, and how
    it was composed."""
    run_s, agg_s, fixed_s = (
        statistics.median(result[k]) for k in ("run_s", "aggregate_s", "fixed_s")
    )
    study_s = fixed_s + study_runs * (run_s + agg_s)
    return study_runs / study_s, (
        f"study of {study_runs} runs = per-call {fixed_s:.4g} s "
        f"({100 * fixed_s / study_s:.2f}%) + {study_runs} x per-run "
        f"({run_s:.4g} s run_single + {agg_s:.3g} s aggregation), each a median; "
        f"run_single {timing(result['run_s'])}; per-call cost from "
        f"{len(result['fixed_s'])} calls of {runs} runs; uncalibrated simulate "
        f"{timing(result['simulate_raw_s'])}"
    )


def timing(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} s"
    s = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = -(-p * n // 100)  # nearest rank
        if n - rank >= 10:
            return f"{text}, p{p:g} {s[int(rank) - 1]:.6g} s, n={n}"
    return f"{text}, n={n} (under 20 samples: no percentile has ten beyond it)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec = WORKLOADS[args.workload]

    env = {**os.environ, **THREAD_CAP}
    env.pop("PYTHONPATH", None)
    (BENCH / "_work").mkdir(exist_ok=True)
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        scenario = write_scenario(spec, work)
        doc = json.loads(scenario.read_text())
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        runs = spec["runs"]
        modes = ["trace"] if args.trace else ["setup"] * (SETUPS - 1) + ["measure"]
        jobs = []
        for i, mode in enumerate(modes):
            child_work = work / f"p{i}"
            child_work.mkdir()
            jobs.append({
                "root": str(ROOT),
                "work": str(child_work),
                "result": str(child_work / "result.json"),
                "spans_out": str(out_dir / f"{tag}-spans.json.gz"),
                "reference": str(BENCH / "reference" / args.workload),
                "scenario": str(scenario),
                "method": spec["method"],
                "runs": runs,
                "seed": args.seed,
                "compare_values": args.seed == DEFAULT_SEED,
                "shape": [len(doc["sensors"]), len(doc["targets"]), doc["frames"]],
                "mode": mode,
                "seconds": args.seconds,
            })
        results = [run_child(job, env, deadline) for job in jobs]
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    for i, r in enumerate(results[1:], start=1):
        if r["digests"].get("warmup") != results[0]["digests"].get("warmup"):
            failed += 1
            problems.append(f"process {i}: warm-up outputs differ from process 0")

    environment = {
        **results[0]["environment"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **THREAD_CAP,
        **source_identity(),
    }
    print(f"workload {args.workload}: {spec['scenario']} {spec['method']} runs={runs} "
          f"seed={args.seed}; closed loop, one operation at a time")
    print("environment " + json.dumps(environment, sort_keys=True))

    if args.trace:
        values = results[0].get("layers", {})
        summary = results[0].get("summary")
        if summary:
            print(f"tracing: {summary['pairs']} traced simulate+crlb pairs; untraced "
                  f"{summary['untraced_runs_per_s']:.6g} runs/s, traced "
                  f"{summary['traced_runs_per_s']:.6g} runs/s")
            print("run_single time: " + ", ".join(
                f"{k} {100 * v:.1f}%" for k, v in summary["run_single_share"].items()))
    else:
        timed = results[-1]
        setups = [r["setup_s"] for r in results]
        values = {}
        if timed.get("run_s") and timed.get("crlb_s"):
            rate, how = study_runs_per_s(timed, doc["mc_runs"], runs)
            values = {
                "setup_s": statistics.median(setups),
                "runs_per_s": rate,
                "crlb_s": statistics.median(timed["crlb_s"]),
                "peak_rss_mb": timed["peak_rss_mb"],
            }
            print(f"setup_s {values['setup_s']:.6g} s (median of {len(setups)} processes: "
                  + ", ".join(f"{s:.4g}" for s in setups) + "; uncalibrated "
                  + ", ".join(f"{r['setup_raw_s']:.4g}" for r in results) + ")")
            cal = timed["calibration_s"]
            print(f"calibration loop {statistics.median(cal):.6g} s median of {len(cal)} "
                  f"ticks (range {min(cal):.4g}-{max(cal):.4g}); times are scaled to "
                  f"{CAL_REF_S:g} s")
            print(f"runs_per_s {rate:.6g} runs/s ({how})")
            print(f"crlb_s {values['crlb_s']:.6g} s ({timing(timed['crlb_s'])}; "
                  f"uncalibrated {timing(timed['crlb_raw_s'])})")
            print(f"peak_rss_mb {values['peak_rss_mb']:.6g} MiB (the timing process)")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for d in declared:
        if d["name"] in values:
            metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
            if args.trace:
                print(f"{d['name']} {values[d['name']]:.6g} {d['unit']}")
    if len(metrics) != len(declared):
        failed += 1
        problems.append(f"{len(declared) - len(metrics)} declared metrics were not measured")
    for p in problems:
        print(f"check failed: {p}")
    print(f"error_rate {failed / max(attempted, 1):.6g} ({failed} failed of {attempted} operations)")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "spec": spec, "environment": environment,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "processes": results,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, failed, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
