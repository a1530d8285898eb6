"""One process of the benchmark: set up a workload, then time it, trace it,
or (a ``setup`` job) stop.

run.py starts this script with a single JSON argument (the job) and reads
the JSON result file it writes.  sensorreg is imported from the checkout's
``src`` directory and driven through ``sensorreg.cli.main`` in-process, so
every timed operation is what a user of ``sensorreg simulate`` or
``sensorreg crlb`` waits for.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import pickle
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import checks
from tracer import Tracer

# Functions the traced run wraps.  Each is named ``<layer>.<function>``
# after the module that defines it; bounds and crlb spans are read from the
# crlb operation, every other span from the simulate operation.
TRACED = (
    "scenario.load_scenario",
    "simulate.simulate_truth",
    "simulate.run_single",
    "simulate.run_local_tracks",
    "trackers.kf_predict",
    "trackers.kf_update",
    "trackers.imm_step",
    "tracklets.compute_tracklet",
    "tracklets.tracklet_inverse_kf",
    "tracklets.tracklet_decorrelated",
    "dynamics.compose_steps",
    "fusion.fbe_step",
    "fusion.sfa",
    "fusion.bias_correct",
    "fusion.reconstruct_local_gain",
    "bias.sensor_pseudo_obs",
    "bias.rlsb_update",
    "coords.jacobians_at",
    "metrics.aggregate_runs",
    "report.emit_report",
    "bounds.crlb_series",
    "crlb.crlb_diag",
)
CALLS = (
    "simulate.run_single",
    "trackers.kf_predict",
    "trackers.kf_update",
    "trackers.imm_step",
    "tracklets.compute_tracklet",
    "dynamics.compose_steps",
    "fusion.fbe_step",
    "fusion.sfa",
    "fusion.bias_correct",
    "fusion.reconstruct_local_gain",
    "bias.sensor_pseudo_obs",
    "bias.rlsb_update",
    "coords.jacobians_at",
    "crlb.crlb_diag",
)
SELF_S = tuple(n for n in TRACED if n != "tracklets.compute_tracklet")
CRLB_LAYERS = ("bounds", "crlb")
POOL_TRACED = ("simulate.run_monte_carlo", "metrics.aggregate_runs")
# Wrapped during timed single-worker calls to split each call into per-run
# and per-call cost: one span per Monte Carlo run and one per call.
PHASES = ("simulate.run_single", "metrics.aggregate_runs")
CRLB_SHARE = 0.25
# Calibrator: a tick every CAL_PERIOD_S times CAL_STEPS Kalman-filter steps;
# times are scaled to a core on which those take CAL_REF_S (an uncontended
# core of a 2-vCPU x86-64 host, numpy 2 with OpenBLAS).  README.md says why.
CAL_PERIOD_S = 0.02
CAL_STEPS = 20
CAL_REF_S = 0.32e-3
# Timed calls use one worker; one call per process also runs the
# run_monte_carlo process pool, whose outputs must match byte for byte.
POOL_WORKERS = 2


def monotonic() -> float:
    """System-wide clock, comparable with the launch time run.py records."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _CountRecords(logging.Handler):
    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1


class Workload:
    """Runs CLI operations for one job and checks every output they write."""

    def __init__(self, cli, job: dict):
        self.cli = cli
        self.job = job
        self.work = Path(job["work"])
        self.reference = Path(job["reference"])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}

    def argv(self, kind: str, out: Path, workers: int = 1) -> list[str]:
        j = self.job
        if kind == "crlb":
            return ["crlb", "--scenario", j["scenario"], "--out", str(out)]
        return [
            "simulate",
            "--scenario", j["scenario"],
            "--method", j["method"],
            "--runs", "1" if kind == "warmup" else str(j["runs"]),
            "--seed", str(j["seed"]),
            "--workers", str(workers),
            "--out", str(out),
        ]

    def op(self, kind: str, workers: int = 1, tracer: Tracer | None = None):
        """Run one operation; return (seconds, root span) or None on failure.

        The first output of each kind is checked against the reference;
        every later one must be byte-identical to it, whatever the worker
        count or tracing.
        """
        out = self.work / kind
        shutil.rmtree(out, ignore_errors=True)
        argv = self.argv(kind, out, workers)
        self.attempted += 1
        with tracer.op(kind) if tracer is not None else nullcontext() as root:
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed operation
                traceback.print_exc()
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if code != 0:
            problems = [f"exited with {code!r}"]
        elif kind == "warmup":
            problems = checks.file_set(out, self.reference / "simulate")
            if not problems:
                self.digests["warmup"] = checks.digests(out)
        else:
            digest = checks.digests(out)
            first = self.digests.setdefault(kind, digest)
            if first is digest:
                problems = checks.check_outputs(
                    out, self.reference / kind, compare_values=self.job["compare_values"]
                )
            elif digest != first:
                problems = ["output differs from the first output of this process"]
            else:
                problems = []
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(argv[:1] + argv[2:-2])}: {p}" for p in problems]
            return None
        return elapsed, root

    def loop(self, kind: str, seconds: float, **kw) -> list:
        """Repeat an operation for ``seconds`` (at least once); stop at a failure."""
        end = monotonic() + seconds
        done = []
        while True:
            res = self.op(kind, **kw)
            if res is None:
                break
            done.append(res)
            if monotonic() >= end:
                break
        return done


class Calibrator:
    """Times the calibration loop every CAL_PERIOD_S from a SIGALRM handler
    while :meth:`running`, so its samples cover the timed operations.

    The loop is the interpreter and small-array work that sensorreg's hot
    paths are made of, but benchmark code, so no change to sensorreg moves
    it; other tenants of a shared core slow it as they slow sensorreg.
    Times are on the CLOCK_MONOTONIC clock, as are the tracer's spans
    (``time.perf_counter`` on Linux).
    """

    def __init__(self):
        import numpy as np

        self.F = np.eye(6) + 0.1 * np.eye(6, k=1)
        self.H = np.eye(2, 6)
        self.Q, self.R, self.z = 0.01 * np.eye(6), np.eye(2), np.ones(2)
        self.x0, self.P0 = np.zeros(6), np.eye(6)
        self.solve = np.linalg.solve
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.loop()

    def loop(self) -> None:
        F, H, Q, R, z = self.F, self.H, self.Q, self.R, self.z
        x, P = self.x0, self.P0
        for _ in range(CAL_STEPS):
            x, P = F @ x, F @ P @ F.T + Q
            S = H @ P @ H.T + R
            K = self.solve(S, H @ P).T
            x, P = x + K @ (z - H @ x), P - K @ S @ K.T

    def _tick(self, signum, frame) -> None:
        start = monotonic()
        self.loop()
        self.starts.append(start)
        self.seconds.append(monotonic() - start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, net of calibration ticks, at
        calibrated speed.  An interval with no tick inside uses the nearest
        tick on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.seconds[lo:hi]
        near = inside or self.seconds[max(lo - 1, 0):hi + 1]
        if not near:
            raise RuntimeError("no calibration tick was taken")
        return (end - start - sum(inside)) * CAL_REF_S / statistics.mean(near)


def environment() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def rate(runs: int, samples: list) -> float:
    """Median Monte Carlo runs per second over (seconds, span) samples."""
    return statistics.median(runs / t for t, _ in samples)


def measure(w: Workload, job: dict, cal: Calibrator) -> dict:
    """Timed simulate calls, each followed by timed crlb calls for a
    CRLB_SHARE of its time, so both sample the whole budget.

    Every time is taken net of calibration ticks and scaled to calibrated
    speed (Calibrator.scaled).  Calls are split into per-run cost (each
    run_single, and aggregate_runs divided by the run count) and per-call
    cost (the rest: argument parsing, load_scenario, emit_report), so that
    run.py can weight them as the scenario's full study does.  After the
    window one untimed pool call must write the same bytes as the timed
    calls.
    """
    phases = Tracer(only=PHASES)
    end = monotonic() + job["seconds"]
    calls, crlb = [], []
    with cal.running(), phases.installed():
        while True:
            res = w.op("simulate", tracer=phases)
            if res is None:
                break
            calls.append(res)
            crlb += w.loop("crlb", CRLB_SHARE * res[0], tracer=phases)
            if w.failed or monotonic() >= end:
                break
    if not calls:
        return {}
    w.op("simulate", workers=POOL_WORKERS)
    out = {"simulate_raw_s": [t for t, _ in calls], "crlb_raw_s": [t for t, _ in crlb],
           "crlb_s": [cal.scaled(r.start, r.end) for _, r in crlb],
           "calibration_s": cal.seconds, "run_s": [], "aggregate_s": [], "fixed_s": []}
    groups = phases.by_operation()
    for _, root in calls:
        spans = groups.get(id(root), [])
        runs = [cal.scaled(s.start, s.end) for s in spans if s.name == "simulate.run_single"]
        agg = sum(cal.scaled(s.start, s.end) for s in spans if s.name == "metrics.aggregate_runs")
        if len(runs) != job["runs"]:
            raise RuntimeError(f"{len(runs)} run_single spans, expected {job['runs']}")
        out["run_s"] += runs
        out["aggregate_s"].append(agg / job["runs"])
        out["fixed_s"].append(cal.scaled(root.start, root.end) - sum(runs) - agg)
    return out


def _totals(spans) -> dict:
    """[calls, self seconds, total seconds] by span name."""
    out: dict = {}
    for s in spans:
        acc = out.setdefault(s.name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += s.self_time
        acc[2] += s.total
    return out


def pool_metrics(pool: Tracer, job: dict) -> dict:
    """Parent-side cost of the process pool per simulate call: the wait
    inside run_monte_carlo net of aggregation, and the pickled size of
    tasks and results (computed, not measured)."""
    fanout, nbytes = [], []
    for spans in pool.by_operation().values():
        mc = [s for s in spans if s.name == "simulate.run_monte_carlo"]
        outs = [o for s in spans if s.name == "metrics.aggregate_runs" for o in s.extra]
        tasks = [(s.extra, i, job["method"]) for s in mc for i in range(job["runs"])]
        fanout.append(sum(s.self_time for s in mc))
        nbytes.append(sum(len(pickle.dumps(x)) for x in tasks + outs))
    return {
        "simulate.pool.fanout_s": statistics.median(fanout),
        "simulate.pool.bytes_computed": statistics.median(nbytes),
    }


def trace(w: Workload, job: dict) -> dict:
    """Rounds of: a pool call, an untraced single-worker call, and a traced
    single-worker simulate + crlb pair, all with the workload's run count.
    Interleaving lets all three see the same machine load, so their ratios
    (tracing overhead, pool efficiency) do not pick up its drift."""
    runs = job["runs"]
    pool = Tracer(
        only=POOL_TRACED,
        hooks={
            "simulate.run_monte_carlo": lambda a, r: a["scenario"],
            "metrics.aggregate_runs": lambda a, r: a["outs"],
        },
    )
    tracer = Tracer(only=TRACED, hooks={"fusion.fbe_step": lambda a, r: len(r.skipped)})
    logged = _CountRecords()
    fusion_log = logging.getLogger("sensorreg.fusion")
    fusion_log.addHandler(logged)
    pool_calls, untraced, pairs = [], [], []
    end = monotonic() + job["seconds"]
    try:
        while True:
            with pool.installed():
                res = w.op("simulate", workers=POOL_WORKERS, tracer=pool)
            if res is None:
                break
            pool_calls.append(res)
            res = w.op("simulate")
            if res is None:
                break
            untraced.append(res)
            before = logged.count
            with tracer.installed():
                sim = w.op("simulate", tracer=tracer)
                crlb = w.op("crlb", tracer=tracer) if sim else None
            if crlb is None:
                break
            pairs.append((sim, crlb, logged.count - before))
            if monotonic() >= end:
                break
    finally:
        fusion_log.removeHandler(logged)
    if not pairs:
        return {"metrics": {}, "spans": tracer}

    metrics = pool_metrics(pool, job)
    pool_rate = rate(runs, pool_calls)
    base_rate = rate(runs, untraced)
    traced_rate = rate(runs, [p[0] for p in pairs])
    metrics["simulate.pool.efficiency"] = pool_rate / (POOL_WORKERS * base_rate)
    metrics["tracer.overhead"] = base_rate / traced_rate

    groups = tracer.by_operation()
    per_pair = []
    run_single_ms = []
    shares = []
    sim_out = w.work / "simulate"
    report_bytes = sum(p.stat().st_size for p in sim_out.iterdir())
    n_s, n_t, frames = job["shape"]
    for (_, sim_root), (_, crlb_root), sfa_logged in pairs:
        sim_spans = groups.get(id(sim_root), [])
        sim_tot = _totals(sim_spans)
        crlb_tot = _totals(groups.get(id(crlb_root), []))

        def get(name):
            src = crlb_tot if name.split(".")[0] in CRLB_LAYERS else sim_tot
            return src.get(name, [0, 0.0, 0.0])

        m = {f"{n}.calls": get(n)[0] for n in CALLS}
        m.update({f"{n}.self_s": get(n)[1] for n in SELF_S})
        inv = [s for s in sim_spans if s.name == "tracklets.tracklet_inverse_kf"]
        m["tracklets.inverse_kf.accept_share"] = (
            sum(s.error is None for s in inv) / len(inv) if inv else 0.0
        )
        fallback = sum(
            1
            for s in sim_spans
            if s.name == "tracklets.tracklet_decorrelated"
            and s.site == "sensorreg.harness.simulate"
        )
        m["simulate.exl_fallback.calls"] = fallback
        m["simulate.exl_fallback.share"] = fallback / (runs * n_s * n_t * frames)
        m["fusion.fbe_step.skipped"] = sum(
            s.extra for s in sim_spans if s.name == "fusion.fbe_step"
        )
        m["fusion.sfa.skipped"] = sfa_logged
        m["report.bytes_written"] = report_bytes
        per_pair.append(m)
        run_single_ms += [1e3 * s.total for s in sim_spans if s.name == "simulate.run_single"]
        total = get("simulate.run_single")[2]
        truth = get("simulate.simulate_truth")[2]
        local = get("simulate.run_local_tracks")[2]
        shares.append((truth / total, local / total, (total - truth - local) / total))

    for key in per_pair[0]:
        metrics[key] = statistics.median(m[key] for m in per_pair)
    run_single_ms.sort()
    metrics["simulate.run_single.p50_ms"] = statistics.median(run_single_ms)
    metrics["simulate.run_single.p90_ms"] = run_single_ms[math.ceil(0.9 * len(run_single_ms)) - 1]
    return {
        "metrics": metrics,
        "spans": tracer,
        "summary": {
            "untraced_runs_per_s": base_rate,
            "traced_runs_per_s": traced_rate,
            "pool_runs_per_s": pool_rate,
            "pairs": len(pairs),
            "run_single_share": {
                "truth": statistics.median(s[0] for s in shares),
                "local_tracking": statistics.median(s[1] for s in shares),
                "fusion_center": statistics.median(s[2] for s in shares),
            },
        },
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    cal = Calibrator()
    with cal.running():
        from sensorreg import cli

        if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
            print(f"sensorreg imported from {cli.__file__}, not from {src}", file=sys.stderr)
            return 2
        w = Workload(cli, job)
        w.op("warmup")
        ready = monotonic()
    result = {"setup_s": cal.scaled(job["launch"], ready),
              "setup_raw_s": ready - job["launch"], "environment": environment()}
    if job["mode"] != "setup" and w.failed == 0 and w.op("crlb") is not None:
        if job["mode"] == "trace":
            traced = trace(w, job)
            result["layers"] = traced["metrics"]
            result["summary"] = traced.get("summary")
            traced["spans"].dump(job["spans_out"])
        else:
            result.update(measure(w, job, cal))
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=w.attempted,
        failed=w.failed,
        problems=w.problems,
        digests=w.digests,
    )
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
