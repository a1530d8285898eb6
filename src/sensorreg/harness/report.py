"""CSV emission and summary tables.

Every CSV shares the schema ``frame,sensor,metric,value,ci_low,ci_high``
with floats serialized at 17 significant digits, so identical runs produce
byte-identical files.  Sensor ids are 1-based in reports; 0 denotes fused
or joint quantities.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .bounds import CrlbSeries
from .metrics import RunMetrics, rmse_band
from .scenario import Scenario

__all__ = ["emit_report", "emit_crlb", "summary_tables"]

CSV_HEADER = ["frame", "sensor", "metric", "value", "ci_low", "ci_high"]

# Names of the per-sensor bias components, in bias-vector order.
COMPONENT_NAMES = ("b_r", "b_theta", "eps_r", "eps_theta")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for frame, sensor, metric, value, lo, hi in rows:
            writer.writerow([frame, sensor, metric, _fmt(value), _fmt(lo), _fmt(hi)])


def _component_sensor(m: RunMetrics, group: int, comp: int, per_sensor_dim: int):
    """Map a (group, component) pair to a 1-based sensor id and name."""
    sensors = m.group_sensors[group]
    if len(sensors) == 1:
        return sensors[0] + 1, COMPONENT_NAMES[comp]
    return sensors[comp // per_sensor_dim] + 1, COMPONENT_NAMES[comp % per_sensor_dim]


def emit_report(metrics: RunMetrics, out_dir: str | Path) -> list[Path]:
    """Write the metric families of one run to ``out_dir``.

    Returns the written paths.  Empty metric families still produce a
    header-only CSV so downstream consumers see a stable file set.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    # Per-sensor component count: stacked groups spread their components
    # over the sensors they cover.
    per_dim = 0
    if metrics.n_groups:
        per_dim = metrics.group_dim // len(metrics.group_sensors[0])

    rmse_rows = []
    sigma_rows = []
    nees_rows = []
    if metrics.bias_rmse is not None:
        K = metrics.frames
        for k in range(K + 1):
            for g in range(metrics.n_groups):
                for c in range(metrics.group_dim):
                    sensor, name = _component_sensor(metrics, g, c, per_dim)
                    val = metrics.bias_rmse[k, g, c]
                    lo, hi = rmse_band(val, metrics.mc_runs)
                    rmse_rows.append((k, sensor, f"bias_rmse_{name}", val, lo, hi))
                    sigma_rows.append(
                        (
                            k,
                            sensor,
                            f"bias_sqrt_sigma_{name}",
                            metrics.bias_sqrt_sigma[k, g, c],
                            np.nan,
                            np.nan,
                        )
                    )
                gsensor = metrics.group_sensors[g][0] + 1 if len(metrics.group_sensors[g]) == 1 else 0
                nees_rows.append(
                    (
                        k,
                        gsensor,
                        "bias_nees",
                        metrics.bias_nees[k, g],
                        metrics.nees_lower,
                        metrics.nees_upper,
                    )
                )
                nees_rows.append(
                    (
                        k,
                        gsensor,
                        "bias_nees_upper95_one_sided",
                        metrics.nees_upper_one_sided,
                        np.nan,
                        np.nan,
                    )
                )

    track_rows = []
    if metrics.track_rmse_local is not None:
        for k in range(metrics.frames + 1):
            val = metrics.track_rmse_local[k]
            lo, hi = rmse_band(val, metrics.mc_runs)
            track_rows.append((k, 1, "track_rmse_local", val, lo, hi))
    if metrics.track_rmse_fused is not None:
        for k in range(metrics.frames + 1):
            val = metrics.track_rmse_fused[k]
            lo, hi = rmse_band(val, metrics.mc_runs)
            track_rows.append((k, 0, "track_rmse_fused", val, lo, hi))
    track_rows.sort(key=lambda r: (r[0], r[1], r[2]))

    for fname, rows in [
        ("bias_rmse.csv", rmse_rows),
        ("bias_sqrt_sigma.csv", sigma_rows),
        ("bias_nees.csv", nees_rows),
        ("track_rmse.csv", track_rows),
    ]:
        path = out / fname
        _write_csv(path, rows)
        written.append(path)

    meta = {
        "scenario": metrics.scenario_name,
        "method": metrics.method,
        "mc_runs": metrics.mc_runs,
        "frames": metrics.frames,
        "update_epochs": list(metrics.update_epochs),
        "bias_dim": metrics.group_dim,
    }
    meta_path = out / "run_meta.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written


def emit_crlb(series: CrlbSeries, scenario: Scenario, out_dir: str | Path) -> Path:
    """Write sqrt lower-bound curves to ``crlb.csv`` in the report schema."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d = scenario.bias_dim
    rows = []
    for ei, k in enumerate(series.epochs):
        for s in range(series.per_sensor.shape[1]):
            for c in range(d):
                rows.append(
                    (
                        k,
                        s + 1,
                        f"sqrt_crlb_{COMPONENT_NAMES[c]}",
                        series.per_sensor[ei, s, c],
                        np.nan,
                        np.nan,
                    )
                )
        if series.stacked is not None:
            for c in range(series.stacked.shape[1]):
                rows.append(
                    (
                        k,
                        c // d + 1,
                        f"sqrt_crlb_stacked_{COMPONENT_NAMES[c % d]}",
                        series.stacked[ei, c],
                        np.nan,
                        np.nan,
                    )
                )
    path = out / "crlb.csv"
    _write_csv(path, rows)
    return path


def _read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path) as fh:
        return list(csv.DictReader(fh))


def summary_tables(in_dir: str | Path, out_path: str | Path | None = None) -> str:
    """Final-frame summary per bias component across sensors.

    Reads the CSVs produced by :func:`emit_report` (and ``crlb.csv`` when
    present) and lays out RMSE, the estimator's reported sigma, the sqrt
    lower bound, and the RMSE confidence band per sensor.
    """
    in_dir = Path(in_dir)
    rmse = _read_rows(in_dir / "bias_rmse.csv")
    sigma = _read_rows(in_dir / "bias_sqrt_sigma.csv")
    crlb = _read_rows(in_dir / "crlb.csv")
    track = _read_rows(in_dir / "track_rmse.csv")

    def final_by(rows, prefix):
        out = {}
        for row in rows:
            if not row["metric"].startswith(prefix):
                continue
            comp = row["metric"][len(prefix):]
            key = (comp, int(row["sensor"]))
            frame = int(row["frame"])
            if key not in out or frame >= out[key][0]:
                out[key] = (frame, float(row["value"]), float(row["ci_low"]), float(row["ci_high"]))
        return out

    rmse_f = final_by(rmse, "bias_rmse_")
    sigma_f = final_by(sigma, "bias_sqrt_sigma_")
    crlb_f = final_by(crlb, "sqrt_crlb_")
    track_f = final_by(track, "track_rmse_")

    lines = []
    comps = sorted({c for c, _ in rmse_f})
    for comp in comps:
        sensors = sorted(s for c, s in rmse_f if c == comp)
        lines.append(f"bias component {comp} (final frame)")
        lines.append(
            f"{'sensor':>6} {'rmse':>12} {'sqrt_sigma':>12} {'sqrt_crlb':>12} "
            f"{'ci_low':>12} {'ci_high':>12}"
        )
        for s in sensors:
            frame, val, lo, hi = rmse_f[(comp, s)]
            sig = sigma_f.get((comp, s), (frame, np.nan, np.nan, np.nan))[1]
            bound = crlb_f.get((comp, s), (frame, np.nan, np.nan, np.nan))[1]
            lines.append(
                f"{s:>6} {val:>12.4g} {sig:>12.4g} {bound:>12.4g} {lo:>12.4g} {hi:>12.4g}"
            )
        lines.append("")
    if track_f:
        lines.append("track position RMSE (final frame)")
        for (comp, s), (frame, val, lo, hi) in sorted(track_f.items()):
            label = comp if s == 0 else f"{comp} (sensor {s})"
            lines.append(f"  {label:<24} {val:>10.4g}  ci [{lo:.4g}, {hi:.4g}]")
        lines.append("")
    text = "\n".join(lines)
    if out_path is not None:
        Path(out_path).write_text(text)
    return text
