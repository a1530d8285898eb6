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


def _write_csv(path: Path, *columns) -> None:
    """Write one row per element of the broadcast ``frame, sensor, metric,
    value, ci_low, ci_high`` columns, in C order; no columns write the
    header alone."""
    cols = [np.ravel(c).tolist() for c in np.broadcast_arrays(*columns)]
    cols[3:] = [[f"{x:.17g}" for x in col] for col in cols[3:]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(*cols))


def _component_labels(sensors: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """1-based sensor ids and names of the components of bias vectors that
    stack ``dim`` components of each sensor on the last axis of ``sensors``."""
    c = np.arange(sensors.shape[-1] * dim)
    return sensors[..., c // dim] + 1, np.asarray(COMPONENT_NAMES)[c % dim]


def emit_report(metrics: RunMetrics, out_dir: str | Path) -> list[Path]:
    """Write the metric families of one run to ``out_dir``.

    Returns the written paths.  Empty metric families still produce a
    header-only CSV so downstream consumers see a stable file set.
    """
    m = metrics
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frame = np.arange(m.frames + 1)
    tables = dict.fromkeys(
        ("bias_rmse.csv", "bias_sqrt_sigma.csv", "bias_nees.csv", "track_rmse.csv"), ()
    )
    if m.bias_rmse is not None:
        # Rows run over (frame, group, component).
        groups = np.array(m.group_sensors)
        sensor, name = _component_labels(groups, m.group_dim // groups.shape[1])
        k = frame[:, None, None]
        tables["bias_rmse.csv"] = (
            k, sensor, np.char.add("bias_rmse_", name), m.bias_rmse,
            *rmse_band(m.bias_rmse, m.mc_runs),
        )
        tables["bias_sqrt_sigma.csv"] = (
            k, sensor, np.char.add("bias_sqrt_sigma_", name), m.bias_sqrt_sigma, np.nan, np.nan,
        )
        # Each group's NEES row, then its one-sided bound; a group of several
        # sensors reports as sensor 0.
        tables["bias_nees.csv"] = (
            k,
            groups[:, :1] + 1 if groups.shape[1] == 1 else 0,
            ["bias_nees", "bias_nees_upper95_one_sided"],
            np.stack(np.broadcast_arrays(m.bias_nees, m.nees_upper_one_sided), axis=-1),
            [m.nees_lower, np.nan],
            [m.nees_upper, np.nan],
        )
    # Fused (sensor 0) before local (sensor 1) rows within a frame.
    tracks = [
        (s, name, v)
        for s, name, v in [(0, "track_rmse_fused", m.track_rmse_fused),
                           (1, "track_rmse_local", m.track_rmse_local)]
        if v is not None
    ]
    if tracks:
        sensor, name, values = zip(*tracks)
        value = np.stack(values, axis=-1)
        tables["track_rmse.csv"] = (
            frame[:, None], sensor, name, value, *rmse_band(value, m.mc_runs)
        )

    for fname, columns in tables.items():
        _write_csv(out / fname, *columns)
    written = [out / fname for fname in tables]

    meta = {
        "scenario": m.scenario_name,
        "method": m.method,
        "mc_runs": m.mc_runs,
        "frames": m.frames,
        "update_epochs": list(m.update_epochs),
        "bias_dim": m.group_dim,
    }
    meta_path = out / "run_meta.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written


def emit_crlb(series: CrlbSeries, scenario: Scenario, out_dir: str | Path) -> Path:
    """Write sqrt lower-bound curves to ``crlb.csv`` in the report schema.

    Each epoch's rows give every sensor's bound, then the joint bound of
    the stacked sensors when there is one.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d = scenario.bias_dim
    n_e, n_s = series.per_sensor.shape[:2]
    sensor, name = _component_labels(np.arange(n_s), d)
    metric = np.char.add("sqrt_crlb_", name)
    value = series.per_sensor.reshape(n_e, n_s * d)
    if series.stacked is not None:
        joint, name = _component_labels(np.arange(series.stacked.shape[1] // d), d)
        sensor = np.concatenate([sensor, joint])
        metric = np.concatenate([metric, np.char.add("sqrt_crlb_stacked_", name)])
        value = np.concatenate([value, series.stacked], axis=1)
    path = out / "crlb.csv"
    epochs = np.array(series.epochs, dtype=int)[:, None]
    _write_csv(path, epochs, sensor, metric, value, np.nan, np.nan)
    return path


def _read_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def summary_tables(in_dir: str | Path, out_path: str | Path | None = None) -> str:
    """Final-frame summary per bias component across sensors.

    Reads the CSVs produced by :func:`emit_report` (and ``crlb.csv`` when
    present) and lays out RMSE, the estimator's reported sigma, the sqrt
    lower bound, and the RMSE confidence band per sensor.  Raises
    :class:`FileNotFoundError` naming a missing ``in_dir`` or the missing
    ones of the three CSVs every ``emit_report`` writes.
    """
    in_dir = Path(in_dir)
    if not in_dir.is_dir():
        raise FileNotFoundError(f"no metrics directory {in_dir}")
    required = ("bias_rmse.csv", "bias_sqrt_sigma.csv", "track_rmse.csv")
    missing = [name for name in required if not (in_dir / name).exists()]
    if missing:
        raise FileNotFoundError(f"{in_dir} has no {', '.join(missing)}")
    rmse, sigma, track = (_read_rows(in_dir / name) for name in required)
    crlb = _read_rows(in_dir / "crlb.csv") if (in_dir / "crlb.csv").exists() else []

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
