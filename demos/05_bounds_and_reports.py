"""Lower bounds, metric files, and summary tables.

Computes the bias-estimation lower bound for the five-sensor scenario,
runs a short Monte Carlo, and emits the CSV metric files plus a text
summary — the same artifacts the command-line interface produces.
"""

import tempfile
from pathlib import Path

import numpy as np

from sensorreg.bias import PseudoMeasurement, bias_information
from sensorreg.coords import jacobians_at
from sensorreg.crlb import crlb_diag
from sensorreg.harness import (
    crlb_series,
    emit_crlb,
    emit_report,
    load_scenario,
    run_monte_carlo,
    summary_tables,
)

# A hand-built two-block information problem first: the blocks form one
# stack, whose information the estimators and the bound path share.
g = jacobians_at([20_000.0, 15_000.0], [0.0, 1.2]).B
noise = np.broadcast_to(np.diag([200.0, 800.0]), (2, 2, 2))
information, _ = bias_information(PseudoMeasurement(np.zeros((2, 2)), g, noise))
print("two-block sqrt bound:", np.round(np.sqrt(crlb_diag(information)), 4))

# Bound trajectory for the shipped five-sensor scenario.
scenario = load_scenario("five_sensor_offset")
series = crlb_series(scenario)
print("\nsqrt range-bias bound per fusion epoch (sensor 1):")
for k, val in zip(series.epochs, series.per_sensor[:, 0, 0]):
    print(f"  epoch {k:>3}: {val:6.3f} m")

out = Path(tempfile.mkdtemp(prefix="sensorreg_demo_"))
metrics = run_monte_carlo(scenario, "fbe", mc_runs=10)
emit_report(metrics, out)
emit_crlb(series, scenario, out)
print("\nwrote:", *sorted(p.name for p in out.iterdir()), sep="\n  ")
print("\nsummary tables:\n")
print(summary_tables(out))
