"""Fixed-seed Monte Carlo CSVs against copies committed before the 2x2 kernel.

``tests/data/golden/<case>/`` holds the metric CSVs that ``emit_report``
wrote for each case below at the last commit that solved the 2x2 innovation
systems with LAPACK and mapped ``math`` over the polar conversions.  The
closed-form 2x2 kernel, numpy's vectorised ``hypot``/``arctan2``/``exp``,
the batched NEES and the merged converted covariance reorder floating-point
operations, so the outputs moved in their last bits: this is the package's
one stated re-baseline, and every cell must stay within ``RTOL`` of the
copies.  The ``mixed_lag_fbe`` copies were written later, while
``compute_tracklet`` split a batch that mixes single-step and multi-step
pairs between the inverse-filter and a full-state decorrelated form.  Its
single-step pairs now take the position-marginal tracklet, which equals the
position block of the full-state one in exact arithmetic, so every cell
moved by rounding alone (at most 2.9e-11 relative).  The
``mixed_lag_baseline`` copies, whose epochs leave some sensors silent,
were written while the baseline epoch still gathered the reporting
sensors' rows.  The deconvolved updates of ``sensor_pseudo_obs`` later took
their predicted means from the rows of ``kf_predict``, in place of a
matrix-vector product of their own: with a multi-step transition that moved
the ``fbe`` cases in their last bits (at most 1.9e-14 relative), held here
to ``RTOL`` like every other change.  Regenerate the files
only for a change meant to alter the estimates, with
``write_case(name, tests/data/golden/<name>)``.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from sensorreg.harness import emit_report, load_scenario, run_monte_carlo

GOLDEN = Path(__file__).parent / "data" / "golden"
RTOL = 1e-9
RUNS = 3
FILES = ("bias_rmse.csv", "bias_sqrt_sigma.csv", "bias_nees.csv", "track_rmse.csv")


def _a08_imm():
    # The A08 interacting-multiple-model configuration (NCA + NCV modes).
    sc = load_scenario("five_sensor_offset")
    sc.local_filter.type = "imm_nca_ncv"
    sc.local_filter.q1, sc.local_filter.q2 = 10.0, 2.0
    sc.fusion_q = 200.0
    return sc


def _mixed_lag():
    # Unequal reporting lags: an epoch's batch mixes lag-1 pairs, whose
    # covariance difference is singular, with multi-step pairs.
    sc = load_scenario("five_sensor_offset")
    for sensor, lag in zip(sc.sensors, (1, 10, 5, 10, 2)):
        sensor.lag = lag
    return sc


CASES = {
    "two_sensor_exl": (lambda: load_scenario("two_sensor"), "exl"),
    "five_sensor_offset_scale_fbe": (lambda: load_scenario("five_sensor_offset_scale"), "fbe"),
    "a08_imm_fbe": (_a08_imm, "fbe"),
    "mixed_lag_fbe": (_mixed_lag, "fbe"),
    "mixed_lag_baseline": (_mixed_lag, "baseline"),
}


def write_case(name: str, out_dir) -> None:
    """Write the metric CSVs of case ``name`` (``RUNS`` runs, packaged seed)."""
    make, method = CASES[name]
    emit_report(run_monte_carlo(make(), method, mc_runs=RUNS), out_dir)


def _read(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keys = [r[:3] for r in rows]
    values = np.array([[float(v) for v in r[3:]] for r in rows[1:]])
    return keys, values


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_csvs(name, tmp_path):
    write_case(name, tmp_path)
    for fname in FILES:
        got_keys, got = _read(tmp_path / fname)
        want_keys, want = _read(GOLDEN / name / fname)
        assert got_keys == want_keys, fname
        # NaN cells (undefined bands) must stay NaN; every other cell within RTOL.
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=f"{name}/{fname}")
