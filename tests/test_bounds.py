"""The batched bound path against a block-by-block reference loop.

``_reference_crlb_series`` folds one (sensor, target, epoch) observation
block at a time into a running information matrix, with its own rule for
who reports and LAPACK inverses and solves of every noise one by one: the
form the bound path had before it was batched.  The batched
``crlb_series`` inverts the 2x2 noises in closed form, so the two agree to
rounding, which the d x d inverse of each bound amplifies by the condition
number of its information.
"""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from sensorreg._linalg import inv_sym, symmetrize
from sensorreg.coords import converted_covariance, jacobians_at
from sensorreg.crlb import RANK_TOL, crlb_diag
from sensorreg.errors import NumericalError
from sensorreg.harness import crlb_series, emit_crlb, load_scenario
from sensorreg.harness.simulate import nominal_geometry

# Largest relative gap per unit of condition number between a batched and a
# reference bound; the condition number is that of the information scaled to
# unit diagonal.  Measured gaps stay below 3e-16 per unit.
ROUNDING_RTOL = 1e-14
# Largest relative gap between a packaged scenario's crlb.csv and its copy
# in tests/data/crlb, written before the closed-form 2x2 kernel.
CRLB_CSV_RTOL = 1e-13
CRLB_COPIES = Path(__file__).parent / "data" / "crlb"


class _Accumulator:
    def __init__(self, dim):
        self.J = np.zeros((dim, dim))
        self.n_blocks = 0

    def add(self, jac, noise):
        self.J += jac.T @ np.linalg.solve(noise, jac)
        self.n_blocks += 1


def _combine(noises, target_noise):
    Lam = np.zeros(np.shape(noises[0]))
    for R in noises:
        Lam += inv_sym(R)
    return symmetrize(inv_sym(Lam) + target_noise)


def _unit_eigenvalues(J):
    scale = 1.0 / np.sqrt(np.diag(J))
    return np.linalg.eigvalsh(J * scale[:, None] * scale[None, :])


def _sqrt_bound(J):
    J = symmetrize(J.copy())
    try:
        Jinv = inv_sym(J)
    except NumericalError:
        return np.nan
    diag = np.diag(Jinv).copy()
    if np.any(diag <= 0.0) or _unit_eigenvalues(J)[0] < RANK_TOL:
        return np.nan
    return np.sqrt(diag)


def _reference_crlb_series(scenario):
    """Epochs, per-sensor and stacked sqrt bounds, and the information
    behind each bound (NaN before a sensor's first block)."""
    states = nominal_geometry(scenario)
    n_s, n_t, d = len(scenario.sensors), len(scenario.targets), scenario.bias_dim
    lags = [s.lag for s in scenario.sensors]

    def reporters_at(k):
        return [s for s in range(n_s) if k % lags[s] == 0]

    epochs = [k for k in range(1, scenario.frames + 1) if len(reporters_at(k)) >= 2]
    acc = [_Accumulator(d) for _ in range(n_s)]
    acc_stacked = _Accumulator(2 * d) if n_s == 2 else None
    per_sensor = np.full((len(epochs), n_s, d), np.nan)
    per_sensor_J = np.full((len(epochs), n_s, d, d), np.nan)
    stacked = np.full((len(epochs), 2 * d), np.nan) if n_s == 2 else None
    stacked_J = np.full((len(epochs), 2 * d, 2 * d), np.nan) if n_s == 2 else None
    positions = np.stack([s.position for s in scenario.sensors])
    sigma_r = np.array([s.sigma_r for s in scenario.sensors])
    sigma_theta = np.array([s.sigma_theta for s in scenario.sensors])
    for ei, k in enumerate(epochs):
        reporters = reporters_at(k)
        dx = states[None, :, k, 0] - positions[reporters, 0, None]
        dy = states[None, :, k, 2] - positions[reporters, 1, None]
        rng, az = np.hypot(dx, dy), np.arctan2(dy, dx)
        K = jacobians_at(rng, az).K[..., :d]
        R = converted_covariance(
            rng, az, sigma_r[reporters, None], sigma_theta[reporters, None]
        )
        for t in range(n_t):
            geom = {s: (K[i, t], R[i, t]) for i, s in enumerate(reporters)}
            for s in reporters:
                others = [r for r in reporters if r != s]
                if others:
                    acc[s].add(geom[s][0], _combine([geom[r][1] for r in others], geom[s][1]))
            if acc_stacked is not None and len(reporters) == 2:
                g = np.hstack([geom[0][0], -geom[1][0]])
                acc_stacked.add(g, geom[0][1] + geom[1][1])
        for s in range(n_s):
            if acc[s].n_blocks:
                per_sensor[ei, s] = _sqrt_bound(acc[s].J)
                per_sensor_J[ei, s] = acc[s].J
        if acc_stacked is not None and acc_stacked.n_blocks:
            stacked[ei] = _sqrt_bound(acc_stacked.J)
            stacked_J[ei] = acc_stacked.J
    return epochs, per_sensor, stacked, per_sensor_J, stacked_J


def _assert_close_to_reference(got, want, J):
    """Identical NaN cells; elsewhere each row within ``ROUNDING_RTOL`` times
    the condition number of its information."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    for index in zip(*np.nonzero(~np.isnan(want).any(axis=-1))):
        w = _unit_eigenvalues(symmetrize(J[index]))
        tol = ROUNDING_RTOL * w[-1] / w[0]
        np.testing.assert_allclose(got[index], want[index], rtol=tol, atol=0.0)


def _with_lags(name, lags):
    sc = load_scenario(name)
    sc.sensors = [dataclasses.replace(s, lag=L) for s, L in zip(sc.sensors, lags)]
    return sc


def _imm_config():
    sc = load_scenario("five_sensor_offset")
    sc.local_filter.type = "imm_nca_ncv"
    sc.local_filter.q1, sc.local_filter.q2 = 10.0, 2.0
    sc.fusion_q = 200.0
    return sc


def _one_target():
    sc = load_scenario("five_sensor_offset_scale")
    sc.targets = sc.targets[:1]
    return sc


CASES = {
    "two_sensor": lambda: load_scenario("two_sensor"),
    "five_sensor_offset": lambda: load_scenario("five_sensor_offset"),
    "five_sensor_offset_scale": lambda: load_scenario("five_sensor_offset_scale"),
    "a08_imm_nca_ncv": _imm_config,
    "lags_2_3_5_7_1": lambda: _with_lags("five_sensor_offset", [2, 3, 5, 7, 1]),
    "lags_4_6_4_9_10": lambda: _with_lags("five_sensor_offset_scale", [4, 6, 4, 9, 10]),
    "lags_3_5_7_11_13": lambda: _with_lags("five_sensor_offset", [3, 5, 7, 11, 13]),
    "lags_2_3": lambda: _with_lags("two_sensor", [2, 3]),
    "one_target": _one_target,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_crlb_series_matches_reference_loop(case):
    scenario = CASES[case]()
    epochs, per_sensor, stacked, per_sensor_J, stacked_J = _reference_crlb_series(scenario)
    series = crlb_series(scenario)
    assert series.epochs == epochs
    _assert_close_to_reference(series.per_sensor, per_sensor, per_sensor_J)
    if stacked is None:
        assert series.stacked is None
    else:
        _assert_close_to_reference(series.stacked, stacked, stacked_J)
    if case == "one_target":
        # One target's blocks leave the bound unobservable for a while.
        assert np.isnan(per_sensor).any()


def test_rank_deficient_information_reads_nan_whatever_the_rounding():
    # One target's first epoch gives each sensor one 2-row block for four
    # parameters: rank 2.  Its inverse rounds to finite values with a
    # positive diagonal for some sensors, and which ones moves with the
    # last bits of J; every later epoch is observable.
    scenario = _one_target()
    _, _, _, J, _ = _reference_crlb_series(scenario)
    first, later = symmetrize(J[0]), J[1:]
    assert np.isnan(crlb_diag(first)).all()
    rng = np.random.default_rng(23)
    for _ in range(200):
        noise = symmetrize(rng.standard_normal(first.shape))
        assert np.isnan(crlb_diag(first * (1.0 + 1e-15 * noise))).all()
    bounds = crlb_series(scenario).per_sensor
    assert np.isnan(bounds[0]).all()
    assert np.isfinite(bounds[1:]).all()
    assert np.isfinite(crlb_diag(symmetrize(later))).all()


def _crlb_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [r[:3] for r in rows], np.array([[float(v) for v in r[3:]] for r in rows[1:]])


@pytest.mark.parametrize("name", ["two_sensor", "five_sensor_offset", "five_sensor_offset_scale"])
def test_packaged_crlb_csv_matches_its_copy(name, tmp_path):
    scenario = load_scenario(name)
    got_keys, got = _crlb_rows(emit_crlb(crlb_series(scenario), scenario, tmp_path))
    want_keys, want = _crlb_rows(CRLB_COPIES / f"{name}.csv")
    assert got_keys == want_keys
    # NaN cells (the empty bands, and any unobservable bound) stay NaN.
    np.testing.assert_allclose(got, want, rtol=CRLB_CSV_RTOL, atol=0.0)
