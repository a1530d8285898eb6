"""The batched bound path against a block-by-block reference loop.

``_reference_crlb_series`` folds one (sensor, target, epoch) observation
block at a time into a running information matrix, inverting every noise
one by one: the form the bound path had before it was batched.  The
batched ``crlb_series`` must reproduce it bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from sensorreg._linalg import inv_sym, symmetrize
from sensorreg.coords import converted_covariance, jacobians_at
from sensorreg.errors import NumericalError
from sensorreg.harness import crlb_series, load_scenario
from sensorreg.harness.simulate import nominal_geometry


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


def _sqrt_bound(J):
    try:
        Jinv = inv_sym(symmetrize(J.copy()))
    except NumericalError:
        return np.nan
    diag = np.diag(Jinv).copy()
    return np.nan if np.any(diag <= 0.0) else np.sqrt(diag)


def _reference_crlb_series(scenario):
    states = nominal_geometry(scenario)
    n_s, n_t, d = len(scenario.sensors), len(scenario.targets), scenario.bias_dim
    epochs = scenario.update_epochs()
    acc = [_Accumulator(d) for _ in range(n_s)]
    acc_stacked = _Accumulator(2 * d) if n_s == 2 else None
    per_sensor = np.full((len(epochs), n_s, d), np.nan)
    stacked = np.full((len(epochs), 2 * d), np.nan) if n_s == 2 else None
    positions = np.stack([s.position for s in scenario.sensors])
    sigma_r = np.array([s.sigma_r for s in scenario.sensors])
    sigma_theta = np.array([s.sigma_theta for s in scenario.sensors])
    for ei, k in enumerate(epochs):
        reporters = scenario.reporters_at(k)
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
        if acc_stacked is not None and acc_stacked.n_blocks:
            stacked[ei] = _sqrt_bound(acc_stacked.J)
    return epochs, per_sensor, stacked


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
    epochs, per_sensor, stacked = _reference_crlb_series(scenario)
    series = crlb_series(scenario)
    assert series.epochs == epochs
    assert np.array_equal(series.per_sensor, per_sensor, equal_nan=True)
    if stacked is None:
        assert series.stacked is None
    else:
        assert np.array_equal(series.stacked, stacked, equal_nan=True)
    if case == "one_target":
        # One target's blocks leave the bound unobservable for a while.
        assert np.isnan(per_sensor).any()
