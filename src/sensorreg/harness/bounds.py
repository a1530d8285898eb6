"""Estimation lower bounds evaluated on a scenario's nominal geometry.

Bounds use the noise-free trajectories and true measurement covariances.
For each sensor the other reporters are collapsed into one equivalent
sensor (the slot information sum of ``combine_slots``, as in ``fbe``'s
leave-one-out references), reducing the problem to a two-sensor
difference whose observation blocks sum into the Fisher information
(``bias_information``, as for the estimators); two-sensor scenarios
also get the joint (stacked) bound over both sensors' parameters.
Every (epoch, target, sensor) block is built at once, so memory is
O(epochs * targets * sensors * d^2) for bias dimension d.  Who reports at
each epoch is a row of the scenario's reporting schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import det_spd2, inv_spd2_masked, singular, symmetrize
from ..bias import PseudoMeasurement, bias_information
from ..coords import cart_to_polar, converted_covariance, jacobians_at
from ..crlb import crlb_diag
from ..errors import SingularMatrixError, located, raise_first
from ..fusion import slot_information
from .scenario import Scenario
from .simulate import nominal_geometry

__all__ = ["CrlbSeries", "crlb_series"]


@dataclass
class CrlbSeries:
    """Square-root bound trajectories per sensor (and jointly for two)."""

    epochs: list[int]
    per_sensor: np.ndarray          # (n_epochs, n_sensors, d)
    stacked: np.ndarray | None      # (n_epochs, 2 * d) for two-sensor scenarios


def _block_information(H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Information H'R^-1H of each block, H (..., 2, d), on a unit stack axis."""
    pm = PseudoMeasurement(np.zeros(H.shape[:-2] + (1, 2)), H[..., None, :, :], R[..., None, :, :])
    return bias_information(pm)[0]


def _running_bound(info: np.ndarray) -> np.ndarray:
    """Square-root bounds at the end of each epoch from (epoch, target, ...)
    information blocks, summed in (epoch, target) order; NaN where some
    component is not yet observable."""
    n_e, n_t = info.shape[:2]
    J = np.cumsum(info.reshape((n_e * n_t,) + info.shape[2:]), axis=0)[n_t - 1 :: n_t]
    return np.sqrt(crlb_diag(symmetrize(J)))


def crlb_series(scenario: Scenario) -> CrlbSeries:
    """Per-epoch running bias information as sqrt bound curves.

    A singular noise covariance raises :class:`SingularMatrixError` naming
    the sensor, target and frame of its block.
    """
    states = nominal_geometry(scenario)
    n_s = len(scenario.sensors)
    d = scenario.bias_dim
    epochs = scenario.update_epochs()
    reports = scenario.reporting_schedule()[epochs]          # (epoch, sensor)
    block_reports = reports[:, None, :, None, None]

    sensors = scenario.sensor_models()
    # Observation blocks and noises of every (epoch, target, sensor).
    rng, az = cart_to_polar(states[:, epochs, None, ::2].swapaxes(0, 1), sensors.position)
    K = jacobians_at(rng, az).K[..., :d]
    R = converted_covariance(rng, az, sensors.sigma_r, sensors.sigma_theta)

    # A sensor that does not report gets a placeholder noise and no information.
    R_rep = np.where(block_reports, R, np.eye(2))
    others = reports[:, None, None, :] & ~np.eye(n_s, dtype=bool)
    _, info_others, _ = slot_information(R_rep[..., None, :, :, :], others)
    R_others, combined = inv_spd2_masked(info_others)
    faults = [
        singular("sensor noise covariance", R, reports[:, None] & ~det_spd2(R)[1]),
        singular("combined information", info_others, ~combined),
    ]
    with located(lambda e, t, s: f"sensor {s}, target {t}, frame {epochs[e]}"):
        raise_first(faults, SingularMatrixError)
    total = symmetrize(R_others + R_rep)
    per_sensor = _running_bound(np.where(block_reports, _block_information(K, total), 0.0))
    stacked = None
    if n_s == 2:
        g = np.concatenate([K[..., 0, :, :], -K[..., 1, :, :]], axis=-1)
        stacked = _running_bound(_block_information(g, R[..., 0, :, :] + R[..., 1, :, :]))
    return CrlbSeries(epochs=epochs, per_sensor=per_sensor, stacked=stacked)
