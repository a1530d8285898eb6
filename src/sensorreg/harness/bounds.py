"""Estimation lower bounds evaluated on a scenario's nominal geometry.

Bounds use the noise-free trajectories and true measurement covariances.
For each sensor the other reporters are collapsed into one equivalent
sensor, reducing the problem to a two-sensor difference whose observation
blocks accumulate into the Fisher information; two-sensor scenarios also
get the joint (stacked) bound over both sensors' parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..coords import converted_covariance, jacobians_at
from ..crlb import FimAccumulator, combine_sensors, crlb_diag
from ..errors import NumericalError
from .scenario import Scenario
from .simulate import nominal_geometry

__all__ = ["CrlbSeries", "crlb_series"]


@dataclass
class CrlbSeries:
    """Square-root bound trajectories per sensor (and jointly for two)."""

    epochs: list[int]
    per_sensor: np.ndarray          # (n_epochs, n_sensors, d)
    stacked: np.ndarray | None      # (n_epochs, 2 * d) for two-sensor scenarios


def crlb_series(scenario: Scenario) -> CrlbSeries:
    """Accumulate per-epoch bias information and return sqrt bound curves."""
    states = nominal_geometry(scenario)
    n_s = len(scenario.sensors)
    n_t = len(scenario.targets)
    d = scenario.bias_dim
    epochs = scenario.update_epochs()

    acc = [FimAccumulator(d) for _ in range(n_s)]
    acc_stacked = FimAccumulator(2 * d) if n_s == 2 else None
    per_sensor = np.full((len(epochs), n_s, d), np.nan)
    stacked = np.full((len(epochs), 2 * d), np.nan) if n_s == 2 else None

    positions = np.stack([s.position for s in scenario.sensors])
    sigma_r = np.array([s.sigma_r for s in scenario.sensors])
    sigma_theta = np.array([s.sigma_theta for s in scenario.sensors])
    for ei, k in enumerate(epochs):
        reporters = scenario.reporters_at(k)
        # Observation blocks and noises of every (reporter, target) pair.
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
                if not others:
                    continue
                total = combine_sensors([geom[r][1] for r in others], geom[s][1])
                acc[s].add(geom[s][0], total, label=(s, t, k))
            if acc_stacked is not None and len(reporters) == 2:
                g = np.hstack([geom[0][0], -geom[1][0]])
                acc_stacked.add(g, geom[0][1] + geom[1][1], label=(t, k))
        # Epochs before the parameters become observable keep NaN entries.
        for s in range(n_s):
            if acc[s].n_blocks:
                try:
                    per_sensor[ei, s] = np.sqrt(crlb_diag(acc[s].problem()))
                except NumericalError:
                    pass
        if acc_stacked is not None and acc_stacked.n_blocks:
            try:
                stacked[ei] = np.sqrt(crlb_diag(acc_stacked.problem()))
            except NumericalError:
                pass

    return CrlbSeries(epochs=epochs, per_sensor=per_sensor, stacked=stacked)
