"""Symmetries every correct estimator keeps: relabelling the targets or the
sensors of a scenario relabels its estimates and nothing else.

Noise streams are keyed by sensor and target index, so each test permutes
the truth of one run together with the scenario: the permuted run sees the
same trajectories and measurements under new labels.  Only the summation
order of the batched fusion-center sums changes, which moves the bias
estimates by rounding.
"""

import dataclasses

import numpy as np
import pytest

import sensorreg.harness.simulate as sim
from sensorreg.harness import load_scenario

# Largest change of b_series under a target permutation, relative to its
# largest entry: 2.3e-13 over runs 0-2 of the cases below.
TARGET_PERMUTATION_RTOL = 1e-12
# The same under a sensor permutation (b_series permuted with the sensors):
# 1.8e-12 over runs 0-2 and random orders on five_sensor_offset; the
# two-sensor swap is exact.
SENSOR_PERMUTATION_RTOL = 1e-11


def _permuted(sc, truth, targets=None, sensors=None):
    """The scenario and truth of one run with targets and sensors listed in
    the orders given (index arrays; None keeps an order)."""
    t = np.arange(len(sc.targets)) if targets is None else np.asarray(targets)
    s = np.arange(len(sc.sensors)) if sensors is None else np.asarray(sensors)
    sc = dataclasses.replace(
        sc, targets=[sc.targets[i] for i in t], sensors=[sc.sensors[i] for i in s]
    )
    per_sensor = (truth.polar_true, truth.polar_meas, truth.cart_z, truth.cart_R)
    return sc, sim.TruthData(truth.states[t], *(a[s][:, t] for a in per_sensor))


def _b_series(sc, truth, method):
    tracks = sim.run_local_tracks(sc, truth)
    if method == "fbe":
        return sim._run_fbe(sc, truth, tracks)[0]
    return sim._run_stacked(sc, truth, tracks, reconstructed=(method == "exl"))[0]


@pytest.mark.parametrize(
    "name, method",
    [
        ("two_sensor", "fbe"),
        ("two_sensor", "ex"),
        ("two_sensor", "exl"),
        ("five_sensor_offset", "fbe"),
        ("five_sensor_offset_scale", "fbe"),
    ],
)
def test_target_permutation_leaves_the_bias_estimates(name, method):
    sc = load_scenario(name)
    order = np.random.default_rng(1).permutation(len(sc.targets))
    for run in range(2):
        truth = sim.simulate_truth(sc, run)
        want = _b_series(sc, truth, method)
        got = _b_series(*_permuted(sc, truth, targets=order), method)
        atol = TARGET_PERMUTATION_RTOL * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize(
    "name, order", [("two_sensor", [1, 0]), ("five_sensor_offset", [4, 3, 2, 0, 1])]
)
def test_sensor_permutation_permutes_the_fbe_estimates(name, order):
    sc = load_scenario(name)
    for run in range(2):
        truth = sim.simulate_truth(sc, run)
        want = _b_series(sc, truth, "fbe")[:, order]
        got = _b_series(*_permuted(sc, truth, sensors=order), "fbe")
        if name == "two_sensor":
            np.testing.assert_array_equal(got, want)
        else:
            atol = SENSOR_PERMUTATION_RTOL * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)
