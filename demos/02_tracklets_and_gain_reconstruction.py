"""Tracklets: turning intermittent track reports back into measurements.

A local tracker runs a Kalman filter at full rate but only reports its state
and covariance every few frames.  The fusion center reconstructs an
equivalent measurement for the unreported span, and — for single-step lags —
recovers the local filter's own gain and measurement exactly.
"""

import numpy as np

from sensorreg import (
    CartesianMeasurement,
    GaussianEstimate,
    compose_steps,
    compute_tracklet,
    kf_predict,
    kf_update,
    ncv_model,
    reconstruct_local_gain,
    tracklet_decorrelated,
)

rng = np.random.default_rng(3)
model = ncv_model(T=1.0, q=0.5)

# --- single-step lag: inversion is exact -------------------------------
prev = GaussianEstimate(
    mean=[1000.0, 20.0, -500.0, 5.0],
    cov=np.diag([400.0, 25.0, 400.0, 25.0]),
    frame=0,
)
z = CartesianMeasurement(z=[1021.0, -497.0], R=np.diag([100.0, 380.0]))
pred = kf_predict(prev, model)
curr, record = kf_update(pred, z)

t = tracklet_decorrelated(prev, curr, model)
gain = reconstruct_local_gain(t)
print("measurement the tracker consumed:", z.z)
print("equivalent measurement recovered:", np.round(t.u[::2], 6))
print("gain reconstruction error:", np.abs(gain.W - record.gain).max())

# --- ten-step lag: the tracklet condenses ten updates -------------------
est = prev
snapshots = [est]
truth = np.array([1000.0, 20.0, -500.0, 5.0])
cholQ = np.linalg.cholesky(model.Q)
for k in range(10):
    truth = model.F @ truth + cholQ @ rng.standard_normal(4)
    est = kf_predict(est, model)
    zk = CartesianMeasurement(
        z=truth[[0, 2]] + 10.0 * rng.standard_normal(2), R=100.0 * np.eye(2)
    )
    est, _ = kf_update(est, zk)
    snapshots.append(est)

ms10 = compose_steps(model, 10)
t10 = compute_tracklet(snapshots[0], snapshots[10], ms10)
print("\nten-step tracklet method:", t10.method)
print("equivalent measurement:", np.round(t10.u[[0, 2]], 1), "truth:", np.round(truth[[0, 2]], 1))
print("equivalent noise sigma:", np.round(np.sqrt(np.diag(t10.U))[[0, 2]], 2), "m")
print("single measurement sigma: 10.0 m  (the tracklet is worth several)")
