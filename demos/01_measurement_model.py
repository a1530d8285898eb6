"""Biased radar measurements and their Cartesian conversion.

A radar with offset and scale errors reports range and azimuth that drift
away from the truth.  This walk-through applies a bias to a clean
measurement, converts it to Cartesian coordinates with the compensated
conversion, and inspects the linearized measurement covariance.  Every
function takes arrays; the last part converts a sweep of azimuths at once.
"""

import numpy as np

from sensorreg import BiasVector, apply_bias, converted_covariance, polar_to_cart
from sensorreg.coords import jacobians_at

r, theta = 20_000.0, 0.35
sigma_r, sigma_theta = 10.0, 1e-3
bias = BiasVector(b_r=20.0, b_theta=1e-3, eps_r=0.001, eps_theta=0.001)

r_m, theta_m = apply_bias(r, theta, bias)
print("true   (r, theta):", (r, theta))
print("biased (r, theta):", (round(float(r_m), 3), round(float(theta_m), 6)))
print("range offset contribution:   20.0 m")
print("range scale contribution:   ", round(0.001 * r, 1), "m")

z = polar_to_cart(r_m, theta_m, sigma_theta)
R = converted_covariance(r_m, theta_m, sigma_r, sigma_theta)
print("\nconverted position:", np.round(z, 2))
print("converted covariance:\n", np.round(R, 1))

# The covariance spectrum is always {sigma_r^2, (r sigma_theta)^2}: a range
# stick and a cross-range stick, rotated to the line of sight.
eig = np.sort(np.linalg.eigvalsh(R))
print("covariance eigenvalues:", np.round(eig, 1))
print("expected              :", [100.0, round(float(r_m * sigma_theta) ** 2, 1)])

# The bias-to-Cartesian Jacobian maps (offsets, scales) into position shifts.
jac = jacobians_at(r_m, theta_m)
shift = jac.K @ bias.as_array()
print("\nfirst-order position shift from the bias:", np.round(shift, 2))
print("actual shift:", np.round(z - polar_to_cart(r, theta, 0.0), 2))

# A sweep of azimuths: one call each, with the batch shape carried through.
sweep = np.linspace(-np.pi / 2, np.pi / 2, 5)
r_s, theta_s = apply_bias(np.full(5, r), sweep, bias)
with np.printoptions(suppress=True):
    print("\nsweep positions (5, 2):\n", np.round(polar_to_cart(r_s, theta_s, sigma_theta), 1))
print("sweep covariances:", converted_covariance(r_s, theta_s, sigma_r, sigma_theta).shape)
