"""Two-sensor registration: the true-gain oracle versus the tracklets.

Both radars carry a 20 m range offset and a 1 mrad azimuth offset.  The
oracle path deconvolves each track update through the local filter's true
gain; the practical path folds the single-step tracklets themselves, which
is what deconvolving through the gains reconstructed from them returns.
Their bias estimates are indistinguishable.
"""

import numpy as np

from sensorreg.harness import load_scenario, run_monte_carlo

scenario = load_scenario("two_sensor")
runs = 30  # bump to 100 for the full comparison

ex = run_monte_carlo(scenario, "ex", mc_runs=runs)
exl = run_monte_carlo(scenario, "exl", mc_runs=runs)

names = ["b_r s1", "b_th s1", "b_r s2", "b_th s2"]
print(f"{runs} Monte Carlo runs, {scenario.frames} frames, "
      f"true offsets 20 m / 1 mrad\n")
print(f"{'component':>10} {'oracle RMSE':>14} {'tracklet RMSE':>14}")
for i, name in enumerate(names):
    print(f"{name:>10} {ex.bias_rmse[-1, 0, i]:>14.5g} {exl.bias_rmse[-1, 0, i]:>14.5g}")

print("\nrange-bias RMSE by frame (oracle path, sensor 1):")
for k in (1, 2, 5, 10, 20):
    print(f"  frame {k:>2}: {ex.bias_rmse[k, 0, 0]:7.3f} m")

nees = exl.bias_nees[1:, 0]
inside = np.sum((nees >= exl.nees_lower) & (nees <= exl.nees_upper))
print(f"\ntracklet-path NEES inside the 95% band at {inside}/{nees.size} frames "
      f"(band [{exl.nees_lower:.2f}, {exl.nees_upper:.2f}])")
