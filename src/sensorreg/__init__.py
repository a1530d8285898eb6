"""Sensor registration and track fusion for distributed multisensor tracking.

The toolkit estimates per-sensor range/azimuth offset and scale biases at a
fusion center that receives only state estimates and covariances from local
trackers, possibly at sparse reporting rates.  It reconstructs the local
filter gains from tracklets, corrects the biases in the measurement domain,
fuses tracks sequentially, and ships a Monte Carlo harness with RMSE, NEES,
and lower-bound diagnostics.

The package exports the measurement model, the tracker and the tracklet and
gain steps that the quick start and the batched-API example use; every
other name is imported from its module (``sensorreg.fusion``,
``sensorreg.errors``, ...).
"""

from .coords import (
    BiasVector,
    CartesianMeasurement,
    apply_bias,
    cart_to_polar,
    converted_covariance,
    polar_to_cart,
)
from .dynamics import compose_steps, ncv_model
from .errors import raise_first
from .fusion import reconstruct_local_gain
from .trackers import GaussianEstimate, init_track, kf_predict, kf_update
from .tracklets import compute_tracklet, tracklet_decorrelated

__version__ = "0.1.0"

__all__ = [
    "BiasVector",
    "CartesianMeasurement",
    "GaussianEstimate",
    "apply_bias",
    "cart_to_polar",
    "compose_steps",
    "compute_tracklet",
    "converted_covariance",
    "init_track",
    "kf_predict",
    "kf_update",
    "ncv_model",
    "polar_to_cart",
    "raise_first",
    "reconstruct_local_gain",
    "tracklet_decorrelated",
]
