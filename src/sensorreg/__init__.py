"""Sensor registration and track fusion for distributed multisensor tracking.

The toolkit estimates per-sensor range/azimuth offset and scale biases at a
fusion center that receives only state estimates and covariances from local
trackers, possibly at sparse reporting rates.  It reconstructs the local
filter gains from tracklets, corrects the biases in the measurement domain,
fuses tracks sequentially, and ships a Monte Carlo harness with RMSE, NEES,
and lower-bound diagnostics.
"""

from .bias import (
    BiasEstimate,
    PseudoMeasurement,
    difference_pseudo_measurement,
    rlsb_update,
    sensor_pseudo_obs,
)
from .coords import (
    BiasJacobians,
    BiasVector,
    CartesianMeasurement,
    apply_bias,
    cart_to_polar,
    conversion_gain,
    converted_covariance,
    polar_to_cart,
    wrap_angle,
)
from .crlb import crlb_diag
from .dynamics import (
    MotionModel,
    compose_steps,
    nca_model,
    ncv_model,
    turn_model,
)
from .errors import (
    NumericalError,
    ScenarioError,
    SensorRegError,
    SingularMatrixError,
    raise_first,
)
from .fusion import (
    FbeResult,
    ReconstructedGain,
    SensorModel,
    bias_correct,
    fbe_step,
    reconstruct_local_gain,
    sfa,
)
from .trackers import (
    GaussianEstimate,
    ImmState,
    KfStepRecord,
    imm_step,
    init_track,
    kf_predict,
    kf_update,
)
from .tracklets import (
    Tracklet,
    compute_tracklet,
    tracklet_decorrelated,
    tracklet_inverse_kf,
)

__version__ = "0.1.0"

__all__ = [
    "BiasEstimate",
    "BiasJacobians",
    "BiasVector",
    "CartesianMeasurement",
    "FbeResult",
    "GaussianEstimate",
    "ImmState",
    "KfStepRecord",
    "MotionModel",
    "NumericalError",
    "PseudoMeasurement",
    "ReconstructedGain",
    "ScenarioError",
    "SensorModel",
    "SensorRegError",
    "SingularMatrixError",
    "Tracklet",
    "apply_bias",
    "bias_correct",
    "cart_to_polar",
    "compose_steps",
    "compute_tracklet",
    "conversion_gain",
    "converted_covariance",
    "crlb_diag",
    "difference_pseudo_measurement",
    "fbe_step",
    "imm_step",
    "init_track",
    "kf_predict",
    "kf_update",
    "nca_model",
    "ncv_model",
    "polar_to_cart",
    "raise_first",
    "reconstruct_local_gain",
    "rlsb_update",
    "sensor_pseudo_obs",
    "sfa",
    "tracklet_decorrelated",
    "tracklet_inverse_kf",
    "turn_model",
    "wrap_angle",
]
