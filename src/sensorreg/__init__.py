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
from .crlb import (
    FimAccumulator,
    FimProblem,
    build_fim,
    combine_sensors,
    crlb_diag,
)
from .dynamics import (
    MotionModel,
    MultiStepModel,
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
    TrackletSingularError,
)
from .fusion import (
    CorrectedMeasurement,
    FbeResult,
    FusedTrack,
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
    marginal_position_velocity,
    position_selector,
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
    "CorrectedMeasurement",
    "FbeResult",
    "FimAccumulator",
    "FimProblem",
    "FusedTrack",
    "GaussianEstimate",
    "ImmState",
    "KfStepRecord",
    "MotionModel",
    "MultiStepModel",
    "NumericalError",
    "PseudoMeasurement",
    "ReconstructedGain",
    "ScenarioError",
    "SensorModel",
    "SensorRegError",
    "SingularMatrixError",
    "Tracklet",
    "TrackletSingularError",
    "apply_bias",
    "bias_correct",
    "build_fim",
    "cart_to_polar",
    "combine_sensors",
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
    "marginal_position_velocity",
    "nca_model",
    "ncv_model",
    "polar_to_cart",
    "position_selector",
    "reconstruct_local_gain",
    "rlsb_update",
    "sensor_pseudo_obs",
    "sfa",
    "tracklet_decorrelated",
    "tracklet_inverse_kf",
    "turn_model",
    "wrap_angle",
]
