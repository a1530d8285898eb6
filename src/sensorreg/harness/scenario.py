"""Scenario definitions: sensors, targets, filters, and run settings.

Scenarios are stored as JSON with SI units throughout (meters, radians,
seconds, m^2/s^3).  Frame 0 is track initialization; ``frames`` counts the
measurement frames after it, so epochs run k = 0..frames.  Each sensor
reports to the fusion center at multiples of its lag
(``Scenario.reporting_schedule``).

A document is read through one table, :data:`FIELDS`, which gives each key
of each spec its reader; the defaults of absent keys live in the dataclasses
alone.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from ..coords import BiasVector
from ..errors import ScenarioError
from ..fusion import SensorModel

__all__ = [
    "SensorSpec",
    "SegmentSpec",
    "TargetSpec",
    "LocalFilterSpec",
    "Scenario",
    "load_scenario",
    "builtin_scenario_path",
    "BUILTIN_SCENARIOS",
]

BUILTIN_SCENARIOS = (
    "two_sensor",
    "five_sensor_offset",
    "five_sensor_offset_scale",
)

LOCAL_FILTER_TYPES = ("kf", "imm_ncv_ncv", "imm_nca_ncv")

# Prior standard deviations of the bias filters: range offset (m), azimuth
# offset (rad), and each scale bias.
BIAS_PRIOR_OFFSET_SIGMA = (20.0, 1e-3)
BIAS_PRIOR_SCALE_SIGMA = 0.01


@dataclass
class SensorSpec:
    position: np.ndarray
    sigma_r: float
    sigma_theta: float
    bias: BiasVector
    lag: int = 1

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(2)


@dataclass
class SegmentSpec:
    """One leg of a target's motion schedule; the last leg extends to the
    end of the run."""

    model: str
    frames: int
    omega: float = 0.0


@dataclass
class TargetSpec:
    initial_state: np.ndarray
    segments: list[SegmentSpec]

    def __post_init__(self) -> None:
        self.initial_state = np.asarray(self.initial_state, dtype=float).reshape(4)


@dataclass
class LocalFilterSpec:
    """Local tracker configuration.

    ``kf`` uses a single constant-velocity filter with intensity ``q``.
    The IMM variants run two modes with intensities ``q1`` (maneuvering /
    accelerating mode) and ``q2`` (quiet mode).
    """

    type: str = "kf"
    q: float = 1.0
    q1: float = 10.0
    q2: float = 2.0


@dataclass(kw_only=True)
class Scenario:
    name: str = "scenario"
    sensors: list[SensorSpec]
    targets: list[TargetSpec]
    frames: int
    mc_runs: int = 1
    dt: float = 1.0
    process_noise_q: float = 0.1
    local_filter: LocalFilterSpec = field(default_factory=LocalFilterSpec)
    fusion_q: float = 1.0
    estimate_scale_bias: bool = False
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check counts, signs and enums.  Each test is written so that a NaN
        fails it (``not x > 0``); the loader rejects every non-finite number
        as it reads it."""
        if len(self.sensors) < 2:
            raise ScenarioError("scenario needs at least two sensors")
        if not self.targets:
            raise ScenarioError("scenario needs at least one target")
        if not self.frames >= 2:
            raise ScenarioError("scenario needs at least two frames")
        if not self.mc_runs >= 1:
            raise ScenarioError("mc_runs must be at least 1")
        if not self.rng_seed >= 0:
            raise ScenarioError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if not self.dt > 0:
            raise ScenarioError("dt must be positive")
        lf = self.local_filter
        for where, q in (
            ("process_noise_q", self.process_noise_q),
            ("fusion_q", self.fusion_q),
            ("local_filter q", lf.q),
            ("local_filter q1", lf.q1),
            ("local_filter q2", lf.q2),
        ):
            if not q >= 0:
                raise ScenarioError(f"{where} must be non-negative, got {q}")
        if lf.type not in LOCAL_FILTER_TYPES:
            raise ScenarioError(
                f"unknown local filter type {lf.type!r}; expected one of {LOCAL_FILTER_TYPES}"
            )
        for i, s in enumerate(self.sensors):
            if not (s.sigma_r > 0 and s.sigma_theta > 0):
                raise ScenarioError(f"sensor {i}: noise sigmas must be positive")
            if not s.lag >= 1:
                raise ScenarioError(f"sensor {i}: reporting lag must be >= 1")
        for i, t in enumerate(self.targets):
            if not t.segments:
                raise ScenarioError(f"target {i}: needs at least one motion segment")
            for seg in t.segments:
                if seg.model not in ("ncv", "turn"):
                    raise ScenarioError(f"target {i}: unknown segment model {seg.model!r}")
                if not seg.frames >= 1:
                    raise ScenarioError(f"target {i}: segment frames must be >= 1")

    @property
    def bias_dim(self) -> int:
        return 4 if self.estimate_scale_bias else 2

    def bias_prior_sigma(self) -> np.ndarray:
        off = np.array(BIAS_PRIOR_OFFSET_SIGMA, dtype=float)
        if self.estimate_scale_bias:
            return np.concatenate([off, [BIAS_PRIOR_SCALE_SIGMA, BIAS_PRIOR_SCALE_SIGMA]])
        return off

    def sensor_models(self) -> SensorModel:
        """Positions and noise levels of every sensor, one element each."""
        return SensorModel(*zip(*((s.position, s.sigma_r, s.sigma_theta) for s in self.sensors)))

    def reporting_schedule(self) -> np.ndarray:
        """Mask (frames + 1, n_sensors) of the sensors reporting at each
        frame: sensor s reports at frame k when k is a multiple of its lag,
        so every sensor reports at frame 0 (track initialization)."""
        lags = np.array([s.lag for s in self.sensors])
        return np.arange(self.frames + 1)[:, None] % lags == 0

    def update_epochs(self) -> list[int]:
        """Frames at which at least two sensors report (excluding frame 0)."""
        fused = np.count_nonzero(self.reporting_schedule()[1:], axis=1) >= 2
        return (np.flatnonzero(fused) + 1).tolist()


# Readers of the values of scenario keys: each takes the value and the key's
# name (its object's name followed by the key) and returns the value as its
# field holds it, or raises a ScenarioError naming the key.


def _integer(value, where: str) -> int:
    """``value`` as an int; a bool, a non-number or a number with a fractional
    part is rejected rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """``value`` as a finite float; a bool or a non-number, which float()
    would read as 1.0 or parse from a string, is rejected, and so is a NaN,
    which passes every sign test, or an infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"{where} must be finite, got {value}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a string, got {value!r}")
    return value


def _boolean(value, where: str) -> bool:
    """``value`` if it is a JSON true or false; bool() would read the string
    "false" as True."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{where} must be true or false, got {value!r}")
    return value


def _vector(length: int):
    """Reader of a list of ``length`` numbers; a number, on which a loop
    fails, a string, which it reads character by character, or a list of
    another length is rejected."""

    def read(value, where: str) -> list[float]:
        if not isinstance(value, list):
            raise ScenarioError(f"{where} must be a list of numbers, got {value!r}")
        if len(value) != length:
            raise ScenarioError(f"{where} must hold {length} numbers, got {value!r}")
        return [_number(v, where) for v in value]

    return read


def _spec(spec: type):
    """Reader of a JSON object as the dataclass ``spec``."""
    return lambda value, where: _read(spec, value, where)


def _specs(spec: type):
    """Reader of a JSON list of objects, each read as the dataclass ``spec``
    and named by the list's name in the singular and its index: ``sensors``
    holds ``sensor 0``, ``sensor 1``, ..."""

    def read(value, where: str) -> list:
        if not isinstance(value, list):
            raise ScenarioError(f"{where} must be a list, got {value!r}")
        return [_read(spec, item, f"{where.removesuffix('s')} {i}") for i, item in enumerate(value)]

    return read


# The keys of each spec's JSON object and their readers, in reading order.
FIELDS = {
    Scenario: dict(
        name=_string, sensors=_specs(SensorSpec), targets=_specs(TargetSpec), frames=_integer,
        mc_runs=_integer, dt=_number, process_noise_q=_number, local_filter=_spec(LocalFilterSpec),
        fusion_q=_number, estimate_scale_bias=_boolean, rng_seed=_integer,
    ),
    SensorSpec: dict(
        position=_vector(2), sigma_r=_number, sigma_theta=_number, bias=_spec(BiasVector),
        lag=_integer,
    ),
    BiasVector: dict(b_r=_number, b_theta=_number, eps_r=_number, eps_theta=_number),
    TargetSpec: dict(initial_state=_vector(4), segments=_specs(SegmentSpec)),
    SegmentSpec: dict(model=_string, frames=_integer, omega=_number),
    LocalFilterSpec: dict(type=_string, q=_number, q1=_number, q2=_number),
}

# The keys of each spec whose field has no default.
_REQUIRED = {
    spec: [f.name for f in fields(spec) if f.default is MISSING and f.default_factory is MISSING]
    for spec in FIELDS
}


def _read(spec: type, doc, where: str = ""):
    """The JSON object ``doc`` as the dataclass ``spec``, each present key
    read by its :data:`FIELDS` reader and every absent one left to its
    field's default.  ``where`` names the object in errors, and before each
    of its keys (empty for the document itself); a ``ValueError`` of the
    spec itself is raised as a ScenarioError naming the object."""
    name = where or "scenario"
    if not isinstance(doc, dict):
        raise ScenarioError(f"{name} must be a JSON object, got {doc!r}")
    readers = FIELDS[spec]
    unknown = sorted(doc.keys() - readers.keys())
    if unknown:
        raise ScenarioError(f"{name}: unknown key {unknown[0]!r}")
    for key in _REQUIRED[spec]:
        if key not in doc:
            at = f"{where}: " if where else ""
            raise ScenarioError(f"malformed scenario document: {at}missing key {key!r}")
    prefix = f"{where} " if where else ""
    values = {key: read(doc[key], prefix + key) for key, read in readers.items() if key in doc}
    try:
        return spec(**values)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def load_scenario(source: str | Path | dict) -> Scenario:
    """Load a scenario from a JSON path, a builtin name, or a parsed dict."""
    if isinstance(source, dict):
        return _read(Scenario, source)
    path = Path(source)
    if not path.exists() and str(source) in BUILTIN_SCENARIOS:
        path = builtin_scenario_path(str(source))
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {source}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return _read(Scenario, doc)


def builtin_scenario_path(name: str) -> Path:
    """Filesystem path of one of the packaged scenario files."""
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {BUILTIN_SCENARIOS}"
        )
    ref = resources.files("sensorreg") / "scenarios" / f"{name}.json"
    return Path(str(ref))
