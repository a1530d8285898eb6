"""Scenario definitions: sensors, targets, filters, and run settings.

Scenarios are stored as JSON with SI units throughout (meters, radians,
seconds, m^2/s^3).  Frame 0 is track initialization; ``frames`` counts the
measurement frames after it, so epochs run k = 0..frames.  Each sensor
reports to the fusion center at multiples of its lag
(``Scenario.reporting_schedule``).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
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
    lag: int

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


@dataclass
class Scenario:
    name: str
    sensors: list[SensorSpec]
    targets: list[TargetSpec]
    frames: int
    mc_runs: int
    dt: float = 1.0
    process_noise_q: float = 0.1
    local_filter: LocalFilterSpec = field(default_factory=LocalFilterSpec)
    fusion_q: float = 1.0
    estimate_scale_bias: bool = False
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if len(self.sensors) < 2:
            raise ScenarioError("scenario needs at least two sensors")
        if not self.targets:
            raise ScenarioError("scenario needs at least one target")
        if self.frames < 2:
            raise ScenarioError("scenario needs at least two frames")
        if self.mc_runs < 1:
            raise ScenarioError("mc_runs must be at least 1")
        if self.rng_seed < 0:
            raise ScenarioError(f"rng_seed must be non-negative, got {self.rng_seed}")
        # A NaN passes every sign test below, so finiteness comes first.
        for where, value in self._real_values():
            if not math.isfinite(value):
                raise ScenarioError(f"{' '.join(map(str, where))} must be finite, got {value}")
        if self.dt <= 0:
            raise ScenarioError("dt must be positive")
        lf = self.local_filter
        for where, q in (
            ("process_noise_q", self.process_noise_q),
            ("fusion_q", self.fusion_q),
            ("local_filter q", lf.q),
            ("local_filter q1", lf.q1),
            ("local_filter q2", lf.q2),
        ):
            if q < 0:
                raise ScenarioError(f"{where} must be non-negative, got {q}")
        if lf.type not in LOCAL_FILTER_TYPES:
            raise ScenarioError(
                f"unknown local filter type {lf.type!r}; "
                f"expected one of {LOCAL_FILTER_TYPES}"
            )
        for i, s in enumerate(self.sensors):
            if s.sigma_r <= 0 or s.sigma_theta <= 0:
                raise ScenarioError(f"sensor {i}: noise sigmas must be positive")
            if s.lag < 1:
                raise ScenarioError(f"sensor {i}: reporting lag must be >= 1")
        for i, t in enumerate(self.targets):
            if not t.segments:
                raise ScenarioError(f"target {i}: needs at least one motion segment")
            for seg in t.segments:
                if seg.model not in ("ncv", "turn"):
                    raise ScenarioError(
                        f"target {i}: unknown segment model {seg.model!r}"
                    )
                if seg.frames < 1:
                    raise ScenarioError(f"target {i}: segment frames must be >= 1")

    def _real_values(self):
        """(field name as a tuple of words, value) of every real number the
        scenario holds, one pair per array entry."""
        yield ("dt",), self.dt
        yield ("process_noise_q",), self.process_noise_q
        yield ("fusion_q",), self.fusion_q
        for key in ("q", "q1", "q2"):
            yield ("local_filter", key), getattr(self.local_filter, key)
        for i, s in enumerate(self.sensors):
            for v in s.position.tolist():
                yield ("sensor", i, "position"), v
            yield ("sensor", i, "sigma_r"), s.sigma_r
            yield ("sensor", i, "sigma_theta"), s.sigma_theta
            for key in ("b_r", "b_theta", "eps_r", "eps_theta"):
                yield ("sensor", i, "bias", key), getattr(s.bias, key)
        for i, t in enumerate(self.targets):
            for v in t.initial_state.tolist():
                yield ("target", i, "initial_state"), v
            for j, seg in enumerate(t.segments):
                yield ("target", i, "segment", j, "omega"), seg.omega

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


def _known(doc: dict, spec: type, where: str) -> dict:
    """Return ``doc`` after checking that every key names a field of the
    dataclass ``spec``."""
    unknown = sorted(set(doc) - {f.name for f in fields(spec)})
    if unknown:
        raise ScenarioError(f"{where}: unknown key {unknown[0]!r}")
    return doc


def _integer(value, where: str) -> int:
    """``value`` as an int; a bool, a non-number or a number with a fractional
    part is rejected rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """``value`` as a float; a bool or a non-number is rejected, which float()
    would read as 1.0 or parse from a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    return float(value)


def _boolean(value, where: str) -> bool:
    """``value`` if it is a JSON true or false; bool() would read the string
    "false" as True."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{where} must be true or false, got {value!r}")
    return value


def _given(doc: dict, convert: dict, where: str = "") -> dict:
    """The keys of ``convert`` that ``doc`` holds, each value passed through
    its converter with the field's name, ``where`` followed by the key; an
    absent key is left out, so the dataclass default of its field applies."""
    return {key: conv(doc[key], where + key) for key, conv in convert.items() if key in doc}


def _scenario_from_dict(doc: dict) -> Scenario:
    try:
        _known(doc, Scenario, "scenario")
        sensors = []
        for i, s in enumerate(doc["sensors"]):
            _known(s, SensorSpec, f"sensor {i}")
            b = _known(s["bias"], BiasVector, f"sensor {i} bias")
            sensors.append(
                SensorSpec(
                    position=[_number(v, f"sensor {i} position") for v in s["position"]],
                    **_given(s, {"sigma_r": _number, "sigma_theta": _number}, f"sensor {i} "),
                    bias=BiasVector(**_given(b, dict.fromkeys(b, _number), f"sensor {i} bias ")),
                    lag=_integer(s.get("lag", 1), f"sensor {i} lag"),
                )
            )
        targets = []
        for i, t in enumerate(doc["targets"]):
            _known(t, TargetSpec, f"target {i}")
            segments = []
            for j, seg in enumerate(t["segments"]):
                _known(seg, SegmentSpec, f"target {i} segment {j}")
                segments.append(
                    SegmentSpec(
                        model=seg["model"],
                        frames=_integer(seg["frames"], f"target {i} segment {j} frames"),
                        **_given(seg, {"omega": _number}, f"target {i} segment {j} "),
                    )
                )
            state = [_number(v, f"target {i} initial_state") for v in t["initial_state"]]
            targets.append(TargetSpec(initial_state=state, segments=segments))
        lf = _known(doc.get("local_filter", {}), LocalFilterSpec, "local_filter")
        convert = {"type": lambda v, _: v} | dict.fromkeys(("q", "q1", "q2"), _number)
        if not isinstance(doc.get("name", ""), str):
            raise ScenarioError(f"name must be a string, got {doc['name']!r}")
        scenario = Scenario(
            name=doc.get("name", "scenario"),
            sensors=sensors,
            targets=targets,
            frames=_integer(doc["frames"], "frames"),
            mc_runs=_integer(doc.get("mc_runs", 1), "mc_runs"),
            local_filter=LocalFilterSpec(**_given(lf, convert, "local_filter ")),
            **_given(
                doc,
                {
                    "dt": _number,
                    "process_noise_q": _number,
                    "fusion_q": _number,
                    "estimate_scale_bias": _boolean,
                    "rng_seed": _integer,
                },
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    return scenario


def load_scenario(source: str | Path | dict) -> Scenario:
    """Load a scenario from a JSON path, a builtin name, or a parsed dict."""
    if isinstance(source, dict):
        return _scenario_from_dict(source)
    path = Path(source)
    if not path.exists() and str(source) in BUILTIN_SCENARIOS:
        path = builtin_scenario_path(str(source))
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {source}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return _scenario_from_dict(doc)


def builtin_scenario_path(name: str) -> Path:
    """Filesystem path of one of the packaged scenario files."""
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {BUILTIN_SCENARIOS}"
        )
    ref = resources.files("sensorreg") / "scenarios" / f"{name}.json"
    return Path(str(ref))
