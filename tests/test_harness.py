"""Scenario loading, truth simulation, metrics, and report emission."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from sensorreg._linalg import mv
from sensorreg.coords import (
    BiasVector,
    apply_bias,
    cart_to_polar,
    converted_covariance,
    polar_to_cart,
    wrap_angle,
)
from sensorreg.dynamics import ncv_model, turn_model
from sensorreg.errors import NumericalError, ScenarioError, SingularMatrixError
from sensorreg.harness import (
    BUILTIN_SCENARIOS,
    builtin_scenario_path,
    chi2_band,
    crlb_series,
    emit_crlb,
    emit_report,
    load_scenario,
    nees_series,
    nominal_geometry,
    run_local_tracks,
    run_monte_carlo,
    simulate_truth,
    summary_tables,
)
from sensorreg.harness import metrics as metrics_module
from sensorreg.harness.metrics import RunMetrics, chi2_upper
from sensorreg.harness.report import COMPONENT_NAMES


def _tiny_scenario(**overrides):
    doc = {
        "name": "tiny",
        "dt": 1.0,
        "frames": 6,
        "mc_runs": 3,
        "rng_seed": 99,
        "process_noise_q": 0.1,
        "fusion_q": 0.5,
        "local_filter": {"type": "kf", "q": 0.5},
        "sensors": [
            {"position": [0.0, 0.0], "sigma_r": 10.0, "sigma_theta": 1e-3,
             "bias": {"b_r": 20.0, "b_theta": 1e-3}, "lag": 2},
            {"position": [8000.0, 0.0], "sigma_r": 10.0, "sigma_theta": 1e-3,
             "bias": {"b_r": 20.0, "b_theta": 1e-3}, "lag": 2},
            {"position": [0.0, 8000.0], "sigma_r": 10.0, "sigma_theta": 1e-3,
             "bias": {"b_r": 20.0, "b_theta": 1e-3}, "lag": 2},
        ],
        "targets": [
            {"initial_state": [5000.0, 50.0, 3000.0, -20.0],
             "segments": [{"model": "ncv", "frames": 6}]},
            {"initial_state": [-4000.0, 0.0, 6000.0, 30.0],
             "segments": [{"model": "ncv", "frames": 3},
                          {"model": "turn", "frames": 3, "omega": 0.01}]},
        ],
    }
    doc.update(overrides)
    return doc


def test_builtin_scenarios_validate():
    for name in BUILTIN_SCENARIOS:
        sc = load_scenario(name)
        assert len(sc.sensors) >= 2
        assert sc.frames >= 2
        assert builtin_scenario_path(name).exists()


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        load_scenario(_tiny_scenario(sensors=[]))
    with pytest.raises(ScenarioError):
        load_scenario(_tiny_scenario(frames=1))
    bad = _tiny_scenario()
    bad["sensors"][0]["sigma_r"] = -1.0
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    bad = _tiny_scenario()
    bad["local_filter"] = {"type": "nope"}
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    bad = _tiny_scenario()
    bad["targets"][0]["segments"][0]["model"] = "warp"
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_scenario_rejects_negative_seed():
    # SeedSequence would reject it later with a bare ValueError.
    with pytest.raises(ScenarioError, match="rng_seed"):
        load_scenario(_tiny_scenario(rng_seed=-3))


INTEGER_FIELDS = [
    ((), "rng_seed", "rng_seed"),
    ((), "frames", "frames"),
    ((), "mc_runs", "mc_runs"),
    (("sensors", 1), "lag", "sensor 1 lag"),
    (("targets", 1, "segments", 0), "frames", "target 1 segment 0 frames"),
]


@pytest.mark.parametrize("path, key, where", INTEGER_FIELDS)
@pytest.mark.parametrize("value", [20.9, True, float("inf"), "3"])
def test_scenario_rejects_non_integer_counts(path, key, where, value):
    # int() would truncate 20.9 to 20 and read True as 1.
    doc = _tiny_scenario()
    node = doc
    for k in path:
        node = node[k]
    node[key] = value
    with pytest.raises(ScenarioError, match=f"{where} must be an integer, got {value!r}"):
        load_scenario(doc)
    node[key] = 3.0
    assert load_scenario(doc) is not None


NON_FINITE_FIELDS = [
    ((), "dt", "dt"),
    ((), "process_noise_q", "process_noise_q"),
    ((), "fusion_q", "fusion_q"),
    (("local_filter",), "q", "local_filter q"),
    (("local_filter",), "q1", "local_filter q1"),
    (("local_filter",), "q2", "local_filter q2"),
    (("sensors", 1, "position"), 0, "sensor 1 position"),
    (("sensors", 1), "sigma_r", "sensor 1 sigma_r"),
    (("sensors", 1), "sigma_theta", "sensor 1 sigma_theta"),
    (("sensors", 1, "bias"), "b_r", "sensor 1 bias b_r"),
    (("sensors", 1, "bias"), "b_theta", "sensor 1 bias b_theta"),
    (("sensors", 1, "bias"), "eps_r", "sensor 1 bias eps_r"),
    (("sensors", 1, "bias"), "eps_theta", "sensor 1 bias eps_theta"),
    (("targets", 1, "initial_state"), 2, "target 1 initial_state"),
    (("targets", 1, "segments", 1), "omega", "target 1 segment 1 omega"),
]


@pytest.mark.parametrize("path, key, where", NON_FINITE_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_scenario_rejects_non_finite_values(path, key, where, value):
    # A NaN passes every "<= 0" check, and sigma_r = NaN used to surface as
    # a singular innovation covariance deep inside the fusion center.
    doc = _tiny_scenario()
    node = doc
    for k in path:
        node = node[k]
    node[key] = value
    with pytest.raises(ScenarioError, match=f"^{where} must be finite"):
        load_scenario(doc)


@pytest.mark.parametrize("path, key, where", NON_FINITE_FIELDS)
@pytest.mark.parametrize("value", ["10", True, None, [1.0]])
def test_scenario_rejects_non_numbers(path, key, where, value):
    # float() would read "10" as 10.0 and True as 1.0.
    doc = _tiny_scenario()
    node = doc
    for k in path:
        node = node[k]
    node[key] = value
    with pytest.raises(ScenarioError, match=f"^{re.escape(where)} must be a number, got "):
        load_scenario(doc)
    node[key] = 3
    assert load_scenario(doc) is not None


@pytest.mark.parametrize(
    "path, key, where",
    [(("sensors", 1), "position", "sensor 1 position"),
     (("targets", 0), "initial_state", "target 0 initial_state")],
)
@pytest.mark.parametrize("value", [5.0, "01"])
def test_scenario_vector_fields_must_be_lists(path, key, where, value):
    # A number failed with "'float' object is not iterable", naming no
    # field; a string was read character by character.
    doc = _tiny_scenario()
    node = doc
    for k in path:
        node = node[k]
    node[key] = value
    with pytest.raises(
        ScenarioError, match=f"^{where} must be a list of numbers, got {re.escape(repr(value))}$"
    ):
        load_scenario(doc)


@pytest.mark.parametrize(
    "path, key, value, message",
    [
        (
            ("targets", 0, "segments"),
            0,
            "ncv",
            "target 0 segment 0 must be a JSON object, got 'ncv'",
        ),
        (("targets", 0), "segments", "ncv", "target 0 segments must be a list, got 'ncv'"),
        (("sensors", 0), "bias", [1, 2], "sensor 0 bias must be a JSON object, got [1, 2]"),
        (("sensors",), 0, 5, "sensor 0 must be a JSON object, got 5"),
        ((), "local_filter", 3, "local_filter must be a JSON object, got 3"),
        ((), "sensors", {"a": 1}, "sensors must be a list, got {'a': 1}"),
        ((), "targets", "t", "targets must be a list, got 't'"),
        (
            ("sensors", 1),
            "position",
            [1, 2, 3],
            "sensor 1 position must hold 2 numbers, got [1, 2, 3]",
        ),
        (
            ("targets", 0),
            "initial_state",
            [1, 2, 3],
            "target 0 initial_state must hold 4 numbers, got [1, 2, 3]",
        ),
    ],
)
def test_scenario_fields_of_the_wrong_shape_are_named(path, key, value, message):
    # Each failed with a message that misread the field ("unknown key 'n'"
    # for a string of segments, "unknown key 1" for a bias list), named no
    # field ("'int' object is not iterable") or named a reshape.
    doc = _tiny_scenario()
    node = doc
    for k in path:
        node = node[k]
    node[key] = value
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        load_scenario(doc)


def test_scenario_rejects_a_name_that_is_not_a_string():
    with pytest.raises(ScenarioError, match="^name must be a string, got 5$"):
        load_scenario(_tiny_scenario(name=5))


NOISE_INTENSITY_FIELDS = [
    ((), "process_noise_q", "process_noise_q"),
    ((), "fusion_q", "fusion_q"),
    (("local_filter",), "q", "local_filter q"),
    (("local_filter",), "q1", "local_filter q1"),
    (("local_filter",), "q2", "local_filter q2"),
]


@pytest.mark.parametrize("path, key, where", NOISE_INTENSITY_FIELDS)
def test_scenario_rejects_negative_noise_intensities(path, key, where):
    # A negative local-filter intensity used to load and then fail inside
    # the motion model with a bare ValueError.
    doc = _tiny_scenario()
    node = doc
    for k in path:
        node = node[k]
    node[key] = -5.0
    with pytest.raises(ScenarioError, match=f"^{where} must be non-negative, got -5.0$"):
        load_scenario(doc)
    node[key] = 0.0
    assert load_scenario(doc) is not None


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_scenario_scale_flag_must_be_a_json_boolean(value):
    with pytest.raises(
        ScenarioError, match=re.escape(f"estimate_scale_bias must be true or false, got {value!r}")
    ):
        load_scenario(_tiny_scenario(estimate_scale_bias=value))
    assert load_scenario(_tiny_scenario(estimate_scale_bias=False)).bias_dim == 2


def _objects(doc, obj, path=(), where=""):
    """``(path, name, spec)`` of every JSON object of a scenario document,
    walked beside the Scenario ``obj`` loaded from it: the object's key
    path, its name in loader errors (a list's items take the list's name in
    the singular and their index) and the dataclass it fills."""
    yield path, where, type(obj)
    for key, value in doc.items():
        name = f"{where} {key}".lstrip()
        if isinstance(value, dict):
            yield from _objects(value, getattr(obj, key), path + (key,), name)
        elif isinstance(value, list) and all(isinstance(v, dict) for v in value):
            for i, item in enumerate(value):
                item_name = f"{name.removesuffix('s')} {i}"
                yield from _objects(item, getattr(obj, key)[i], path + (key, i), item_name)


def _at(node, path):
    for key in path:
        node = node[key] if isinstance(node, (dict, list)) else getattr(node, key)
    return node


def _packaged(name):
    doc = json.loads(builtin_scenario_path(name).read_text())
    return doc, list(_objects(doc, load_scenario(doc)))


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_removing_a_packaged_key_names_its_object_or_takes_the_default(name):
    # Every key of every object: a required one is named with its object's
    # path, and an optional one takes its dataclass default.
    base, objects = _packaged(name)
    for path, where, spec in objects:
        for f in dataclasses.fields(spec):
            if f.name not in _at(base, path):
                continue
            doc = json.loads(json.dumps(base))
            del _at(doc, path)[f.name]
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                at = f"{where}: " if where else ""
                message = f"malformed scenario document: {at}missing key '{f.name}'"
                with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
                    load_scenario(doc)
            else:
                default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
                assert getattr(_at(load_scenario(doc), path), f.name) == default, (where, f.name)


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
@pytest.mark.parametrize("value", [float("nan"), "1"])
def test_a_packaged_number_set_to_nan_or_text_names_its_key(name, value):
    # Every number, and each entry of every vector, of every object.
    base, objects = _packaged(name)
    seen = 0
    for path, where, _ in objects:
        for key, old in _at(base, path).items():
            entries = range(len(old)) if isinstance(old, list) else [None]
            for i in entries:
                number = old if i is None else old[i]
                if isinstance(number, bool) or not isinstance(number, (int, float)):
                    continue
                doc = json.loads(json.dumps(base))
                if i is None:
                    _at(doc, path)[key] = value
                else:
                    _at(doc, path)[key][i] = value
                field_name = f"{where} {key}".lstrip()
                with pytest.raises(ScenarioError, match=f"^{re.escape(field_name)} must be "):
                    load_scenario(doc)
                seen += 1
    assert seen > 50


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_an_unknown_key_in_any_packaged_object_is_named(name):
    base, objects = _packaged(name)
    for path, where, _ in objects:
        doc = json.loads(json.dumps(base))
        _at(doc, path)["colour"] = "red"
        message = f"{where or 'scenario'}: unknown key 'colour'"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(doc)


def test_a_scale_bias_error_names_its_sensor():
    doc = _tiny_scenario()
    doc["sensors"][1]["bias"]["eps_theta"] = -1.0
    message = "sensor 1 bias: scale biases must keep 1 + eps positive"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        load_scenario(doc)


@pytest.mark.parametrize("key", ["dt", "process_noise_q", "fusion_q", "frames", "rng_seed"])
def test_validate_rejects_a_nan_in_a_sign_test(key):
    # A scenario built in Python skips the loader's finiteness check, so
    # each sign test is written to fail on NaN.
    with pytest.raises(ScenarioError):
        dataclasses.replace(load_scenario("two_sensor"), **{key: float("nan")})


def test_readme_lists_every_scenario_key():
    from sensorreg.harness.scenario import FIELDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| [^|]*\(`(\w+)`\) \| `(\w+)` \| [^|]+ \| ([^|]+) \|$", readme, re.M)
    assert sorted((spec, key) for spec, key, _ in rows) == sorted(
        (spec.__name__, key) for spec, readers in FIELDS.items() for key in readers
    )
    for spec, readers in FIELDS.items():
        for f in dataclasses.fields(spec):
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            cell = next(c for s, k, c in rows if (s, k) == (spec.__name__, f.name))
            assert (cell == "required") == required, (spec.__name__, f.name)


def test_scenario_file_not_found():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/path.json")


def test_update_epochs_respect_lags():
    sc = load_scenario(_tiny_scenario())
    assert sc.update_epochs() == [2, 4, 6]
    mixed = _tiny_scenario()
    mixed["sensors"][0]["lag"] = 3
    sc2 = load_scenario(mixed)
    # Two sensors with lag 2 report at 2, 4, 6; the lag-3 sensor joins at 6.
    assert sc2.update_epochs() == [2, 4, 6]
    schedule = sc2.reporting_schedule()
    assert schedule.shape == (7, 3)
    assert schedule[6].tolist() == [True, True, True]
    assert schedule[4].tolist() == [False, True, True]
    assert schedule[0].all()


@given(
    lags=st.lists(st.integers(1, 13), min_size=1, max_size=6),
    frames=st.integers(0, 200),
)
@settings(max_examples=80, deadline=None)
def test_reporting_schedule_matches_per_frame_loops(lags, frames):
    # The schedule set after loading, so that one sensor and fewer than two
    # frames are covered too; the loops are the rule the mask replaced.
    sc = load_scenario(_tiny_scenario())
    sc.sensors = [dataclasses.replace(sc.sensors[0], lag=lag) for lag in lags]
    sc.frames = frames
    schedule = sc.reporting_schedule()
    assert schedule.shape == (frames + 1, len(lags))
    assert schedule[0].all()
    for k in range(1, frames + 1):
        assert np.flatnonzero(schedule[k]).tolist() == [
            i for i, lag in enumerate(lags) if k % lag == 0
        ]
    epochs = [k for k in range(1, frames + 1) if sum(k % lag == 0 for lag in lags) >= 2]
    got = sc.update_epochs()
    assert got == epochs
    assert all(type(k) is int for k in got)


def test_simulate_truth_deterministic():
    sc = load_scenario(_tiny_scenario())
    a = simulate_truth(sc, 0)
    b = simulate_truth(sc, 0)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.polar_meas, b.polar_meas)
    c = simulate_truth(sc, 1)
    assert not np.array_equal(a.polar_meas, c.polar_meas)


def test_simulate_truth_zero_noise_is_linear():
    doc = _tiny_scenario(process_noise_q=0.0)
    doc["targets"] = [doc["targets"][0]]
    sc = load_scenario(doc)
    for s in sc.sensors:
        s.sigma_r = 1e-12
        s.sigma_theta = 1e-12
    truth = simulate_truth(sc, 0)
    x = truth.states[0]
    vel = np.diff(x[:, 0])
    np.testing.assert_allclose(vel, vel[0] * np.ones_like(vel), rtol=1e-9)


def test_simulate_truth_noise_variance():
    doc = _tiny_scenario(frames=2, mc_runs=1)
    doc["targets"] = [doc["targets"][0]]
    sc = load_scenario(doc)
    rs = []
    ths = []
    truths = []
    for run in range(400):
        t = simulate_truth(sc, run)
        truths.append(t.polar_true[0, 0])
        rs.append(t.polar_meas[0, 0, :, 0])
        ths.append(t.polar_meas[0, 0, :, 1])
    rs = np.array(rs)
    ths = np.array(ths)
    tr = np.array(truths)
    r_noise = rs - (tr[:, :, 0] + 20.0)
    t_noise = ths - (tr[:, :, 1] + 1e-3)
    assert np.var(r_noise) == pytest.approx(100.0, rel=0.15)
    assert np.var(t_noise) == pytest.approx(1e-6, rel=0.15)


def test_simulate_truth_names_nonpositive_range():
    # A range offset just past the smallest measured range of sensor 2 drives
    # exactly that measurement (target 1, frame 6) non-positive; the error
    # names its run, sensor, target and frame.
    sc = load_scenario(_tiny_scenario())
    r = simulate_truth(sc, 2, zero_bias=True).polar_meas[2, :, :, 0]
    assert np.unravel_index(np.argmin(r), r.shape) == (1, 6)
    sc.sensors[2].bias = BiasVector(b_r=-(r.min() + 1e-3))
    with pytest.raises(NumericalError, match="run 2: sensor 2, target 1, frame 6: .*non-positive"):
        simulate_truth(sc, 2)


def test_simulate_truth_unbiased_flag():
    sc = load_scenario(_tiny_scenario())
    biased = simulate_truth(sc, 0)
    clean = simulate_truth(sc, 0, zero_bias=True)
    np.testing.assert_array_equal(biased.states, clean.states)
    diff = biased.polar_meas[..., 0] - clean.polar_meas[..., 0]
    np.testing.assert_allclose(diff, 20.0, atol=1e-6)


def test_nominal_geometry_matches_zero_noise_truth():
    doc = _tiny_scenario(process_noise_q=0.0)
    sc = load_scenario(doc)
    truth = simulate_truth(sc, 0)
    np.testing.assert_array_equal(nominal_geometry(sc), truth.states)


# Reference truth layer: one motion model per segment of each target,
# listed per (target, frame), and one noise stream built per (purpose, run[,
# sensor], target) key, each sensor measured in its own pass.


def _reference_stream(seed, *key):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _reference_segment_sequence(sc, target_idx):
    out = []
    for seg in sc.targets[target_idx].segments:
        if seg.model == "ncv":
            m = ncv_model(sc.dt, sc.process_noise_q)
        else:
            m = turn_model(sc.dt, seg.omega, sc.process_noise_q)
        out.extend([m] * seg.frames)
    if len(out) < sc.frames:
        out.extend([out[-1]] * (sc.frames - len(out)))
    return out[: sc.frames]


def _reference_states(sc, noise):
    models = [_reference_segment_sequence(sc, t) for t in range(len(sc.targets))]
    distinct = {id(m): m for seq in models for m in seq}
    chols = {
        key: np.linalg.cholesky(m.Q) if np.any(m.Q) else np.zeros_like(m.Q)
        for key, m in distinct.items()
    }
    F = np.array([[m.F for m in seq] for seq in models])
    w = mv(np.array([[chols[id(m)] for m in seq] for seq in models]), noise)
    states = np.empty((len(models), sc.frames + 1, 4))
    x = states[:, 0] = np.array([target.initial_state for target in sc.targets])
    for k in range(sc.frames):
        x = states[:, k + 1] = mv(F[:, k], x) + w[:, k]
    return states


def _reference_truth(sc, run_index, zero_bias):
    K, n_t, n_s = sc.frames, len(sc.targets), len(sc.sensors)
    noise = np.stack(
        [
            _reference_stream(sc.rng_seed, 0, run_index, t).standard_normal((K, 4))
            for t in range(n_t)
        ]
    )
    states = _reference_states(sc, noise)
    polar_true = np.empty((n_s, n_t, K + 1, 2))
    polar_meas = np.empty_like(polar_true)
    cart_z = np.empty((n_s, n_t, K + 1, 2))
    cart_R = np.empty((n_s, n_t, K + 1, 2, 2))
    for s, sensor in enumerate(sc.sensors):
        r, theta = cart_to_polar(states[..., ::2], sensor.position)
        polar_true[s, ..., 0], polar_true[s, ..., 1] = r, theta
        bias = BiasVector() if zero_bias else sensor.bias
        wn = np.stack(
            [
                _reference_stream(sc.rng_seed, 1, run_index, s, t).standard_normal((K + 1, 2))
                for t in range(n_t)
            ]
        )
        r_m, t_m = apply_bias(
            r, theta, bias, sensor.sigma_r * wn[..., 0], sensor.sigma_theta * wn[..., 1]
        )
        t_m = wrap_angle(t_m)
        polar_meas[s, ..., 0], polar_meas[s, ..., 1] = r_m, t_m
        cart_z[s] = polar_to_cart(r_m, t_m, sensor.sigma_theta, sensor.position)
        cart_R[s] = converted_covariance(r_m, t_m, sensor.sigma_r, sensor.sigma_theta)
    return states, polar_true, polar_meas, cart_z, cart_R


def _assert_truth_matches_reference(sc, runs):
    for run in runs:
        for zero_bias in (False, True):
            truth = simulate_truth(sc, run, zero_bias=zero_bias)
            got = (truth.states, truth.polar_true, truth.polar_meas, truth.cart_z, truth.cart_R)
            for a, b in zip(got, _reference_truth(sc, run, zero_bias)):
                assert np.array_equal(a, b)
    zeros = np.zeros((len(sc.targets), sc.frames, 4))
    assert np.array_equal(nominal_geometry(sc), _reference_states(sc, zeros))


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_truth_matches_per_stream_reference(name):
    # Motion tables, spawned streams and the one batched sensor pass give the
    # reference's bits.
    _assert_truth_matches_reference(load_scenario(name), runs=(0, 7))


def test_truth_matches_per_stream_reference_at_a_multi_word_seed():
    # 2**32 + 5 is two words of entropy, padded to the pool's four words
    # before the spawn key as a one-word seed is.
    sc = dataclasses.replace(load_scenario("two_sensor"), rng_seed=2**32 + 5)
    _assert_truth_matches_reference(sc, runs=(0, 7))


# Seeds on both sides of the 32-bit word boundaries, past the four-word pool.
_entropy = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 2**128, 2**130 + 7]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**200),
)


@given(
    parents=st.lists(
        st.tuples(_entropy, st.lists(st.integers(0, 2**40), min_size=1, max_size=4)),
        min_size=1,
        max_size=3,
    ),
    n=st.integers(1, 100),
)
@settings(max_examples=60, deadline=None)
def test_child_keys_match_numpy_spawn(parents, n):
    from sensorreg.harness.simulate import _child_keys

    seqs = [np.random.SeedSequence(seed, spawn_key=tuple(key)) for seed, key in parents]
    keys = _child_keys(seqs, n)
    expected = [[c.generate_state(2, np.uint64) for c in ss.spawn(n)] for ss in seqs]
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(expected))


def test_truth_builds_one_philox_and_spawns_nothing(monkeypatch):
    # One bit generator per call, re-keyed per stream; no SeedSequence is
    # spawned.
    import sensorreg.harness.simulate as sim

    counts = _count_calls(monkeypatch, (np.random,), ("Philox",))

    class SeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            counts["spawn"] = counts.get("spawn", 0) + 1
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", SeedSequence)
    for name in ("two_sensor", "five_sensor_offset_scale"):
        sc = load_scenario(name)
        counts.clear()
        sim.simulate_truth(sc, 3)
        assert counts == {"Philox": 1}


_segments = st.lists(
    st.builds(
        lambda model, frames, omega: {"model": model, "frames": frames, "omega": omega},
        st.sampled_from(["ncv", "turn"]),
        st.integers(1, 7),
        # |omega T| < 1e-12 takes the constant-velocity branch of a turn.
        st.sampled_from([0.0, 1e-13, -4e-13, 0.01, -0.03]),
    ),
    min_size=1,
    max_size=4,
)


@given(
    segments=st.lists(_segments, min_size=1, max_size=3),
    frames=st.integers(2, 9),
    q=st.sampled_from([0.0, 0.1]),
    eps=st.sampled_from([0.0, 1e-3]),
)
@settings(max_examples=40, deadline=None)
def test_truth_matches_reference_on_segment_schedules(segments, frames, q, eps):
    # Segment lists shorter and longer than the run, noise-free motion and
    # near-zero turn rates.
    doc = _tiny_scenario(frames=frames, process_noise_q=q)
    starts = [t["initial_state"] for t in doc["targets"]]
    doc["targets"] = [
        {"initial_state": starts[i % len(starts)], "segments": segs}
        for i, segs in enumerate(segments)
    ]
    for sensor in doc["sensors"]:
        sensor["bias"].update(eps_r=eps, eps_theta=eps)
    _assert_truth_matches_reference(load_scenario(doc), runs=(3,))


def test_truth_builds_one_motion_model_per_segment_kind(monkeypatch):
    # five_sensor_offset_scale has 32 segments over 16 targets but three
    # kinds: constant velocity and a turn each way.
    import sensorreg.harness.simulate as sim

    counts = _count_calls(monkeypatch, (sim,), ("ncv_model", "turn_model"))
    sc = load_scenario("five_sensor_offset_scale")
    for build in (lambda: sim.simulate_truth(sc, 0), lambda: sim.nominal_geometry(sc)):
        counts.clear()
        build()
        assert counts == {"ncv_model": 1, "turn_model": 2}


def test_local_tracks_follow_targets():
    sc = load_scenario(_tiny_scenario())
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    err0 = np.hypot(
        tracks.mean[0, 0, 0, 0] - truth.states[0, 0, 0],
        tracks.mean[0, 0, 0, 2] - truth.states[0, 0, 2],
    )
    errK = np.hypot(
        tracks.mean[0, 0, -1, 0] - truth.states[0, -1, 0],
        tracks.mean[0, 0, -1, 2] - truth.states[0, -1, 2],
    )
    # Tracking errors stay bounded near the bias magnitude plus noise.
    assert errK < 200.0
    assert np.all(np.isfinite(tracks.cov))


def _former_moments(weights, est):
    """The moment pass as the IMM ran it before the closed form: each
    mixture's spread about its own mean, then one symmetrization."""
    from sensorreg._linalg import mt, symmetrize

    x = weights @ est.mean
    n = est.dim
    spread = est.mean[..., None, :, :] - x[..., :, None, :]
    P = (weights @ est.cov.reshape(est.cov.shape[:-2] + (n * n,))).reshape(x.shape + (n,))
    P += mt(weights[..., None] * spread) @ spread
    return x, symmetrize(P)


def _former_local_tracks(sc, truth):
    """The local tracks as the lockstep loop formed them before: (sensor,
    target, frame) buffers written one frame at a time, and each frame's
    measurements validated as one ``CartesianMeasurement``."""
    import sensorreg.harness.simulate as sim
    from sensorreg.coords import CartesianMeasurement
    from sensorreg.trackers import (
        GaussianEstimate,
        ImmState,
        imm_step,
        init_track,
        kf_predict,
        kf_update,
    )

    K, n_s, n_t = sc.frames, len(sc.sensors), len(sc.targets)
    mean = np.empty((n_s, n_t, K + 1, 4))
    cov = np.empty((n_s, n_t, K + 1, 4, 4))
    is_kf = sc.local_filter.type == "kf"
    models = sim._local_model(sc)
    est = init_track(CartesianMeasurement(z=truth.cart_z[:, :, 0], R=truth.cart_R[:, :, 0]))
    mean[:, :, 0], cov[:, :, 0] = est.mean, est.cov
    if not is_kf:
        state = ImmState.from_track(est, models, sim.IMM_INITIAL_PROBS, sim.IMM_TRANSITION)
    for k in range(1, K + 1):
        meas = CartesianMeasurement(z=truth.cart_z[:, :, k], R=truth.cart_R[:, :, k])
        if is_kf:
            est, _ = kf_update(kf_predict(est, models), meas)
        else:
            state, est = imm_step(state, meas)
        mean[:, :, k], cov[:, :, k] = est.mean, est.cov
    return GaussianEstimate(mean, cov, np.arange(K + 1))


# Largest difference between the IMM local tracks and those of the former
# loop with the former moment pass, relative to each array's largest
# magnitude (measured up to 1.1e-14, in the A08 covariances over runs 0-3).
IMM_TRACKS_RTOL = 1e-13


def _imm_scenario(filter_type):
    sc = load_scenario("five_sensor_offset")
    sc.local_filter.type = filter_type
    sc.local_filter.q1, sc.local_filter.q2 = 10.0, 2.0
    sc.fusion_q = 200.0
    return sc


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_scenario("five_sensor_offset_scale"),
        lambda: load_scenario("two_sensor"),
        lambda: _imm_scenario("imm_nca_ncv"),
        lambda: _imm_scenario("imm_ncv_ncv"),
    ],
    ids=["five_sensor_offset_scale", "two_sensor", "a08_imm", "imm_ncv_ncv"],
)
def test_frame_major_local_tracks_equal_the_former_loop(monkeypatch, make):
    # The frame-major buffers change no KF track or exl/ex output; the
    # IMM tracks, also formed with the closed-form moment pass, stay within
    # IMM_TRACKS_RTOL of the former loop run with the former pass.
    import sensorreg.harness.simulate as sim
    import sensorreg.trackers as trackers

    sc = make()
    for index in range(2):
        truth = simulate_truth(sc, index)
        got = run_local_tracks(sc, truth)
        with monkeypatch.context() as mp:
            mp.setattr(trackers, "_moments", _former_moments)
            want = _former_local_tracks(sc, truth)
        assert got.mean.shape == want.mean.shape and got.cov.shape == want.cov.shape
        if sc.local_filter.type == "kf":
            for name in ("mean", "cov"):
                assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
        else:
            for g, w in ((got.mean, want.mean), (got.cov, want.cov)):
                np.testing.assert_allclose(g, w, rtol=0, atol=IMM_TRACKS_RTOL * np.abs(w).max())
        if len(sc.sensors) == 2:
            for reconstructed in (True, False):
                outs = (sim._run_stacked(sc, truth, t, reconstructed) for t in (got, want))
                for g, w in zip(*outs):
                    assert (g is None) == (w is None)
                    assert g is None or np.array_equal(g, w)


def test_nees_series_zero_errors():
    errors = np.zeros((4, 3, 2))
    covs = np.broadcast_to(np.eye(2), (4, 3, 2, 2)).copy()
    nees = nees_series(errors, covs)
    assert nees.shape == (3,)
    np.testing.assert_allclose(nees, 0.0)


def test_nees_series_chi_square_bounds():
    # The bands of a 2-D NEES averaged over 100 runs.
    nees = nees_series(np.zeros((100, 1, 2)), np.broadcast_to(np.eye(2), (100, 1, 2, 2)).copy())
    lo, hi = chi2_band(2, 100)
    assert lo == pytest.approx(chi2.ppf(0.025, 200) / 100)
    assert hi == pytest.approx(chi2.ppf(0.975, 200) / 100)
    assert lo == pytest.approx(1.63, abs=0.01)
    assert hi == pytest.approx(2.41, abs=0.01)
    assert chi2_upper(2, 100) == pytest.approx(chi2.ppf(0.95, 200) / 100)
    assert np.all(nees < lo)


def test_nees_series_consistent_estimator_in_band():
    rng = np.random.default_rng(123)
    runs, frames, d = 200, 10, 2
    covs = np.empty((runs, frames, d, d))
    errors = np.empty((runs, frames, d))
    for i in range(runs):
        for k in range(frames):
            A = rng.standard_normal((d, d))
            C = A @ A.T + np.eye(d)
            covs[i, k] = C
            errors[i, k] = np.linalg.cholesky(C) @ rng.standard_normal(d)
    nees = nees_series(errors, covs)
    lo, hi = chi2_band(d, runs)
    inside = np.sum((nees >= lo) & (nees <= hi))
    assert inside >= 8


def test_nees_series_groups_match_element_loop():
    # One batched solve over (run, frame, group) against a loop of
    # batch-free solves; the dot products may round in another order.
    rng = np.random.default_rng(8)
    runs, frames, groups, d = 6, 4, 3, 4
    A = rng.standard_normal((runs, frames, groups, d, d))
    covs = A @ A.swapaxes(-1, -2) + np.eye(d)
    errors = rng.standard_normal((runs, frames, groups, d))
    nees = nees_series(errors, covs)
    assert nees.shape == (frames, groups)
    ref = np.empty((runs, frames, groups))
    for idx in np.ndindex(ref.shape):
        ref[idx] = errors[idx] @ np.linalg.solve(covs[idx], errors[idx])
    np.testing.assert_allclose(nees, ref.mean(axis=0), rtol=1e-12)


def test_nees_series_names_run_and_frame_of_singular_covariance():
    covs = np.broadcast_to(np.eye(2), (4, 3, 2, 2)).copy()
    covs[2, 1] = 0.0
    covs[3, 0] = 0.0
    with pytest.raises(
        SingularMatrixError, match=r"^NEES at run 2, frame 1: covariance is not positive definite$"
    ) as info:
        nees_series(np.ones((4, 3, 2)), covs)
    # The mask marks every failing (run, frame).
    np.testing.assert_array_equal(np.argwhere(info.value.failed), [[2, 1], [3, 0]])
    grouped = np.broadcast_to(np.eye(2), (4, 3, 5, 2, 2)).copy()
    grouped[1, 2, 3] = 0.0
    with pytest.raises(NumericalError, match=r"^NEES at run 1, frame 2, group 3: ") as info:
        nees_series(np.ones((4, 3, 5, 2)), grouped)
    assert info.value.index == (1, 2, 3)


def test_nees_series_names_nan_and_indefinite_covariances():
    # Either one used to pass silently: a NaN NEES, or a wrong finite one.
    covs = np.broadcast_to(np.eye(2), (3, 4, 2, 2)).copy()
    covs[2, 1] = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError, match="^NEES at run 2, frame 1: "):
        nees_series(np.ones((3, 4, 2)), covs)
    covs[1, 2] = np.nan
    with pytest.raises(NumericalError, match="^NEES at run 1, frame 2: "):
        nees_series(np.ones((3, 4, 2)), covs)


def test_run_monte_carlo_metrics_shape_and_finiteness():
    sc = load_scenario(_tiny_scenario())
    m = run_monte_carlo(sc, "fbe")
    K = sc.frames
    assert m.bias_rmse.shape == (K + 1, 3, 2)
    assert np.all(np.isfinite(m.bias_rmse))
    assert np.all(np.isfinite(m.bias_nees))
    assert m.track_rmse_local.shape == (K + 1,)
    assert np.all(np.isfinite(m.track_rmse_fused[1:]))
    assert m.update_epochs == [2, 4, 6]


def test_run_monte_carlo_baseline_has_no_bias_metrics():
    sc = load_scenario(_tiny_scenario())
    m = run_monte_carlo(sc, "baseline")
    assert m.bias_rmse is None
    assert m.track_rmse_fused is not None


@pytest.mark.parametrize("method", ["fbe", "baseline"])
def test_epochs_never_read_a_silent_sensors_track(method):
    # Each epoch runs on the whole (sensor, target) grid, the silent
    # sensors' rows included: NaN in their tracks at every frame they do
    # not report leaves the run's series bit for bit.
    from sensorreg.harness import simulate as sim

    doc = _tiny_scenario()
    for sensor, lag in zip(doc["sensors"], (1, 2, 3)):
        sensor["lag"] = lag
    sc = load_scenario(doc)
    truth = simulate_truth(sc, 0, zero_bias=(method == "baseline"))
    run = sim._run_fbe if method == "fbe" else sim._run_baseline
    tracks = run_local_tracks(sc, truth)
    clean = run(sc, truth, tracks)
    silent = ~sc.reporting_schedule()
    assert silent[sc.update_epochs()].any()
    k, s = np.nonzero(silent)
    tracks.mean[s, :, k], tracks.cov[s, :, k] = np.nan, np.nan
    for got, want in zip(run(sc, truth, tracks), clean):
        np.testing.assert_array_equal(got, want)


def test_parallel_matches_serial():
    sc = load_scenario(_tiny_scenario())
    a = run_monte_carlo(sc, "fbe", workers=1)
    b = run_monte_carlo(sc, "fbe", workers=2)
    np.testing.assert_array_equal(a.bias_rmse, b.bias_rmse)
    np.testing.assert_array_equal(a.track_rmse_fused, b.track_rmse_fused)


def test_emit_report_files_and_determinism(tmp_path):
    sc = load_scenario(_tiny_scenario())
    m = run_monte_carlo(sc, "fbe")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    emit_report(m, out1)
    m2 = run_monte_carlo(sc, "fbe")
    emit_report(m2, out2)
    for name in ["bias_rmse.csv", "bias_sqrt_sigma.csv", "bias_nees.csv", "track_rmse.csv", "run_meta.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "bias_rmse.csv").read_text().splitlines()[0]
    assert header == "frame,sensor,metric,value,ci_low,ci_high"


def test_emit_report_empty_metrics_header_only(tmp_path):
    m = RunMetrics(scenario_name="empty", method="baseline", mc_runs=1, frames=0, update_epochs=[])
    assert m.group_dim == 0
    written = emit_report(m, tmp_path)
    rmse = (tmp_path / "bias_rmse.csv").read_text()
    assert rmse.strip() == "frame,sensor,metric,value,ci_low,ci_high"


def test_emit_crlb_and_summary_tables(tmp_path):
    sc = load_scenario(_tiny_scenario())
    m = run_monte_carlo(sc, "fbe")
    emit_report(m, tmp_path)
    emit_crlb(crlb_series(sc), sc, tmp_path)
    text = summary_tables(tmp_path, tmp_path / "tables.txt")
    assert "bias component b_r" in text
    assert "sqrt_crlb" in text
    assert (tmp_path / "tables.txt").exists()
    # 17-significant-digit floats round-trip.
    row = (tmp_path / "bias_rmse.csv").read_text().splitlines()[1].split(",")
    assert float(row[3]) == float(f"{float(row[3]):.17g}")


def _reference_csv(path, rows):
    """Write ``rows`` as the report did one cell at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "sensor", "metric", "value", "ci_low", "ci_high"])
        for frame, sensor, metric, *floats in rows:
            writer.writerow([frame, sensor, metric, *(f"{float(x):.17g}" for x in floats)])


def _reference_report(m, out):
    """The per-cell row builder that ``emit_report`` replaced: one scalar
    chi-square band per cell and sorted track rows.  The bands take the
    package's own quantile, whose accuracy is tested on its own."""
    alpha = 0.05

    def band(val):
        quantile = metrics_module._chi2_quantile
        lo = val * np.sqrt(quantile(alpha / 2.0, m.mc_runs) / m.mc_runs)
        hi = val * np.sqrt(quantile(1.0 - alpha / 2.0, m.mc_runs) / m.mc_runs)
        return float(lo), float(hi)

    rmse_rows, sigma_rows, nees_rows, track_rows = [], [], [], []
    if m.bias_rmse is not None:
        per_dim = m.group_dim // len(m.group_sensors[0])
        for k in range(m.frames + 1):
            for g, sensors in enumerate(m.group_sensors):
                for c in range(m.group_dim):
                    if len(sensors) == 1:
                        sensor, name = sensors[0] + 1, COMPONENT_NAMES[c]
                    else:
                        sensor, name = sensors[c // per_dim] + 1, COMPONENT_NAMES[c % per_dim]
                    val = m.bias_rmse[k, g, c]
                    rmse_rows.append((k, sensor, f"bias_rmse_{name}", val, *band(val)))
                    sigma_rows.append(
                        (k, sensor, f"bias_sqrt_sigma_{name}", m.bias_sqrt_sigma[k, g, c],
                         np.nan, np.nan)
                    )
                gsensor = sensors[0] + 1 if len(sensors) == 1 else 0
                nees_rows.append(
                    (k, gsensor, "bias_nees", m.bias_nees[k, g], m.nees_lower, m.nees_upper)
                )
                nees_rows.append(
                    (k, gsensor, "bias_nees_upper95_one_sided", m.nees_upper_one_sided,
                     np.nan, np.nan)
                )
    for sensor, name, series in [
        (1, "track_rmse_local", m.track_rmse_local),
        (0, "track_rmse_fused", m.track_rmse_fused),
    ]:
        if series is not None:
            track_rows += [
                (k, sensor, name, series[k], *band(series[k])) for k in range(m.frames + 1)
            ]
    track_rows.sort(key=lambda r: r[:3])
    for fname, rows in [
        ("bias_rmse.csv", rmse_rows),
        ("bias_sqrt_sigma.csv", sigma_rows),
        ("bias_nees.csv", nees_rows),
        ("track_rmse.csv", track_rows),
    ]:
        _reference_csv(out / fname, rows)


def _two_sensor_doc(**overrides):
    doc = _tiny_scenario(**overrides)
    doc["sensors"] = doc["sensors"][:2]
    for s in doc["sensors"]:
        s["lag"] = 1
    return doc


def _scale_doc():
    doc = _tiny_scenario(estimate_scale_bias=True)
    for s in doc["sensors"]:
        s["bias"].update(eps_r=1e-3, eps_theta=1e-3)
    return doc


REPORT_LAYOUTS = {
    "fbe_offset": lambda: run_monte_carlo(load_scenario(_tiny_scenario()), "fbe"),
    "fbe_offset_scale": lambda: run_monte_carlo(load_scenario(_scale_doc()), "fbe"),
    "stacked_exl": lambda: run_monte_carlo(load_scenario(_two_sensor_doc()), "exl"),
    "baseline": lambda: run_monte_carlo(load_scenario(_tiny_scenario()), "baseline"),
    "empty": lambda: RunMetrics(
        scenario_name="empty", method="baseline", mc_runs=1, frames=0, update_epochs=[]
    ),
}


@pytest.mark.parametrize("layout", sorted(REPORT_LAYOUTS))
def test_emit_report_matches_per_cell_reference(layout, tmp_path):
    m = REPORT_LAYOUTS[layout]()
    (tmp_path / "ref").mkdir()
    _reference_report(m, tmp_path / "ref")
    for path in emit_report(m, tmp_path / "got"):
        if path.suffix == ".csv":
            assert path.read_bytes() == (tmp_path / "ref" / path.name).read_bytes(), path.name


@pytest.mark.parametrize("doc", [_tiny_scenario, _scale_doc, _two_sensor_doc])
def test_emit_crlb_matches_per_cell_reference(doc, tmp_path):
    sc = load_scenario(doc())
    series = crlb_series(sc)
    d = sc.bias_dim
    rows = []
    for ei, k in enumerate(series.epochs):
        for s in range(series.per_sensor.shape[1]):
            for c in range(d):
                rows.append(
                    (k, s + 1, f"sqrt_crlb_{COMPONENT_NAMES[c]}", series.per_sensor[ei, s, c],
                     np.nan, np.nan)
                )
        if series.stacked is not None:
            for c in range(series.stacked.shape[1]):
                rows.append(
                    (k, c // d + 1, f"sqrt_crlb_stacked_{COMPONENT_NAMES[c % d]}",
                     series.stacked[ei, c], np.nan, np.nan)
                )
    _reference_csv(tmp_path / "ref.csv", rows)
    assert emit_crlb(series, sc, tmp_path).read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_chi2_quantile_within_1e_12_of_scipy_stats():
    grid = np.arange(1, 1001)[:, None] * np.array([1, 2, 4, 8])
    df = np.concatenate([grid.ravel(), [10**4, 10**5, 10**6]])
    for q in (0.025, 0.05, 0.95, 0.975):
        got = [metrics_module._chi2_quantile(q, int(n)) for n in df]
        np.testing.assert_allclose(got, chi2.ppf(q, df), rtol=1e-12, atol=0)


@pytest.mark.parametrize("df", [1, 2, 3, 17, 800, 10**6])
def test_chi2_quantile_is_monotone_in_q(df):
    q = [1e-9, 1e-4, 0.025, 0.05, 0.3, 0.5, 0.7, 0.95, 0.975, 1 - 1e-4, 1 - 1e-9]
    got = [metrics_module._chi2_quantile(p, df) for p in q]
    assert np.all(np.diff(got) > 0)


def test_emit_report_quantile_calls_do_not_grow_with_cells(tmp_path, monkeypatch):
    # 101 frames x 5 groups x 4 components once took two quantiles per cell.
    m = run_monte_carlo(load_scenario("five_sensor_offset_scale"), "fbe", mc_runs=1)
    calls = []
    quantile = metrics_module._chi2_quantile

    def counted(q, df):
        calls.append(df)
        return quantile(q, df)

    monkeypatch.setattr(metrics_module, "_chi2_quantile", counted)
    emit_report(m, tmp_path)
    # Two bounds for each of the two banded families, bias and track RMSE.
    assert len(calls) == 4


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_out_scipy_stats():
    code = (
        "import sys, sensorreg.cli; "
        "sys.exit(any(m in sys.modules for m in ('scipy', 'concurrent.futures')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), timeout=120)
    assert proc.returncode == 0


def test_simulate_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes every import of scipy fail.
    code = (
        "import sys; sys.modules['scipy'] = None; from sensorreg.cli import main; "
        f"sys.exit(main(['simulate', '--scenario', 'two_sensor', '--method', 'exl', "
        f"'--runs', '1', '--out', {str(tmp_path)!r}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), timeout=120, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "bias_nees.csv").exists()


def test_stacked_methods_require_two_sensors():
    sc = load_scenario(_tiny_scenario())
    with pytest.raises(ScenarioError):
        run_monte_carlo(sc, "ex")


def test_scale_bias_scenario_runs():
    doc = _tiny_scenario(estimate_scale_bias=True)
    for s in doc["sensors"]:
        s["bias"]["eps_r"] = 1e-3
        s["bias"]["eps_theta"] = 1e-3
    sc = load_scenario(doc)
    m = run_monte_carlo(sc, "fbe", mc_runs=2)
    assert m.bias_rmse.shape[2] == 4
    assert np.all(np.isfinite(m.bias_rmse))


@pytest.mark.parametrize(
    "path, where",
    [
        ((), "scenario"),
        (("sensors", 1), "sensor 1"),
        (("sensors", 0, "bias"), "sensor 0 bias"),
        (("targets", 1), "target 1"),
        (("targets", 1, "segments", 1), "target 1 segment 1"),
        (("local_filter",), "local_filter"),
    ],
)
def test_scenario_rejects_unknown_keys(path, where):
    doc = _tiny_scenario()
    node = doc
    for key in path:
        node = node[key]
    node["colour"] = "red"
    with pytest.raises(ScenarioError, match=f"{where}: unknown key 'colour'"):
        load_scenario(doc)


def _finite_run():
    from sensorreg.harness.simulate import SingleRun

    sc = load_scenario(_tiny_scenario())
    tracks = run_local_tracks(sc, simulate_truth(sc, 0))
    K1 = sc.frames + 1
    run = SingleRun(
        b_series=np.zeros((K1, 3, 2)),
        sigma_series=np.ones((K1, 3, 2, 2)),
        local_sqerr=np.ones(K1),
        fused_sqerr=np.ones(K1),
    )
    return sc, run, tracks


@pytest.mark.parametrize(
    "owner, field, index, message",
    [
        ("run", "b_series", (4, 2, 1), "bias estimate at frame 4, sensor 2"),
        ("run", "sigma_series", (2, 1, 0, 1), "bias covariance at frame 2, sensor 1"),
        ("run", "local_sqerr", (3,), "local track error at frame 3"),
        ("run", "fused_sqerr", (4,), "fused track error at frame 4"),
        ("tracks", "mean", (1, 0, 5, 2), "local track mean at sensor 1, target 0, frame 5"),
        ("tracks", "cov", (2, 1, 3, 0, 0), "local track covariance at sensor 2, target 1, frame 3"),
    ],
)
def test_check_finite_names_location(owner, field, index, message):
    from sensorreg.errors import NumericalError
    from sensorreg.harness.simulate import _check_finite

    _, run, tracks = _finite_run()
    _check_finite(run, tracks, 7)
    arr = getattr(run if owner == "run" else tracks, field)
    arr[index] = np.inf
    with pytest.raises(NumericalError, match=f"run 7: non-finite {message}: inf$") as info:
        _check_finite(run, tracks, 7)
    # The mask covers the named axes: one element per named index.
    named = len(info.value.index)
    assert info.value.failed.shape == arr.shape[:named]
    assert np.argwhere(info.value.failed).tolist() == [list(index[:named])]


def test_aggregate_runs_names_a_non_finite_fused_error():
    # The check reads the stacked records as the runs hand them on: the
    # mask is the NaN frame of runs 1 and 2 alone.
    from sensorreg.harness.metrics import aggregate_runs

    sc, run, _ = _finite_run()
    run = dataclasses.replace(run, b_series=None, sigma_series=None)
    bad = dataclasses.replace(run, fused_sqerr=run.fused_sqerr.copy())
    bad.fused_sqerr[3] = np.nan
    with pytest.raises(
        NumericalError, match=r"^non-finite fused track error at run 1, frame 3: nan$"
    ) as info:
        aggregate_runs(sc, "fbe", [run, bad, bad])
    want = np.zeros((3, sc.frames + 1), dtype=bool)
    want[1:, 3] = True
    np.testing.assert_array_equal(info.value.failed, want)


def _singular_truth(sc, s, t, k):
    """Truth whose measurement noise cancels the predicted position
    covariance of stream (s, t) at frame k, making its innovation
    covariance exactly zero."""
    from sensorreg.dynamics import ncv_model
    from sensorreg.trackers import kf_predict

    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    pred = kf_predict(tracks[s, t, k - 1], ncv_model(sc.dt, sc.local_filter.q))
    truth.cart_R[s, t, k] = -pred.cov[np.ix_([0, 2], [0, 2])]
    return truth


def test_singular_stream_is_named(tmp_path, capsys, monkeypatch):
    import sensorreg.harness.simulate as sim
    from sensorreg.cli import main
    from sensorreg.errors import SingularMatrixError

    doc = _tiny_scenario()
    sc = load_scenario(doc)
    truth = _singular_truth(sc, 1, 0, 3)
    with pytest.raises(SingularMatrixError, match="sensor 1, target 0, frame 3: ") as info:
        run_local_tracks(sc, truth)
    assert info.value.index == (1, 0)

    # run_single adds the run and keeps the error type and index.
    monkeypatch.setattr(sim, "simulate_truth", lambda *args, **kwargs: truth)
    with pytest.raises(SingularMatrixError, match="run 0: sensor 1, target 0, frame 3: ") as info:
        sim.run_single(sc, 0, "fbe")
    assert info.value.index == (1, 0)

    # The CLI exits 2 with the full location.
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--scenario", str(path), "--runs", "1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "run 0: sensor 1, target 0, frame 3: " in capsys.readouterr().err


def test_singular_imm_stream_is_named():
    # The IMM bank's mode axis stays out of the location: a negative definite
    # measurement covariance of stream (1, 0) at frame 3 names that stream.
    from sensorreg.errors import SingularMatrixError

    sc = load_scenario(_tiny_scenario(local_filter={"type": "imm_nca_ncv"}))
    truth = simulate_truth(sc, 0)
    truth.cart_R[1, 0, 3] = -1e9 * np.eye(2)
    with pytest.raises(SingularMatrixError, match="sensor 1, target 0, frame 3: ") as info:
        run_local_tracks(sc, truth)
    assert info.value.index == (1, 0)


def _count_calls(monkeypatch, modules, names) -> dict:
    """Count the calls made to each of ``names`` through ``modules``."""
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def test_fusion_center_runs_once_per_epoch(monkeypatch):
    # The fusion-center formulas take batch axes.  No bias estimate enters
    # the local stage, so an fbe run calls its formulas once over every
    # epoch's (sensor, target) pairs; the bias stage calls each of its own
    # once per epoch (combine_slots for the leave-one-out references, and
    # no sfa), bias_correct corrects every epoch's fused-pass tracklets in
    # one more call, and the all-sensor fusion combines every epoch's slots
    # in one call, then makes one fused update per epoch.  Each lag is
    # composed once per run.
    import sensorreg.dynamics as dynamics
    import sensorreg.fusion as fusion
    import sensorreg.harness.simulate as sim

    names = (
        "compute_tracklet",
        "reconstruct_local_gain",
        "bias_correct",
        "sfa",
        "combine_slots",
        "sensor_pseudo_obs",
        "rlsb_update",
    )
    counts = _count_calls(monkeypatch, (fusion, sim), names)
    fused_pass = _count_calls(monkeypatch, (sim,), ("combine_slots", "fused_update"))
    lags = []
    compose = dynamics.compose_steps
    monkeypatch.setattr(
        dynamics, "compose_steps", lambda model, steps: lags.append(steps) or compose(model, steps)
    )
    sc = load_scenario("five_sensor_offset_scale")
    sim.run_single(sc, 0, "fbe")
    epochs = len(sc.update_epochs())
    assert counts == {
        "compute_tracklet": 1,
        "reconstruct_local_gain": 1,
        "bias_correct": epochs + 1,
        "combine_slots": epochs + 1,
        "sensor_pseudo_obs": 1,
        "rlsb_update": epochs,
    }
    assert "sfa" not in counts
    assert fused_pass == {"combine_slots": 1, "fused_update": epochs}
    assert lags and sorted(lags) == sorted(set(lags))


@pytest.mark.parametrize("local_filter", ["imm_ncv_ncv", "imm_nca_ncv"])
def test_failing_pairs_cost_one_pass_per_reason(monkeypatch, local_filter):
    # Each IMM track covariance after frame 0 is replaced by twice its lag-1
    # prediction, so every pair lost information and its position-marginal
    # tracklet fails, except (imm_nca_ncv) sensor 1, target 4 at frame 6,
    # which keeps its own covariance.  fbe skips all failing pairs from one
    # pass: the local stage runs once per run and the bias stage once per
    # frame, the survivor's frame and the frames where no pair survives
    # included, with one skip record per pair in (sensor, target) order.
    import sensorreg.fusion as fusion
    import sensorreg.harness.simulate as sim

    stages = (
        "compute_tracklet",
        "reconstruct_local_gain",
        "bias_correct",
        "sensor_pseudo_obs",
        "rlsb_update",
    )
    counts = _count_calls(monkeypatch, (fusion, sim), stages)
    skipped = {}
    survivor = {"imm_ncv_ncv": [], "imm_nca_ncv": [(1, 4)]}[local_filter]
    sc = load_scenario("two_sensor")
    sc.local_filter.type = local_filter
    ms = ncv_model(sc.dt, sc.fusion_q)

    def lost(tracks):
        for k in range(1, sc.frames + 1):
            kept = [tracks.cov[s, t, k].copy() for s, t in survivor if k == 6]
            tracks.cov[:, :, k] = 2.0 * (ms.F @ tracks.cov[:, :, k - 1] @ ms.F.T + ms.Q)
            for (s, t), cov in zip(survivor, kept):
                tracks.cov[s, t, k] = cov

    monkeypatch.setattr(sim, "run_local_tracks", _edited_tracks(lost))
    _record_fbe_steps(monkeypatch, sc, lambda k, res: skipped.__setitem__(k, res.skipped))
    sim.run_single(sc, 0, "fbe")
    epochs = sc.update_epochs()
    assert sorted(skipped) == epochs
    reason = "position information difference not positive definite"
    pairs = [(s, t, reason) for s in range(len(sc.sensors)) for t in range(len(sc.targets))]
    for k in epochs:
        expected = [p for p in pairs if k != 6 or p[:2] not in survivor]
        assert skipped[k] == expected
    assert counts == {
        "compute_tracklet": 1,
        "reconstruct_local_gain": 1,
        "bias_correct": len(epochs) + 1,
        "sensor_pseudo_obs": 1,
        "rlsb_update": len(epochs),
    }
    assert sum(map(len, skipped.values())) == 480 - len(survivor)


def _record_fbe_steps(monkeypatch, sc, record):
    """Patch ``fbe_step`` to call ``record(k, res)`` on each result ``res``,
    with ``k`` its update epoch: one call per epoch of ``sc``, in order."""
    import sensorreg.harness.simulate as sim

    step, epochs = sim.fbe_step, iter(sc.update_epochs())

    def fbe_step(*args):
        res = step(*args)
        record(next(epochs), res)
        return res

    monkeypatch.setattr(sim, "fbe_step", fbe_step)


def _edited_tracks(edit):
    """``run_local_tracks`` whose tracks ``edit(tracks)`` changes in place."""

    def run(scenario, truth):
        tracks = run_local_tracks(scenario, truth)
        edit(tracks)
        return tracks

    return run


def test_nan_track_covariance_is_named(monkeypatch):
    # A NaN track covariance fails the tracklet's condition screen, so its
    # pair takes the position-marginal form, whose 2x2 test names it:
    # baseline stops there, and fbe skips the pair and names the NaN by
    # sensor and target once the run's outputs are checked.
    import sensorreg.harness.simulate as sim

    def nan(tracks):
        tracks.cov[1, 2, 10] = np.nan

    monkeypatch.setattr(sim, "run_local_tracks", _edited_tracks(nan))
    sc = load_scenario("five_sensor_offset")
    where = "run 0: sensor 1, target 2, frame 10"
    with pytest.raises(NumericalError, match=rf"^{where}: track position covariance"):
        sim.run_single(sc, 0, "baseline")
    with pytest.raises(NumericalError, match=r"sensor 1, target 2"):
        sim.run_single(sc, 0, "fbe")


def test_indefinite_inverse_form_tracklet_is_named(monkeypatch):
    # Sensor 2's covariance of target 1 at frame 100 is minus its lag-10
    # prediction: the covariance difference passes the inverse form's
    # screen, and the position block of that form is negative definite.
    # baseline names the pair and frame, and fbe skips the pair with that
    # reason.
    import sensorreg.harness.simulate as sim
    from sensorreg.dynamics import LagModels

    sc = load_scenario("five_sensor_offset")
    ms = LagModels(ncv_model(sc.dt, sc.fusion_q))(np.array(10))

    def negate(tracks):
        tracks.cov[2, 1, 100] = -(ms.F @ tracks.cov[2, 1, 90] @ ms.F.T + ms.Q)

    monkeypatch.setattr(sim, "run_local_tracks", _edited_tracks(negate))
    where = "run 0: sensor 2, target 1, frame 100"
    reason = "tracklet position covariance not positive definite"
    with pytest.raises(NumericalError, match=rf"^{where}: {reason}$"):
        sim.run_single(sc, 0, "baseline")
    skipped = {}
    _record_fbe_steps(monkeypatch, sc, lambda k, res: skipped.update({k: res.skipped}))
    sim.run_single(sc, 0, "fbe")
    assert {k: v for k, v in skipped.items() if v} == {100: [(2, 1, reason)]}


def test_fused_pass_bias_correction_names_the_pair(monkeypatch):
    # A range offset estimate of 1e9 m on sensor 2 after frame 20's step
    # makes the corrected ranges of the fused pass non-positive: the error
    # names the first failing pair by sensor, target and frame.
    import sensorreg.harness.simulate as sim

    def record(k, res):
        if k == 20:
            res.bias_states.b[2, 0] = 1e9

    sc = load_scenario("five_sensor_offset")
    _record_fbe_steps(monkeypatch, sc, record)
    reason = "run 0: sensor 2, target 0, frame 20: corrected range non-positive"
    with pytest.raises(NumericalError, match=rf"^{reason} \(-[\d.]+ m\)$"):
        sim.run_single(sc, 0, "fbe")


def test_baseline_names_the_earliest_failing_frame(monkeypatch):
    # Sensor 1's covariance of target 2 at frame 5 is twice its lag-1
    # prediction, so that pair fails the third check of its tracklet, and
    # sensor 0's covariance of target 3 at frame 8 is NaN, which fails the
    # first.  baseline names frame 5, as a loop over its epochs would, not
    # the first check over all of them.
    import sensorreg.harness.simulate as sim

    sc = load_scenario("two_sensor")
    model = ncv_model(sc.dt, sc.fusion_q)

    def edit(tracks):
        tracks.cov[1, 2, 5] = 2.0 * (model.F @ tracks.cov[1, 2, 4] @ model.F.T + model.Q)
        tracks.cov[0, 3, 8] = np.nan

    monkeypatch.setattr(sim, "run_local_tracks", _edited_tracks(edit))
    where = "run 0: sensor 1, target 2, frame 5"
    reason = "position information difference not positive definite"
    with pytest.raises(NumericalError, match=rf"^{where}: {reason}$") as info:
        sim.run_single(sc, 0, "baseline")
    assert np.argwhere(info.value.failed).tolist() == [[1, 2]]


def test_a_run_without_update_epochs_keeps_the_prior_and_the_frame_0_track():
    # With lags 7 and 11 the two sensors of two_sensor never report at the
    # same frame within its 20: fbe keeps the prior bias estimates, and
    # both methods' fused error is that of the frame-0 track at every frame.
    import sensorreg.harness.simulate as sim

    sc = load_scenario("two_sensor")
    sc.sensors = [dataclasses.replace(s, lag=lag) for s, lag in zip(sc.sensors, (7, 11))]
    assert sc.update_epochs() == []
    prior = sim._initial_bias_states(sc)
    for method in ("fbe", "baseline"):
        run = sim.run_single(sc, 0, method)
        truth = simulate_truth(sc, 0, zero_bias=(method == "baseline"))
        first = sim._position_sqerr(run_local_tracks(sc, truth).mean[0, :, 0], truth.states[:, 0])
        np.testing.assert_array_equal(run.fused_sqerr, np.full(sc.frames + 1, first))
        if method == "fbe":
            np.testing.assert_array_equal(run.b_series, np.broadcast_to(prior.b, run.b_series.shape))
            np.testing.assert_array_equal(
                run.sigma_series, np.broadcast_to(prior.Sigma, run.sigma_series.shape)
            )
        else:
            assert run.b_series is None and run.sigma_series is None


def _per_epoch_fusion(sc, truth, tracks, method):
    """``(b_series, sigma_series, fused_sqerr)`` of ``fbe`` or ``baseline``
    from one fusion-center pass per update epoch: the epoch's report pairs
    predicted and, for fbe, their local stage built and its bias step run,
    then its all-sensor fusion with the epoch's updated estimates."""
    import sensorreg.harness.simulate as sim
    from sensorreg.coords import CartesianMeasurement
    from sensorreg.dynamics import LagModels
    from sensorreg.errors import raise_first
    from sensorreg.fusion import bias_correct, fbe_step, local_stage, sfa
    from sensorreg.fusion import reconstruct_local_gain
    from sensorreg.trackers import kf_predict
    from sensorreg.tracklets import compute_tracklet

    n_s, n_t = len(sc.sensors), len(sc.targets)
    lag_models = LagModels(ncv_model(sc.dt, sc.fusion_q))
    sensors = sc.sensor_models()
    geo = sensors[:, None]
    schedule = sc.reporting_schedule()
    bias = sim._initial_bias_states(sc)
    b_series = np.empty((sc.frames + 1,) + bias.b.shape)
    sigma_series = np.empty((sc.frames + 1,) + bias.Sigma.shape)
    b_series[:], sigma_series[:] = bias.b, bias.Sigma
    track = tracks[0, :, 0]
    sqerr = np.empty(sc.frames + 1)
    sqerr[:] = sim._position_sqerr(track.mean, truth.states[:, 0])
    last = np.zeros(n_s, dtype=int)
    for k in sc.update_epochs():
        prev = tracks[np.arange(n_s)[:, None], np.arange(n_t), last[:, None]]
        curr = tracks[:, :, k]
        pred = kf_predict(prev, lag_models(np.broadcast_to(k - prev.frame, (n_s, n_t))))
        reported = np.broadcast_to(schedule[k][:, None], (n_s, n_t))
        if method == "fbe":
            local = local_stage(pred, curr, sensors)
            res = fbe_step(reported, local, bias, sensors)
            bias, present = res.bias_states, res.live
            b_series[k:], sigma_series[k:] = bias.b, bias.Sigma
            z, faults = bias_correct(
                local.tracklets, bias[:, None], (geo.sigma_r, geo.sigma_theta), origin=geo.position
            )
        else:
            t, faults = compute_tracklet(pred, curr)
            g, gain_faults = reconstruct_local_gain(t.U, pred.cov)
            z, faults, present = CartesianMeasurement(t.u, g.R), faults + gain_faults, reported
        raise_first((reason, failed & present) for reason, failed in faults)
        z = CartesianMeasurement(z.z.swapaxes(0, 1), z.R.swapaxes(0, 1))
        track = sfa(track, lag_models(k - track.frame), z, present.T)
        last[schedule[k]] = k
        # The error holds until the next epoch overwrites the later frames.
        sqerr[k:] = sim._position_sqerr(track.mean, truth.states[:, k])
    if method == "fbe":
        return b_series, sigma_series, sqerr
    return None, None, sqerr


def _a08_imm():
    sc = load_scenario("five_sensor_offset")
    sc.local_filter.type = "imm_nca_ncv"
    sc.local_filter.q1, sc.local_filter.q2 = 10.0, 2.0
    sc.fusion_q = 200.0
    return sc


def _mixed_lags():
    sc = load_scenario("five_sensor_offset")
    sc.sensors = [dataclasses.replace(s, lag=lag) for s, lag in zip(sc.sensors, (1, 10, 5, 10, 2))]
    return sc


def test_indexing_the_local_tracks_gives_the_buffers_at_their_frames(monkeypatch):
    # The local tracks are one estimate of batch (sensor, target, frame):
    # tracks[s, t, k] holds frame k and the buffers' entries at (s, t, k)
    # bit for bit, for an int index, the slices of the stacked estimators
    # and the index arrays of the epoch pairs.
    import sensorreg.harness.simulate as sim
    from sensorreg.dynamics import LagModels

    sc = _mixed_lags()
    tracks = run_local_tracks(sc, simulate_truth(sc, 0))
    n_s, n_t, K = len(sc.sensors), len(sc.targets), sc.frames
    assert tracks.mean.shape == (n_s, n_t, K + 1, 4)
    assert np.array_equal(tracks.frame, np.arange(K + 1))
    one = tracks[3, 1, 7]
    assert one.frame == 7
    assert np.array_equal(one.mean, tracks.mean[3, 1, 7])
    assert np.array_equal(one.cov, tracks.cov[3, 1, 7])
    assert np.array_equal(tracks[:, :, :-1].frame, np.broadcast_to(np.arange(K), (n_s, n_t, K)))
    assert np.array_equal(tracks[:, :, 1:].mean, tracks.mean[:, :, 1:])

    earlier = []
    predict = sim.kf_predict
    monkeypatch.setattr(sim, "kf_predict", lambda est, m: earlier.append(est) or predict(est, m))
    lag_models = LagModels(ncv_model(sc.dt, sc.fusion_q))
    epochs, reporting, sensor, _, _, curr = sim._epoch_pairs(sc, tracks, lag_models)
    (prev,) = earlier
    e, _ = np.nonzero(reporting)
    assert np.array_equal(curr.frame, np.broadcast_to(epochs[e, None], (len(e), n_t)))
    # Each earlier report is its sensor's last before the epoch.
    schedule = sc.reporting_schedule()
    assert np.all(prev.frame < curr.frame) and np.all(schedule[prev.frame, sensor[:, None]])
    for est in (prev, curr):
        index = sensor[:, None], np.arange(n_t), est.frame
        assert np.array_equal(est.mean, tracks.mean[index])
        assert np.array_equal(est.cov, tracks.cov[index])


@pytest.mark.parametrize("method", ["fbe", "baseline"])
def test_the_fused_error_holds_between_epochs(method):
    # five_sensor_offset fuses every 10th frame: each other frame carries
    # the error of the last epoch before it, and frames 1-9 frame 0's.
    import sensorreg.harness.simulate as sim

    sc = load_scenario("five_sensor_offset")
    epochs = sc.update_epochs()
    assert epochs[:2] == [10, 20]
    for index in range(2):
        sqerr = sim.run_single(sc, index, method).fused_sqerr
        held = sqerr[0]
        for k in range(sc.frames + 1):
            if k in epochs:
                assert sqerr[k] != held
                held = sqerr[k]
            assert sqerr[k] == held, k


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_scenario("five_sensor_offset"),
        lambda: load_scenario("five_sensor_offset_scale"),
        _a08_imm,
        _mixed_lags,
        lambda: load_scenario("two_sensor"),
    ],
    ids=["five_sensor_offset", "five_sensor_offset_scale", "a08_imm", "lags_1_10_5_10_2", "two"],
)
@pytest.mark.parametrize("method", ["fbe", "baseline"])
def test_run_level_fusion_center_equals_the_per_epoch_passes(make, method):
    # The run-level local stage and the deferred all-sensor fusion give
    # every output of one pass per epoch bit for bit.
    import sensorreg.harness.simulate as sim

    sc = make()
    run = sim._run_fbe if method == "fbe" else sim._run_baseline
    for index in range(2):
        truth = simulate_truth(sc, index, zero_bias=(method == "baseline"))
        tracks = run_local_tracks(sc, truth)
        for got, want in zip(run(sc, truth, tracks), _per_epoch_fusion(sc, truth, tracks, method)):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want, equal_nan=True)


def _former_fbe_step(reported, local, frame, bias_states, fused_prev, lag_models, sensors):
    """One epoch of fbe as it was when it kept leave-one-out fused tracks:
    each reference pair's track ``fused_prev`` (S, T) is predicted to
    ``frame`` and updated with the other sensors' corrected measurements,
    and the equivalent measurement of that update, NaN where the update
    was skipped, is the reference side of its pseudo-measurement.  Returns
    the updated bias estimates and tracks, the live pairs and the skip
    records."""
    from sensorreg._linalg import det_spd2, singular
    from sensorreg.bias import (
        BiasEstimate,
        PseudoMeasurement,
        difference_pseudo_measurement,
        pseudo_measurement_faults,
        rlsb_update,
    )
    from sensorreg.coords import CartesianMeasurement
    from sensorreg.errors import first_faults
    from sensorreg.fusion import bias_correct, combine_slots, fused_update
    from sensorreg.trackers import GaussianEstimate, kf_predict

    n_s, n_t = reported.shape
    bias = BiasEstimate(b=bias_states.b.copy(), Sigma=bias_states.Sigma.copy())
    fused = GaussianEstimate(
        fused_prev.mean, fused_prev.cov, np.array(np.broadcast_to(fused_prev.frame, (n_s, n_t)))
    )
    if np.count_nonzero(reported.any(axis=1)) < 2:
        return bias, fused, np.zeros((n_s, n_t), dtype=bool), []
    geo = sensors[:, None]
    corrected, bias_faults = bias_correct(
        local.tracklets, bias_states[:, None], (geo.sigma_r, geo.sigma_theta), origin=geo.position
    )
    found, live = first_faults(local.faults + bias_faults, np.array(reported))
    skipped = [(int(s), int(t), reason) for (s, t), reason in found]
    ref = live & (live.sum(axis=0) >= 2)
    present = ref[:, :, None] & live.T[None] & ~np.eye(n_s, dtype=bool)[:, None]
    model = lag_models(np.where(ref, frame - fused.frame, 1))
    slots = combine_slots(
        CartesianMeasurement(corrected.z.swapaxes(0, 1)[None], corrected.R.swapaxes(0, 1)[None]),
        present,
    )
    new = fused_update(fused, model, slots)
    # The updates that the former fused_update skipped, and their NaN
    # equivalent measurements.
    pred = kf_predict(fused, model)
    S = pred.cov[..., ::2, ::2] + slots.measurement.R
    _, ok = det_spd2(S)
    _, updated = first_faults(
        slots.faults + [singular("innovation covariance", S, slots.live & ~ok)], slots.live
    )
    z_ref = np.where(updated[..., None], slots.measurement.z, np.nan)
    R_ref = np.where(updated[..., None, None], slots.measurement.R, np.nan)
    pm = difference_pseudo_measurement(
        z_ref, local.z, local.jac, R_ref, local.R, offset_only=(bias_states.dim == 2)
    )
    fused = GaussianEstimate(
        np.where(ref[..., None], new.mean, fused.mean),
        np.where(ref[..., None, None], new.cov, fused.cov),
        frame=np.where(ref, new.frame, fused.frame),
    )
    found, usable = first_faults(local.gram_faults + pseudo_measurement_faults(pm), ref)
    skipped += [(int(s), int(t), reason) for (s, t), reason in found]
    z = np.where(usable[..., None], pm.z, 0.0)
    H = np.where(usable[..., None, None], pm.H, 0.0)
    R = np.where(usable[..., None, None], pm.R, np.eye(2))
    est, fold_faults = rlsb_update(bias, PseudoMeasurement(z, H, R))
    found, folded = first_faults(fold_faults, usable.any(axis=1))
    skipped += [(int(s), None, reason) for (s,), reason in found]
    bias.b[folded], bias.Sigma[folded] = est.b[folded], est.Sigma[folded]
    return bias, fused, live, skipped


@pytest.mark.parametrize(
    "make",
    [lambda: load_scenario("five_sensor_offset_scale"), _a08_imm, _mixed_lags],
    ids=["five_sensor_offset_scale", "a08_imm", "lags_1_10_5_10_2"],
)
def test_bias_chain_equals_the_former_leave_one_out_tracks(monkeypatch, make):
    # Each sensor's reference is the other sensors' combined measurement: it
    # gives the bias series, live pairs and skip records of the former
    # fbe_step, which carried a leave-one-out fused track per pair (each
    # started from the lowest-numbered other sensor's frame-0 estimate) and
    # took the equivalent measurement of its update, bit for bit.
    import sensorreg.harness.simulate as sim
    from sensorreg.dynamics import LagModels
    from sensorreg.fusion import local_stage
    from sensorreg.trackers import GaussianEstimate

    sc = make()
    n_s, n_t = len(sc.sensors), len(sc.targets)
    lag_models = LagModels(ncv_model(sc.dt, sc.fusion_q))
    sensors = sc.sensor_models()
    first = [min(i for i in range(n_s) if i != s) for s in range(n_s)]
    for index in range(2):
        truth = simulate_truth(sc, index)
        tracks = run_local_tracks(sc, truth)
        epochs, reporting, sensor, rows, *pairs = sim._epoch_pairs(sc, tracks, lag_models)
        local = local_stage(*pairs, sensors[sensor])[rows]
        bias = sim._initial_bias_states(sc)
        fused = GaussianEstimate(tracks.mean[first, :, 0], tracks.cov[first, :, 0], frame=0)
        b_series = np.empty((sc.frames + 1,) + bias.b.shape)
        sigma_series = np.empty((sc.frames + 1,) + bias.Sigma.shape)
        b_series[:], sigma_series[:] = bias.b, bias.Sigma
        former = {}
        for e, k in enumerate(epochs.tolist()):
            reported = np.broadcast_to(reporting[e, :, None], (n_s, n_t))
            bias, fused, live, skipped = _former_fbe_step(
                reported, local[e], k, bias, fused, lag_models, sensors
            )
            b_series[k:], sigma_series[k:] = bias.b, bias.Sigma
            former[k] = live, skipped
        got = {}
        with monkeypatch.context() as mp:
            _record_fbe_steps(mp, sc, lambda k, res: got.__setitem__(k, (res.live, res.skipped)))
            b_got, sigma_got, _ = sim._run_fbe(sc, truth, tracks)
        assert np.array_equal(b_got, b_series) and np.array_equal(sigma_got, sigma_series)
        assert sorted(got) == sorted(former)
        for k, (live, skipped) in former.items():
            assert np.array_equal(got[k][0], live) and got[k][1] == skipped


def _per_epoch_fused_pass(sc, truth, tracks, lag_models, z, present):
    """``_fuse_all_sensors`` as one ``sfa`` call per epoch: each epoch's
    slots combined inside the loop."""
    import sensorreg.harness.simulate as sim
    from sensorreg.coords import CartesianMeasurement
    from sensorreg.fusion import sfa

    fused = tracks[0, :, 0]
    sqerr = np.empty(sc.frames + 1)
    sqerr[:] = sim._position_sqerr(fused.mean, truth.states[:, 0])
    for e, k in enumerate(sc.update_epochs()):
        epoch = CartesianMeasurement(z.z[e], z.R[e])
        fused = sfa(fused, lag_models(k - fused.frame), epoch, present[e])
        sqerr[k:] = sim._position_sqerr(fused.mean, truth.states[:, k])
    return sqerr


def _fused_pass_arguments(monkeypatch, sc, runs, method):
    """The arguments of every ``_fuse_all_sensors`` call of ``runs`` runs."""
    import sensorreg.harness.simulate as sim

    calls = []
    fuse = sim._fuse_all_sensors
    monkeypatch.setattr(sim, "_fuse_all_sensors", lambda *args: calls.append(args) or fuse(*args))
    for index in range(runs):
        sim.run_single(sc, index, method)
    monkeypatch.setattr(sim, "_fuse_all_sensors", fuse)
    return calls


@pytest.mark.parametrize(
    "make",
    [lambda: load_scenario("five_sensor_offset_scale"), _a08_imm, _mixed_lags],
    ids=["five_sensor_offset_scale", "a08_imm", "lags_1_10_5_10_2"],
)
@pytest.mark.parametrize("method", ["fbe", "baseline"])
def test_all_epoch_slot_combination_equals_one_sfa_per_epoch(monkeypatch, make, method):
    # One combine_slots call over every epoch's slots, then one
    # fused_update per epoch, gives the fused errors of one sfa per epoch
    # bit for bit.
    import sensorreg.harness.simulate as sim

    for args in _fused_pass_arguments(monkeypatch, make(), 2, method):
        got = sim._fuse_all_sensors(*args)
        assert np.array_equal(got, _per_epoch_fused_pass(*args), equal_nan=True)


def test_the_fused_pass_drops_a_measurement_as_one_sfa_per_epoch_does(monkeypatch, caplog):
    # Sensor 3's corrected measurement of target 1 at the third epoch has an
    # indefinite covariance: both passes drop it alone, with one warning
    # that names the slot, the all-epoch combination at its (epoch,
    # target) index.
    import sensorreg.harness.simulate as sim

    (args,) = _fused_pass_arguments(monkeypatch, load_scenario("five_sensor_offset"), 1, "fbe")
    z = args[4]
    assert args[5][2, 1, 3]
    z.R[2, 1, 3] = -np.eye(2)
    with caplog.at_level("WARNING", logger="sensorreg.fusion"):
        got = sim._fuse_all_sensors(*args)
        assert [r.getMessage() for r in caplog.records] == [
            "skipping measurement 3 at batch index [2, 1]: covariance not positive definite"
        ]
        caplog.clear()
        want = _per_epoch_fused_pass(*args)
        assert [r.getMessage() for r in caplog.records] == [
            "skipping measurement 3 at batch index [1]: covariance not positive definite"
        ]
    assert np.array_equal(got, want, equal_nan=True)


_TWO_SENSOR = load_scenario("two_sensor")


@given(
    s=st.integers(0, len(_TWO_SENSOR.sensors) - 1),
    t=st.integers(0, len(_TWO_SENSOR.targets) - 1),
    k=st.sampled_from(_TWO_SENSOR.update_epochs()),
    kind=st.sampled_from(["no_information", "near_singular"]),
)
@settings(max_examples=20, deadline=None)
def test_a_degenerate_report_is_named_by_baseline_and_skipped_by_fbe(
    tmp_path_factory, s, t, k, kind
):
    # One report of two_sensor carries no information over its lag-1
    # prediction (its covariance is that prediction, so the position
    # information difference is zero), or has a position covariance
    # indefinite by 1e-12 of its scale.  The CLI's baseline exits 2 naming
    # that run, sensor, target and frame, and fbe skips exactly that pair at
    # that frame.
    import contextlib
    import io

    from sensorreg.cli import main
    from sensorreg.dynamics import LagModels

    sc = _TWO_SENSOR
    lag1 = LagModels(ncv_model(sc.dt, sc.fusion_q))(np.ones(1, dtype=int))

    def degenerate(tracks):
        if kind == "no_information":
            P = tracks.cov[s, t, k - 1][None]
            tracks.cov[s, t, k] = (lag1.F @ P @ lag1.F.swapaxes(-1, -2) + lag1.Q)[0]
        else:
            a = tracks.cov[s, t, k, 0, 0]
            tracks.cov[s, t, k, ::2, ::2] = [[a, a], [a, a * (1.0 - 1e-12)]]

    import sensorreg.harness.simulate as sim

    skipped = {}
    out = tmp_path_factory.mktemp("degenerate")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(sim, "run_local_tracks", _edited_tracks(degenerate))
        args = ["--scenario", "two_sensor", "--method", "baseline", "--runs", "1"]
        assert main(["simulate", *args, "--out", str(out)]) == 2
        _record_fbe_steps(mp, sc, lambda k, res: skipped.__setitem__(k, res.skipped))
        sim.run_single(sc, 0, "fbe")
    assert f"run 0: sensor {s}, target {t}, frame {k}: " in err.getvalue()
    assert [record[:2] for record in skipped[k]] == [(s, t)]


@pytest.mark.parametrize(
    "local_filter", [{"q": 1.0}, {"type": "imm_ncv_ncv"}], ids=["kf_q1", "imm_ncv_ncv"]
)
def test_fbe_and_baseline_run_on_lag1_tracks_of_a_mismatched_filter(
    monkeypatch, tmp_path, local_filter
):
    # Lag-1 tracks of a local filter that the fusion model does not match
    # (a KF with q = 1.0 against fusion_q = 0.1, or an IMM) have an
    # indefinite full-state information difference, but their position
    # marginals do not: fbe skips no pair and keeps the bias accuracy of the
    # matched KF, and baseline completes.
    import sensorreg.harness.simulate as sim
    from sensorreg.cli import main

    sc = load_scenario("two_sensor")
    matched = run_monte_carlo(sc, "fbe", mc_runs=10)
    for key, value in local_filter.items():
        setattr(sc.local_filter, key, value)
    skipped = []
    step = sim.fbe_step

    def fbe_step(*args):
        res = step(*args)
        skipped.extend(res.skipped)
        return res

    monkeypatch.setattr(sim, "fbe_step", fbe_step)
    mismatched = run_monte_carlo(sc, "fbe", mc_runs=10)
    assert skipped == []
    ratio = mismatched.bias_rmse[-1] / matched.bias_rmse[-1]
    assert np.all(np.abs(ratio - 1.0) <= 0.1), ratio

    doc = json.loads(builtin_scenario_path("two_sensor").read_text())
    doc["local_filter"].update(local_filter)
    path = tmp_path / "mismatched.json"
    path.write_text(json.dumps(doc))
    args = ["--scenario", str(path), "--method", "baseline", "--runs", "10"]
    assert main(["simulate", *args, "--out", str(tmp_path / "out")]) == 0


def test_each_fused_reference_is_one_kf_update(monkeypatch):
    # Local tracking makes one Kalman update per frame, and each epoch's
    # all-sensor fusion one, not one per measurement slot; the leave-one-out
    # references make none.
    import sensorreg.fusion as fusion
    import sensorreg.harness.simulate as sim

    counts = _count_calls(monkeypatch, (fusion, sim), ("kf_update",))
    sc = load_scenario("five_sensor_offset_scale")
    sim.run_single(sc, 0, "fbe")
    assert counts["kf_update"] == sc.frames + len(sc.update_epochs())


def test_exl_builds_all_frames_in_one_pass(monkeypatch):
    # exl builds every frame's pseudo-measurements in one batched call per
    # formula and sums their information without a per-frame fold; it folds
    # the tracklets themselves, so it forms no gain and deconvolves nothing.
    import sensorreg.bias as bias
    import sensorreg.fusion as fusion
    import sensorreg.harness.simulate as sim
    import sensorreg.tracklets as tracklets

    names = (
        "compute_tracklet",
        "tracklet_decorrelated",
        "reconstruct_local_gain",
        "sensor_pseudo_obs",
        "jacobians_at",
        "rlsb_update",
    )
    counts = _count_calls(monkeypatch, (sim, bias, fusion, tracklets), names)
    sc = load_scenario("two_sensor")
    sim.run_single(sc, 0, "exl")
    assert counts == {"tracklet_decorrelated": 1, "jacobians_at": 1}


# Largest difference between the information sum and the per-frame Joseph
# fold it replaced, relative to each array's largest entry.
INFORMATION_SUM_RTOL = 1e-12


def _joseph_fold(sc, pm, fold):
    """``b_series`` and ``sigma_series`` of the former fold: from the
    prior, one Joseph-form ``fold`` per frame over its targets (the former
    2m x 2m ``rlsb_update``, kept in ``conftest.py``, so the sum is not
    compared with the information function it shares)."""
    from sensorreg.bias import BiasEstimate, PseudoMeasurement

    est = BiasEstimate(b=np.zeros(4), Sigma=np.diag(np.tile(sc.bias_prior_sigma(), 2) ** 2))
    b, sigma = [est.b], [est.Sigma]
    for k in range(sc.frames):
        est = fold(est, PseudoMeasurement(z=pm.z[k], H=pm.H[k], R=pm.R[k]))
        b.append(est.b)
        sigma.append(est.Sigma)
    return np.array(b)[:, None], np.array(sigma)[:, None]


@pytest.mark.parametrize("method", ["ex", "exl"])
def test_information_sum_matches_the_joseph_fold(monkeypatch, former_fold, method):
    import sensorreg.harness.simulate as sim
    from sensorreg.bias import PseudoMeasurement

    # The pseudo-measurements of each run, as _run_stacked builds them.
    made = []

    def record(**fields):
        made.append(PseudoMeasurement(**fields))
        return made[-1]

    monkeypatch.setattr(sim, "PseudoMeasurement", record)
    sc = load_scenario("two_sensor")
    for run in range(4):
        got = sim.run_single(sc, run, method)
        want = _joseph_fold(sc, made[-1], former_fold)
        for g, w in zip((got.b_series, got.sigma_series), want):
            assert g.shape == w.shape
            np.testing.assert_allclose(
                g, w, rtol=0, atol=INFORMATION_SUM_RTOL * np.abs(w).max()
            )
    assert len(made) == 4


@pytest.mark.parametrize("method", ["ex", "exl"])
def test_stacked_noise_screen_names_frame_and_target(method):
    # ex: a NaN measurement covariance of sensor 1, target 3 at frame 6
    # fails the check of the gain formed from it, named by sensor, target
    # and frame.  exl: a NaN track mean at frame 6 reaches the
    # pseudo-measurements of frames 6 and 7 (a NaN track covariance stops at
    # the tracklet's own screen, named by sensor, target and frame:
    # test_exl_error_names_sensor_target_and_frame).
    import sensorreg.harness.simulate as sim

    sc = load_scenario("two_sensor")
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    if method == "ex":
        truth.cart_R[1, 3, 6] = np.nan
        match = r"^sensor 1, target 3, frame 6: measurement noise covariance not positive"
        shape, failed = (2, len(sc.targets), sc.frames), [(1, 3, 5)]
    else:
        tracks.mean[1, 3, 6, 0] = np.nan
        match = r"^frame 6, target 3: "
        shape, failed = (sc.frames, len(sc.targets)), [(5, 3), (6, 3)]
    with pytest.raises(NumericalError, match=match) as info:
        sim._run_stacked(sc, truth, tracks, reconstructed=(method == "exl"))
    assert info.value.failed.shape == shape
    assert list(zip(*np.nonzero(info.value.failed))) == failed


def test_stacked_rank_deficient_gain_names_sensor_target_and_frame(monkeypatch):
    # A zero gain formed for ex's sensor 1, target 2 at frame 5 has a
    # singular Gram matrix.
    import sensorreg.harness.simulate as sim

    sc = load_scenario("two_sensor")
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    real = sim.reconstruct_local_gain

    def zero_gain(*args):
        gain, faults = real(*args)
        gain.W[1, 2, 4] = 0.0
        return gain, faults

    monkeypatch.setattr(sim, "reconstruct_local_gain", zero_gain)
    match = r"^sensor 1, target 2, frame 5: gain Gram matrix is singular \(cond ~ "
    with pytest.raises(NumericalError, match=match) as info:
        sim._run_stacked(sc, truth, tracks, reconstructed=False)
    assert list(zip(*np.nonzero(info.value.failed))) == [(1, 2, 4)]


def _deconvolved(sc, tracks):
    """Each single-step tracklet of a run, batch (sensor, target, frame
    1..K), and its update deconvolved through the gain reconstructed from
    it, as ``exl`` formed its observations before it folded the tracklet."""
    from sensorreg.bias import sensor_pseudo_obs
    from sensorreg.errors import raise_first
    from sensorreg.fusion import reconstruct_local_gain
    from sensorreg.trackers import GaussianEstimate, kf_predict
    from sensorreg.tracklets import tracklet_decorrelated

    frames = np.arange(1, sc.frames + 1)
    prev = GaussianEstimate(tracks.mean[:, :, :-1], tracks.cov[:, :, :-1], frame=frames - 1)
    curr = GaussianEstimate(tracks.mean[:, :, 1:], tracks.cov[:, :, 1:], frame=frames)
    pred = kf_predict(prev, ncv_model(sc.dt, sc.fusion_q))
    trk, faults = tracklet_decorrelated(pred, curr)
    gain, gain_faults = reconstruct_local_gain(trk.U, pred.cov)
    zb, gram_faults = sensor_pseudo_obs(curr, pred, gain.W)
    raise_first(faults + gain_faults + gram_faults)
    return trk, zb


# Largest distance between a lag-1 update deconvolved through the gain
# reconstructed from its tracklet and the tracklet's u, in sigma of U
# (measured over two_sensor runs 0-9: median 9e-14, up to 4.5e-10 at
# sensor 1, target 11's last frames; in run 9 that pair's U is the worst
# conditioned, cond 287, and its gain the smallest).
DECONVOLUTION_SIGMA = 1e-8


def test_lag1_deconvolution_returns_the_tracklet():
    # With the matched fusion model at lag 1, deconvolving a local track
    # update through the gain reconstructed from its tracklet returns the
    # tracklet: the identity that lets exl fold the tracklet and fbe's
    # sensor side rebuild the gain the local filter never sent.
    sc = load_scenario("two_sensor")
    assert sc.fusion_q == sc.local_filter.q
    for run in range(10):
        trk, zb = _deconvolved(sc, run_local_tracks(sc, simulate_truth(sc, run)))
        d = zb - trk.u
        sigma = np.sqrt(np.einsum("...i,...ij,...j->...", d, np.linalg.inv(trk.U), d))
        assert sigma.max() <= DECONVOLUTION_SIGMA


# Largest change in exl's b_series from folding the tracklet in place of
# the deconvolved update, relative to its largest entry (measured up to
# 2.5e-13 over two_sensor runs 0-9); sigma_series is unchanged.
EXL_TRACKLET_RTOL = 1e-11


def test_exl_matches_the_former_deconvolution(monkeypatch):
    # The former exl differed in the observation alone: each stacked
    # pseudo-measurement differenced the two sensors' deconvolved updates,
    # with the same H and R.
    import sensorreg.harness.simulate as sim
    from sensorreg.bias import PseudoMeasurement

    sc = load_scenario("two_sensor")
    for run in range(10):
        truth = simulate_truth(sc, run)
        tracks = run_local_tracks(sc, truth)
        got = sim._run_stacked(sc, truth, tracks, reconstructed=True)
        zb = _deconvolved(sc, tracks)[1]
        with monkeypatch.context() as mp:
            mp.setattr(
                sim,
                "PseudoMeasurement",
                lambda z, H, R: PseudoMeasurement(z=(zb[0] - zb[1]).swapaxes(0, 1), H=H, R=R),
            )
            want = sim._run_stacked(sc, truth, tracks, reconstructed=True)
        assert np.array_equal(got[1], want[1])
        np.testing.assert_allclose(
            got[0], want[0], rtol=0, atol=EXL_TRACKLET_RTOL * np.abs(want[0]).max()
        )


def test_exl_with_imm_local_filters_keeps_kf_accuracy():
    # The lag-1 position-marginal information difference of imm_ncv_ncv
    # tracks is positive definite, so exl completes with the Kalman
    # filter's bias accuracy.
    sc = load_scenario("two_sensor")
    kf = run_monte_carlo(sc, "exl", mc_runs=10)
    sc.local_filter.type = "imm_ncv_ncv"
    imm = run_monte_carlo(sc, "exl", mc_runs=10)
    ratio = imm.bias_rmse[-1] / kf.bias_rmse[-1]
    assert np.all(np.abs(ratio - 1.0) <= 0.1), ratio


def test_exl_error_names_sensor_target_and_frame(monkeypatch):
    import sensorreg.harness.simulate as sim

    sc = load_scenario("two_sensor")
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    tracks.cov[1, 2, 5] = np.nan
    with pytest.raises(NumericalError, match=r"^sensor 1, target 2, frame 5: ") as info:
        sim._run_stacked(sc, truth, tracks, reconstructed=True)
    assert info.value.index == (1, 2, 4)

    # run_single adds the run and keeps the error type.
    monkeypatch.setattr(sim, "run_local_tracks", lambda *args: tracks)
    with pytest.raises(type(info.value), match=r"^run 0: sensor 1, target 2, frame 5: "):
        sim.run_single(sc, 0, "exl")
