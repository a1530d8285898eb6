"""Scenario loading, truth simulation, metrics, and report emission."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from sensorreg.coords import BiasVector
from sensorreg.errors import NumericalError, ScenarioError
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
from sensorreg.harness.metrics import forward_fill


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
    assert sc2.reporters_at(6) == [0, 1, 2]
    assert sc2.reporters_at(4) == [1, 2]


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
    np.testing.assert_allclose(nominal_geometry(sc), truth.states, rtol=1e-12)


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
    assert tracks.gain is not None
    assert np.all(np.isfinite(tracks.gain[:, :, 1:]))


def test_nees_series_zero_errors():
    errors = np.zeros((4, 3, 2))
    covs = np.broadcast_to(np.eye(2), (4, 3, 2, 2)).copy()
    res = nees_series(errors, covs)
    np.testing.assert_allclose(res.nees, 0.0)


def test_nees_series_chi_square_bounds():
    res = nees_series(np.zeros((100, 1, 2)), np.broadcast_to(np.eye(2), (100, 1, 2, 2)).copy())
    assert res.lower == pytest.approx(chi2.ppf(0.025, 200) / 100)
    assert res.upper == pytest.approx(chi2.ppf(0.975, 200) / 100)
    assert res.lower == pytest.approx(1.63, abs=0.01)
    assert res.upper == pytest.approx(2.41, abs=0.01)
    lo, hi = chi2_band(2, 100)
    assert (lo, hi) == (res.lower, res.upper)


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
    res = nees_series(errors, covs)
    inside = np.sum((res.nees >= res.lower) & (res.nees <= res.upper))
    assert inside >= 8


def test_nees_series_groups_match_element_loop():
    # One batched solve over (run, frame, group) against a loop of
    # batch-free solves; the dot products may round in another order.
    rng = np.random.default_rng(8)
    runs, frames, groups, d = 6, 4, 3, 4
    A = rng.standard_normal((runs, frames, groups, d, d))
    covs = A @ A.swapaxes(-1, -2) + np.eye(d)
    errors = rng.standard_normal((runs, frames, groups, d))
    res = nees_series(errors, covs)
    assert res.nees.shape == (frames, groups)
    ref = np.empty((runs, frames, groups))
    for idx in np.ndindex(ref.shape):
        ref[idx] = errors[idx] @ np.linalg.solve(covs[idx], errors[idx])
    np.testing.assert_allclose(res.nees, ref.mean(axis=0), rtol=1e-12)


def test_nees_series_names_run_and_frame_of_singular_covariance():
    covs = np.broadcast_to(np.eye(2), (4, 3, 2, 2)).copy()
    covs[2, 1] = 0.0
    covs[3, 0] = 0.0
    with pytest.raises(NumericalError, match=r"^singular covariance in NEES at run 2, frame 1$"):
        nees_series(np.ones((4, 3, 2)), covs)
    grouped = np.broadcast_to(np.eye(2), (4, 3, 5, 2, 2)).copy()
    grouped[1, 2, 3] = 0.0
    with pytest.raises(NumericalError, match=r"at run 1, frame 2, group 3$"):
        nees_series(np.ones((4, 3, 5, 2)), grouped)


def test_forward_fill():
    arr = np.array([1.0, np.nan, np.nan, 4.0, np.nan])
    np.testing.assert_allclose(forward_fill(arr), [1.0, 1.0, 1.0, 4.0, 4.0])


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
    from sensorreg.harness.metrics import RunMetrics

    m = RunMetrics(
        scenario_name="empty",
        method="baseline",
        mc_runs=1,
        frames=0,
        update_epochs=[],
        n_groups=0,
        group_dim=0,
        group_sensors=[],
        bias_true=None,
        bias_rmse=None,
        bias_sqrt_sigma=None,
        bias_nees=None,
    )
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
    fused = np.full(K1, np.nan)
    fused[[0] + sc.update_epochs()] = 1.0
    run = SingleRun(
        b_series=np.zeros((K1, 3, 2)),
        sigma_series=np.ones((K1, 3, 2, 2)),
        local_sqerr=np.ones(K1),
        fused_sqerr=fused,
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

    sc, run, tracks = _finite_run()
    _check_finite(sc, run, tracks, 7)  # NaN off the fusion epochs is by design
    getattr(run if owner == "run" else tracks, field)[index] = np.inf
    with pytest.raises(NumericalError, match=f"run 7: non-finite {message}"):
        _check_finite(sc, run, tracks, 7)


def _singular_truth(sc, s, t, k):
    """Truth whose measurement noise cancels the predicted position
    covariance of stream (s, t) at frame k, making its innovation
    covariance exactly zero."""
    from sensorreg.dynamics import ncv_model
    from sensorreg.trackers import kf_predict

    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    pred = kf_predict(tracks.estimate(s, t, k - 1), ncv_model(sc.dt, sc.local_filter.q))
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


def test_fusion_center_runs_once_per_epoch(monkeypatch):
    # The fusion-center formulas take (sensor, target) batch axes, so an fbe
    # run calls each O(epochs) times, not once per (sensor, target) pair.
    import sensorreg.fusion as fusion
    import sensorreg.harness.simulate as sim

    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("compute_tracklet", "bias_correct", "sfa", "sensor_pseudo_obs", "rlsb_update")
    for module in (fusion, sim):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sc = load_scenario("five_sensor_offset_scale")
    sim.run_single(sc, 0, "fbe")
    epochs = len(sc.update_epochs())
    n_s, n_t = len(sc.sensors), len(sc.targets)
    assert set(counts) == set(names)
    assert counts["compute_tracklet"] <= 2 * epochs
    assert counts["bias_correct"] <= 2 * epochs
    assert counts["sensor_pseudo_obs"] <= 2 * epochs
    assert counts["sfa"] <= 2 * n_s * epochs
    assert counts["rlsb_update"] <= n_t * epochs
