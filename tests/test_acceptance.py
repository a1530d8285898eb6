"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a PASS/FAIL line.  The
five-sensor Monte Carlo checks default to a 25-run smoke variant with
widened tolerances, and A07 to a tenth of its random updates; set
``SENSORREG_FULL_ACCEPTANCE=1`` to run the 100-run configurations at their
published tolerances and all of A07's updates (several minutes).
"""

import math
import os
import time

import numpy as np
import pytest

from sensorreg.bias import BiasEstimate, PseudoMeasurement, bias_information, rlsb_update
from sensorreg.coords import CartesianMeasurement, jacobians_at
from sensorreg.dynamics import compose_steps, ncv_model
from sensorreg.errors import raise_first
from sensorreg.fusion import reconstruct_local_gain, sfa
from sensorreg.harness import (
    crlb_series,
    load_scenario,
    run_local_tracks,
    run_monte_carlo,
    simulate_truth,
)
from sensorreg.harness.simulate import _run_stacked
from sensorreg.trackers import GaussianEstimate, kf_predict, kf_update
from sensorreg.tracklets import tracklet_decorrelated, tracklet_inverse_kf

FULL = os.environ.get("SENSORREG_FULL_ACCEPTANCE", "") == "1"
SMOKE_RUNS = 25


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def two_sensor_scenario():
    return load_scenario("two_sensor")


@pytest.fixture(scope="module")
def ex_metrics(two_sensor_scenario):
    return run_monte_carlo(two_sensor_scenario, "ex")


@pytest.fixture(scope="module")
def exl_metrics(two_sensor_scenario):
    return run_monte_carlo(two_sensor_scenario, "exl")


@pytest.fixture(scope="module")
def five_kf_metrics():
    sc = load_scenario("five_sensor_offset")
    return run_monte_carlo(sc, "fbe", mc_runs=None if FULL else SMOKE_RUNS)


@pytest.fixture(scope="module")
def five_imm_metrics():
    out = {}
    sc = load_scenario("five_sensor_offset")
    sc.local_filter.type = "imm_ncv_ncv"
    sc.local_filter.q1, sc.local_filter.q2 = 10.0, 2.0
    sc.fusion_q = 10.0
    out["imm_ncv_ncv"] = run_monte_carlo(sc, "fbe", mc_runs=SMOKE_RUNS)
    sc2 = load_scenario("five_sensor_offset")
    sc2.local_filter.type = "imm_nca_ncv"
    sc2.local_filter.q1, sc2.local_filter.q2 = 10.0, 2.0
    sc2.fusion_q = 200.0
    out["imm_nca_ncv"] = run_monte_carlo(sc2, "fbe", mc_runs=SMOKE_RUNS)
    return out


@pytest.fixture(scope="module")
def baseline_metrics():
    sc = load_scenario("five_sensor_offset")
    return run_monte_carlo(sc, "baseline", mc_runs=None if FULL else SMOKE_RUNS)


@pytest.fixture(scope="module")
def scale_metrics():
    sc = load_scenario("five_sensor_offset_scale")
    return run_monte_carlo(sc, "fbe", mc_runs=None if FULL else SMOKE_RUNS)


def _random_spd(rng, n, lo=0.5, hi=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def test_a01_tracklet_weighting_identity():
    """Both closed forms of the tracklet covariance agree on 1000 random
    filtering problems, within 1e-9 relative, in under five seconds."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        steps = int(rng.integers(1, 6))
        ms = compose_steps(ncv_model(1.0, rng.uniform(0.05, 2.0)), steps)
        prev = GaussianEstimate(
            mean=rng.standard_normal(4) * 100, cov=_random_spd(rng, 4), frame=0
        )
        P_pred = ms.F @ prev.cov @ ms.F.T + ms.Q
        R = _random_spd(rng, 4)
        P_curr = np.linalg.inv(np.linalg.inv(P_pred) + np.linalg.inv(R))
        curr = GaussianEstimate(
            mean=rng.standard_normal(4) * 100,
            cov=0.5 * (P_curr + P_curr.T),
            frame=steps,
        )
        pred = kf_predict(prev, ms)
        t, _ = tracklet_inverse_kf(pred, curr)
        rel = np.linalg.norm(t.A @ curr.cov - (t.A - np.eye(4)) @ pred.cov)
        rel /= np.linalg.norm(t.U)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report("A01", ok, f"weighting identity worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_a02_gain_reconstruction_exactness(two_sensor_scenario):
    """Reconstructed per-frame gains match the local filter's own gains to
    1e-6 relative over a full matched-model run."""
    sc = two_sensor_scenario
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    ms1 = compose_steps(ncv_model(sc.dt, sc.fusion_q), 1)
    local = ncv_model(sc.dt, sc.local_filter.q)
    worst = 0.0
    for k in range(1, sc.frames + 1):
        # The local filters' gains: the records of their step into frame k,
        # re-run from the tracks at frame k - 1.
        z = CartesianMeasurement(truth.cart_z[:, :, k], truth.cart_R[:, :, k])
        _, rec = kf_update(kf_predict(tracks[:, :, k - 1], local), z)
        for s in range(2):
            for t in range(len(sc.targets)):
                pred = kf_predict(tracks[s, t, k - 1], ms1)
                trk, faults = tracklet_decorrelated(pred, tracks[s, t, k])
                g, gain_faults = reconstruct_local_gain(trk.U, pred.cov)
                raise_first(faults + gain_faults)
                W_true = rec.gain[s, t]
                rel = np.abs(g.W - W_true).max() / np.abs(W_true).max()
                worst = max(worst, rel)
    ok = worst <= 1e-6
    _report("A02", ok, f"max gain rel err {worst:.2e} over {sc.frames} frames")
    assert worst <= 1e-6


def test_a03_oracle_vs_reconstructed_bias_rmse(ex_metrics, exl_metrics):
    """With reconstructed gains the final bias RMSE stays within 25% of the
    true-gain oracle, and both drop below 20% of the initial bias."""
    ex = ex_metrics.bias_rmse[-1, 0]
    exl = exl_metrics.bias_rmse[-1, 0]
    rel = np.abs(exl - ex) / ex
    conv_r = max(ex[0], ex[2], exl[0], exl[2])
    conv_t = max(ex[1], ex[3], exl[1], exl[3])
    ok = rel.max() <= 0.25 and conv_r < 0.2 * 20.0 and conv_t < 0.2 * 1e-3
    _report(
        "A03",
        ok,
        f"oracle gap {rel.max():.2%}; final range RMSE {conv_r:.2f} m, "
        f"azimuth {conv_t:.2e} rad",
    )
    assert rel.max() <= 0.25
    assert conv_r < 4.0
    assert conv_t < 2e-4


def test_a04_five_sensor_convergence(five_kf_metrics):
    """Five sensors, sparse reporting: the first sensor's final offset-bias
    RMSE lands in the published range."""
    m = five_kf_metrics
    br = m.bias_rmse[-1, 0, 0]
    bt = m.bias_rmse[-1, 0, 1]
    if FULL:
        lo_r, hi_r = 0.70, 1.25
        lo_t, hi_t = 7.0e-5, 1.3e-4
        label = "desk (100 runs)"
    else:
        lo_r, hi_r = 0.50, 1.75
        lo_t, hi_t = 5.0e-5, 1.82e-4
        label = f"smoke ({SMOKE_RUNS} runs, widened 40%)"
    ok = lo_r <= br <= hi_r and lo_t <= bt <= hi_t
    _report(
        "A04",
        ok,
        f"{label}: range bias RMSE {br:.3f} m in [{lo_r}, {hi_r}], "
        f"azimuth {bt:.3e} rad in [{lo_t:.1e}, {hi_t:.1e}]",
    )
    assert lo_r <= br <= hi_r
    assert lo_t <= bt <= hi_t


def test_a05_crlb_correctness():
    """Information matrix matches a finite-difference Hessian, and the
    five-sensor range-bias bound reproduces the reference value within the
    documented 10% geometry allowance."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        n_blocks = int(rng.integers(1, 6))
        gs = [jacobians_at(rng.uniform(1e3, 3e4), rng.uniform(-np.pi, np.pi)).B
              for _ in range(n_blocks)]
        Rs = []
        for _ in range(n_blocks):
            A = rng.standard_normal((2, 2))
            Rs.append(A @ A.T + np.diag(rng.uniform(10.0, 100.0, 2)))
        J, _ = bias_information(PseudoMeasurement(np.zeros((n_blocks, 2)), gs, Rs))
        ys = [rng.standard_normal(2) * 10 for _ in range(n_blocks)]
        b0 = rng.standard_normal(2)

        def nll(b):
            return sum(
                0.5 * (y - g @ b) @ np.linalg.solve(R, y - g @ b)
                for g, R, y in zip(gs, Rs, ys)
            )

        h = 1e-4
        H = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                ei = np.zeros(2)
                ej = np.zeros(2)
                ei[i] = h
                ej[j] = h
                H[i, j] = (
                    nll(b0 + ei + ej) - nll(b0 + ei - ej)
                    - nll(b0 - ei + ej) + nll(b0 - ei - ej)
                ) / (4 * h * h)
        worst = max(worst, np.abs(H - J).max() / np.abs(J).max())

    series = crlb_series(load_scenario("five_sensor_offset"))
    bound = float(series.per_sensor[-1, 0, 0])
    dev = abs(bound / 0.8795 - 1.0)
    ok = worst <= 1e-3 and dev <= 0.10
    _report(
        "A05",
        ok,
        f"FD Hessian worst rel err {worst:.2e}; sqrt bound {bound:.4f} m "
        f"({dev:+.1%} of 0.8795, documented limit 10%)",
    )
    assert worst <= 1e-3
    assert dev <= 0.10


def test_a06_sequential_equals_batch():
    """Sequential fusion equals the stacked batch update to 1e-10 relative
    over ten thousand random problems in any processing order."""
    rng = np.random.default_rng(66)
    model = ncv_model(1.0, 0.5)
    H = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
    worst = 0.0
    for _ in range(10_000):
        M = int(rng.integers(2, 6))
        prev = GaussianEstimate(
            mean=rng.standard_normal(4) * 10,
            cov=np.diag(rng.uniform(5.0, 200.0, 4)),
            frame=0,
        )
        ms = compose_steps(model, int(rng.integers(1, 4)))
        meas = []
        for _ in range(M):
            A = rng.standard_normal((2, 2))
            meas.append((rng.standard_normal(2) * 5, A @ A.T + 0.5 * np.eye(2)))
        order = rng.permutation(M)
        y, R = zip(*(meas[i] for i in order))
        out = sfa(prev, ms, CartesianMeasurement(z=np.stack(y), R=np.stack(R)))
        x_pred = ms.F @ prev.mean
        P_pred = ms.F @ prev.cov @ ms.F.T + ms.Q
        J = np.linalg.inv(P_pred)
        rhs = J @ x_pred
        for y, R in meas:
            Ri = np.linalg.inv(R)
            J += H.T @ Ri @ H
            rhs += H.T @ Ri @ y
        x_batch = np.linalg.solve(J, rhs)
        P_batch = np.linalg.inv(J)
        worst = max(
            worst,
            np.abs(out.mean - x_batch).max()
            / max(np.abs(x_batch).max(), 1e-12),
            np.abs(out.cov - P_batch).max() / np.abs(P_batch).max(),
        )
    ok = worst <= 1e-10
    _report("A06", ok, f"sequential vs batch worst rel err {worst:.2e} over 1e4 trials")
    assert worst <= 1e-10


def test_a07_joseph_form_robustness():
    """The Joseph-form covariance stays positive definite through 1e5 random
    updates (1e4 in the smoke variant) with observation matrices conditioned
    up to 1e8, one at a time and folded in stacks of 10, while the naive
    subtraction form demonstrably loses definiteness at condition 1e10."""
    rng = np.random.default_rng(77)
    n_updates = 100_000 if FULL else 10_000
    est = None
    failures = 0
    for i in range(n_updates):
        if i % 1000 == 0:
            est = BiasEstimate(b=np.zeros(2), Sigma=_random_spd(rng, 2, 0.1, 10.0))
        scale = 10.0 ** rng.uniform(0, 4)
        cond = 10.0 ** rng.uniform(0, 8)
        th = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(th), np.sin(th)
        rot = np.array([[c, -s], [s, c]])
        Hm = rot @ np.diag([scale, scale / cond]) @ rot.T
        Rn = _random_spd(rng, 2, 0.5, 2.0)
        est, _ = rlsb_update(
            est, PseudoMeasurement(z=[rng.standard_normal(2)], H=[Hm], R=[Rn])
        )
        try:
            np.linalg.cholesky(est.Sigma)
        except np.linalg.LinAlgError:
            failures += 1
            break

    # The same draws again, folded in stacks of 10 pseudo-measurements.
    rng = np.random.default_rng(77)
    stack_failures = 0
    stack = []
    for i in range(n_updates):
        if i % 1000 == 0:
            est = BiasEstimate(b=np.zeros(2), Sigma=_random_spd(rng, 2, 0.1, 10.0))
        scale = 10.0 ** rng.uniform(0, 4)
        cond = 10.0 ** rng.uniform(0, 8)
        th = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(th), np.sin(th)
        rot = np.array([[c, -s], [s, c]])
        Hm = rot @ np.diag([scale, scale / cond]) @ rot.T
        Rn = _random_spd(rng, 2, 0.5, 2.0)
        stack.append((rng.standard_normal(2), Hm, Rn))
        if len(stack) < 10:
            continue
        z, H, R = (np.array(a) for a in zip(*stack))
        stack = []
        est, _ = rlsb_update(est, PseudoMeasurement(z=z, H=H, R=R))
        try:
            np.linalg.cholesky(est.Sigma)
        except np.linalg.LinAlgError:
            stack_failures += 1
            break

    # Rationale for the Joseph form: the plain subtraction update goes
    # indefinite under extreme conditioning.
    naive_failures = 0
    rng2 = np.random.default_rng(7)
    for _ in range(200):
        th = rng2.uniform(0, 2 * np.pi)
        c, s = np.cos(th), np.sin(th)
        rot = np.array([[c, -s], [s, c]])
        Hm = rot @ np.diag([1e10, 1.0]) @ rot.T
        Sigma = _random_spd(rng2, 2, 0.5, 5.0)
        S = Hm @ Sigma @ Hm.T + np.eye(2)
        try:
            naive = Sigma - Sigma @ Hm.T @ np.linalg.solve(S, Hm @ Sigma)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.eigvalsh(0.5 * (naive + naive.T)).min() < 0:
            naive_failures += 1
    ok = failures == 0 and stack_failures == 0 and naive_failures >= 1
    _report(
        "A07",
        ok,
        f"Joseph form: {failures} definiteness failures in {n_updates} updates, "
        f"{stack_failures} in {n_updates // 10} stacks of 10; "
        f"naive form failed {naive_failures}/200 times at condition 1e10",
    )
    assert failures == 0
    assert stack_failures == 0
    assert naive_failures >= 1


def test_a08_nees_consistency(exl_metrics, five_kf_metrics, five_imm_metrics):
    """Reconstructed-gain estimators stay statistically consistent: the
    two-sensor NEES sits inside the two-sided 95% band at 90% of frames,
    and the five-sensor estimator stays below the one-sided 95% bound."""
    m = exl_metrics
    nees = m.bias_nees[1:, 0]
    inside = np.sum((nees >= m.nees_lower) & (nees <= m.nees_upper))
    frac_two = inside / nees.size

    details = [f"two-sensor in-band {inside}/{nees.size}"]
    fbe_ok = True
    for label, fm in [("kf", five_kf_metrics)] + list(five_imm_metrics.items()):
        cells = fm.bias_nees[fm.update_epochs, :]
        below = np.sum(cells <= fm.nees_upper_one_sided)
        frac = below / cells.size
        fbe_ok = fbe_ok and frac >= 0.95
        details.append(f"{label} below bound {below}/{cells.size}")
    ok = frac_two >= 0.90 and fbe_ok
    _report("A08", ok, "; ".join(details))
    assert frac_two >= 0.90
    assert fbe_ok


def test_a09_track_rmse_ordering(five_kf_metrics, baseline_metrics):
    """Fusing without biases beats bias-corrected fusion, which beats the
    raw biased local track (one-sided, three standard errors of slack)."""
    def final_rmse_se(sq):
        rmse = math.sqrt(float(np.mean(sq)))
        se = float(np.std(sq)) / (2 * rmse * math.sqrt(len(sq)))
        return rmse, se

    base, base_se = final_rmse_se(baseline_metrics.final_fused_sqerr)
    fused, fused_se = final_rmse_se(five_kf_metrics.final_fused_sqerr)
    local, local_se = final_rmse_se(five_kf_metrics.final_local_sqerr)
    ok = (base <= fused + 3 * math.hypot(base_se, fused_se)) and (
        fused <= local + 3 * math.hypot(fused_se, local_se)
    )
    _report(
        "A09",
        ok,
        f"unbiased fused {base:.2f} <= corrected fused {fused:.2f} <= "
        f"biased local {local:.2f} (m)",
    )
    assert base <= fused + 3 * math.hypot(base_se, fused_se)
    assert fused <= local + 3 * math.hypot(fused_se, local_se)


def test_a10_offset_and_scale_correction(scale_metrics):
    """With offset and scale biases on every sensor, corrected fusion cuts
    the final position RMSE to well under 60% of the biased local track."""
    m = scale_metrics
    ratio = m.track_rmse_fused[-1] / m.track_rmse_local[-1]
    ok = ratio <= 0.60
    _report(
        "A10",
        ok,
        f"corrected fused {m.track_rmse_fused[-1]:.2f} m vs biased local "
        f"{m.track_rmse_local[-1]:.2f} m (ratio {ratio:.3f})",
    )
    assert ratio <= 0.60


def test_a11_gain_reconstruction_cost(two_sensor_scenario):
    """The practical stacked path costs at most twice the oracle: the
    stacked estimator that ``simulate`` runs, timed on identical truth and
    local tracks (median of interleaved trials).  ``ex`` forms the local
    filters' true gains and deconvolves each update through them; ``exl``
    folds the single-step tracklets, which at lag 1 are what deconvolving
    through the gains reconstructed from them returns (A02 keeps that
    reconstruction exact), so it forms no gain.  Each trial sums each
    path's time over a fixed batch of alternating calls: one sub-millisecond
    call per trial followed the host's jitter."""
    sc = two_sensor_scenario
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)

    def timed(reconstructed: bool) -> float:
        start = time.perf_counter()
        _run_stacked(sc, truth, tracks, reconstructed=reconstructed)
        return time.perf_counter() - start

    calls = 10

    def trial() -> np.ndarray:
        return np.sum([(timed(False), timed(True)) for _ in range(calls)], axis=0)

    trial()
    trials = [trial() for _ in range(9)]
    t_ex = float(np.median([t[0] for t in trials]))
    t_exl = float(np.median([t[1] for t in trials]))
    ratio = t_exl / t_ex
    ok = ratio <= 2.0
    _report(
        "A11",
        ok,
        f"ex (true gains) {t_ex * 1e3 / (calls * sc.frames):.3f} ms/frame, exl (tracklets) "
        f"{t_exl * 1e3 / (calls * sc.frames):.3f} ms/frame, ratio {ratio:.2f}",
    )
    assert ratio <= 2.0
