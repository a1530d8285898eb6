"""Command-line interface: subcommands, outputs, exit codes."""

import json
from pathlib import Path

import pytest

from sensorreg.cli import main
from sensorreg.harness import builtin_scenario_path


@pytest.fixture()
def tiny_scenario(tmp_path):
    doc = {
        "name": "cli_tiny",
        "dt": 1.0,
        "frames": 4,
        "mc_runs": 2,
        "rng_seed": 5,
        "process_noise_q": 0.1,
        "fusion_q": 0.5,
        "local_filter": {"type": "kf", "q": 0.5},
        "sensors": [
            {"position": [0.0, 0.0], "sigma_r": 10.0, "sigma_theta": 1e-3,
             "bias": {"b_r": 20.0, "b_theta": 1e-3}, "lag": 1},
            {"position": [8000.0, 0.0], "sigma_r": 10.0, "sigma_theta": 1e-3,
             "bias": {"b_r": 20.0, "b_theta": 1e-3}, "lag": 1},
        ],
        "targets": [
            {"initial_state": [5000.0, 50.0, 3000.0, -20.0],
             "segments": [{"model": "ncv", "frames": 4}]},
        ],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # The parser and its three subcommand parsers are built on the first
    # call; a second call parses with them.
    import argparse

    import sensorreg.cli as cli

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert main(["report", "--in", str(tmp_path / "none")]) == 1
    assert len(built) == 4
    assert main(["report", "--in", str(tmp_path / "none")]) == 1
    assert len(built) == 4


def test_simulate_method_choices_are_the_harness_methods():
    import argparse

    import sensorreg.cli as cli
    from sensorreg.harness.simulate import METHODS

    commands = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    [method] = [a for a in commands.choices["simulate"]._actions if a.dest == "method"]
    assert tuple(method.choices) == METHODS


def test_simulate_writes_metrics(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "simulate", "--scenario", str(tiny_scenario), "--method", "fbe",
        "--out", str(out),
    ])
    assert code == 0
    for name in ["bias_rmse.csv", "bias_sqrt_sigma.csv", "bias_nees.csv",
                 "track_rmse.csv", "run_meta.json"]:
        assert (out / name).exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["method"] == "fbe"
    assert meta["mc_runs"] == 2


def test_simulate_overrides_runs_and_seed(tiny_scenario, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out1),
                 "--runs", "3", "--seed", "42"]) == 0
    assert main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out2),
                 "--runs", "3", "--seed", "42"]) == 0
    assert (out1 / "bias_rmse.csv").read_bytes() == (out2 / "bias_rmse.csv").read_bytes()
    meta = json.loads((out1 / "run_meta.json").read_text())
    assert meta["mc_runs"] == 3


def test_negative_seed_is_a_scenario_error(tiny_scenario, tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o"),
                 "--seed", "-3"])
    assert code == 1
    assert "scenario error: rng_seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, key, where",
    [
        ((), "rng_seed", "rng_seed"),
        ((), "frames", "frames"),
        ((), "mc_runs", "mc_runs"),
        (("sensors", 1), "lag", "sensor 1 lag"),
        (("targets", 0, "segments", 0), "frames", "target 0 segment 0 frames"),
    ],
)
def test_non_integer_count_is_a_scenario_error(tiny_scenario, tmp_path, capsys, path, key, where):
    doc = json.loads(tiny_scenario.read_text())
    node = doc
    for k in path:
        node = node[k]
    node[key] = 2.5
    tiny_scenario.write_text(json.dumps(doc))
    code = main(["simulate", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"scenario error: {where} must be an integer, got 2.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, key, where",
    [(("sensors", 0), "position", "sensor 0 position"),
     (("targets", 0), "initial_state", "target 0 initial_state")],
)
@pytest.mark.parametrize("value", [5.0, "01"])
def test_non_list_vector_is_a_scenario_error(tiny_scenario, tmp_path, capsys, path, key, where,
                                             value):
    doc = json.loads(tiny_scenario.read_text())
    node = doc
    for k in path:
        node = node[k]
    node[key] = value
    tiny_scenario.write_text(json.dumps(doc))
    code = main(["simulate", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"scenario error: {where} must be a list of numbers, got {value!r}" in (
        capsys.readouterr().err
    )


def test_simulate_methods_ex_exl(tiny_scenario, tmp_path):
    for method in ["ex", "exl", "baseline"]:
        out = tmp_path / method
        assert main(["simulate", "--scenario", str(tiny_scenario),
                     "--method", method, "--out", str(out)]) == 0


def test_crlb_subcommand(tiny_scenario, tmp_path):
    out = tmp_path / "bounds"
    assert main(["crlb", "--scenario", str(tiny_scenario), "--out", str(out)]) == 0
    text = (out / "crlb.csv").read_text()
    assert "sqrt_crlb_b_r" in text


def test_report_subcommand(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--in", str(out), "--tables"]) == 0
    printed = capsys.readouterr().out
    assert "bias component b_r" in printed
    assert (out / "tables.txt").exists()


@pytest.mark.parametrize("tables", [[], ["--tables"]])
def test_report_on_a_missing_directory_fails(tmp_path, capsys, tables):
    missing = tmp_path / "missing"
    assert main(["report", "--in", str(missing)] + tables) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(missing) in captured.err
    assert not missing.exists()


@pytest.mark.parametrize("removed", ["bias_rmse.csv", "bias_sqrt_sigma.csv", "track_rmse.csv"])
def test_report_names_a_missing_metrics_file(tiny_scenario, tmp_path, capsys, removed):
    out = tmp_path / "out"
    main(["simulate", "--scenario", str(tiny_scenario), "--out", str(out)])
    (out / removed).unlink()
    capsys.readouterr()
    assert main(["report", "--in", str(out), "--tables"]) == 1
    assert removed in capsys.readouterr().err
    assert not (out / "tables.txt").exists()


def test_report_on_baseline_output_needs_no_crlb(tiny_scenario, tmp_path):
    # baseline writes the bias CSVs header-only; crlb.csv is optional.
    out = tmp_path / "out"
    main(["simulate", "--scenario", str(tiny_scenario), "--method", "baseline", "--out", str(out)])
    assert not (out / "crlb.csv").exists()
    assert main(["report", "--in", str(out)]) == 0


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool started; the stand-in pool
    maps in this process, so no worker process starts."""
    import concurrent.futures

    sizes = []

    class Executor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    return sizes


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_non_positive_workers_is_a_scenario_error(
    tiny_scenario, tmp_path, capsys, pool_sizes, workers
):
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", str(tiny_scenario), "--out", str(out), "--workers", workers]
    assert main(argv) == 1
    assert "workers must be at least 1" in capsys.readouterr().err
    assert pool_sizes == []
    assert not out.exists()


@pytest.mark.parametrize(("workers", "runs", "started"), [("1000", "2", [2]), ("2", "3", [2]),
                                                          ("4", "1", [])])
def test_pool_never_starts_more_workers_than_runs(
    tiny_scenario, tmp_path, pool_sizes, workers, runs, started
):
    argv = ["simulate", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "out"),
            "--workers", workers, "--runs", runs]
    assert main(argv) == 0
    assert pool_sizes == started


def test_builtin_scenario_name_resolves(tmp_path):
    out = tmp_path / "bounds"
    assert main(["crlb", "--scenario", "two_sensor", "--out", str(out)]) == 0


def test_invalid_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frames": 2}))
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_missing_scenario_exit_code(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_numerical_failure_exit_code(tiny_scenario, tmp_path, capsys, monkeypatch):
    import sensorreg.cli as cli
    from sensorreg.errors import NumericalError

    def boom(*a, **k):
        raise NumericalError("synthetic failure at run 0, frame 1")

    monkeypatch.setattr(cli, "run_monte_carlo", boom)
    code = main(["simulate", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_crlb_names_singular_sensor_noise(tmp_path, capsys):
    # Sigmas this small square to zero, so every converted covariance is 0.
    import sensorreg

    doc = json.loads((Path(sensorreg.__file__).parent / "scenarios" / "two_sensor.json").read_text())
    for s in doc["sensors"]:
        s["sigma_r"] = s["sigma_theta"] = 1e-200
    path = tmp_path / "tiny_noise.json"
    path.write_text(json.dumps(doc))
    code = main(["crlb", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "sensor 0, target 0, frame 1: sensor noise covariance is singular" in err


def test_stacked_method_on_multisensor_scenario_is_rejected(tmp_path, capsys):
    assert main(["simulate", "--scenario", "five_sensor_offset", "--method", "ex",
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("method", ["ex", "exl"])
def test_stacked_method_with_scale_bias_is_rejected(tiny_scenario, tmp_path, capsys, method):
    # The stacked estimator's prior and observation matrix cover offsets only.
    doc = json.loads(tiny_scenario.read_text())
    doc["estimate_scale_bias"] = True
    tiny_scenario.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(tiny_scenario), "--method", method,
                 "--out", str(tmp_path / "o")]) == 1
    assert "scenario error: the stacked estimator estimates offsets only" in capsys.readouterr().err


def test_ex_with_imm_local_trackers_is_rejected(tiny_scenario, tmp_path, capsys):
    # ex forms the local filters' Kalman gains, which an IMM does not have.
    doc = json.loads(tiny_scenario.read_text())
    doc["local_filter"] = {"type": "imm_ncv_ncv", "q1": 0.5, "q2": 5.0}
    tiny_scenario.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(tiny_scenario), "--method", "ex",
                 "--out", str(tmp_path / "o")]) == 1
    assert "true-gain path requires the plain Kalman local tracker" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, key, value, message",
    [
        ((), "estimate_scale_bias", "false",
         "estimate_scale_bias must be true or false, got 'false'"),
        (("sensors", 0), "sigma_r", float("nan"), "sensor 0 sigma_r must be finite, got nan"),
    ],
)
def test_bad_scenario_value_is_a_scenario_error(tiny_scenario, tmp_path, capsys, path, key,
                                                value, message):
    # Both used to load: "false" read as true, and NaN passed the sign checks.
    doc = json.loads(tiny_scenario.read_text())
    node = doc
    for k in path:
        node = node[k]
    node[key] = value
    tiny_scenario.write_text(json.dumps(doc))
    for method in ["exl", "fbe"]:
        assert main(["simulate", "--scenario", str(tiny_scenario), "--method", method,
                     "--out", str(tmp_path / "o")]) == 1
        assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "crlb"])
def test_negative_local_filter_noise_is_a_scenario_error(tiny_scenario, tmp_path, capsys,
                                                         command):
    # simulate used to die inside the motion model with a ValueError
    # traceback, and crlb accepted the file.
    doc = json.loads(tiny_scenario.read_text())
    doc["local_filter"] = {"type": "imm_nca_ncv", "q1": -5.0}
    tiny_scenario.write_text(json.dumps(doc))
    code = main([command, "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "scenario error: local_filter q1 must be non-negative, got -5.0" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("method", ["baseline", "exl"])
def test_tracklet_failure_names_sensor_target_and_frame(tmp_path, capsys, method):
    # The position-marginal information difference of single-step
    # imm_nca_ncv snapshots, positive definite at most pairs, is not at
    # sensor 1, target 10, frame 11 of run 3 (baseline, four runs) and at
    # sensor 1, target 11, frame 16 of seed 4's run 0 (exl).
    run_args, message = {
        "baseline": (["--runs", "4"], "run 3: sensor 1, target 10, frame 11"),
        "exl": (["--runs", "1", "--seed", "4"], "run 0: sensor 1, target 11, frame 16"),
    }[method]
    doc = json.loads(Path(builtin_scenario_path("two_sensor")).read_text())
    doc["local_filter"] = {"type": "imm_nca_ncv"}
    path = tmp_path / "imm.json"
    path.write_text(json.dumps(doc))
    code = main([
        "simulate", "--scenario", str(path), "--method", method, *run_args,
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    reason = "position information difference not positive definite"
    assert f"{message}: {reason}" in capsys.readouterr().err


def test_a_scenario_path_that_is_a_directory_is_a_scenario_error(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: cannot read scenario file {tmp_path}: ")
    assert err.count("\n") == 1


def test_a_scenario_without_sensors_names_the_missing_key(tiny_scenario, tmp_path, capsys):
    doc = json.loads(tiny_scenario.read_text())
    del doc["sensors"]
    tiny_scenario.write_text(json.dumps(doc))
    code = main(["crlb", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "scenario error: malformed scenario document: missing key 'sensors'\n"
    )


@pytest.mark.parametrize("command", ["simulate", "crlb"])
@pytest.mark.parametrize("parent", [False, True])
def test_an_unusable_out_path_is_one_error_line(tiny_scenario, tmp_path, capsys, command, parent):
    # --out names an existing file, or a directory below one.
    existing = tmp_path / "file"
    existing.write_text("")
    out = existing / "o" if parent else existing
    code = main([command, "--scenario", str(tiny_scenario), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"output error: cannot write to {out}: ")
    assert captured.err.count("\n") == 1
    assert existing.read_text() == ""
