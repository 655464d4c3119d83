"""End-to-end tests for the fracsob command line interface."""

import argparse
import json
import os

import numpy as np
import pytest

from fracsob import cli, symbols
from fracsob.cli import build_parser, load_config, main
from fracsob.curves import write_samples
from fracsob.errors import ConfigError
from fracsob.spectral import grid


def circle_samples(n=64, radius=1.0):
    theta = grid(n)
    return radius * np.column_stack([np.cos(theta), np.sin(theta)])


@pytest.fixture
def workdir(tmp_path):
    curve = tmp_path / "curve.json"
    write_samples(curve, circle_samples())
    velocity = tmp_path / "velocity.json"
    write_samples(velocity, 0.3 * circle_samples())
    return tmp_path, curve, velocity


def test_exp_writes_all_artifacts(workdir, capsys):
    tmp, curve, velocity = workdir
    out = tmp / "out"
    rc = main(
        [
            "exp",
            "--curve", str(curve),
            "--velocity", str(velocity),
            "--steps", "64",
            "--T", "0.5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "integrated 64 steps to T = 0.5" in stdout
    for name in ("path.csv", "path.json", "path.svg", "path_conservation.json"):
        assert (out / name).exists(), name
    conservation = json.loads((out / "path_conservation.json").read_text())
    assert conservation["energy_drift"] < 1e-6
    assert conservation["flags"]["energy_drift_ok"]
    assert "seed" in conservation
    rows = (out / "path.csv").read_text().strip().split("\n")
    assert rows[0] == "t,k,x1,x2,v1,v2"


def test_exp_with_fewer_than_min_steps_exits_1_and_writes_nothing(workdir, capsys):
    tmp, curve, velocity = workdir
    out = tmp / "out"
    assert main(["exp", "--curve", str(curve), "--velocity", str(velocity), "--steps", "8", "--out", str(out)]) == 1
    assert "key solver.steps must be at least 16, got 8" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="solver.steps"):
        load_config(None, {"solver.steps": 15})


def test_exp_rejects_mismatched_velocity(workdir, capsys):
    tmp, curve, _ = workdir
    bad = tmp / "bad_velocity.json"
    write_samples(bad, 0.3 * circle_samples(n=32))
    rc = main(["exp", "--curve", str(curve), "--velocity", str(bad), "--out", str(tmp / "o")])
    assert rc == 1
    assert "velocity" in capsys.readouterr().err


def test_exp_rejects_degenerate_curves(tmp_path, capsys):
    theta = grid(64)
    flat = tmp_path / "flat.json"
    write_samples(flat, np.column_stack([np.cos(theta), np.zeros(64)]))
    velocity = tmp_path / "velocity.json"
    write_samples(velocity, 0.1 * circle_samples())
    rc = main(["exp", "--curve", str(flat), "--velocity", str(velocity), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_match_converges_on_a_nearby_target(tmp_path, capsys):
    source = tmp_path / "source.json"
    write_samples(source, circle_samples(32))
    target = tmp_path / "target.json"
    write_samples(target, circle_samples(32, radius=1.05))
    out = tmp_path / "out"
    rc = main(
        [
            "match",
            "--source", str(source),
            "--target", str(target),
            "--K", "3",
            "--steps", "32",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "shooting converged" in capsys.readouterr().out
    payload = json.loads((out / "match_result.json").read_text())
    assert payload["converged"] is True
    assert payload["iterations"] <= 50
    vel = np.asarray(payload["initial_velocity"])
    assert vel.shape == (32, 2)
    assert (out / "match_path.svg").exists()


def test_match_failure_still_writes_artifacts(tmp_path, capsys):
    source = tmp_path / "source.json"
    write_samples(source, circle_samples(32))
    ang = 0.5
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    target = tmp_path / "target.json"
    write_samples(target, 1.2 * circle_samples(32) @ rot.T)
    out = tmp_path / "out"
    rc = main(
        [
            "match",
            "--source", str(source),
            "--target", str(target),
            "--K", "3",
            "--steps", "32",
            "--max-iter", "1",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert "did not converge" in capsys.readouterr().out
    payload = json.loads((out / "match_result.json").read_text())
    assert payload["converged"] is False


def test_check_passes_at_default_settings(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["check", "--no-flow", "--json", str(report)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    payload = json.loads(report.read_text())
    assert payload["ok"] is True
    assert payload["n"] == 256
    assert "spray_breakdown" not in payload  # only kept under --dump-spray


def test_check_exposes_spray_terms_on_request(tmp_path):
    report = tmp_path / "report.json"
    rc = main(["check", "--no-flow", "--dump-spray", "--json", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert "term_w_w0" in payload["spray_breakdown"]


@pytest.mark.parametrize("n", [64, 32])
def test_check_honors_an_explicit_grid_and_reports_failures(tmp_path, capsys, n):
    # the operator identities genuinely miss their tolerances on a coarse grid,
    # which must surface as exit code 3, not as a crash; a grid below 64 runs
    # as given, not on a silently larger one
    report = tmp_path / "report.json"
    rc = main(["check", "--no-flow", "--N", str(n), "--json", str(report)])
    assert rc == 3
    payload = json.loads(report.read_text())
    assert payload["n"] == n
    assert any(entry["passed"] is False for entry in payload["checks"])


def test_check_with_an_empty_grid_block_runs_on_the_fine_grid(tmp_path):
    # a grid block that names no N leaves the battery on its 256-point grid
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {}}))
    assert load_config(str(config), {}).n is None
    report = tmp_path / "report.json"
    rc = main(["check", "--no-flow", "--config", str(config), "--json", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["n"] == 256


TWO_TERM = ["--family", "two_term_fractional", "--r", "1.5", "--alphas", "1", "1"]


def test_check_flows_with_the_two_term_family(capsys):
    rc = main(["check", *TWO_TERM])
    assert rc == 0
    assert "26 passed, 0 failed" in capsys.readouterr().out


def test_check_flows_with_the_two_term_family_on_a_coarse_grid(tmp_path):
    # at N = 64 the operator identities miss their tolerances (exit code 3),
    # but every flow check runs and passes
    report = tmp_path / "report.json"
    rc = main(["check", "--N", "64", *TWO_TERM, "--json", str(report)])
    assert rc == 3
    checks = json.loads(report.read_text())["checks"]
    flow = [entry for entry in checks if entry["name"].startswith(("flow_", "bvp_"))]
    assert len(flow) == 6
    assert all(entry["passed"] is True for entry in flow)


def test_check_flags_an_inadmissible_family(capsys):
    rc = main(
        ["check", "--no-flow", "--family", "two_term_fractional", "--r", "1.2",
         "--alphas", "0", "1"]
    )
    assert rc == 3
    assert "metric_admissible" in capsys.readouterr().out


def test_symbols_dumps_a_table(tmp_path, capsys):
    out = tmp_path / "symbols.json"
    rc = main(["symbols", "--family", "bessel_fractional", "--r", "1.5",
               "--m-max", "64", "--modes", "4", "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["class_report"]["family"] == "bessel_fractional"
    assert payload["class_report"]["elliptic"] is True
    lam0 = next(iter(payload["table"]))
    assert len(payload["table"][lam0]["values"]) == 9


@pytest.mark.parametrize("argv", [
    ["--lambda-range", "0", "1"],
    ["--lambda-range", "5", "1"],
    ["--m-max", "4"],
    ["--modes", "-1"],
])
def test_a_symbols_range_out_of_bounds_is_a_usage_error_that_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["symbols", *argv, "--json", "symbols.json"]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {argv[0]} must be"), line
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_symbols_takes_its_default_range_and_table_lambdas_from_the_class_report(monkeypatch, capsys):
    assert build_parser().parse_args(["symbols"]).lambda_range is symbols.LAMBDA_RANGE
    monkeypatch.setattr(symbols, "LAMBDA_SAMPLES", 3)
    assert main(["symbols", "--m-max", "16", "--modes", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class_report"]["lambdas"] == [0.5, 10.25, 20.0]
    assert list(payload["table"]) == ["0.5", "10.25", "20"]


@pytest.mark.parametrize("config, key", [
    ({"grid": {"N": 64.5}}, "grid.N"),
    ({"solver": {"steps": 40.9}}, "solver.steps"),
    ({"solver": {"stride": 1.5}}, "solver.stride"),
    ({"solver": {"K": 2.5}}, "solver.K"),
    ({"solver": {"K": True}}, "solver.K"),
    ({"solver": {"max_iter": 3.5}}, "solver.max_iter"),
    ({"metric": {"family": "bessel_fractional", "r": 1.5, "d": 2.5}}, "metric.d"),
    ({"seed": 1.7}, "seed"),
    ({"seed": False}, "seed"),
])
def test_an_integer_key_refuses_a_fraction_or_a_boolean(tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=f"key {key} must be an integer"):
        load_config(str(path), {})
    assert main(["check", "--no-flow", "--config", str(path)]) == 1
    assert f"key {key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("config, key, kind", [
    ({"grid": {"N": "64"}}, "grid.N", "an integer"),
    ({"solver": {"T": True}}, "solver.T", "a number"),
    ({"solver": {"tol_rel": "1e-3"}}, "solver.tol_rel", "a number"),
    ({"seed": "5"}, "seed", "an integer"),
    ({"metric": {"family": "constant_coefficient", "alphas": "12"}}, "metric.alphas", "a list of numbers"),
    ({"metric": {"family": "bessel_fractional", "r": True}}, "metric.r", "a number"),
])
def test_a_number_key_refuses_a_string_or_a_boolean(tmp_path, capsys, config, key, kind):
    # float() and int() would read "64" and "1e-3", True as 1, and the
    # alphas "12" one character at a time
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=f"key {key} must be {kind}"):
        load_config(str(path), {})
    assert main(["check", "--no-flow", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"key {key} must be {kind}" in err


@pytest.mark.parametrize("payload", [
    {"d": 2.7},
    {"d": "2"},
    {"samples": [["1", "0"]] * 64},
    {"samples": [[True, False]] * 64},
])
def test_a_curve_file_that_is_not_json_numbers_is_one_error_line(workdir, capsys, payload):
    tmp, _, velocity = workdir
    curve = tmp / "typed.json"
    curve.write_text(json.dumps({"d": 2, "samples": circle_samples().tolist(), **payload}))
    out = tmp / "out"
    assert main(["exp", "--curve", str(curve), "--velocity", str(velocity), "--steps", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(curve) in err


@pytest.mark.parametrize("command", ["exp", "match"])
def test_a_refused_curve_file_leaves_no_out_directory(workdir, capsys, command):
    tmp, curve, velocity = workdir
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"d": 2, "samples": [["1", "0"]] * 64}))
    out = tmp / "out"
    argv = {
        "exp": ["exp", "--curve", str(bad), "--velocity", str(velocity)],
        "match": ["match", "--source", str(curve), "--target", str(bad)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert not out.exists()


def test_an_integral_number_loads_as_an_integer(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"N": 64.0}, "solver": {"steps": 1e3, "K": 2}, "seed": 3.0}))
    cfg = load_config(str(path), {})
    assert (cfg.n, cfg.solver["steps"], cfg.solver["K"], cfg.seed) == (64, 1000, 2, 3)
    assert all(type(v) is int for v in (cfg.n, cfg.solver["steps"], cfg.solver["K"], cfg.seed))


@pytest.mark.parametrize("key, value, least", [("K", -1, 0), ("max_iter", -1, 0), ("stride", 0, 1)])
def test_a_count_below_its_floor_names_the_floor(key, value, least):
    with pytest.raises(ConfigError, match=f"key solver.{key} must be at least {least}, got {value}"):
        load_config(None, {f"solver.{key}": value})


def test_config_file_drives_the_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": {"family": "constant_coefficient",
                                             "alphas": [1.0, 1.0]}}))
    cfg = load_config(str(config), {})
    assert cfg.symbol.family == "constant_coefficient"
    assert cfg.solver["steps"] == 200  # untouched blocks keep their defaults


def test_metric_block_does_not_inherit_partial_defaults(tmp_path):
    # naming a family without its required order must fail loudly instead of
    # silently borrowing r from the built-in default metric
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": {"family": "bessel_fractional"}}))
    with pytest.raises(ConfigError, match="metric.r"):
        load_config(str(config), {})


def test_custom_table_is_an_api_only_family(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": {"family": "custom_table"}}))
    with pytest.raises(ConfigError):
        load_config(str(config), {})


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("FRACSOB_SEED", "417")
    cfg = load_config(None, {})
    assert cfg.seed == 417


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["check", "--config", str(missing)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_match_result_records_shots_and_integrations(tmp_path, capsys):
    source = tmp_path / "source.json"
    write_samples(source, circle_samples(32))
    target = tmp_path / "target.json"
    write_samples(target, circle_samples(32, radius=1.05))
    out = tmp_path / "out"
    rc = main(["match", "--source", str(source), "--target", str(target),
               "--K", "2", "--steps", "32", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "match_result.json").read_text())
    # the initial shot in one batch with the (2K+1)*d = 10 Jacobian
    # columns, and one accepted trial step, which runs alone; its frames are
    # the presented path
    assert payload["iterations"] == 1
    assert payload["shots"] == (1 + 10) + 1
    assert payload["integrations"] == 2
    assert payload["jacobians"] == 1
    assert payload["damping"] == [1e-3]


COMMON_FLAGS = {"-h", "--help", "--config", "--family", "--r", "--alphas", "--seed"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    [action] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {s for a in p._actions for s in a.option_strings} - COMMON_FLAGS
             for name, p in action.choices.items()}
    assert flags == {
        "exp": {"--curve", "--velocity", "--T", "--steps", "--stride", "--out"},
        "match": {"--source", "--target", "--T", "--steps", "--K", "--max-iter", "--tol-rel", "--out"},
        "check": {"--dump-spray", "--json", "--no-flow", "--N"},
        "symbols": {"--lambda-range", "--m-max", "--modes", "--json"},
    }


def test_override_flags_land_on_their_config_keys(tmp_path):
    args = build_parser().parse_args(
        ["match", "--source", "s", "--target", "t", "--family", "two_term_fractional", "--r", "1.25",
         "--alphas", "1", "2", "--seed", "7", "--T", "0.5", "--steps", "32", "--K", "3",
         "--max-iter", "4", "--tol-rel", "1e-3", "--out", str(tmp_path)]
    )
    cfg = load_config(None, cli._overrides(args))
    assert (cfg.symbol.family, cfg.symbol.order, cfg.seed) == ("two_term_fractional", 1.25, 7)
    assert {k: cfg.solver[k] for k in ("T", "steps", "K", "max_iter", "tol_rel")} == {
        "T": 0.5, "steps": 32, "K": 3, "max_iter": 4, "tol_rel": 1e-3}
    assert cfg.io["out_dir"] == str(tmp_path)


@pytest.mark.parametrize("argv", [
    ["check", "--steps", "10"],
    ["match", "--source", "s.json", "--target", "t.json", "--stride", "4"],
    ["exp", "--curve", "c.json", "--velocity", "v.json", "--N", "64"],
    ["symbols", "--out", "d"],
    ["check", "--bogus"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_missing_required_flag_exits_1_and_help_exits_0(capsys):
    assert main(["exp", "--curve", "x.json"]) == 1
    assert "--velocity" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("config", [{"solver": 5}, {"io": ["csv"]}, {"metric": "bessel"}])
def test_a_block_that_is_not_an_object_is_a_config_error(tmp_path, capsys, config):
    [key] = config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=f"key {key} must be a JSON object"):
        load_config(str(path), {"solver.steps": 10})
    assert main(["check", "--no-flow", "--config", str(path)]) == 1
    assert f"key {key}" in capsys.readouterr().err


def test_an_unwritable_output_fails_before_any_numerical_work(workdir, monkeypatch, capsys):
    tmp, curve, velocity = workdir
    blocker = tmp / "blocker"
    blocker.write_text("a regular file\n")

    def never(*args, **kwargs):
        raise AssertionError("numerical work started before the outputs were checked")

    for name in ("exp_map", "geodesic_bvp", "class_report"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.checks, "run_all", never)
    under_a_file = str(blocker / "out")
    for argv in (
        ["exp", "--curve", str(curve), "--velocity", str(velocity), "--out", under_a_file],
        ["exp", "--curve", str(curve), "--velocity", str(velocity), "--out", str(blocker)],
        ["match", "--source", str(curve), "--target", str(curve), "--out", under_a_file],
        ["check", "--json", under_a_file],
        ["symbols", "--json", under_a_file],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and str(blocker) in line, line
        assert "Traceback" not in captured.err
        assert captured.out == ""
    assert blocker.read_text() == "a regular file\n"
