"""Tests of the benchmark itself: gates, smoke runs, tracing, exit status.

    python3 -m pytest perfbench

Smoke runs shrink each workload to a minimal grid so the whole file runs in
well under a minute; the full-size workloads run only under run.py.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import hostspeed  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import surveys  # noqa: E402
import workloads  # noqa: E402
from fracsob import solvers  # noqa: E402

SMOKE = {
    "geodesic_n64": dict(n=16, steps=16),
    "geodesic_n512": dict(n=32, steps=16, stride=16),
    "match_n64": dict(n=16, steps=16, K=1, h0_modes=1),
    "check_n256": dict(flow=False),
}


def smoke(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMOKE[name])


@pytest.fixture(scope="module")
def cfg():
    return workloads.metric_config()


@pytest.fixture(scope="module")
def short_path(cfg):
    c0, h0 = workloads.random_geodesic_start(workloads.input_rng(0, 0), 128)
    return solvers.exp_map(cfg, workloads.curves.make_curve(c0), h0, T=0.25, steps=16, stride=4)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_of_each_workload_is_gated(name, cfg, tmp_path):
    # at smoke sizes the accuracy gates may fail (a coarse grid drifts), but
    # the operation must run and its output must be consistent
    wl = smoke(name)
    records = run.run_ops(wl, cfg, seed=3, seconds=1e-9, workdir=str(tmp_path))
    assert len(records) == 1
    assert not records[0]["wrong"], records[0]["reasons"]
    assert not any(r.startswith("raised") for r in records[0]["reasons"]), records[0]["reasons"]
    assert records[0]["reference_s"] > 0.0


def test_inputs_depend_on_seed_and_index_only(cfg, tmp_path):
    wl = smoke("match_n64")
    a = wl.make_input(cfg, 5, 2, str(tmp_path))
    b = wl.make_input(cfg, 5, 2, str(tmp_path))
    c = wl.make_input(cfg, 6, 2, str(tmp_path))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_geodesic_gate_passes_a_clean_path(short_path):
    verdict = gates.geodesic(solvers.conservation_report(short_path).to_dict())
    assert not verdict.failed and not verdict.wrong


def test_geodesic_gate_fails_a_path_with_corrupted_energy(short_path):
    frames = list(short_path.frames)
    last = frames[-1]
    frames[-1] = dataclasses.replace(last, velocity=1.001 * last.velocity)
    corrupted = dataclasses.replace(short_path, frames=tuple(frames))
    report = solvers.conservation_report(corrupted).to_dict()
    verdict = gates.geodesic(report)
    assert verdict.failed and not verdict.wrong
    # a report that claims the drift is fine is caught as a wrong output
    report["flags"]["energy_drift_ok"] = True
    assert gates.geodesic(report).wrong


def test_geodesic_gate_fails_a_path_that_left_the_immersion_set(short_path):
    report = solvers.conservation_report(short_path).to_dict()
    report["min_speeds"][-1] = 0.0
    report["flags"]["immersed"] = False
    verdict = gates.geodesic(report)
    assert verdict.failed and not verdict.wrong


def test_cli_exit_gate():
    files = ("a", "b")
    assert not gates.cli_exit(0, files, ["b", "a"]).failed
    code2 = gates.cli_exit(2, files, [])
    assert code2.failed and not code2.wrong
    assert gates.cli_exit(0, files, ["a"]).wrong
    assert gates.cli_exit(1, files, ["a", "b"]).wrong


def _shooting_result(path, h0, converged=True):
    return solvers.ShootingResult(h0, 0.0, 1, path, converged=converged)


def test_match_gate_fails_a_wrong_recovered_velocity(short_path):
    h_true = short_path.frames[0].velocity
    target = short_path.endpoint.samples
    good = _shooting_result(short_path, h_true)
    assert not gates.match(good, True, target, h_true, 1e-6).failed
    wrong_h = _shooting_result(short_path, h_true + 1e-2 * np.ones_like(h_true))
    verdict = gates.match(wrong_h, True, target, h_true, 1e-6)
    assert verdict.failed and not verdict.wrong


def test_match_gate_separates_honest_and_false_convergence(short_path):
    h_true = short_path.frames[0].velocity
    off_target = short_path.endpoint.samples + 1e-3
    honest = gates.match(_shooting_result(short_path, h_true, False), False, off_target, h_true, 1e-6)
    assert honest.failed and not honest.wrong
    claimed = gates.match(_shooting_result(short_path, h_true), True, off_target, h_true, 1e-6)
    assert claimed.failed and claimed.wrong


def test_check_gate_fails_a_failing_check_line():
    passing = "PASS symbol_hermitian\n1 passed, 0 failed, 0 skipped\n"
    failing = ("PASS symbol_hermitian\nFAIL operator_symmetry   measured=1e-9 tol=1e-10\n"
               "1 passed, 1 failed, 0 skipped\n")
    assert not gates.check(0, passing).failed
    verdict = gates.check(3, failing)
    assert verdict.failed and not verdict.wrong
    assert "operator_symmetry" in verdict.reasons[0]
    assert gates.check(0, failing).wrong
    assert gates.check(3, passing).wrong
    assert gates.check(0, "").wrong


def test_drift_survey_counts_geodesics_that_break_the_drift_gate(cfg, monkeypatch):
    monkeypatch.setattr(gates, "DRIFT_TOL", 0.0)
    verdicts = surveys.drift_verdicts(cfg, seeds=range(2), n=16, steps=16)
    assert len(verdicts) == 2
    assert all(v.failed and not v.wrong for v in verdicts)


def test_check_survey_counts_failing_batteries(monkeypatch):
    def failing_battery(argv):
        print("FAIL operator_rotation_equivariance   measured=2e-10 tol=1e-10")
        print("0 passed, 1 failed, 0 skipped")
        return 3

    monkeypatch.setattr(surveys.cli, "main", failing_battery)
    verdicts = surveys.check_verdicts(seeds=range(3))
    assert len(verdicts) == 3
    assert all(v.failed and not v.wrong for v in verdicts)


def test_raising_operation_counts_as_failed(cfg, tmp_path):
    wl = smoke("geodesic_n512")
    bad = dataclasses.replace(wl, steps=1)  # exp_map refuses fewer than 16 steps
    record = run.run_ops(bad, cfg, seed=0, seconds=1e-9, workdir=str(tmp_path))[0]
    assert record["failed"] and not record["wrong"]
    assert "DomainError" in record["reasons"][0]


def test_traced_run_yields_every_declared_per_layer_metric(cfg, tmp_path):
    wl = smoke("geodesic_n512")
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_ops(wl, cfg, seed=1, seconds=1e-9, workdir=str(tmp_path), tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    assert metrics["solvers.rk4_stages"] == 4 * wl.steps + 1
    assert metrics["curves.make_curve_calls"] >= metrics["solvers.rk4_stages"]
    assert metrics["solvers.energy_drift_max"] > 0.0
    assert 0.95 < metrics["trace.top_level_share"] <= 1.0
    produced = set(metrics) | set(micro.metric_names()) | {
        "metric.mean_residual_warnings", "trace.overhead_share", "gates.fail_share",
        "gates.drift_survey_fail_share", "gates.check_survey_fail_share"}
    assert produced == set(run.metric_units(1))
    # uninstall restores the original functions
    assert workloads.solvers.exp_map is solvers.exp_map
    assert not hasattr(solvers.exp_map, "__wrapped__")


def test_host_sampler_takes_its_own_time_out_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(16) as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert len(host.samples) > 2
    assert 0.0 < host.handler_s < 0.2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_scale_is_one_at_the_calibrated_speed_and_below_one_when_slower():
    assert set(hostspeed.CALIBRATION) == set(run.WORKLOAD_NAMES) | {"setup"}
    for key, (nominal, beta) in hostspeed.CALIBRATION.items():
        assert hostspeed.scale(key, nominal) == 1.0
        assert hostspeed.scale(key, 2.0 * nominal) == pytest.approx(0.5 ** beta)


def test_benchmark_file_lists_the_workloads():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geodesic_n64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
