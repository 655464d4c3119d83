"""Tests for the structural verification battery."""

import json

import numpy as np
import pytest

from fracsob.checks import (
    CheckResult,
    random_curve_samples,
    random_field,
    results_to_json,
    run_all,
    summarize,
)
from fracsob.curves import make_curve
from fracsob.errors import NoConvergenceError
from fracsob.metric import MetricConfig
from fracsob.solvers import conservation_report, exp_map, exp_map_spray, geodesic_bvp
from fracsob.symbols import bessel_fractional, constant_coefficient, two_term_fractional


def test_battery_passes_for_the_default_metric():
    results, extras = run_all(bessel_fractional(1.5), n=256, seed=0)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert "operator_sqrt_factorization" in names
    assert "flow_time_reversal" in names
    assert "bvp_identical_target" in names
    assert extras["n"] == 256
    summary = summarize(results)
    assert "FAIL" not in summary
    assert summary.strip().endswith("0 skipped")


def test_battery_stops_early_on_inadmissible_symbols():
    results, _ = run_all(two_term_fractional(1.2, 0.0, 1.0), n=64)
    names = [r.name for r in results]
    assert names[-1] == "metric_admissible"
    assert len(names) == 5
    assert not results[-1].passed
    assert "3 failed" in summarize(results)


def test_battery_skips_dynamics_for_low_order_metrics():
    results, _ = run_all(constant_coefficient((1.0,)), n=64, with_flow=True)
    skipped = [r for r in results if r.passed is None]
    assert len(skipped) == 1
    assert skipped[0].name == "flow_energy_drift"
    assert "SKIP" in skipped[0].format_line()


def test_battery_honors_the_flow_switch():
    results, _ = run_all(bessel_fractional(1.5), n=64, with_flow=False)
    names = [r.name for r in results]
    assert not any(name.startswith("flow_") for name in names)
    assert not any(name.startswith("bvp_") for name in names)


def test_check_result_formatting():
    line = CheckResult("demo_line", True, measured=1.2e-9, tol=1e-6).format_line()
    assert line.startswith("PASS demo_line")
    assert "measured=1.200e-09" in line
    assert "tol=1.0e-06" in line
    fail = CheckResult("demo_line", False, detail="context note").format_line()
    assert fail.startswith("FAIL")
    assert "context note" in fail


def test_results_serialize_to_json():
    results, extras = run_all(bessel_fractional(1.0), n=64, with_flow=False)
    payload = json.loads(results_to_json(results, extras))
    assert len(payload["checks"]) == len(results)
    assert payload["ok"] == all(r.passed is not False for r in results)
    assert payload["n"] == 64
    first = payload["checks"][0]
    assert {"name", "passed", "measured", "tol"} <= set(first)


def test_random_inputs_are_smooth_and_immersed(rng):
    samples = random_curve_samples(rng, n=64, modes=4, amplitude=0.12)
    c = make_curve(samples)  # raises if the speed degenerates
    assert c.n == 64
    field = random_field(rng, 64, modes=4)
    assert field.shape == (64, 2)
    assert np.all(np.isfinite(field))


def one_run_per_flow(symbol, seed=0):
    """The flow lines' measurements with one exp_map run per flow, as
    reference for the battery, which shares runs between them."""
    cfg = MetricConfig(symbol)
    rng_flow = np.random.default_rng(seed + 1)
    c0 = make_curve(random_curve_samples(rng_flow, n=64))
    h0 = 0.4 * random_field(rng_flow, 64)

    def rel(err, scale):
        return float(np.max(np.abs(err))) / max(float(np.max(np.abs(scale))), 1e-300)

    path = exp_map(cfg, c0, h0, T=0.5, steps=64, stride=8)
    rep = conservation_report(path)
    end = path.frames[-1]
    returned = exp_map(cfg, end.curve, -end.velocity, T=0.5, steps=64, stride=64)
    c0r = make_curve(np.roll(c0.samples, 16, axis=0))
    rolled = exp_map(cfg, c0r, np.roll(h0, 16, axis=0), T=0.5, steps=64, stride=64)
    smoke = exp_map(cfg, c0, h0, T=0.25, steps=32, stride=32)
    smoke_spray = exp_map_spray(cfg, c0, h0, T=0.25, steps=32, stride=32)
    try:
        bvp_res = geodesic_bvp(cfg, c0, c0, K=4, steps=32, max_iter=5).residual
    except NoConvergenceError as exc:
        bvp_res = exc.result.residual
    return {
        "flow_energy_drift": rep.energy_drift,
        "flow_momentum_consistency": rep.momentum_consistency,
        "flow_time_reversal": rel(returned.endpoint.samples - c0.samples, c0.samples),
        "flow_rotation_equivariance": rel(
            rolled.endpoint.samples - np.roll(path.endpoint.samples, 16, axis=0), path.endpoint.samples
        ),
        "flow_spray_vs_momentum_endpoint": rel(
            smoke.endpoint.samples - smoke_spray.endpoint.samples, smoke.endpoint.samples
        ),
        "bvp_identical_target": bvp_res,
    }


@pytest.mark.parametrize("symbol", [bessel_fractional(1.5), two_term_fractional(1.5, 1.0, 1.0)],
                         ids=["bessel", "two_term"])
def test_flow_lines_measure_what_one_run_per_flow_measures(symbol):
    results, _ = run_all(symbol, n=64, seed=0)
    measured = {r.name: r.measured for r in results if r.name.startswith(("flow_", "bvp_"))}
    assert measured == one_run_per_flow(symbol)
