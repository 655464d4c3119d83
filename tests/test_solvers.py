"""Tests for geodesic integration, shooting, and path reporting."""

import importlib
import json
import warnings

import numpy as np
import pytest

from fracsob import curves, operators, solvers, spectral, symbols
from fracsob.checks import random_curve_samples, random_field
from fracsob.curves import make_curve
from fracsob.errors import (
    DomainError,
    FracsobError,
    GridError,
    ImmersionError,
    NoConvergenceError,
    NotSupportedError,
    ResolutionError,
)
from fracsob.metric import MetricConfig, metric, momentum_rhs, spray
from fracsob.operators import apply_conjugated
from fracsob.solvers import (
    Frame,
    GeodesicPath,
    MIN_STEPS,
    conservation_report,
    exp_map,
    exp_map_spray,
    geodesic_bvp,
    path_to_csv,
    path_to_json,
    path_to_svg,
)
from fracsob.spectral import grid
from fracsob.symbols import (
    bessel_fractional,
    class_report,
    constant_coefficient,
    custom_table,
    scalar_values,
    scale_invariant,
    two_term_fractional,
)

BESSEL = MetricConfig(bessel_fractional(1.5))


def circle(n=64, radius=1.0):
    theta = grid(n)
    return make_curve(radius * np.column_stack([np.cos(theta), np.sin(theta)]))


def flow_setup(rng, n=64):
    c0 = make_curve(random_curve_samples(rng, n=n, modes=4, amplitude=0.12))
    h0 = 0.5 * random_field(rng, n, modes=4)
    return c0, h0


def test_exp_map_evaluates_momentum_rhs_only_in_rk4_stages(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return momentum_rhs(*args, **kwargs)

    monkeypatch.setattr(solvers, "momentum_rhs", counting)
    c0 = circle()
    h0 = 0.1 * np.column_stack([np.cos(2 * grid(64)), np.zeros(64)])
    path = exp_map(BESSEL, c0, h0, steps=MIN_STEPS, stride=MIN_STEPS)
    assert len(calls) == 4 * MIN_STEPS
    assert path.frames[-1].t == 1.0


def test_exp_map_deep_solves_only_the_final_frame(monkeypatch):
    # four stage solves per step, then the final frame's one deep solve;
    # the stored interior frames add none at any stride
    c0, h0 = flow_setup(np.random.default_rng(3))
    real_solve = solvers._solve
    for stride in (1, 4, MIN_STEPS):
        calls = []

        # the loop solves through the operators' core: _solve(core, symbol, mu, refine)
        def counting(core, symbol, mu, refine):
            calls.append(refine)
            return real_solve(core, symbol, mu, refine)

        monkeypatch.setattr(solvers, "_solve", counting)
        path = exp_map(BESSEL, c0, h0, T=0.5, steps=MIN_STEPS, stride=stride)
        assert calls == [2] * (4 * MIN_STEPS) + [18]
        assert len(path.frames) == MIN_STEPS // stride + 1


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_exp_map_evaluates_the_symbol_once_per_curve(count_calls, batch):
    # one joint evaluation of the symbol and its lambda-derivative per curve:
    # the four stage curves of each step and the curve at t = T; the stored
    # frames and the final deep solve read the tables those curves built
    c0, h0 = flow_setup(np.random.default_rng(4))
    steps = MIN_STEPS
    calls = count_calls(symbols, "_evaluate")
    if batch:
        starts = make_curve(np.stack([c0.samples] * 3))
        paths = solvers._geodesics(BESSEL, starts, np.stack([h0, 0.5 * h0, -h0]), 0.5, steps, 1)
        assert len(paths) == 3
    else:
        exp_map(BESSEL, c0, h0, T=0.5, steps=steps, stride=1)
    assert calls["_evaluate"] == 4 * steps + 1


def test_exp_map_first_frame_is_the_exact_initial_pair(rng):
    c0, h0 = flow_setup(rng)
    path = exp_map(BESSEL, c0, h0, T=0.5, steps=MIN_STEPS, stride=4)
    first = path.frames[0]
    assert first.t == 0.0
    assert np.array_equal(first.velocity, h0)
    assert np.array_equal(first.momentum, apply_conjugated(c0, BESSEL.symbol, "identity", h0))
    assert np.array_equal(first.curve.samples, c0.samples)


def test_exp_map_frames_do_not_feed_back_into_the_state(rng):
    c0, h0 = flow_setup(rng)
    dense = exp_map(BESSEL, c0, h0, T=0.5, steps=32, stride=1)
    sparse = exp_map(BESSEL, c0, h0, T=0.5, steps=32, stride=32)
    assert len(dense.frames) == 33 and len(sparse.frames) == 2
    assert np.array_equal(dense.endpoint.samples, sparse.endpoint.samples)
    for a, b in zip((dense.frames[0], dense.frames[-1]), sparse.frames):
        assert np.array_equal(a.velocity, b.velocity)
        assert np.array_equal(a.momentum, b.momentum)


def bent(n=64):
    theta = grid(n)
    return make_curve(
        np.column_stack([np.cos(theta) + 0.1 * np.cos(2 * theta), np.sin(theta) - 0.05 * np.sin(3 * theta)])
    )


def scalar_custom_table():
    # bessel_fractional(1.5) frozen at lambda = 2 pi, with a zero derivative table
    ms = np.arange(-80, 81)
    vals = scalar_values(bessel_fractional(1.5), 2 * np.pi, ms)
    table = np.einsum("m,ij->mij", vals, np.eye(2))
    return custom_table(table, order=1.5, derivative=np.zeros_like(table))


@pytest.mark.parametrize(
    "sym",
    [
        constant_coefficient((1.0, 1.0)),
        scale_invariant((1.0, 1.0)),
        bessel_fractional(1.5),
        two_term_fractional(1.5, 1.0, 1.0),
        scalar_custom_table(),
    ],
    ids=lambda sym: sym.family,
)
@pytest.mark.parametrize("curve", [circle, bent], ids=["circle", "bent"])
def test_exp_map_integrates_every_family(sym, curve):
    c0 = curve()
    theta = grid(64)
    h0 = 0.2 * np.column_stack([np.cos(2 * theta), 0.5 * np.sin(theta) + 0.3 * np.cos(3 * theta)])
    path = exp_map(MetricConfig(sym), c0, h0, T=1.0, steps=MIN_STEPS, stride=4)
    assert len(path.frames) == 5
    assert np.isfinite(path.endpoint.samples).all()
    assert np.max(np.abs(path.endpoint.samples - c0.samples)) > 0.1
    report = conservation_report(path)
    assert report.ok, report.to_dict()


def test_exp_map_reports_an_unresolved_speed_as_a_lost_immersion():
    # the circle squeezed along x: long before the speed reaches zero, its
    # sampled speed gives an arc-length map that turns back on the grid
    theta = grid(64)
    h0 = np.column_stack([-3.0 * np.cos(theta), np.zeros(64)])
    with pytest.raises(ResolutionError, match="near t = ") as err:
        exp_map(BESSEL, circle(), h0, T=1.0, steps=MIN_STEPS, stride=MIN_STEPS)
    assert isinstance(err.value, ImmersionError)
    assert "orientation" in str(err.value)


def test_exp_map_validates_inputs():
    c0 = circle()
    h0 = np.zeros((64, 2))
    with pytest.raises(DomainError):
        exp_map(BESSEL, c0, h0, steps=MIN_STEPS - 1)
    with pytest.raises(DomainError):
        exp_map(BESSEL, c0, h0, T=0.0)
    with pytest.raises(DomainError):
        exp_map(BESSEL, c0, h0, stride=0)
    with pytest.raises(GridError):
        exp_map(BESSEL, c0, np.zeros((32, 2)))


@pytest.mark.parametrize("bad", [{"T": float("nan")}, {"T": np.inf}, {"T": -np.inf}])
def test_exp_map_refuses_a_nonfinite_time_before_integrating(bad, monkeypatch):
    built = []
    monkeypatch.setattr(solvers, "make_curve", lambda s: built.append(s) or make_curve(s))
    with pytest.raises(DomainError, match="finite T"):
        exp_map(BESSEL, circle(), np.zeros((64, 2)), **{"steps": MIN_STEPS, **bad})
    assert built == []


@pytest.mark.parametrize("bad", [{"stride": 0}, {"T": 0.0}, {"T": -0.5}, {"steps": MIN_STEPS - 1}])
def test_exp_map_spray_refuses_a_bad_schedule_before_integrating(bad, monkeypatch):
    # the schedule is refused before the first curve of the path is built
    built = []
    monkeypatch.setattr(solvers, "make_curve", lambda s: built.append(s) or make_curve(s))
    with pytest.raises(DomainError):
        exp_map_spray(BESSEL, circle(), np.zeros((64, 2)), **{"steps": MIN_STEPS, **bad})
    assert built == []


def test_exp_map_requires_order_at_least_one():
    cfg = MetricConfig(constant_coefficient((1.0,)))  # an L^2 metric, order 0
    with pytest.raises(DomainError):
        exp_map(cfg, circle(), np.zeros((64, 2)))


def test_exp_map_requires_a_derivative_table():
    ms = np.arange(-80, 81)
    vals = scalar_values(bessel_fractional(1.0), 2 * np.pi, ms)
    table = np.einsum("m,ij->mij", vals, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = MetricConfig(custom_table(table, order=1.0))
    with pytest.raises(NotSupportedError):
        exp_map(cfg, circle(), np.zeros((64, 2)))


def test_exp_map_zero_velocity_stays_put():
    c0 = circle()
    path = exp_map(BESSEL, c0, np.zeros((64, 2)), T=1.0, steps=MIN_STEPS, stride=MIN_STEPS)
    assert np.max(np.abs(path.endpoint.samples - c0.samples)) < 1e-13
    assert path.times[0] == 0.0
    assert path.times[-1] == pytest.approx(1.0)


def test_exp_map_frames_satisfy_the_momentum_relation(rng):
    c0, h0 = flow_setup(rng)
    path = exp_map(BESSEL, c0, h0, T=0.5, steps=64, stride=16)
    assert len(path.frames) == 5
    for f in path.frames:
        mu = apply_conjugated(f.curve, BESSEL.symbol, "identity", f.velocity)
        assert np.max(np.abs(mu - f.momentum)) < 1e-12 * np.max(np.abs(mu))


def test_exp_map_commutes_with_translations(rng):
    c0, h0 = flow_setup(rng)
    shift = np.array([2.0, -1.0])
    p0 = exp_map(BESSEL, c0, h0, T=0.5, steps=64, stride=64)
    p1 = exp_map(BESSEL, make_curve(c0.samples + shift), h0, T=0.5, steps=64, stride=64)
    gap = np.max(np.abs(p1.endpoint.samples - p0.endpoint.samples - shift))
    assert gap < 1e-12


def test_exp_map_commutes_with_rotations(rng):
    c0, h0 = flow_setup(rng)
    ang = 0.9
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    p0 = exp_map(BESSEL, c0, h0, T=0.5, steps=64, stride=64)
    p1 = exp_map(BESSEL, make_curve(c0.samples @ rot.T), h0 @ rot.T, T=0.5, steps=64, stride=64)
    gap = np.max(np.abs(p1.endpoint.samples - p0.endpoint.samples @ rot.T))
    assert gap < 1e-8


def test_translations_are_not_geodesics(circle64):
    # a constant velocity field feels the w0 push along D_s v, so the flow
    # bends away from the straight translation it started on
    c0 = make_curve(circle64)
    u = np.tile([0.3, 0.2], (64, 1))
    path = exp_map(BESSEL, c0, u, T=1.0, steps=100, stride=100)
    straight = c0.samples + np.array([0.3, 0.2])
    deviation = np.max(np.abs(path.endpoint.samples - straight))
    assert deviation > 1e-3


def test_exp_map_flags_curve_degeneration():
    c0 = circle(32)
    theta = grid(32)
    h0 = 40.0 * np.column_stack([np.cos(9 * theta), np.sin(7 * theta)])
    with pytest.raises(FracsobError):
        exp_map(BESSEL, c0, h0, T=1.0, steps=16, stride=16)


def test_exp_map_energy_is_conserved(rng):
    c0, h0 = flow_setup(rng)
    path = exp_map(BESSEL, c0, h0, T=1.0, steps=100, stride=20)
    energies = [metric(BESSEL, f.curve, f.velocity, f.velocity) for f in path.frames]
    drift = (max(energies) - min(energies)) / energies[0]
    assert drift < 1e-6


def test_exp_map_agrees_with_spray_integration(rng):
    c0, h0 = flow_setup(rng)
    p0 = exp_map(BESSEL, c0, h0, T=0.25, steps=32, stride=32)
    p1 = exp_map_spray(BESSEL, c0, h0, T=0.25, steps=32, stride=32)
    scale = np.max(np.abs(p0.endpoint.samples))
    assert np.max(np.abs(p0.endpoint.samples - p1.endpoint.samples)) < 1e-6 * scale


def spray_loop_reference(cfg, c0, h0, T, steps, stride):
    """The hand-written spray-form RK4 loop exp_map_spray once ran on,
    returning its frames as (t, samples, velocity, momentum)."""
    dt = T / steps

    def rhs(samples, h):
        c = make_curve(samples)
        return c, spray(cfg, c, h)[0]

    x = np.array(c0.samples, dtype=float)
    h = np.array(h0, dtype=float)
    frames = []
    for n in range(steps):
        c, s = rhs(x, h)
        if n % stride == 0:
            frames.append((n * dt, c.samples, h.copy(), apply_conjugated(c, cfg.symbol, "identity", h)))
        k1x, k1h = h, s
        _, k2h = rhs(x + 0.5 * dt * k1x, h + 0.5 * dt * k1h)
        k2x = h + 0.5 * dt * k1h
        _, k3h = rhs(x + 0.5 * dt * k2x, h + 0.5 * dt * k2h)
        k3x = h + 0.5 * dt * k2h
        _, k4h = rhs(x + dt * k3x, h + dt * k3h)
        k4x = h + dt * k3h
        x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        h = h + dt / 6.0 * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
    c = make_curve(x)
    frames.append((T, c.samples, h.copy(), apply_conjugated(c, cfg.symbol, "identity", h)))
    return frames


def test_exp_map_spray_frames_equal_the_hand_written_spray_loop(rng):
    c0, h0 = flow_setup(rng)
    path = exp_map_spray(BESSEL, c0, h0, T=0.25, steps=32, stride=8)
    ref = spray_loop_reference(BESSEL, c0, h0, T=0.25, steps=32, stride=8)
    assert path.scheme == "rk4-spray"
    assert len(path.frames) == len(ref) == 5
    for f, (t, samples, velocity, momentum) in zip(path.frames, ref):
        assert f.t == t
        assert np.array_equal(f.curve.samples, samples)
        assert np.array_equal(f.velocity, velocity)
        assert np.array_equal(f.momentum, momentum)


def test_exp_map_spray_keeps_the_resolution_error():
    # the grid stops resolving the speed of the squeezed circle before it
    # pinches off, in both forms of the geodesic equation
    h0 = -10.0 * np.column_stack([np.cos(grid(64)), np.zeros(64)])
    for fn in (exp_map, exp_map_spray):
        with pytest.raises(ResolutionError, match="near t = "):
            fn(BESSEL, circle(), h0, T=1.0, steps=16)


def test_geodesic_path_validation(circle64):
    c = make_curve(circle64)
    vel = np.zeros((64, 2))
    with pytest.raises(GridError):
        GeodesicPath((), BESSEL)
    with pytest.raises(GridError):
        GeodesicPath((Frame(0.0, c, vel, vel), Frame(0.0, c, vel, vel)), BESSEL)
    with pytest.raises(GridError):
        GeodesicPath((Frame(0.0, c, np.zeros((32, 2)), None),), BESSEL)
    ok = GeodesicPath((Frame(0.0, c, vel, vel), Frame(1.0, c, vel, vel)), BESSEL)
    assert ok.endpoint is c


def translation_path(circle64, steps=8):
    u = np.array([0.25, -0.1])
    frames = []
    for t in np.linspace(0.0, 1.0, steps + 1):
        c = make_curve(circle64 + t * u)
        vel = np.tile(u, (64, 1))
        mu = apply_conjugated(c, BESSEL.symbol, "identity", vel)
        frames.append(Frame(float(t), c, vel, mu))
    return GeodesicPath(tuple(frames), BESSEL)


def test_conservation_report_on_a_clean_path(circle64):
    path = translation_path(circle64)
    report = conservation_report(path)
    assert report.ok
    assert report.flags["energy_drift_ok"]
    assert report.flags["momentum_consistent"]
    assert report.flags["immersed"]
    assert report.energy_drift < 1e-12
    payload = json.loads(report.to_json())
    assert len(payload["energies"]) == len(path.frames)


def test_conservation_report_flags_a_corrupted_frame(circle64):
    path = translation_path(circle64)
    frames = list(path.frames)
    bad = frames[3]
    frames[3] = Frame(bad.t, bad.curve, 2.0 * bad.velocity, bad.momentum)
    corrupted = GeodesicPath(tuple(frames), BESSEL)
    report = conservation_report(corrupted)
    assert not report.ok
    assert not report.flags["momentum_consistent"]
    assert not report.flags["energy_drift_ok"]


def test_conservation_report_applies_the_operator_once_per_frame(rng, monkeypatch):
    c0, h0 = flow_setup(rng)
    path = exp_map(BESSEL, c0, h0, T=0.5, steps=32, stride=2)
    expected = [metric(BESSEL, f.curve, f.velocity, f.velocity) for f in path.frames]
    bare = GeodesicPath(tuple(Frame(f.t, f.curve, f.velocity, None) for f in path.frames), BESSEL)
    calls = []
    real_apply = operators._apply

    # every application runs through the operators' core, _apply; metric and
    # solvers hold it by name, so it is counted in each module that does
    def counting(*args):
        calls.append(1)
        return real_apply(*args)

    monkeypatch.setattr(operators, "_apply", counting)
    monkeypatch.setattr(solvers, "_apply", counting)
    # fracsob.metric is the function metric(); import the module by name
    monkeypatch.setattr(importlib.import_module("fracsob.metric"), "_apply", counting)
    for p in (path, bare):
        calls.clear()
        report = conservation_report(p)
        assert len(calls) == len(p.frames) == 17
        assert np.array_equal(report.energies, expected)
    assert report.momentum_consistency == 0.0


def test_conservation_report_needs_two_frames(circle64):
    c = make_curve(circle64)
    vel = np.zeros((64, 2))
    path = GeodesicPath((Frame(0.0, c, vel, vel),), BESSEL)
    with pytest.raises(GridError):
        conservation_report(path)


def test_bvp_identical_target_needs_no_iterations():
    c0 = circle(32)
    res = geodesic_bvp(BESSEL, c0, c0, K=3, steps=32, T=1.0)
    assert res.converged
    assert res.iterations == 0
    assert res.residual < 1e-12
    assert np.max(np.abs(res.initial_velocity)) < 1e-12
    assert len(res.path.frames) >= 3


def test_bvp_recovers_a_known_shot():
    c0 = circle(32)
    theta = grid(32)
    h_true = 0.1 * np.column_stack([np.cos(theta) + 0.3 * np.sin(2 * theta), np.sin(theta)])
    target = exp_map(BESSEL, c0, h_true, T=1.0, steps=32, stride=32).endpoint
    res = geodesic_bvp(BESSEL, c0, target, K=3, steps=32, T=1.0)
    assert res.converged
    assert res.residual < 1e-6 * np.linalg.norm(target.samples)
    assert np.max(np.abs(res.initial_velocity - h_true)) < 1e-6


def test_bvp_carries_its_best_attempt_on_failure():
    c0 = circle(32)
    ang = 0.5
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    target = make_curve(1.2 * (circle(32).samples @ rot.T))
    with pytest.raises(NoConvergenceError) as err:
        geodesic_bvp(BESSEL, c0, target, K=3, steps=32, T=1.0, max_iter=1)
    result = err.value.result
    assert not result.converged
    assert result.iterations == 1
    assert result.path is not None
    assert len(result.path.frames) > 2


def test_bvp_validates_inputs():
    c0 = circle(32)
    with pytest.raises(GridError):
        geodesic_bvp(BESSEL, c0, circle(64), K=3, steps=32)
    with pytest.raises(DomainError):
        geodesic_bvp(BESSEL, c0, c0, K=40, steps=32)


def test_path_to_csv_layout(circle64):
    path = translation_path(circle64, steps=2)
    text = path_to_csv(path)
    lines = text.strip().split("\n")
    assert lines[0] == "t,k,x1,x2,v1,v2"
    assert len(lines) == 1 + 3 * 64
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[1]) == 0
    assert float(first[4]) == pytest.approx(0.25)


def rowwise_csv(path):
    """The writer that formats every value by repr(float(v)), as reference."""
    d = path.frames[0].curve.dim
    header = ["t", "k"] + [f"x{i + 1}" for i in range(d)] + [f"v{i + 1}" for i in range(d)]
    lines = [",".join(header)]
    for f in path.frames:
        vel = f.velocity if f.velocity is not None else np.zeros_like(f.curve.samples)
        for k in range(f.curve.n):
            row = [repr(float(f.t)), str(k)]
            row += [repr(float(v)) for v in f.curve.samples[k]]
            row += [repr(float(v)) for v in vel[k]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_path_to_csv_matches_the_rowwise_writer(rng):
    c0, h0 = flow_setup(rng)
    path = exp_map(BESSEL, c0, h0, T=0.25, steps=16, stride=4)
    last = path.frames[-1]
    bare = Frame(0.5, make_curve(3.0 * last.curve.samples), None, None)
    path = GeodesicPath(path.frames + (bare,), BESSEL)
    text = path_to_csv(path)
    assert text == rowwise_csv(path)
    assert text.count("\n") == 1 + len(path.frames) * 64


def test_path_to_json_roundtrip(circle64):
    path = translation_path(circle64, steps=2)
    payload = json.loads(path_to_json(path))
    assert len(payload["frames"]) == 3
    frame = payload["frames"][0]
    arr = np.asarray(frame["samples"])
    assert arr.shape == (64, 2)
    assert payload["frames"][-1]["t"] == pytest.approx(1.0)


def test_path_to_svg_draws_each_frame(circle64):
    path = translation_path(circle64, steps=4)
    text = path_to_svg(path)
    assert text.lstrip().startswith("<svg")
    assert text.count("<polyline") == 5
    assert "viewBox" in text


def test_each_rk4_stage_makes_no_fft_call_at_64_points_and_22_real_ones_at_256(count_calls):
    # a stage makes 11 real round trips: 2 in make_curve (the filtered
    # derivative and the antiderivative; psi's orientation is read off the
    # speed), one filter per operator application (3 + 2 from the refined
    # solve, 1 for the lambda-derivative), 2 in momentum_rhs and 1 for the
    # momentum filter. At N = 256 each is an rfft/irfft pair, 22 calls. At
    # N = 64 all are cached dense products: the 2 derivatives in
    # spectral._multiply_modes, the 7 filters in the operators' core filter
    # (operators._filter) and the 2 antiderivatives in
    # spectral.theta_antiderivative, so no numpy.fft call is made. The runs
    # store no frames, so the final frame's deep solve, whose stagnation
    # stop moves with rounding, does not enter the difference.
    count_calls(np.fft, "fft", "ifft", "rfft", "irfft")
    calls = count_calls(spectral, "_multiply_modes")
    # the operators and the momentum filter in _rk4 hold _filter by name
    count_calls(operators, "_filter")
    count_calls(solvers, "_filter")
    # make_curve and momentum_rhs hold theta_antiderivative by name
    count_calls(curves, "theta_antiderivative")
    count_calls(importlib.import_module("fracsob.metric"), "theta_antiderivative")
    cfg = MetricConfig(bessel_fractional(1.5))
    for n in (64, 256):
        rng = np.random.default_rng(0)
        c0 = make_curve(random_curve_samples(rng, n=n, amplitude=0.10))
        h0 = 0.5 * random_field(rng, n)
        exp_map(cfg, c0, h0, T=1.0, steps=16, stride=16)  # builds the cached round-trip matrices
        real, round_trips = {}, {}
        for steps in (16, 32):
            calls.update(dict.fromkeys(calls, 0))
            solvers._rk4(cfg, make_curve(c0.samples[None]), h0[None], 1.0, steps)
            assert calls["fft"] == calls["ifft"] == 0
            assert calls["rfft"] == calls["irfft"]
            real[steps] = calls["rfft"] + calls["irfft"]
            round_trips[steps] = (calls["_multiply_modes"], calls["_filter"], calls["theta_antiderivative"])
        multiplies, filters, antiderivatives = np.subtract(round_trips[32], round_trips[16])
        assert antiderivatives == 64 * 2
        assert filters == 64 * 7
        if n == 64:
            assert real[16] == real[32] == 0
            assert multiplies + filters == 64 * 9
        else:
            assert real[32] - real[16] == 64 * 22


@pytest.mark.parametrize("bad", [
    {"steps": 8}, {"T": 0.0}, {"T": -1.0}, {"T": float("nan")}, {"T": np.inf},
    {"tol_rel": -1.0}, {"tol_rel": 0.0}, {"tol_rel": float("nan")}, {"tol_rel": np.inf},
    {"damping": -1.0}, {"damping": float("nan")}, {"damping": np.inf}, {"max_iter": -1},
])
def test_geodesic_bvp_refuses_a_bad_schedule_before_any_work(bad, monkeypatch):
    # exp_map's schedule rule, checked before the first curve is built
    built = []
    monkeypatch.setattr(solvers, "make_curve", lambda s: built.append(s) or make_curve(s))
    c0 = circle(32)
    with pytest.raises(DomainError):
        geodesic_bvp(BESSEL, c0, make_curve(1.05 * c0.samples), K=2, **{"steps": 32, **bad})
    assert built == []


def test_conservation_report_names_the_first_frame_without_a_velocity(monkeypatch):
    path = exp_map(BESSEL, circle(), 0.1 * circle().samples, T=0.5, steps=MIN_STEPS, stride=4)
    frames = [Frame(f.t, f.curve, None, f.momentum) if i in (2, 3) else f for i, f in enumerate(path.frames)]

    def never(*args, **kwargs):
        raise AssertionError("the report applied an operator before checking its frames")

    monkeypatch.setattr(solvers, "apply_conjugated", never)
    with pytest.raises(GridError, match=r"needs stored velocities; the frame at t = 0\.25 has none"):
        conservation_report(GeodesicPath(tuple(frames), BESSEL))


def test_every_rk4_run_of_a_match_builds_4_steps_plus_1_curves(count_calls):
    # a shot batch's t = 0 curve serves its first stage, as exp_map's batch
    # of one does, so no run builds that curve twice; the Jacobian batch and
    # the trials not expected to converge run on half the steps
    c0 = circle(32)
    theta = grid(32)
    h_true = 0.1 * np.column_stack([np.cos(theta) + 0.3 * np.sin(2 * theta), np.sin(theta)])
    target = exp_map(BESSEL, c0, h_true, T=1.0, steps=32, stride=32).endpoint
    calls = count_calls(solvers, "make_curve")
    res = geodesic_bvp(BESSEL, c0, target, K=3, steps=32, T=1.0)
    assert res.converged and res.integrations >= 2 and res.shots > res.integrations
    assert res.jacobians == 1
    assert res.run_steps[0] == 16 and len(res.run_steps) == res.integrations
    assert calls["make_curve"] == sum(4 * steps + 1 for steps in res.run_steps)


REMOVED_KEYWORDS = {
    "geodesic_bvp": {"fd_step": 1e-6, "stride": 2},
    "conservation_report": {"drift_tol": 1e-6, "consistency_tol": 1e-8},
    "path_to_svg": {"size": 480, "margin": 24.0, "stride": 1},
    "MetricConfig": {"validation_range": (0.5, 20.0)},
    "class_report": {"lambda_samples": 5},
    "_invert_monotone": {"tol": 1e-12, "max_iter": 60},
}


@pytest.mark.parametrize("name, keyword", [(n, k) for n, kws in REMOVED_KEYWORDS.items() for k in kws])
def test_each_setting_that_became_a_constant_is_no_keyword(name, keyword):
    c = circle(32)
    path = translation_path(circle().samples, steps=2)
    calls = {
        "geodesic_bvp": lambda **kw: geodesic_bvp(BESSEL, c, c, K=1, steps=MIN_STEPS, **kw),
        "conservation_report": lambda **kw: conservation_report(path, **kw),
        "path_to_svg": lambda **kw: path_to_svg(path, **kw),
        "MetricConfig": lambda **kw: MetricConfig(bessel_fractional(1.5), **kw),
        "class_report": lambda **kw: class_report(bessel_fractional(1.5), (0.5, 20.0), **kw),
        "_invert_monotone": lambda **kw: curves._invert_monotone(c.psi.displacement, **kw),
    }
    with pytest.raises(TypeError, match=keyword):
        calls[name](**{keyword: REMOVED_KEYWORDS[name][keyword]})
