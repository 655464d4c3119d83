"""Batched shots: a batch of geodesics integrates member by member.

The batch integrator behind exp_map and geodesic_bvp stacks curves along a
leading axis. These tests hold every member to what it gets alone: the same
layers, the same endpoint, the same failure, and the same shooting
iterations as the one-column-at-a-time Jacobian loop and as the loop whose
initial shot runs apart from its Jacobian columns.
"""

import warnings

import numpy as np
import pytest
from conftest import match_input

from fracsob import curves, solvers
from fracsob.checks import random_curve_samples, random_field
from fracsob.curves import make_curve
from fracsob.errors import (
    GridError,
    ImmersionError,
    NoConvergenceError,
    ResolutionError,
    StepError,
)
from fracsob.metric import MetricConfig, metric, momentum_rhs, path_energy
from fracsob.operators import VARIANTS, apply_conjugated, solve_conjugated
from fracsob.solvers import MIN_STEPS, exp_map, geodesic_bvp
from fracsob.spectral import TWO_PI, grid
from fracsob.symbols import bessel_fractional, constant_coefficient

BESSEL = MetricConfig(bessel_fractional(1.5))


def circle(n):
    theta = grid(n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def column_velocities(n, K, x, fd_step=1e-6):
    """Initial velocities of the forward-difference columns at coefficients x."""
    basis = solvers._fourier_basis(n, K)
    deltas = fd_step * np.maximum(1.0, np.abs(x))
    xs = x + np.diag(deltas)
    return basis @ xs.reshape(len(xs), basis.shape[1], -1)


@pytest.mark.parametrize("n", [64, 256])
def test_band_basis_holds_the_real_and_minus_imaginary_parts_of_e(n):
    c = make_curve(random_curve_samples(np.random.default_rng(n), n=n, amplitude=0.10))
    m = np.arange(n // 3 + 1)
    grid_phase = np.exp(1j * TWO_PI / n * (np.outer(np.arange(n), m) % n))
    ee = np.exp(1j * np.outer(c.psi.displacement, m)) * grid_phase
    basis = c.psi.band_basis
    assert basis.dtype == float
    assert basis.shape == (n, 2 * m.size)
    assert np.max(np.abs(basis[:, : m.size] - ee.real)) <= 1e-15
    assert np.max(np.abs(basis[:, m.size :] + ee.imag)) <= 1e-15


@pytest.mark.parametrize("cfg", [BESSEL, MetricConfig(constant_coefficient((1.0, 1.0)))])
def test_batched_layers_give_each_member_what_it_gets_alone(cfg):
    n = 64
    rng = np.random.default_rng(5)
    samples = np.stack([
        circle(n),
        random_curve_samples(rng, n=n, amplitude=0.10),
        circle(n) * 1.3 + [0.3, -0.2],
        random_curve_samples(rng, n=n, amplitude=0.15),
    ])
    fields = np.stack([random_field(rng, n, modes=3) for _ in samples])
    batch = make_curve(samples)
    singles = [make_curve(s) for s in samples]
    assert batch.psi.is_identity.tolist() == [True, False, True, False]
    for i, c in enumerate(singles):
        assert batch.length[i] == c.length
        assert np.array_equal(batch.speed[i], c.speed)
    for variant in VARIANTS:
        out = apply_conjugated(batch, cfg.symbol, variant, fields)
        for i, c in enumerate(singles):
            assert rel_gap(out[i], apply_conjugated(c, cfg.symbol, variant, fields[i])) <= 1e-13
    scalar = apply_conjugated(batch, cfg.symbol, "identity", fields[..., 0])
    mu = apply_conjugated(batch, cfg.symbol, "identity", fields)
    h = solve_conjugated(batch, cfg.symbol, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = momentum_rhs(cfg, batch, h, ah=mu)
        for i, c in enumerate(singles):
            assert rel_gap(scalar[i], apply_conjugated(c, cfg.symbol, "identity", fields[i, :, 0])) <= 1e-13
            h_i = solve_conjugated(c, cfg.symbol, mu[i])
            assert rel_gap(h[i], h_i) <= 1e-13
            assert rel_gap(g[i], momentum_rhs(cfg, c, h_i, ah=mu[i])) <= 1e-13


@pytest.mark.parametrize(
    "n, K, start",
    [(64, 2, "bent"), (64, 8, "circle"), (256, 2, "circle"), (256, 8, "bent")],
)
def test_every_batched_endpoint_equals_its_own_exp_map(n, K, start):
    rng = np.random.default_rng(n + K)
    d = 2
    if start == "circle":
        # a pure scaling keeps the circle a circle (identity psi all the
        # way), while its forward-difference columns bend it
        samples = circle(n)
        x = np.zeros((2 * K + 1) * d)
        x[2], x[5] = 0.3, 0.3
        h0s = np.concatenate([[solvers._fourier_basis(n, K) @ x.reshape(-1, d)], column_velocities(n, K, x)])
    else:
        samples = random_curve_samples(rng, n=n, amplitude=0.10)
        decay = np.repeat(1.0 / (1.0 + np.arange(2 * K + 1) // 2) ** 2, d)
        x = 0.2 * decay * rng.standard_normal((2 * K + 1) * d)
        h0s = column_velocities(n, K, x)
    c0 = make_curve(samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ends, _, errors = solvers._rk4(BESSEL, make_curve(np.broadcast_to(samples, h0s.shape)), h0s, 0.5, 16)
        assert errors == {}
        if start == "circle":
            flat = make_curve(np.stack(ends)).psi.is_identity
            assert flat[0] and not flat[1:].any()
        for end, h0 in zip(ends, h0s):
            alone = exp_map(BESSEL, c0, h0, T=0.5, steps=16, stride=16).endpoint.samples
            assert rel_gap(end, alone) <= 1e-12


def test_public_solvers_refuse_a_batch_of_curves():
    pair = make_curve(np.stack([circle(32), 1.1 * circle(32)]))
    single = make_curve(circle(32))
    with pytest.raises(GridError):
        exp_map(BESSEL, pair, np.zeros((2, 32, 2)), steps=16)
    with pytest.raises(GridError):
        geodesic_bvp(BESSEL, single, pair, K=2, steps=16)


def test_a_member_that_pinches_off_fails_alone_at_its_own_time():
    n = 64
    rng = np.random.default_rng(3)
    theta = grid(n)
    # the x extent collapses in the second RK4 stage of the first step
    pinch = np.column_stack([-32.0 * np.cos(theta), np.zeros(n)])
    h0s = np.stack([0.2 * random_field(rng, n, modes=3), pinch, 0.2 * random_field(rng, n, modes=3)])
    c0 = make_curve(circle(n))
    with pytest.raises(ImmersionError) as alone:
        exp_map(BESSEL, c0, pinch, T=1.0, steps=16, stride=16)
    assert "near t = 0.03125" in str(alone.value)

    def batch(rows):
        starts = make_curve(np.broadcast_to(circle(n), (len(rows), n, 2)))
        return solvers._rk4(BESSEL, starts, h0s[rows], 1.0, 16)

    ends, _, errors = batch([0, 1, 2])
    assert list(errors) == [1]
    assert isinstance(errors[1], ImmersionError)
    assert str(errors[1]) == str(alone.value)
    assert ends[1] is None
    survivors, _, none_failed = batch([0, 2])
    assert none_failed == {}
    for end, other in zip((ends[0], ends[2]), survivors):
        assert np.array_equal(end, other)
    for end, h0 in zip((ends[0], ends[2]), h0s[[0, 2]]):
        assert rel_gap(end, exp_map(BESSEL, c0, h0, T=1.0, steps=16, stride=16).endpoint.samples) <= 1e-12


@pytest.mark.parametrize(
    "poisoned_call, message",
    [
        # the first stage of step 2: the next stage's velocity is nonfinite
        (4, "nonfinite state near t = 0.046875"),
        # the last stage of step 1: the step's update is nonfinite
        (3, "nonfinite state after step 1 (t = 0.03125)"),
    ],
)
def test_a_member_that_goes_nonfinite_stops_alone_with_a_step_error(monkeypatch, poisoned_call, message):
    n = 64
    rng = np.random.default_rng(11)
    samples = random_curve_samples(rng, n=n, amplitude=0.10)
    h0s = np.stack([0.3 * random_field(rng, n, modes=3) for _ in range(3)])
    c0 = make_curve(samples)
    alone = [exp_map(BESSEL, c0, h0, T=0.5, steps=16, stride=16).endpoint.samples for h0 in h0s]
    calls = []

    def poisoned(*args, **kwargs):
        g = momentum_rhs(*args, **kwargs)
        if len(calls) == poisoned_call:
            g[1] = np.nan
        calls.append(1)
        return g

    monkeypatch.setattr(solvers, "momentum_rhs", poisoned)
    starts = make_curve(np.broadcast_to(samples, h0s.shape))
    ends, frames, errors = solvers._rk4(BESSEL, starts, h0s, 0.5, 16, 4)
    assert list(errors) == [1]
    assert isinstance(errors[1], StepError)
    assert str(errors[1]) == message
    assert ends[1] is None
    assert [len(f) for f in frames] == [5, 1, 5]
    for b in (0, 2):
        assert rel_gap(ends[b], alone[b]) <= 1e-12


def test_a_column_whose_shot_fails_is_retried_with_the_step_negated(monkeypatch):
    n, K = 32, 2
    theta = grid(n)
    c0 = make_curve(circle(n))
    h_true = 0.1 * np.column_stack([np.cos(theta) + 0.3 * np.sin(2 * theta), np.sin(theta)])
    target = exp_map(BESSEL, c0, h_true, T=1.0, steps=32, stride=32).endpoint
    real = solvers._rk4
    calls = []

    def failing_column(cfg, starts, h0s, T, steps, stride=None):
        ends, frames, errors = real(cfg, starts, h0s, T, steps, stride)
        calls.append(np.array(h0s))
        if len(calls) == 1:
            # row 0 is the initial shot, so column 3 is member 4
            ends[4] = None
            errors[4] = ImmersionError("injected")
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", failing_column)
    with pytest.raises(NoConvergenceError) as err:
        geodesic_bvp(BESSEL, c0, target, K=K, steps=32, T=1.0, max_iter=1, tol_rel=1e-30)
    base, columns, retry = calls[0][0], calls[0][1:], calls[1]
    assert len(columns) == (2 * K + 1) * 2
    assert retry.shape == (1, n, 2)
    # forward column j moved x_j by +delta; its retry moves it by -delta
    assert np.max(np.abs(retry[0] - (2.0 * base - columns[3]))) <= 1e-12
    result = err.value.result
    # with max_iter=1 no trial carries columns: every trial runs alone and
    # keeps its frames, so the presented path needs no run of its own
    assert result.shots == 1 + len(columns) + 1 + (len(calls) - 2)
    assert result.integrations == len(calls)


def test_a_column_that_loses_resolution_is_retried_with_the_step_negated(monkeypatch):
    # make_curve's orientation check fails for forward column 3 at its first
    # stage, as it does for a curve whose speed the grid no longer resolves;
    # make_curve turns that into a failed member, not an aborted match
    n, K = 32, 2
    c0 = make_curve(circle(n))
    target = make_curve(1.1 * circle(n))
    real_rk4, real_slope = solvers._rk4, curves._psi_slope
    calls, errors_seen = [], []
    trips = iter(())

    def tripping_slope(speed, mean):
        slope = real_slope(speed, mean)
        return slope - 1.01 if next(trips, False) else slope

    def watching(cfg, starts, h0s, T, steps, stride=None):
        nonlocal trips
        calls.append(np.array(h0s))
        if len(calls) == 1:
            # the first make_curve of the initial shot and its columns: the
            # whole batch, then members 0..4 alone (column 3 is member 4)
            trips = iter((True, False, False, False, False, True))
        ends, frames, errors = real_rk4(cfg, starts, h0s, T, steps, stride)
        errors_seen.append(dict(errors))
        return ends, frames, errors

    monkeypatch.setattr(curves, "_psi_slope", tripping_slope)
    monkeypatch.setattr(solvers, "_rk4", watching)
    with pytest.raises(NoConvergenceError) as err:
        geodesic_bvp(BESSEL, c0, target, K=K, steps=16, T=1.0, max_iter=1, tol_rel=1e-30)
    assert list(errors_seen[0]) == [4]
    assert isinstance(errors_seen[0][4], ResolutionError)
    assert "near t = 0" in str(errors_seen[0][4])
    assert "not orientation preserving" in str(errors_seen[0][4])
    base, columns, retry = calls[0][0], calls[0][1:], calls[1]
    assert retry.shape == (1, n, 2)
    assert np.max(np.abs(retry[0] - (2.0 * base - columns[3]))) <= 1e-12
    assert errors_seen[1] == {}
    assert err.value.result.iterations == 1


def reference_bvp(cfg, c0, c1, K, steps, T=1.0, max_iter=50, tol_rel=1e-6, damping=1e-3, fd_step=1e-6,
                  batch_columns=True):
    """The shooting loop whose initial shot and trial shots run alone
    without frames, and whose presented path is one more exp_map run, as
    reference. The match runs on the model, a quarter of the steps, until a
    full-step shot misses or the model stalls, then on all the steps. A
    Jacobian is differenced on the steps of the match's phase against the
    residual the match holds at its point: at the start the initial shot,
    the anchor at x0. The columns run as one batch, or one run each with
    batch_columns=False. On the model a trial runs on steps when its linear
    model meets the tolerance (the answer, or the point the match goes on
    from), else on the model; a model residual that meets the tolerance is
    replaced by its point's lone shot on steps; an accepted model step that
    gains less than the tolerance, or an iteration without an accepted
    step, stalls the model. Broyden updates after accepted steps of one
    step count, a new difference after a step rejected under an updated
    Jacobian, the damping tenfold after a rejection under a fresh one."""
    n, d = c0.n, c0.dim
    basis = solvers._fourier_basis(n, K)
    n_coef = basis.shape[1]
    tol_abs = tol_rel * max(float(np.linalg.norm(c1.samples)) * np.sqrt(TWO_PI / n), 1e-300)
    out_stride = max(1, steps // 16)
    model = max(MIN_STEPS // 2, steps // 4)
    lams = []

    def shoot(xs, run_steps):
        starts = make_curve(np.broadcast_to(c0.samples, (len(xs), n, d)))
        ends, _, _ = solvers._rk4(cfg, starts, basis @ xs.reshape(len(xs), n_coef, d), T, run_steps)
        return [None if end is None else (end - c1.samples).ravel() * np.sqrt(TWO_PI / n) for end in ends]

    def shoot_columns(xs, run_steps):
        if batch_columns:
            return shoot(xs, run_steps)
        return [rp for x_j in xs for rp in shoot(x_j[None], run_steps)]

    def jacobian(x, run_steps, base):
        deltas = fd_step * np.maximum(1.0, np.abs(x))
        probes = np.diag(deltas)
        cols = shoot_columns(x + probes, run_steps)
        retry = [j for j, rp in enumerate(cols) if rp is None]
        if retry:
            for j, rp in zip(retry, shoot_columns(x - probes[retry], run_steps)):
                cols[j] = rp
                deltas[j] = -deltas[j]
        jac = np.empty((base.size, x.size))
        for j, rp in enumerate(cols):
            jac[:, j] = 0.0 if rp is None else (rp - base) / deltas[j]
        return jac

    def finish(x, residual, converged):
        h0 = basis @ x.reshape(n_coef, d)
        path = exp_map(cfg, c0, h0, T=T, steps=steps, stride=out_stride)
        return solvers.ShootingResult(h0, residual, iterations, path, converged, damping=tuple(lams))

    coef0, *_ = np.linalg.lstsq(basis, (c1.samples - c0.samples) / T, rcond=None)
    x = coef0.ravel()
    iterations = 0
    # the initial shot is the base of the first Jacobian
    [r] = r0 = shoot(x[None], model)
    jac, updated, full = None, False, False
    lam = damping
    moved = True
    while True:
        if not full and np.linalg.norm(r) <= tol_abs:
            [r], full = shoot(x[None], steps), True
        if np.linalg.norm(r) <= tol_abs or iterations >= max_iter or not moved:
            break
        jac_steps = steps if full else model
        if jac is None:
            jac = jacobian(x, model, r0[0])
        iterations += 1
        moved = stalled = False
        for _ in range(12):
            jtj = jac.T @ jac
            diag = np.diag(jtj).copy()
            diag[diag <= 0] = 1.0
            dx = np.linalg.solve(jtj + lam * np.diag(diag), -(jac.T @ r))
            lams.append(lam)
            if not full and np.linalg.norm(r + jac @ dx) <= tol_abs:
                [r_new] = shoot((x + dx)[None], steps)
                if r_new is not None:
                    x, r, full, moved = x + dx, r_new, True, True
                    break
            else:
                [r_new] = shoot((x + dx)[None], jac_steps)
                if r_new is not None and np.linalg.norm(r_new) < np.linalg.norm(r):
                    jac, updated = jac + np.outer(r_new - r - jac @ dx, dx) / (dx @ dx), True
                    stalled = not full and np.linalg.norm(r) - np.linalg.norm(r_new) < tol_abs
                    x, r, moved = x + dx, r_new, True
                    lam = max(lam / 3.0, 1e-12)
                    break
            if updated:
                jac, updated = jacobian(x, jac_steps, r), False
                continue
            lam *= 10.0
        if not full and (stalled or not moved):
            [r], full, moved = shoot(x[None], steps), True, True
    if not full:
        [r] = shoot(x[None], steps)
    norm_r = float(np.linalg.norm(r))
    return finish(x, norm_r, norm_r <= tol_abs)


def seeded_match(seed=0):
    """(c0, c1) of match_input(seed), or of match_input(*seed) for a (seed, index) pair."""
    c0, _, c1 = match_input(*seed) if isinstance(seed, tuple) else match_input(seed)
    return c0, c1


def test_batched_columns_reproduce_the_sequential_column_loop():
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = reference_bvp(BESSEL, c0, c1, K=2, steps=32, batch_columns=False)
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert ref.converged and res.converged
    assert res.iterations == ref.iterations
    assert abs(res.residual - ref.residual) <= 1e-10 * ref.residual
    assert rel_gap(res.initial_velocity, ref.initial_velocity) <= 1e-10


def test_shooting_counts_its_shots_and_integrations():
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    # the initial shot together with the (2K+1)*d = 10 Jacobian columns,
    # then one lone trial step per iteration on the Broyden-updated
    # Jacobian; the presented path is the last trial's frames
    assert res.iterations == 2
    assert res.shots == (1 + 10) + 1 + 1
    assert res.integrations == 3
    assert res.jacobians == 1
    assert res.damping == (1e-3, 1e-3 / 3.0)


def assert_same_path(path, ref):
    assert len(path.frames) == len(ref.frames)
    for f, g in zip(path.frames, ref.frames):
        assert f.t == g.t
        assert np.array_equal(f.curve.samples, g.curve.samples)
        assert np.array_equal(f.velocity, g.velocity)
        assert np.array_equal(f.momentum, g.momentum)


def recording_rk4(monkeypatch, reject=()):
    """Record the initial velocities of every RK4 run; the runs numbered in
    reject lose their first member, as rejected trial shots."""
    real = solvers._rk4
    calls = []

    def recording(cfg, starts, h0s, *args, **kwargs):
        calls.append(np.array(h0s).reshape(-1, starts.n, starts.dim))
        ends, frames, errors = real(cfg, starts, h0s, *args, **kwargs)
        if len(calls) in reject:
            ends[0] = None
            errors[0] = ImmersionError("injected")
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", recording)
    return calls


@pytest.mark.parametrize("reject_second_trial", [False, True])
def test_broyden_updates_reproduce_the_lone_shot_loop(monkeypatch, reject_second_trial):
    # run 1 of geodesic_bvp is the initial shot with the 10 Jacobian
    # columns on the model's steps, runs 1 and 2 of the reference; the
    # second trial, the first whose linear model meets the tolerance and so
    # the first on all the steps, is run 3 there and run 4 here
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref_calls = recording_rk4(monkeypatch, (4,) if reject_second_trial else ())
        ref = reference_bvp(BESSEL, c0, c1, K=2, steps=32)
        monkeypatch.undo()
        calls = recording_rk4(monkeypatch, (3,) if reject_second_trial else ())
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert ref.converged and res.converged
    assert res.iterations == ref.iterations == 2
    assert res.residual == ref.residual
    assert np.array_equal(res.initial_velocity, ref.initial_velocity)
    assert_same_path(res.path, ref.path)
    assert res.damping == ref.damping
    sizes = [len(h) for h in calls]
    if reject_second_trial:
        # the trial rejected under the updated Jacobian makes the solver
        # difference again at the same point, its 10 columns against the
        # residual it holds there, and retry at the same damping
        assert sizes[:5] == [11, 1, 1, 10, 1]
        assert res.damping[:3] == (1e-3, 1e-3 / 3.0, 1e-3 / 3.0)
        assert res.jacobians == 2
    else:
        assert sizes == [11, 1, 1]
        assert res.jacobians == 1
    # every shot of the reference, its closing exp_map run aside, is shot
    # bitwise alike
    assert [len(h) for h in ref_calls][-1] == 1
    assert np.array_equal(np.concatenate(calls), np.concatenate(ref_calls[:-1]))
    assert res.shots == sum(sizes)
    assert res.integrations == len(sizes)


def test_each_broyden_update_maps_the_step_to_the_residual_change(monkeypatch):
    c0, c1 = seeded_match()
    real, updates = solvers._broyden, []

    def recording(jac, dx, dr):
        new = real(jac, dx, dr)
        updates.append((jac, dx, dr, new))
        return new

    monkeypatch.setattr(solvers, "_broyden", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    # the converging trial runs on all the steps after a model step, so it
    # makes no secant across the two step counts
    assert res.converged and len(updates) == res.iterations - 1 == 1
    rng = np.random.default_rng(1)
    for jac, dx, dr, new in updates:
        # the secant condition, to rounding
        assert np.max(np.abs(new @ dx - dr)) <= 1e-12 * np.max(np.abs(dr))
        # a direction orthogonal to the step keeps its image
        v = rng.standard_normal(dx.size)
        v -= (v @ dx) / (dx @ dx) * dx
        assert np.max(np.abs(new @ v - jac @ v)) <= 1e-12 * np.max(np.abs(jac @ v))


def test_the_returned_path_is_the_exp_map_of_the_returned_velocity():
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
        alone = exp_map(BESSEL, c0, res.initial_velocity, T=1.0, steps=32, stride=2)
    assert len(res.path.frames) == 17
    assert_same_path(res.path, alone)


def test_the_match_path_energy_is_half_the_initial_metric_over_time():
    # a geodesic's speed is constant, so its energy is T/2 G_c0(h0, h0)
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32, T=1.0)
        energy = path_energy(BESSEL, res.path)
        expected = 1.0 / 2.0 * metric(BESSEL, c0, res.initial_velocity, res.initial_velocity)
    assert res.converged
    assert abs(energy - expected) <= 1e-6 * expected


def refuse_exp_map(*args, **kwargs):
    raise AssertionError("geodesic_bvp called exp_map")


def test_a_converging_trial_is_the_returned_path_with_no_run_after_it(monkeypatch):
    # every trial runs alone with its frames, so the converging one is the
    # path: no lone re-shoot and no exp_map
    c0, c1 = seeded_match(seed=(0, 4))
    calls = recording_rk4(monkeypatch)
    monkeypatch.setattr(solvers, "exp_map", refuse_exp_map)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
        monkeypatch.undo()
        alone = exp_map(BESSEL, c0, res.initial_velocity, T=1.0, steps=32, stride=2)
    assert res.converged and res.iterations == 3
    assert [len(h) for h in calls] == [11, 1, 1, 1]
    assert np.array_equal(calls[-1][0], res.initial_velocity)
    assert res.shots == (1 + 10) + 3
    assert res.integrations == 4
    assert res.jacobians == 1
    assert_same_path(res.path, alone)


def rejecting_trials(monkeypatch, runs):
    """Record the sizes of every RK4 run; the runs numbered in `runs` lose
    their first member, as rejected trial shots."""
    real = solvers._rk4
    sizes = []

    def rejecting(cfg, starts, h0s, *args, **kwargs):
        sizes.append(len(h0s))
        ends, frames, errors = real(cfg, starts, h0s, *args, **kwargs)
        if len(sizes) in runs:
            ends[0] = None
            errors[0] = ImmersionError("injected")
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", rejecting)
    return sizes


def test_a_stalled_match_whose_best_velocity_was_shot_in_a_batch_shoots_it_again_alone(monkeypatch):
    # with max_iter=1 the initial shot carries the columns and the 12 trials
    # run alone; when all are rejected the model stalls at the initial
    # velocity, which is shot alone on all the steps
    c0, c1 = seeded_match()
    sizes = rejecting_trials(monkeypatch, range(2, 14))
    monkeypatch.setattr(solvers, "exp_map", refuse_exp_map)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NoConvergenceError) as err:
            geodesic_bvp(BESSEL, c0, c1, K=2, steps=32, max_iter=1)
        monkeypatch.undo()
        result = err.value.result
        alone = exp_map(BESSEL, c0, result.initial_velocity, T=1.0, steps=32, stride=2)
    assert result.iterations == 1 and not result.converged
    assert sizes == [11] + [1] * 12 + [1]
    assert result.shots == 11 + 12 + 1
    assert result.integrations == 14
    # trials rejected under the differenced Jacobian raise the damping tenfold
    assert result.jacobians == 1
    assert result.damping == tuple(1e-3 * 10.0**k for k in range(12))
    assert_same_path(result.path, alone)


def test_a_best_velocity_whose_lone_shot_fails_raises_an_immersion_error(monkeypatch):
    # the lone shot of a velocity first shot in a batch never stops a path
    # short silently
    c0, c1 = seeded_match()
    rejecting_trials(monkeypatch, range(2, 15))
    with pytest.raises(ImmersionError, match="full-step shot of the current velocity"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            geodesic_bvp(BESSEL, c0, c1, K=2, steps=32, max_iter=1)


def test_an_identical_target_takes_one_shot_whose_frames_are_the_path():
    c0 = make_curve(random_curve_samples(np.random.default_rng(7), n=64, amplitude=0.10))
    res = geodesic_bvp(BESSEL, c0, c0, K=2, steps=32)
    assert res.converged and res.iterations == 0
    assert res.shots == 1
    assert res.integrations == 1
    assert res.jacobians == 0 and res.damping == ()
    assert_same_path(res.path, exp_map(BESSEL, c0, res.initial_velocity, T=1.0, steps=32, stride=2))


def near_target(c0):
    """A target that differs from c0, but by less than the default tolerance."""
    c1 = make_curve(c0.samples + 1e-9 * random_field(np.random.default_rng(8), c0.n, modes=2))
    gap = solvers._l2_norm(c1.samples - c0.samples, c0.n)
    assert 0.0 < gap <= 1e-6 * solvers._l2_norm(c1.samples, c0.n)
    return c1


def test_a_target_within_tolerance_of_the_source_takes_one_lone_shot(monkeypatch):
    c0 = make_curve(random_curve_samples(np.random.default_rng(7), n=64, amplitude=0.10))
    c1 = near_target(c0)
    calls = recording_rk4(monkeypatch)
    res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    monkeypatch.undo()
    assert [len(h) for h in calls] == [1]
    assert res.converged and res.iterations == 0
    assert np.any(res.initial_velocity != 0.0)
    assert res.shots == res.integrations == 1
    assert_same_path(res.path, exp_map(BESSEL, c0, res.initial_velocity, T=1.0, steps=32, stride=2))


def test_max_iter_zero_takes_one_lone_shot_whose_frames_are_the_path(monkeypatch):
    c0, c1 = seeded_match()
    calls = recording_rk4(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NoConvergenceError) as err:
            geodesic_bvp(BESSEL, c0, c1, K=2, steps=32, max_iter=0)
        monkeypatch.undo()
        alone = exp_map(BESSEL, c0, err.value.result.initial_velocity, T=1.0, steps=32, stride=2)
    result = err.value.result
    assert [len(h) for h in calls] == [1]
    assert result.iterations == 0
    assert result.shots == result.integrations == 1
    assert_same_path(result.path, alone)


@pytest.mark.parametrize("target, runs", [("far", [11] * 4), ("near", [1] * 4)])
def test_a_failing_initial_shot_raises_the_same_error_alone_or_in_a_batch(monkeypatch, target, runs):
    # the start is halved three times before the match gives up
    c0, c1 = seeded_match()
    if target == "near":
        c1 = near_target(c0)
    calls = recording_rk4(monkeypatch, reject=range(1, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ImmersionError) as err:
            geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert str(err.value) == "the initial shot already leaves the immersion set"
    assert [len(h) for h in calls] == runs
    for k, h in enumerate(calls):
        assert np.array_equal(h[0], 0.5**k * calls[0][0])


def test_a_failing_initial_shot_is_halved_and_each_attempt_is_counted(monkeypatch):
    c0, c1 = seeded_match()
    runs = recording_runs(monkeypatch, reject=(1,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert res.converged
    assert runs[:2] == [(11, 8), (11, 8)]
    assert res.run_steps == tuple(steps for _, steps in runs)
    assert res.shots == sum(size for size, _ in runs)
    assert res.jacobians == 1


def recording_runs(monkeypatch, base_end=None, reject=()):
    """Record (members, steps) of every RK4 run. The initial shot, the first
    run's first member, ends at base_end when that is given; the runs
    numbered in reject lose their first member, as rejected trial shots."""
    real = solvers._rk4
    runs = []

    def recording(cfg, starts, h0s, T, steps, *args, **kwargs):
        runs.append((len(h0s), steps))
        ends, frames, errors = real(cfg, starts, h0s, T, steps, *args, **kwargs)
        if base_end is not None and len(runs) == 1:
            ends[0] = base_end
        if len(runs) in reject:
            ends[0] = None
            errors[0] = ImmersionError("injected")
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", recording)
    return runs


def test_the_seeded_match_runs_8_8_32_steps_and_only_the_32_step_run_keeps_frames(monkeypatch):
    # match_n64's first input: the Jacobian batch and the first trial run on
    # the model's quarter of the steps; the second trial, whose linear model
    # meets the tolerance, runs on all of them with its frames and is the
    # answer
    c0, _, c1 = match_input(0, 0)
    real, runs = solvers._rk4, []

    def recording(cfg, starts, h0s, T, steps, stride=None):
        ends, frames, errors = real(cfg, starts, h0s, T, steps, stride)
        runs.append((steps, [len(f) for f in frames]))
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert res.converged
    assert [steps for steps, _ in runs] == [8, 8, 32]
    assert res.run_steps == (8, 8, 32)
    assert [kept for _, kept in runs] == [[0] * 11, [0], [17]]
    assert len(res.run_steps) == res.integrations


#: match_n64's (iterations, shots, run_steps) on its seed 0 inputs 0-7
MATCH_N64_COUNTS = [
    (2, 13, (8, 8, 32)), (2, 13, (8, 8, 32)), (3, 14, (8, 8, 32, 32)), (2, 13, (8, 8, 32)),
    (3, 14, (8, 8, 32, 32)), (3, 14, (8, 8, 32, 32)), (2, 13, (8, 8, 32)), (2, 13, (8, 8, 32)),
]


def test_match_n64_inputs_keep_their_iterations_and_shots():
    counts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for index in range(8):
            c0, h_true, c1 = match_input(0, index)
            res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
            assert res.converged
            assert np.linalg.norm(res.initial_velocity - h_true) <= 1e-4 * np.linalg.norm(h_true)
            counts.append((res.iterations, res.shots, res.run_steps))
    assert counts == MATCH_N64_COUNTS


#: (iterations, shots, jacobians, (8-step runs, 32-step runs)) of the survey's
#: matches at 1, 2 and 3 times match_n64's scale, seed 0 inputs 0-7
SURVEY_COUNTS = {
    1.0: [
        (3, 14, 1, (3, 1)), (3, 14, 1, (3, 1)), (4, 15, 1, (3, 2)), (3, 14, 1, (3, 1)),
        (4, 15, 1, (3, 2)), (4, 15, 1, (3, 2)), (2, 13, 1, (2, 1)), (4, 15, 1, (3, 2)),
    ],
    2.0: [
        (5, 16, 1, (4, 2)), (7, 19, 1, (7, 2)), (9, 21, 1, (8, 3)), (6, 18, 1, (6, 2)),
        (9, 34, 2, (12, 3)), (7, 19, 1, (7, 2)), (4, 15, 1, (3, 2)), (8, 20, 1, (7, 3)),
    ],
    3.0: [
        (7, 18, 1, (6, 2)), (13, 25, 1, (9, 6)), (12, 24, 1, (10, 4)), (19, 116, 7, (26, 16)),
        (15, 38, 1, (12, 6)), (8, 20, 1, (7, 3)), (6, 18, 1, (6, 2)), (9, 43, 3, (12, 3)),
    ],
}


@pytest.mark.parametrize("s", SURVEY_COUNTS)
def test_survey_matches_converge_on_8_step_runs_then_32_step_runs_at_their_counts(s):
    counts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for index in range(8):
            c0, h_true, c1 = match_input(0, index, s=s)
            res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
            assert res.converged
            assert np.linalg.norm(res.initial_velocity - h_true) <= 1e-4 * np.linalg.norm(h_true)
            model, full = res.run_steps.count(8), res.run_steps.count(32)
            # the model's runs, then the full-step ones
            assert res.run_steps == (8,) * model + (32,) * full
            counts.append((res.iterations, res.shots, res.jacobians, (model, full)))
    assert counts == SURVEY_COUNTS[s]


def fd_jacobian(c0, c1, K, steps):
    """The forward-difference Jacobian at geodesic_bvp's initial coefficients,
    its base and columns from one batch of the given step count."""
    n, d = c0.n, c0.dim
    basis = solvers._fourier_basis(n, K)
    x = np.linalg.lstsq(basis, c1.samples - c0.samples, rcond=None)[0].ravel()
    deltas = solvers.FD_STEP * np.maximum(1.0, np.abs(x))
    xs = np.vstack([x, x + np.diag(deltas)])
    starts = make_curve(np.broadcast_to(c0.samples, (len(xs), n, d)))
    (base, *cols), _, _ = solvers._rk4(BESSEL, starts, basis @ xs.reshape(len(xs), basis.shape[1], d), 1.0, steps)
    return np.column_stack([(col - base).ravel() / delta for col, delta in zip(cols, deltas)])


def test_the_half_step_jacobian_at_x0_is_the_full_step_one_to_1e_7():
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        half, full = fd_jacobian(c0, c1, K=2, steps=16), fd_jacobian(c0, c1, K=2, steps=32)
    assert np.linalg.norm(half - full) <= 1e-7 * np.linalg.norm(full)


def test_the_model_jacobian_at_x0_is_the_full_step_one_to_fd_step_truncation():
    # the model's 8 steps move J by no more than FD_STEP's own truncation
    # error, about 5e-7 relative on these inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for index in range(3):
            c0, _, c1 = match_input(0, index)
            model, full = fd_jacobian(c0, c1, K=2, steps=8), fd_jacobian(c0, c1, K=2, steps=32)
            assert np.linalg.norm(model - full) <= 1e-6 * np.linalg.norm(full)


# seeded_match's initial coefficients miss the target by 1.28e-2 relative,
# on 8 steps as on 32; this tolerance takes them
LOOSE = 2e-2

EXITS = {
    # name: (target, geodesic_bvp keywords, recording_runs keywords, converged)
    "converging trial": ("far", {}, {}, True),
    "stalled x0 shot again": ("far", {"max_iter": 1}, {"reject": range(2, 14)}, False),
    "near target": ("near", {}, {}, True),
    # the batch puts x0 on the target, its lone shot on all the steps does not
    "x0 model within tolerance": ("far", {"max_iter": 1}, {"base_end": "target"}, False),
    "x0 within tolerance": ("far", {"tol_rel": LOOSE}, {}, True),
    # the batch puts x0 at the source, every trial is rejected, and x0's
    # lone shot meets the tolerance
    "stalled x0 within tolerance": (
        "far", {"max_iter": 1, "tol_rel": LOOSE}, {"base_end": "source", "reject": range(2, 14)}, True
    ),
}


#: the (members, steps) of every RK4 run on each exit path
EXIT_RUNS = {
    "converging trial": [(11, 8), (1, 8), (1, 32)],
    # the 12 rejected trials stall the model, and x0 is shot on all the steps
    "stalled x0 shot again": [(11, 8)] + [(1, 8)] * 12 + [(1, 32)],
    "near target": [(1, 32)],
    # x0's lone shot misses, so the one trial runs on all the steps and
    # keeps its frames: no run after it
    "x0 model within tolerance": [(11, 8), (1, 32), (1, 32)],
    "x0 within tolerance": [(11, 8), (1, 32)],
    # anchored at the source, the first three trials' linear models meet the
    # loose tolerance
    "stalled x0 within tolerance": [(11, 8)] + [(1, 32)] * 3 + [(1, 8)] * 9 + [(1, 32)],
}


def assert_full_step_verdict(result, c1, tol_rel):
    """The reported residual is the mismatch of the returned path's endpoint,
    a run on all the steps, and it alone decides convergence."""
    n = c1.n
    residual = solvers._l2_norm(result.path.endpoint.samples - c1.samples, n)
    assert result.path.steps == 32
    assert abs(result.residual - residual) <= 1e-12 * residual
    assert result.converged == (result.residual <= tol_rel * solvers._l2_norm(c1.samples, n))


@pytest.mark.parametrize("exit_path", EXITS)
def test_every_exit_reports_the_residual_of_its_path_and_decides_convergence_by_it(monkeypatch, exit_path):
    target, kwargs, patch, converged = EXITS[exit_path]
    c0, c1 = seeded_match()
    if target == "near":
        c1 = near_target(c0)
    base_end = {"target": c1.samples, "source": c0.samples}.get(patch.get("base_end"))
    runs = recording_runs(monkeypatch, base_end, patch.get("reject", ()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32, **kwargs)
        except NoConvergenceError as err:
            result = err.result
        monkeypatch.undo()
        alone = exp_map(BESSEL, c0, result.initial_velocity, T=1.0, steps=32, stride=2)
    assert result.converged == converged
    assert_full_step_verdict(result, c1, kwargs.get("tol_rel", 1e-6))
    assert_same_path(result.path, alone)
    # every batch runs on the model's steps, and every run on all the
    # steps is a lone shot
    assert all(steps == 8 or size == 1 for size, steps in runs)
    assert result.run_steps == tuple(steps for _, steps in runs)
    assert runs == EXIT_RUNS[exit_path]
    if exit_path.startswith("x0"):
        # x0 is shot once more alone, right after its batch
        assert runs[:2] == [(11, 8), (1, 32)]
    if exit_path == "x0 within tolerance":
        assert len(runs) == 2 and result.iterations == result.jacobians == 0
    if exit_path.startswith("stalled"):
        # the 12 rejected trials, then x0 once more alone
        assert len(runs) == 14 and runs[0] == (11, 8) and runs[-1] == (1, 32)


def test_a_new_difference_shoots_only_its_columns_against_the_residual_the_match_holds(monkeypatch):
    # at twice match_n64's scale, the second trial, run 3 on the model, is
    # made to fail under the updated Jacobian. The new difference at the
    # first trial's point, run 4, shoots only the (2K+1)*d = 10 columns;
    # its column 3 is made to fail and is shot again with the step negated,
    # run 5. The trial at the same damping, run 6, is accepted, so its
    # Broyden update starts from the new Jacobian
    c0, _, c1 = match_input(0, 0, s=2.0)
    n = c1.n
    real_rk4, real_broyden = solvers._rk4, solvers._broyden
    runs, updates = [], []

    def failing(cfg, starts, h0s, T, steps, stride=None):
        ends, frames, errors = real_rk4(cfg, starts, h0s, T, steps, stride)
        runs.append((np.array(h0s), steps, list(ends)))
        if len(runs) in (3, 4):
            member = 0 if len(runs) == 3 else 3
            ends[member] = None
            errors[member] = ImmersionError("injected")
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", failing)
    monkeypatch.setattr(solvers, "_broyden", lambda jac, dx, dr: updates.append((jac, dx)) or real_broyden(jac, dx, dr))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    monkeypatch.undo()
    assert [(len(h), steps) for h, steps, _ in runs[:6]] == [(11, 8), (1, 8), (1, 8), (10, 8), (1, 8), (1, 8)]
    assert result.converged and result.jacobians == 2
    assert result.shots == sum(len(h) for h, _, _ in runs)
    # the columns step the first trial's point by +delta, the retry by -delta
    point, columns, retry = runs[1][0][0], runs[3][0], runs[4][0]
    assert np.max(np.abs(retry[0] - (2.0 * point - columns[3]))) <= 1e-12
    # the same Jacobian, bitwise, from a fresh base shot at that point in
    # one batch with the columns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ends, _, _ = real_rk4(BESSEL, make_curve(np.broadcast_to(c0.samples, (11, n, 2))),
                              np.vstack([point[None], columns]), 1.0, 8)
    assert np.array_equal(ends[0], runs[1][2][0])
    ends[1 + 3] = runs[4][2][0]
    basis = solvers._fourier_basis(n, 2)
    x0 = np.linalg.lstsq(basis, c1.samples - c0.samples, rcond=None)[0].ravel()
    deltas = solvers.FD_STEP * np.maximum(1.0, np.abs(x0 + updates[0][1]))
    deltas[3] = -deltas[3]
    base, *cols = [(end - c1.samples).ravel() * np.sqrt(TWO_PI / n) for end in ends]
    fresh = np.column_stack([(col - base) / delta for col, delta in zip(cols, deltas)])
    assert np.array_equal(updates[1][0], fresh)


def test_a_half_step_trial_within_tolerance_is_shot_again_and_a_miss_goes_on_from_the_full_step_residual(monkeypatch):
    # the first trial, run 2 on the model's steps, is made to end on the
    # target; its lone shot on all the steps, run 3, misses, and the next
    # Broyden update starts from that shot's residual, not from the model's 0
    c0, c1 = seeded_match()
    real_rk4, real_broyden = solvers._rk4, solvers._broyden
    runs, ends_seen, updates = [], [], []

    def recording(cfg, starts, h0s, T, steps, stride=None):
        ends, frames, errors = real_rk4(cfg, starts, h0s, T, steps, stride)
        runs.append((len(h0s), steps, np.array(h0s[0])))
        if len(runs) == 2:
            ends[0] = c1.samples
        ends_seen.append(ends[0])
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", recording)
    monkeypatch.setattr(solvers, "_broyden", lambda jac, dx, dr: updates.append(dr) or real_broyden(jac, dx, dr))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
        monkeypatch.undo()
        alone = exp_map(BESSEL, c0, result.initial_velocity, T=1.0, steps=32, stride=2)
    assert [(size, steps) for size, steps, _ in runs[:3]] == [(11, 8), (1, 8), (1, 32)]
    # the lone shot is the accepted trial's velocity
    assert np.array_equal(runs[2][2], runs[1][2])
    assert result.run_steps[:3] == (8, 8, 32)
    scale = np.sqrt(TWO_PI / c1.n)
    r_full = (ends_seen[2] - c1.samples).ravel() * scale
    assert np.linalg.norm(r_full) > 1e-6 * solvers._l2_norm(c1.samples, c1.n)
    # dr = r_new - r of the second update, whose r_new is run 4's residual
    r_new = (ends_seen[3] - c1.samples).ravel() * scale
    assert np.max(np.abs((r_new - updates[1]) - r_full)) <= 1e-12 * np.max(np.abs(r_full))
    assert result.converged and result.iterations >= 2
    assert_full_step_verdict(result, c1, 1e-6)
    assert_same_path(result.path, alone)


def test_the_half_and_full_step_residuals_at_the_seeded_answer_differ_by_a_hundredth_of_the_tolerance():
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
        half = exp_map(BESSEL, c0, res.initial_velocity, T=1.0, steps=16, stride=16)
    tol_abs = 1e-6 * solvers._l2_norm(c1.samples, c1.n)
    gap = solvers._l2_norm(half.endpoint.samples - res.path.endpoint.samples, c1.n)
    assert gap <= 1e-2 * tol_abs


def test_at_s_2_the_model_residual_at_the_true_velocity_misses_the_full_step_one_by_the_tolerance():
    # why a model residual decides nothing: at twice match_n64's scale the
    # model's endpoint at the exact answer lies outside the tolerance (by
    # 6.9 times it here)
    c0, h_true, c1 = match_input(0, 1, s=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ends, _, _ = solvers._rk4(BESSEL, make_curve(c0.samples[None]), h_true[None], 1.0, 8)
    tol_abs = 1e-6 * solvers._l2_norm(c1.samples, c1.n)
    assert solvers._l2_norm(ends[0] - c1.samples, c1.n) > tol_abs


def step_counts_of_residuals(monkeypatch, c1):
    """Record the step count of every residual a shot returns, by value."""
    real = solvers._rk4
    seen = []

    def recording(cfg, starts, h0s, T, steps, stride=None):
        ends, frames, errors = real(cfg, starts, h0s, T, steps, stride)
        for end in ends:
            if end is not None:
                seen.append(((end - c1.samples).ravel() * np.sqrt(TWO_PI / c1.n), steps))
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", recording)

    def steps_of(r):
        [count] = {steps for seen_r, steps in seen if np.array_equal(seen_r, r)}
        return count

    return steps_of


@pytest.mark.parametrize("index, s", [(0, 0.5), (1, 2.0), (3, 3.0)])
def test_no_secant_or_accept_test_mixes_step_counts(monkeypatch, index, s):
    c0, _, c1 = match_input(0, index, s=s)
    steps_of = step_counts_of_residuals(monkeypatch, c1)
    real_improves, real_broyden = solvers._improves, solvers._broyden
    tests, secants = [], []

    def improves(r_new, r):
        verdict = real_improves(r_new, r)
        if r_new is not None:
            tests.append((steps_of(r_new), steps_of(r)))
        if verdict:
            last[:] = [r_new, r]
        return verdict

    def broyden(jac, dx, dr):
        r_new, r = last
        # the secant takes the residual change of the accept test just made
        assert np.array_equal(dr, r_new - r)
        secants.append((steps_of(r_new), steps_of(r)))
        return real_broyden(jac, dx, dr)

    last = []
    monkeypatch.setattr(solvers, "_improves", improves)
    monkeypatch.setattr(solvers, "_broyden", broyden)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert res.converged
    assert tests and secants
    assert all(a == b for a, b in tests + secants)
    if s > 1.0:
        # these matches go on to full steps after the model
        assert (32, 32) in tests and (8, 8) in tests


@pytest.mark.parametrize("index", [1, 3])
def test_s_2_inputs_that_stalled_on_mixed_step_counts_converge_to_the_true_velocity(index):
    # at twice match_n64's scale these inputs stalled when trials were
    # accepted against residuals of another step count
    c0, h_true, c1 = match_input(0, index, s=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
        alone = exp_map(BESSEL, c0, res.initial_velocity, T=1.0, steps=32, stride=2)
    assert res.converged
    assert_full_step_verdict(res, c1, 1e-6)
    assert_same_path(res.path, alone)
    assert np.linalg.norm(res.initial_velocity - h_true) <= 1e-4 * np.linalg.norm(h_true)


@pytest.mark.parametrize("index", [3, 4])
def test_s_3_starts_that_leave_the_immersion_set_are_halved_and_converge(monkeypatch, index):
    # x0's own shot fails (input 4) or blows up on the model's steps
    # (input 3); from x0 / 2 both matches converge
    c0, h_true, c1 = match_input(0, index, s=3.0)
    runs = recording_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
        monkeypatch.undo()
        alone = exp_map(BESSEL, c0, res.initial_velocity, T=1.0, steps=32, stride=2)
    assert runs[:2] == [(11, 8), (11, 8)]
    assert res.converged
    assert_full_step_verdict(res, c1, 1e-6)
    assert_same_path(res.path, alone)
    assert np.linalg.norm(res.initial_velocity - h_true) <= 1e-4 * np.linalg.norm(h_true)


@pytest.mark.parametrize("n", [64, 256])
def test_each_path_of_a_batch_of_geodesics_is_its_own_exp_map(n):
    rng = np.random.default_rng(n)
    samples = np.stack([random_curve_samples(rng, n=n, amplitude=0.10) for _ in range(3)])
    h0s = np.stack([0.3 * random_field(rng, n, modes=3) for _ in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        paths = solvers._geodesics(BESSEL, make_curve(samples), h0s, T=0.5, steps=16, stride=4)
        assert len(paths) == 3
        for path, s, h0 in zip(paths, samples, h0s):
            assert (path.scheme, path.steps) == ("rk4", 16)
            assert_same_path(path, exp_map(BESSEL, make_curve(s), h0, T=0.5, steps=16, stride=4))


def test_a_batch_of_geodesics_raises_the_error_of_its_first_failing_member():
    # member 2 pinches off before member 1 stops; the batch raises member 1's error
    n = 64
    theta = grid(n)
    pinch = np.column_stack([-32.0 * np.cos(theta), np.zeros(n)])
    h0s = np.stack([0.2 * random_field(np.random.default_rng(3), n, modes=3), 4.0 * pinch, pinch])
    alone = []
    for h0 in h0s[1:]:
        with pytest.raises(ImmersionError) as err:
            exp_map(BESSEL, make_curve(circle(n)), h0, T=1.0, steps=16, stride=16)
        alone.append(str(err.value))
    assert alone[0] != alone[1]
    with pytest.raises(ImmersionError) as batch:
        solvers._geodesics(BESSEL, make_curve(np.stack([circle(n)] * 3)), h0s, T=1.0, steps=16, stride=16)
    assert str(batch.value) == alone[0]


def test_exp_map_spray_refuses_a_batch_of_curves(monkeypatch):
    pair = make_curve(np.stack([circle(32), 1.1 * circle(32)]))
    staged, real = [], solvers.spray
    monkeypatch.setattr(solvers, "spray", lambda *a, **k: staged.append(a) or real(*a, **k))
    with pytest.raises(GridError, match="not a batch"):
        solvers.exp_map_spray(BESSEL, pair, np.zeros((2, 32, 2)), steps=16)
    assert staged == []
