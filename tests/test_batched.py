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


def sequential_bvp(cfg, c0, c1, K, steps, T=1.0, max_iter=50, tol_rel=1e-6, damping=1e-3, fd_step=1e-6):
    """The shooting loop with one exp_map per Jacobian column, as reference:
    the Jacobian differenced on half the steps against a base shot on as
    many, which is the anchor at x0; trials on steps; Broyden updates after
    accepted steps, a new difference after a step rejected under an updated
    Jacobian."""
    n, d = c0.n, c0.dim
    basis = solvers._fourier_basis(n, K)
    n_coef = basis.shape[1]
    tol_abs = tol_rel * max(float(np.linalg.norm(c1.samples)) * np.sqrt(TWO_PI / n), 1e-300)
    half = max(MIN_STEPS, steps // 2)

    def shoot(x, run_steps=steps):
        try:
            path = exp_map(cfg, c0, basis @ x.reshape(n_coef, d), T=T, steps=run_steps, stride=run_steps)
        except (ImmersionError, StepError):
            return None
        return (path.endpoint.samples - c1.samples).ravel() * np.sqrt(TWO_PI / n)

    def jacobian(x):
        base = shoot(x, half)
        jac = np.empty((base.size, x.size))
        for j in range(x.size):
            delta = fd_step * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += delta
            rp = shoot(xp, half)
            if rp is None:
                xp[j] = x[j] - delta
                rp = shoot(xp, half)
                delta = -delta
            jac[:, j] = 0.0 if rp is None else (rp - base) / delta
        return jac

    coef0, *_ = np.linalg.lstsq(basis, (c1.samples - c0.samples) / T, rcond=None)
    x = coef0.ravel()
    r = shoot(x, half)
    best = (float(np.linalg.norm(r)), x.copy())
    jac, updated = jacobian(x), False
    lam = damping
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        accepted = False
        for _ in range(12):
            jtj = jac.T @ jac
            diag = np.diag(jtj).copy()
            diag[diag <= 0] = 1.0
            dx = np.linalg.solve(jtj + lam * np.diag(diag), -(jac.T @ r))
            r_new = shoot(x + dx)
            if r_new is not None and np.linalg.norm(r_new) < np.linalg.norm(r):
                jac, updated = jac + np.outer(r_new - r - jac @ dx, dx) / (dx @ dx), True
                x, r = x + dx, r_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            if updated:
                jac, updated = jacobian(x), False
            else:
                lam *= 10.0
        norm_r = float(np.linalg.norm(r))
        if norm_r < best[0]:
            best = (norm_r, x.copy())
        if norm_r <= tol_abs:
            return basis @ x.reshape(n_coef, d), norm_r, iterations, True
        if not accepted:
            break
    return basis @ best[1].reshape(n_coef, d), best[0], iterations, False


def seeded_match(seed=0, n=64, K=2, steps=32):
    rng = np.random.default_rng(seed)
    c0 = make_curve(random_curve_samples(rng, n=n, amplitude=0.10))
    h_true = 0.5 * random_field(rng, n, modes=2)
    c1 = exp_map(BESSEL, c0, h_true, T=1.0, steps=steps, stride=steps).endpoint
    return c0, c1


def test_batched_columns_reproduce_the_sequential_column_loop():
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        velocity, residual, iterations, converged = sequential_bvp(BESSEL, c0, c1, K=2, steps=32)
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert converged and res.converged
    assert res.iterations == iterations
    assert abs(res.residual - residual) <= 1e-10 * residual
    assert rel_gap(res.initial_velocity, velocity) <= 1e-10


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


def lone_shot_bvp(cfg, c0, c1, K, steps, T=1.0, max_iter=50, tol_rel=1e-6, damping=1e-3, fd_step=1e-6):
    """The shooting loop whose initial shot and trial shots run alone without
    frames, whose first Jacobian's columns run as their own batch, and whose
    presented path is one more exp_map run, as reference: the initial shot
    and every Jacobian on half the steps, a new difference shooting its
    base in its own batch; trials on steps; Broyden updates after accepted
    steps, a new difference after a step rejected under an updated
    Jacobian."""
    n, d = c0.n, c0.dim
    basis = solvers._fourier_basis(n, K)
    n_coef = basis.shape[1]
    tol_abs = tol_rel * max(float(np.linalg.norm(c1.samples)) * np.sqrt(TWO_PI / n), 1e-300)
    out_stride = max(1, steps // 16)
    half = max(MIN_STEPS, steps // 2)
    lams = []

    def shoot(xs, run_steps=steps):
        starts = make_curve(np.broadcast_to(c0.samples, (len(xs), n, d)))
        ends, _, _ = solvers._rk4(cfg, starts, basis @ xs.reshape(len(xs), n_coef, d), T, run_steps)
        return [None if end is None else (end - c1.samples).ravel() * np.sqrt(TWO_PI / n) for end in ends]

    def jacobian(x, base=None):
        deltas = fd_step * np.maximum(1.0, np.abs(x))
        probes = np.diag(deltas)
        if base is None:
            base, *cols = shoot(np.vstack([x, x + probes]), half)
        else:
            cols = shoot(x + probes, half)
        retry = [j for j, rp in enumerate(cols) if rp is None]
        if retry:
            for j, rp in zip(retry, shoot(x - probes[retry], half)):
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
    [r] = shoot(x[None], half)
    best = (float(np.linalg.norm(r)), x.copy())
    jac, updated = jacobian(x, r), False
    lam = damping
    while iterations < max_iter:
        iterations += 1
        accepted = False
        for _ in range(12):
            jtj = jac.T @ jac
            diag = np.diag(jtj).copy()
            diag[diag <= 0] = 1.0
            dx = np.linalg.solve(jtj + lam * np.diag(diag), -(jac.T @ r))
            lams.append(lam)
            [r_new] = shoot((x + dx)[None])
            if r_new is not None and np.linalg.norm(r_new) < np.linalg.norm(r):
                jac, updated = jac + np.outer(r_new - r - jac @ dx, dx) / (dx @ dx), True
                x, r = x + dx, r_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            if updated:
                jac, updated = jacobian(x), False
            else:
                lam *= 10.0
        norm_r = float(np.linalg.norm(r))
        if norm_r < best[0]:
            best = (norm_r, x.copy())
        if norm_r <= tol_abs:
            return finish(x, norm_r, True)
        if not accepted:
            break
    return finish(best[1], best[0], False)


def assert_same_path(path, ref):
    assert len(path.frames) == len(ref.frames)
    for f, g in zip(path.frames, ref.frames):
        assert f.t == g.t
        assert np.array_equal(f.curve.samples, g.curve.samples)
        assert np.array_equal(f.velocity, g.velocity)
        assert np.array_equal(f.momentum, g.momentum)


def recording_rk4(monkeypatch, reject_call=None):
    """Record the initial velocities of every RK4 run; the run numbered
    reject_call loses its first member, as a rejected trial shot."""
    real = solvers._rk4
    calls = []

    def recording(cfg, starts, h0s, *args, **kwargs):
        calls.append(np.array(h0s).reshape(-1, starts.n, starts.dim))
        ends, frames, errors = real(cfg, starts, h0s, *args, **kwargs)
        if len(calls) == reject_call:
            ends[0] = None
            errors[0] = ImmersionError("injected")
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", recording)
    return calls


@pytest.mark.parametrize("reject_second_trial", [False, True])
def test_broyden_updates_reproduce_the_lone_shot_loop(monkeypatch, reject_second_trial):
    # run 1 of geodesic_bvp is the initial shot with the 10 Jacobian
    # columns on half the steps, runs 1 and 2 of the reference; the second
    # trial is run 3 there and run 4 here
    c0, c1 = seeded_match()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref_calls = recording_rk4(monkeypatch, 4 if reject_second_trial else None)
        ref = lone_shot_bvp(BESSEL, c0, c1, K=2, steps=32)
        monkeypatch.undo()
        calls = recording_rk4(monkeypatch, 3 if reject_second_trial else None)
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
        # difference again at the same point and retry at the same damping
        assert sizes[:5] == [11, 1, 1, 11, 1]
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
    assert res.converged and len(updates) == res.iterations == 2
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
    # run alone; when all are rejected the best velocity is the initial one
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
    with pytest.raises(ImmersionError, match="returned velocity"):
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


@pytest.mark.parametrize("target, runs", [("far", [11]), ("near", [1])])
def test_a_failing_initial_shot_raises_the_same_error_alone_or_in_a_batch(monkeypatch, target, runs):
    c0, c1 = seeded_match()
    if target == "near":
        c1 = near_target(c0)
    calls = recording_rk4(monkeypatch, reject_call=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ImmersionError) as err:
            geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert str(err.value) == "the initial shot already leaves the immersion set"
    assert [len(h) for h in calls] == runs


def recording_runs(monkeypatch, base_end=None, reject=()):
    """Record (members, steps) of every RK4 run. A batch's base shot, its
    first member, ends at base_end when that is given; the runs numbered in
    reject lose their first member, as rejected trial shots."""
    real = solvers._rk4
    runs = []

    def recording(cfg, starts, h0s, T, steps, *args, **kwargs):
        runs.append((len(h0s), steps))
        ends, frames, errors = real(cfg, starts, h0s, T, steps, *args, **kwargs)
        if base_end is not None and len(h0s) > 1:
            ends[0] = base_end
        if len(runs) in reject:
            ends[0] = None
            errors[0] = ImmersionError("injected")
        return ends, frames, errors

    monkeypatch.setattr(solvers, "_rk4", recording)
    return runs


def test_the_jacobian_batch_runs_on_half_the_steps_and_the_trials_on_all(monkeypatch):
    c0, c1 = seeded_match()
    runs = recording_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    assert res.converged
    assert [steps for _, steps in runs] == [16, 32, 32]


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


# seeded_match's initial coefficients miss the target by 1.28e-2 relative,
# on 16 steps as on 32; this tolerance takes them
LOOSE = 2e-2

EXITS = {
    # name: (target, geodesic_bvp keywords, recording_runs keywords, converged)
    "converging trial": ("far", {}, {}, True),
    "stalled x0 shot again": ("far", {"max_iter": 1}, {"reject": range(2, 14)}, False),
    "near target": ("near", {}, {}, True),
    # the batch puts x0 on the target, its lone shot on all the steps does not
    "x0 half-step within tolerance": ("far", {"max_iter": 1}, {"base_end": "target"}, False),
    "x0 within tolerance": ("far", {"tol_rel": LOOSE}, {}, True),
    # the batch puts x0 at the source, every trial is rejected, and x0's
    # lone shot meets the tolerance
    "stalled x0 within tolerance": (
        "far", {"max_iter": 1, "tol_rel": LOOSE}, {"base_end": "source", "reject": range(2, 14)}, True
    ),
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
    # only the Jacobian batches run on half the steps
    assert all(steps == (16 if size > 1 else 32) for size, steps in runs)
    if exit_path.startswith("x0"):
        # x0 is shot once more alone, right after its batch
        assert runs[:2] == [(11, 16), (1, 32)]
    if exit_path == "x0 within tolerance":
        assert len(runs) == 2 and result.iterations == result.jacobians == 0
    if exit_path.startswith("stalled"):
        # the 12 rejected trials, then x0 once more alone
        assert runs == [(11, 16)] + [(1, 32)] * 13


def test_a_jacobian_whose_base_shot_fails_stalls_the_match_at_its_best_point(monkeypatch):
    # the second trial, run 3, is rejected under the updated Jacobian; the
    # base shot of the new difference, run 4, fails
    c0, c1 = seeded_match()
    runs = recording_runs(monkeypatch, reject=(3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NoConvergenceError) as err:
            geodesic_bvp(BESSEL, c0, c1, K=2, steps=32)
    result = err.value.result
    # the best point is the first trial, whose frames are the path: no run follows
    assert runs == [(11, 16), (1, 32), (1, 32), (11, 16)]
    assert result.iterations == 2 and result.jacobians == 2
    assert result.shots == sum(size for size, _ in runs)
    assert_full_step_verdict(result, c1, 1e-6)


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
